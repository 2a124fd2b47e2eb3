//! Cluster and power specifications.

use serde::{Deserialize, Serialize};

/// CPU frequency level of one frequency domain.
///
/// Every running job's gang is its own frequency domain, starting at
/// [`FreqLevel::Base`] and switched by
/// [`ClusterSim::set_job_frequency`](crate::ClusterSim::set_job_frequency),
/// so a high-priority job can sprint while its neighbours stay at base. The
/// paper's implementation sprints the whole cluster at once ("our current
/// approach sprints all available cores at the same time"): one job holding
/// every slot, switched by that same call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum FreqLevel {
    /// The base (low) frequency — the paper's 800 MHz setting.
    #[default]
    Base,
    /// The sprint (high) frequency — the paper's 2.4 GHz setting.
    Sprint,
}

/// Power draw model of one server, per frequency level.
///
/// The paper's measurements: 180 W per server at 800 MHz rising to 270 W at 2.4 GHz
/// (a 1.5× increase) under load.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Draw of an idle server (W).
    pub idle_w: f64,
    /// Draw of a fully busy server at base frequency (W).
    pub active_w: f64,
    /// Draw of a fully busy server at sprint frequency (W).
    pub sprint_w: f64,
}

impl PowerModel {
    /// The paper's measured values: 180 W base, 270 W sprinting, with a typical
    /// idle floor of 90 W.
    #[must_use]
    pub fn paper_reference() -> Self {
        PowerModel {
            idle_w: 90.0,
            active_w: 180.0,
            sprint_w: 270.0,
        }
    }

    /// Active draw at a frequency level (fully busy server).
    #[must_use]
    pub fn active_at(&self, freq: FreqLevel) -> f64 {
        match freq {
            FreqLevel::Base => self.active_w,
            FreqLevel::Sprint => self.sprint_w,
        }
    }
}

/// Cluster topology and speed parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Number of worker servers.
    pub workers: usize,
    /// Cores (computing slots) per worker; total slots = `workers × cores_per_worker`.
    pub cores_per_worker: usize,
    /// Base CPU frequency in GHz (informational; speed is normalized to 1).
    pub base_freq_ghz: f64,
    /// Sprint CPU frequency in GHz.
    pub sprint_freq_ghz: f64,
    /// Effective task speedup while sprinting. The paper observes that sprinting
    /// "reduces the execution time of high priority jobs by up to 60%", i.e. a
    /// speedup of ≈ 2.5 — sub-linear in the 3× frequency step because tasks are not
    /// purely CPU-bound.
    pub sprint_speedup: f64,
    /// Per-server power model.
    pub power: PowerModel,
}

impl ClusterSpec {
    /// The paper's testbed: 10 workers × 2 cores (20 slots), 800 MHz base,
    /// 2.4 GHz sprint with an effective 2.5× speedup.
    #[must_use]
    pub fn paper_reference() -> Self {
        ClusterSpec {
            workers: 10,
            cores_per_worker: 2,
            base_freq_ghz: 0.8,
            sprint_freq_ghz: 2.4,
            sprint_speedup: 2.5,
            power: PowerModel::paper_reference(),
        }
    }

    /// Total computing slots `C`.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.workers * self.cores_per_worker
    }

    /// Execution speed multiplier at a frequency level (base = 1).
    #[must_use]
    pub fn speed_at(&self, freq: FreqLevel) -> f64 {
        match freq {
            FreqLevel::Base => 1.0,
            FreqLevel::Sprint => self.sprint_speedup,
        }
    }

    /// Cluster-wide power draw (W) with `busy_slots` slots busy at level `freq`.
    ///
    /// Servers draw the idle floor plus a per-slot share of the active delta —
    /// a linear utilization model.
    #[must_use]
    pub fn cluster_power_w(&self, busy_slots: usize, freq: FreqLevel) -> f64 {
        let idle_total = self.workers as f64 * self.power.idle_w;
        idle_total + busy_slots as f64 * self.active_slot_power_w(freq)
    }

    /// Active power draw (W) one busy slot adds on top of the idle floor at
    /// level `freq` — the rate per-job energy attribution is charged at:
    /// `cluster_power_w(n, f) = cluster_power_w(0, Base) + n × active_slot_power_w(f)`.
    #[must_use]
    pub fn active_slot_power_w(&self, freq: FreqLevel) -> f64 {
        (self.power.active_at(freq) - self.power.idle_w) / self.cores_per_worker as f64
    }

    /// Extra power draw (W) of sprinting the whole busy cluster versus base
    /// frequency — the constant drain rate the *cluster-global* sprint budget
    /// is charged at (the paper's hardware sprints all cores together).
    #[must_use]
    pub fn sprint_extra_power_w(&self) -> f64 {
        self.workers as f64 * (self.power.sprint_w - self.power.active_w)
    }

    /// Extra power draw (W) one busy slot adds when its frequency domain
    /// sprints versus base — the per-slot rate a *per-gang* sprint budget is
    /// charged at:
    /// `active_slot_power_w(Sprint) = active_slot_power_w(Base) + sprint_extra_slot_power_w()`.
    #[must_use]
    pub fn sprint_extra_slot_power_w(&self) -> f64 {
        (self.power.sprint_w - self.power.active_w) / self.cores_per_worker as f64
    }

    /// Validates the specification.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers == 0 || self.cores_per_worker == 0 {
            return Err("cluster needs at least one worker and one core".into());
        }
        if self.sprint_speedup <= 1.0 {
            return Err(format!(
                "sprint_speedup must exceed 1, got {}",
                self.sprint_speedup
            ));
        }
        if self.power.idle_w < 0.0
            || self.power.active_w < self.power.idle_w
            || self.power.sprint_w < self.power.active_w
        {
            return Err("power model must satisfy 0 <= idle <= active <= sprint".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_reference_has_twenty_slots() {
        let c = ClusterSpec::paper_reference();
        assert_eq!(c.slots(), 20);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn speed_factors() {
        let c = ClusterSpec::paper_reference();
        assert_eq!(c.speed_at(FreqLevel::Base), 1.0);
        assert_eq!(c.speed_at(FreqLevel::Sprint), 2.5);
    }

    #[test]
    fn power_is_monotone_in_busy_slots() {
        let c = ClusterSpec::paper_reference();
        let idle = c.cluster_power_w(0, FreqLevel::Base);
        let half = c.cluster_power_w(10, FreqLevel::Base);
        let full = c.cluster_power_w(20, FreqLevel::Base);
        assert!(idle < half && half < full);
        // Fully busy at base = workers * active_w.
        assert!((full - 10.0 * 180.0).abs() < 1e-9);
        // Sprinting draws 1.5x at full load.
        assert!((c.cluster_power_w(20, FreqLevel::Sprint) - 2700.0).abs() < 1e-9);
    }

    #[test]
    fn sprint_extra_power_matches_paper() {
        let c = ClusterSpec::paper_reference();
        // 10 servers * (270-180) W = 900 W.
        assert!((c.sprint_extra_power_w() - 900.0).abs() < 1e-9);
        // Per slot: (270-180)/2 = 45 W; all 20 slots sprinting = the global rate.
        assert!((c.sprint_extra_slot_power_w() - 45.0).abs() < 1e-9);
        assert!(
            (c.sprint_extra_slot_power_w() * c.slots() as f64 - c.sprint_extra_power_w()).abs()
                < 1e-9
        );
        // The per-slot active rates differ by exactly the sprint extra.
        assert!(
            (c.active_slot_power_w(FreqLevel::Sprint)
                - c.active_slot_power_w(FreqLevel::Base)
                - c.sprint_extra_slot_power_w())
            .abs()
                < 1e-12
        );
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut c = ClusterSpec::paper_reference();
        c.workers = 0;
        assert!(c.validate().is_err());
        let mut c = ClusterSpec::paper_reference();
        c.sprint_speedup = 1.0;
        assert!(c.validate().is_err());
        let mut c = ClusterSpec::paper_reference();
        c.power.sprint_w = 100.0;
        assert!(c.validate().is_err());
    }
}
