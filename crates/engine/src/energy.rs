//! Energy metering: integrating the cluster power model over simulated time,
//! with per-job attribution of the active (above-idle) energy under per-job
//! frequency domains.

use serde::{Deserialize, Serialize};

use dias_des::stats::TimeWeighted;
use dias_des::SimTime;

use crate::{ClusterSpec, FreqLevel, JobId};

/// Energy and slot-time attributed to one job.
///
/// A job is charged the *active* power its busy slots add on top of the
/// cluster's idle floor ([`ClusterSpec::active_slot_power_w`]) at its own
/// frequency domain's level; the floor itself is a cluster-level cost no job
/// owns. Because the cluster power model is linear in busy slots — the total
/// draw *is* the idle floor plus the sum of every domain's busy slots at that
/// domain's rate — the attribution is lossless:
///
/// ```text
/// EnergyMeter::energy_joules(t) = idle_floor × t + Σ_jobs active_joules
/// ```
///
/// holds under exact arithmetic (and is asserted with `==`, not an epsilon,
/// over dyadic-rational inputs in `crates/engine/tests/gang_properties.rs`,
/// including runs where concurrent jobs sit at *different* frequency levels).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct JobEnergy {
    /// Above-idle energy the job's busy slots consumed, in joules.
    pub active_joules: f64,
    /// Busy slot-seconds of the job (one slot busy for one second = 1.0).
    pub busy_slot_secs: f64,
    /// The subset of `busy_slot_secs` spent at sprint frequency.
    pub sprint_slot_secs: f64,
}

/// Running attribution state for one active job: its busy-slot count and the
/// frequency level of its domain, both piecewise-constant between updates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct JobLedger {
    job: JobId,
    last: SimTime,
    busy: usize,
    freq: FreqLevel,
    energy: JobEnergy,
}

impl JobLedger {
    /// Accrues the segment `[self.last, now)` at the ledger's current level.
    /// `slot_w` is [`EnergyMeter`]'s per-level slot draw.
    fn accrue(&mut self, now: SimTime, slot_w: &[f64; 2]) {
        let dt = now - self.last;
        let slot_secs = self.busy as f64 * dt;
        self.energy.busy_slot_secs += slot_secs;
        self.energy.active_joules += slot_secs * slot_w[level(self.freq)];
        if self.freq == FreqLevel::Sprint {
            self.energy.sprint_slot_secs += slot_secs;
        }
        self.last = now;
    }
}

/// Integrates cluster power draw over time as busy slots and per-domain
/// frequencies change, and attributes the active share to individual jobs.
///
/// The cluster-level integral ([`EnergyMeter::energy_joules`]) is *derived*
/// from the per-job ledgers: at every change the meter re-evaluates
/// `idle_floor + Σ_jobs busy_j × active_slot_power_w(freq_j)` — with every
/// domain at the same level this reproduces the historical
/// [`ClusterSpec::cluster_power_w`] trace bit for bit (the golden traces in
/// `crates/engine/tests/golden_trace.rs` pin it), and with heterogeneous
/// domains it is the only formula that keeps the attribution lossless.
///
/// The engine's updates cost O(1) however many jobs run: it meters each run
/// in the ledger slot of the run's own table key, and the sum is kept as one
/// busy-slot count per frequency level, so it reads `idle + busy_base ×
/// rate_base + busy_sprint × rate_sprint`. Grouping the terms by level
/// changes no bit whenever the products and partial sums are exact, as they
/// are for the paper's integer wattages. Only the engine writes the
/// ledgers; the public calls read or drain them, and the reads by job id
/// search the ledgers — they serve end-of-run books and tests, not the
/// event path.
///
/// # Examples
///
/// ```
/// use dias_engine::{ClusterSpec, EnergyMeter};
/// use dias_des::SimTime;
///
/// let spec = ClusterSpec::paper_reference();
/// let meter = EnergyMeter::new(&spec, SimTime::ZERO);
/// // 10 s fully idle at 10 × 90 W = 9 kJ (no updates needed while idle).
/// assert!((meter.energy_joules(SimTime::from_secs(10.0)) - 9_000.0).abs() < 1e-6);
/// assert_eq!(meter.busy_slots(), 0);
/// ```
///
/// The engine's own meter ([`ClusterSim::meter`](crate::ClusterSim::meter))
/// attributes each run's busy slots to its job; see the crate-level example.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyMeter {
    /// The cluster's draw with every slot idle.
    idle_w: f64,
    /// The draw one busy slot adds, per level (`[base, sprint]`), derived
    /// once: every event that changes a job's busy slots reads it.
    slot_w: [f64; 2],
    power: TimeWeighted,
    /// Ledgers of the metered jobs by slot (`None` marks a free slot). A
    /// ledger keeps its slot until the job retires.
    ledgers: Vec<Option<JobLedger>>,
    /// Busy slots summed over the ledgers, per level (`[base, sprint]`).
    busy: [usize; 2],
    finished: Vec<(JobId, JobEnergy)>,
}

/// Index of `freq` in [`EnergyMeter`]'s per-level busy counts.
fn level(freq: FreqLevel) -> usize {
    match freq {
        FreqLevel::Base => 0,
        FreqLevel::Sprint => 1,
    }
}

impl EnergyMeter {
    /// Starts metering an idle cluster at `start`.
    #[must_use]
    pub fn new(spec: &ClusterSpec, start: SimTime) -> Self {
        let idle_w = spec.cluster_power_w(0, FreqLevel::Base);
        EnergyMeter {
            idle_w,
            slot_w: [
                spec.active_slot_power_w(FreqLevel::Base),
                spec.active_slot_power_w(FreqLevel::Sprint),
            ],
            power: TimeWeighted::new(start, idle_w),
            ledgers: Vec::new(),
            busy: [0, 0],
            finished: Vec::new(),
        }
    }

    /// Re-evaluates the cluster power at `now`: the idle floor plus every
    /// busy slot at its domain's rate.
    fn sync_power(&mut self, now: SimTime) {
        let [base, sprint] = self.busy;
        let p = self.idle_w + base as f64 * self.slot_w[0] + sprint as f64 * self.slot_w[1];
        self.power.set(now, p);
    }

    /// Slot of `job`'s ledger, if it is metered.
    fn slot_of(&self, job: JobId) -> Option<usize> {
        self.ledgers
            .iter()
            .position(|l| l.as_ref().is_some_and(|l| l.job == job))
    }

    /// Records that `job`, metered in ledger `slot`, occupies `busy` slots at
    /// level `freq` from `now` on, accruing its segment up to `now` at its
    /// *previous* state first. A free slot opens a fresh ledger. The cluster
    /// power integral is re-synced to the new ledger state.
    pub(crate) fn update_ledger(
        &mut self,
        now: SimTime,
        slot: usize,
        job: JobId,
        busy: usize,
        freq: FreqLevel,
    ) {
        if slot >= self.ledgers.len() {
            self.ledgers.resize_with(slot + 1, || None);
        }
        match &mut self.ledgers[slot] {
            Some(ledger) => {
                debug_assert_eq!(ledger.job, job, "ledger slot holds another job");
                ledger.accrue(now, &self.slot_w);
                self.busy[level(ledger.freq)] -= ledger.busy;
                ledger.busy = busy;
                ledger.freq = freq;
            }
            free @ None => {
                *free = Some(JobLedger {
                    job,
                    last: now,
                    busy,
                    freq,
                    energy: JobEnergy::default(),
                });
            }
        }
        self.busy[level(freq)] += busy;
        self.sync_power(now);
    }

    /// Finalizes the attribution of the job metered in ledger `slot` at `now`
    /// and moves it to the finished list; the slot becomes free and the
    /// cluster power integral is re-synced without the retired job.
    pub(crate) fn retire_ledger(&mut self, now: SimTime, slot: usize) -> JobEnergy {
        let mut ledger = self.ledgers[slot].take().expect("ledger slot is live");
        self.busy[level(ledger.freq)] -= ledger.busy;
        ledger.accrue(now, &self.slot_w);
        self.finished.push((ledger.job, ledger.energy));
        self.sync_power(now);
        ledger.energy
    }

    /// Attribution of `job` as of `now`: still-running jobs include their
    /// in-flight segment, finished jobs report their final totals (the most
    /// recent attempt wins if an id was retired twice).
    #[must_use]
    pub fn job_energy(&self, job: JobId, now: SimTime) -> Option<JobEnergy> {
        if let Some(slot) = self.slot_of(job) {
            let mut l = self.ledgers[slot].clone().expect("found ledger is live");
            l.accrue(now, &self.slot_w);
            return Some(l.energy);
        }
        self.finished
            .iter()
            .rev()
            .find(|(j, _)| *j == job)
            .map(|(_, e)| *e)
    }

    /// Finalized per-job attributions, in retirement order.
    #[must_use]
    pub fn finished_jobs(&self) -> &[(JobId, JobEnergy)] {
        &self.finished
    }

    /// Drains the finalized attributions (keeps long-running drivers'
    /// memory flat: harvest each job as it completes).
    pub fn take_finished(&mut self) -> Vec<(JobId, JobEnergy)> {
        std::mem::take(&mut self.finished)
    }

    /// Current power draw in watts.
    #[must_use]
    pub fn power_w(&self) -> f64 {
        self.power.value()
    }

    /// Total energy consumed from start until `now`, in joules.
    #[must_use]
    pub fn energy_joules(&self, now: SimTime) -> f64 {
        self.power.integral(now)
    }

    /// Current busy-slot count, summed over all active jobs.
    #[must_use]
    pub fn busy_slots(&self) -> usize {
        self.busy[0] + self.busy[1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Frequency level of `job`'s ledger, if it is actively metered.
    fn ledger_freq(meter: &EnergyMeter, job: JobId) -> Option<FreqLevel> {
        meter
            .slot_of(job)
            .and_then(|slot| meter.ledgers[slot].as_ref())
            .map(|l| l.freq)
    }

    #[test]
    fn idle_baseline_energy() {
        let spec = ClusterSpec::paper_reference();
        let meter = EnergyMeter::new(&spec, SimTime::ZERO);
        // 100 s idle: 10 servers * 90 W * 100 s = 90 kJ.
        assert!((meter.energy_joules(SimTime::from_secs(100.0)) - 90_000.0).abs() < 1e-6);
    }

    #[test]
    fn busy_and_sprint_segments_integrate() {
        let spec = ClusterSpec::paper_reference();
        let mut meter = EnergyMeter::new(&spec, SimTime::ZERO);
        // 0-10s: idle (900 W). 10-20s: fully busy base (1800 W).
        meter.update_ledger(SimTime::from_secs(10.0), 0, JobId(1), 20, FreqLevel::Base);
        // 20-30s: fully busy sprinting (2700 W).
        meter.update_ledger(SimTime::from_secs(20.0), 0, JobId(1), 20, FreqLevel::Sprint);
        let total = meter.energy_joules(SimTime::from_secs(30.0));
        let expected = 900.0 * 10.0 + 1800.0 * 10.0 + 2700.0 * 10.0;
        assert!((total - expected).abs() < 1e-6, "{total} vs {expected}");
        assert_eq!(meter.busy_slots(), 20);
        assert_eq!(ledger_freq(&meter, JobId(1)), Some(FreqLevel::Sprint));
        assert_eq!(ledger_freq(&meter, JobId(9)), None);
    }

    #[test]
    fn partial_utilization_scales_linearly() {
        let spec = ClusterSpec::paper_reference();
        let mut meter = EnergyMeter::new(&spec, SimTime::ZERO);
        meter.update_ledger(SimTime::ZERO, 0, JobId(1), 10, FreqLevel::Base);
        let e = meter.energy_joules(SimTime::from_secs(1.0));
        // Half busy: idle 900 + 10 slots * (180-90)/2 per slot = 900 + 450.
        assert!((e - 1350.0).abs() < 1e-9);
    }

    #[test]
    fn two_jobs_split_the_active_energy() {
        let spec = ClusterSpec::paper_reference();
        let mut meter = EnergyMeter::new(&spec, SimTime::ZERO);
        meter.update_ledger(SimTime::ZERO, 0, JobId(1), 8, FreqLevel::Base);
        meter.update_ledger(SimTime::ZERO, 1, JobId(2), 4, FreqLevel::Base);
        let t = SimTime::from_secs(10.0);
        let e1 = meter.retire_ledger(t, 0);
        let e2 = meter.retire_ledger(t, 1);
        // 45 W per busy slot at base.
        assert_eq!(e1.active_joules, 8.0 * 10.0 * 45.0);
        assert_eq!(e2.active_joules, 4.0 * 10.0 * 45.0);
        assert_eq!(e1.busy_slot_secs, 80.0);
        assert_eq!(e1.sprint_slot_secs, 0.0);
        assert_eq!(meter.finished_jobs().len(), 2);
    }

    #[test]
    fn frequency_switch_splits_job_segments() {
        let spec = ClusterSpec::paper_reference();
        let mut meter = EnergyMeter::new(&spec, SimTime::ZERO);
        meter.update_ledger(SimTime::ZERO, 0, JobId(7), 10, FreqLevel::Base);
        // 4 s at base (45 W/slot), then 4 s sprinting (90 W/slot).
        meter.update_ledger(SimTime::from_secs(4.0), 0, JobId(7), 10, FreqLevel::Sprint);
        let e = meter.job_energy(JobId(7), SimTime::from_secs(8.0)).unwrap();
        assert_eq!(e.active_joules, 10.0 * 4.0 * 45.0 + 10.0 * 4.0 * 90.0);
        assert_eq!(e.sprint_slot_secs, 40.0);
        assert_eq!(e.busy_slot_secs, 80.0);
    }

    #[test]
    fn heterogeneous_domains_draw_independent_rates() {
        let spec = ClusterSpec::paper_reference();
        let mut meter = EnergyMeter::new(&spec, SimTime::ZERO);
        // Job 1 sprints its 8 slots; job 2 stays at base on 4 slots.
        meter.update_ledger(SimTime::ZERO, 0, JobId(1), 8, FreqLevel::Sprint);
        meter.update_ledger(SimTime::ZERO, 1, JobId(2), 4, FreqLevel::Base);
        // Cluster power: 900 idle + 8×90 sprint + 4×45 base = 1800 W.
        assert_eq!(meter.power_w(), 900.0 + 8.0 * 90.0 + 4.0 * 45.0);
        let end = SimTime::from_secs(10.0);
        let e1 = meter.retire_ledger(end, 0);
        let e2 = meter.retire_ledger(end, 1);
        assert_eq!(e1.active_joules, 8.0 * 10.0 * 90.0);
        assert_eq!(e1.sprint_slot_secs, 80.0);
        assert_eq!(e2.active_joules, 4.0 * 10.0 * 45.0);
        assert_eq!(e2.sprint_slot_secs, 0.0);
        // Lossless split even with mixed levels.
        let idle = spec.cluster_power_w(0, FreqLevel::Base) * 10.0;
        assert_eq!(
            meter.energy_joules(end),
            idle + e1.active_joules + e2.active_joules
        );
    }

    #[test]
    fn attribution_is_lossless_against_cluster_total() {
        let spec = ClusterSpec::paper_reference();
        let mut meter = EnergyMeter::new(&spec, SimTime::ZERO);
        meter.update_ledger(SimTime::ZERO, 0, JobId(1), 8, FreqLevel::Base);
        meter.update_ledger(SimTime::ZERO, 1, JobId(2), 4, FreqLevel::Base);
        meter.update_ledger(SimTime::from_secs(8.0), 0, JobId(1), 8, FreqLevel::Sprint);
        meter.update_ledger(SimTime::from_secs(8.0), 1, JobId(2), 4, FreqLevel::Sprint);
        let end = SimTime::from_secs(16.0);
        let e1 = meter.retire_ledger(end, 0);
        let e2 = meter.retire_ledger(end, 1);
        let idle = spec.cluster_power_w(0, FreqLevel::Base) * 16.0;
        // Dyadic times and the paper's integer powers: exact equality.
        assert_eq!(
            meter.energy_joules(end),
            idle + e1.active_joules + e2.active_joules
        );
    }

    #[test]
    fn retiring_a_middle_ledger_keeps_the_others_addressable() {
        let spec = ClusterSpec::paper_reference();
        let mut meter = EnergyMeter::new(&spec, SimTime::ZERO);
        for (slot, busy) in [2, 4, 6].into_iter().enumerate() {
            let job = JobId(slot as u64 + 1);
            meter.update_ledger(SimTime::ZERO, slot, job, busy, FreqLevel::Base);
        }
        // Retiring job 1 frees its slot; jobs 2 and 3 keep theirs.
        meter.retire_ledger(SimTime::from_secs(1.0), 0);
        meter.update_ledger(SimTime::from_secs(1.0), 2, JobId(3), 6, FreqLevel::Sprint);
        assert_eq!(ledger_freq(&meter, JobId(3)), Some(FreqLevel::Sprint));
        assert_eq!(ledger_freq(&meter, JobId(2)), Some(FreqLevel::Base));
        assert_eq!(ledger_freq(&meter, JobId(1)), None);
        assert_eq!(meter.busy_slots(), 10);
        // 900 W idle + 4 base slots at 45 W + 6 sprinting slots at 90 W.
        assert_eq!(meter.power_w(), 900.0 + 4.0 * 45.0 + 6.0 * 90.0);
        let e3 = meter.retire_ledger(SimTime::from_secs(2.0), 2);
        assert_eq!(e3.active_joules, 6.0 * 45.0 + 6.0 * 90.0);
        assert_eq!(e3.sprint_slot_secs, 6.0);
        assert_eq!(meter.busy_slots(), 4);
    }

    #[test]
    fn take_finished_drains() {
        let spec = ClusterSpec::paper_reference();
        let mut meter = EnergyMeter::new(&spec, SimTime::ZERO);
        meter.update_ledger(SimTime::ZERO, 0, JobId(1), 1, FreqLevel::Base);
        meter.retire_ledger(SimTime::from_secs(1.0), 0);
        assert_eq!(meter.take_finished().len(), 1);
        assert!(meter.finished_jobs().is_empty());
        // A retired job is still queryable until drained — now it is gone.
        assert!(meter
            .job_energy(JobId(1), SimTime::from_secs(1.0))
            .is_none());
    }
}
