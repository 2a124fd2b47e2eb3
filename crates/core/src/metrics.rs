//! Experiment measurements: per-class latency statistics, resource waste and
//! energy — the quantities behind every figure of the paper's evaluation.

use std::fmt;

use dias_des::stats::SampleSet;

use crate::MultiClassStats;

/// The full outcome of one experiment run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExperimentReport {
    /// Label of the policy that produced this report (e.g. `DA(0,20)`).
    pub policy: String,
    /// Per-class statistics, indexed by class (higher = higher priority):
    /// the [`MultiJobReport`](crate::MultiJobReport) books of the run,
    /// per-class energy split included.
    pub per_class: Vec<MultiClassStats>,
    /// Machine-seconds of work wasted on evicted attempts.
    pub wasted_work_secs: f64,
    /// Machine-seconds of work delivered in total (completed + wasted).
    pub total_work_secs: f64,
    /// Total evictions.
    pub evictions: u64,
    /// Total energy consumed by the cluster, in joules.
    pub energy_joules: f64,
    /// Energy the idle cluster would have consumed over the same horizon, in
    /// joules — subtract from `energy_joules` for the *dynamic* energy that actually
    /// varies across policies.
    pub idle_energy_joules: f64,
    /// Wall-clock horizon of the measured portion, in seconds.
    pub horizon_secs: f64,
    /// Average fraction of the cluster's slots busy running tasks over the
    /// horizon (a job holding the cluster with idle slots counts only its
    /// busy ones).
    pub utilization: f64,
    /// Busy slot-seconds at sprint frequency divided by the slot count: the
    /// seconds spent sprinting, weighted by the share of slots busy.
    pub sprint_secs: f64,
}

impl ExperimentReport {
    /// Statistics of class `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[must_use]
    pub fn class_stats(&self, k: usize) -> &MultiClassStats {
        &self.per_class[k]
    }

    /// Resource waste: share of delivered machine time spent on evicted attempts
    /// (the paper's "percentage of machine time used to re-process evicted jobs").
    #[must_use]
    pub fn waste_fraction(&self) -> f64 {
        if self.total_work_secs <= 0.0 {
            0.0
        } else {
            self.wasted_work_secs / self.total_work_secs
        }
    }

    /// Energy above the idle floor — the part a scheduling policy can influence.
    #[must_use]
    pub fn dynamic_energy_joules(&self) -> f64 {
        (self.energy_joules - self.idle_energy_joules).max(0.0)
    }

    /// Mean response time of class `k`.
    #[must_use]
    pub fn mean_response(&self, k: usize) -> f64 {
        self.per_class[k].response.mean()
    }

    /// 95th-percentile response time of class `k` — the paper's tail latency.
    #[must_use]
    pub fn p95_response(&self, k: usize) -> f64 {
        self.per_class[k].response.p95()
    }

    /// Relative difference (in percent) of a metric against a baseline value, the
    /// y-axis of Figures 7–11: negative = improvement.
    #[must_use]
    pub fn relative_difference_pct(ours: f64, baseline: f64) -> f64 {
        if baseline == 0.0 {
            0.0
        } else {
            (ours - baseline) / baseline * 100.0
        }
    }
}

/// The mean of a recorded series at one decimal in a 10-column cell, or `-`
/// when the series was not recorded.
fn mean_column(series: Option<&SampleSet>) -> String {
    series.map_or_else(|| format!("{:>10}", "-"), |s| format!("{:>10.1}", s.mean()))
}

impl fmt::Display for ExperimentReport {
    /// One row per class, highest first. A column whose series was not
    /// recorded prints `-`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "policy {}:", self.policy)?;
        writeln!(
            f,
            "  {:>5} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "class", "jobs", "mean[s]", "p95[s]", "queue[s]", "exec[s]"
        )?;
        for (k, c) in self.per_class.iter().enumerate().rev() {
            writeln!(
                f,
                "  {:>5} {:>10} {:>10.1} {:>10.1} {} {}",
                k,
                c.completed,
                c.response.mean(),
                c.response.p95(),
                mean_column(c.queueing.as_ref()),
                mean_column(c.execution.as_ref())
            )?;
        }
        writeln!(
            f,
            "  waste {:.1}%  energy {:.1} kJ  util {:.1}%  evictions {}  sprint {:.0}s",
            self.waste_fraction() * 100.0,
            self.energy_joules / 1000.0,
            self.utilization * 100.0,
            self.evictions,
            self.sprint_secs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with_waste(wasted: f64, total: f64) -> ExperimentReport {
        ExperimentReport {
            policy: "P".into(),
            per_class: vec![MultiClassStats::default(); 2],
            wasted_work_secs: wasted,
            total_work_secs: total,
            ..Default::default()
        }
    }

    #[test]
    fn waste_fraction_guards_zero() {
        assert_eq!(report_with_waste(0.0, 0.0).waste_fraction(), 0.0);
        assert!((report_with_waste(4.0, 100.0).waste_fraction() - 0.04).abs() < 1e-12);
    }

    #[test]
    fn relative_difference_sign() {
        // 40 vs baseline 100 = -60%.
        assert!((ExperimentReport::relative_difference_pct(40.0, 100.0) + 60.0).abs() < 1e-12);
        assert!((ExperimentReport::relative_difference_pct(180.0, 100.0) - 80.0).abs() < 1e-12);
        assert_eq!(ExperimentReport::relative_difference_pct(1.0, 0.0), 0.0);
    }

    #[test]
    fn display_is_nonempty() {
        let r = report_with_waste(1.0, 10.0);
        let text = r.to_string();
        assert!(text.contains("policy P"));
        assert!(text.contains("waste 10.0%"));
    }

    #[test]
    fn display_prints_a_dash_for_an_unrecorded_series() {
        let mut r = report_with_waste(1.0, 10.0);
        let mut execution = SampleSet::new();
        execution.push(4.0);
        r.per_class[1].execution = Some(execution);
        let text = r.to_string();
        let row = |k: usize| {
            let prefix = format!("  {k:>5} ");
            text.lines()
                .find(|l| l.starts_with(&prefix))
                .unwrap()
                .to_string()
        };
        let cells =
            |k: usize| -> Vec<String> { row(k).split_whitespace().map(str::to_string).collect() };
        // class, jobs, mean, p95, queue, exec
        assert_eq!(cells(1)[4..], ["-", "4.0"]);
        assert_eq!(cells(0)[4..], ["-", "-"]);
        // The dash keeps the column width of a number.
        assert_eq!(row(0).len(), row(1).len());
    }
}
