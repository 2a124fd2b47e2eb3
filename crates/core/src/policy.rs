//! Scheduling policies: P, NP, DA, NPS and full DiAS.

use serde::{Deserialize, Serialize};

use dias_engine::JobSpec;

use crate::SprintPolicy;

/// How the dispatcher treats a running lower-priority job when a higher-priority
/// job arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scheduling {
    /// Evict the running job back to the head of its buffer; it will re-execute
    /// from scratch (the production baseline `P`).
    Preemptive,
    /// Let the running job finish (`NP`, and the discipline of DiAS itself).
    NonPreemptive,
}

/// Per-class approximation settings.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct ClassPolicy {
    /// Drop ratio applied to droppable stages (Map, ShuffleMap) of this class;
    /// the remaining stages (Reduce, Result) always run in full, as in the
    /// paper.
    pub theta_droppable: f64,
}

/// A complete scheduling policy: discipline, per-class drop ratios and optional
/// sprinting.
///
/// The paper's named configurations map to constructors:
///
/// | Paper | Constructor |
/// |---|---|
/// | `P` | [`Policy::preemptive`] |
/// | `NP` | [`Policy::non_preemptive`] |
/// | `DA(0,20)` | [`Policy::da_percent_high_to_low(&[0.0, 20.0])`](Policy::da_percent_high_to_low) |
/// | `NPS` | [`Policy::non_preemptive`]`.with_sprint(…)` |
/// | `DiAS(0,20)` | [`Policy::da_percent_high_to_low`]`.with_sprint(…)` |
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Policy {
    /// Cross-priority discipline.
    pub scheduling: Scheduling,
    /// Per-class approximation, indexed by class (higher index = higher priority).
    pub classes: Vec<ClassPolicy>,
    /// Optional differential sprinting.
    pub sprint: Option<SprintPolicy>,
    /// Human-readable label used by reports (e.g. `DA(0,20)`).
    pub label: String,
}

impl Policy {
    /// The preemptive baseline `P` for `k` classes: evictions, no approximation,
    /// no sprinting.
    #[must_use]
    pub fn preemptive(k: usize) -> Self {
        Policy {
            scheduling: Scheduling::Preemptive,
            classes: vec![ClassPolicy::default(); k],
            sprint: None,
            label: "P".into(),
        }
    }

    /// The non-preemptive baseline `NP` for `k` classes.
    #[must_use]
    pub fn non_preemptive(k: usize) -> Self {
        Policy {
            scheduling: Scheduling::NonPreemptive,
            classes: vec![ClassPolicy::default(); k],
            sprint: None,
            label: "NP".into(),
        }
    }

    /// Differential approximation with per-class drop ratios given in **class-index
    /// order** (index 0 = lowest priority), as fractions in `[0,1]`.
    ///
    /// # Panics
    ///
    /// Panics if any ratio is outside `[0, 1]` or `thetas` is empty.
    #[must_use]
    pub fn differential_approximation(thetas: &[f64]) -> Self {
        assert!(!thetas.is_empty(), "need at least one class");
        assert!(
            thetas.iter().all(|t| (0.0..=1.0).contains(t)),
            "drop ratios must be in [0,1]"
        );
        let label = format!(
            "DA({})",
            thetas
                .iter()
                .rev()
                .map(|t| format!("{:.0}", t * 100.0))
                .collect::<Vec<_>>()
                .join(",")
        );
        Policy {
            scheduling: Scheduling::NonPreemptive,
            classes: thetas
                .iter()
                .map(|&t| ClassPolicy { theta_droppable: t })
                .collect(),
            sprint: None,
            label,
        }
    }

    /// Differential approximation with drop ratios in **percent, highest priority
    /// first** — the paper's subscript order, so `DA(0,20)` is
    /// `da_percent_high_to_low(&[0.0, 20.0])`.
    ///
    /// # Panics
    ///
    /// Panics if any percentage is outside `[0, 100]` or the slice is empty.
    #[must_use]
    pub fn da_percent_high_to_low(percents: &[f64]) -> Self {
        assert!(!percents.is_empty(), "need at least one class");
        assert!(
            percents.iter().all(|p| (0.0..=100.0).contains(p)),
            "percentages must be in [0,100]"
        );
        let thetas: Vec<f64> = percents.iter().rev().map(|p| p / 100.0).collect();
        Policy::differential_approximation(&thetas)
    }

    /// Attaches a sprinting policy, renaming the label accordingly (`NPS` for
    /// sprint-only, `DiAS(...)` when approximation is active).
    #[must_use]
    pub fn with_sprint(mut self, sprint: SprintPolicy) -> Self {
        let approximating = self.classes.iter().any(|c| c.theta_droppable > 0.0);
        self.label = if approximating {
            self.label.replacen("DA", "DiAS", 1)
        } else {
            "NPS".into()
        };
        self.sprint = Some(sprint);
        self
    }

    /// Number of priority classes.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.classes.len()
    }

    /// Whether the policy evicts running jobs.
    #[must_use]
    pub fn is_preemptive(&self) -> bool {
        self.scheduling == Scheduling::Preemptive
    }

    /// Per-stage drop ratios for a concrete job spec — the deflator's output handed
    /// to the engine's dropper.
    ///
    /// # Panics
    ///
    /// Panics if the job's class is not covered by this policy.
    #[must_use]
    pub fn drops_for(&self, spec: &JobSpec) -> Vec<f64> {
        let class = self
            .classes
            .get(spec.class)
            .unwrap_or_else(|| panic!("job class {} exceeds policy classes", spec.class));
        spec.stages
            .iter()
            .map(|s| {
                if s.kind.droppable() {
                    class.theta_droppable
                } else {
                    0.0
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dias_engine::{StageKind, StageSpec};
    use dias_stochastic::Dist;

    fn spec(class: usize) -> JobSpec {
        JobSpec::builder(0, class)
            .stage(StageSpec::new(StageKind::Map, 10, Dist::constant(1.0)))
            .stage(StageSpec::new(StageKind::Reduce, 5, Dist::constant(1.0)))
            .build()
    }

    #[test]
    fn baselines_have_no_drops() {
        let p = Policy::preemptive(2);
        assert!(p.is_preemptive());
        assert_eq!(p.drops_for(&spec(0)), vec![0.0, 0.0]);
        let np = Policy::non_preemptive(2);
        assert!(!np.is_preemptive());
        assert_eq!(np.label, "NP");
    }

    #[test]
    fn paper_order_constructor_reverses() {
        // DA(0,20): high class drops 0%, low class 20%.
        let p = Policy::da_percent_high_to_low(&[0.0, 20.0]);
        assert_eq!(p.label, "DA(0,20)");
        assert_eq!(p.drops_for(&spec(0)), vec![0.2, 0.0]); // low class
        assert_eq!(p.drops_for(&spec(1)), vec![0.0, 0.0]); // high class
        assert!(!p.is_preemptive());
    }

    #[test]
    fn three_priority_label() {
        let p = Policy::da_percent_high_to_low(&[0.0, 10.0, 20.0]);
        assert_eq!(p.label, "DA(0,10,20)");
        assert_eq!(p.drops_for(&spec(0))[0], 0.2);
        assert_eq!(p.drops_for(&spec(1))[0], 0.1);
        assert_eq!(p.drops_for(&spec(2))[0], 0.0);
    }

    #[test]
    fn only_droppable_stages_get_theta() {
        let p = Policy::differential_approximation(&[0.3]);
        let s = JobSpec::builder(0, 0)
            .stage(StageSpec::new(
                StageKind::ShuffleMap,
                10,
                Dist::constant(1.0),
            ))
            .stage(StageSpec::new(
                StageKind::ShuffleMap,
                10,
                Dist::constant(1.0),
            ))
            .stage(StageSpec::new(StageKind::Result, 5, Dist::constant(1.0)))
            .build();
        assert_eq!(p.drops_for(&s), vec![0.3, 0.3, 0.0]);
    }

    #[test]
    fn sprint_relabels() {
        let nps = Policy::non_preemptive(2).with_sprint(SprintPolicy::unlimited_for_top(2));
        assert_eq!(nps.label, "NPS");
        let dias = Policy::da_percent_high_to_low(&[0.0, 20.0])
            .with_sprint(SprintPolicy::unlimited_for_top(2));
        assert_eq!(dias.label, "DiAS(0,20)");
    }

    #[test]
    #[should_panic(expected = "exceeds policy classes")]
    fn out_of_range_class_panics() {
        let _ = Policy::preemptive(1).drops_for(&spec(3));
    }

    #[test]
    #[should_panic(expected = "[0,1]")]
    fn bad_theta_rejected() {
        let _ = Policy::differential_approximation(&[1.2]);
    }
}
