//! Sprint policies: DVFS acceleration under a replenishing energy budget
//! (paper §3.3). The runtime state machine is [`MultiSprinter`](crate::MultiSprinter),
//! which the one-job [`Experiment`](crate::Experiment) runs over one gang as
//! wide as the cluster.
//!
//! "If sprinting is enabled, the sprinter handles a sprinting timer for each
//! dispatched job and tracks the remaining sprinting budget. When the timer fires,
//! it uses DVFS to temporarily accelerate the job execution […] A job is
//! accelerated until either its end or the depletion of the sprinting budget. The
//! sprinting budget is replenished over time using a replenishing rate, e.g., 6
//! sprinting minutes per hour. The timeout is ignored if the job ends sooner."

use serde::{Deserialize, Serialize};

/// The sprint energy budget.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SprintBudget {
    /// No budget constraint: sprint for entire job durations (the paper's
    /// "unlimited sprinting" scenario).
    Unlimited,
    /// A joule budget drained at the sprint extra-power rate while sprinting and
    /// replenished continuously, capped at `cap_j`.
    Limited {
        /// Initial budget in joules (the paper's limited scenario uses 22 kJ).
        initial_j: f64,
        /// Replenishment rate in watts (J/s). The paper's example of 6 sprint
        /// minutes per hour equals `extra_power × 0.1`.
        replenish_w: f64,
        /// Upper bound the budget can replenish back to.
        cap_j: f64,
    },
}

impl SprintBudget {
    /// A limited budget with cap equal to the initial fill.
    ///
    /// # Panics
    ///
    /// Panics if `initial_j <= 0` or `replenish_w < 0`.
    #[must_use]
    pub fn limited(initial_j: f64, replenish_w: f64) -> Self {
        assert!(initial_j > 0.0, "budget must be positive");
        assert!(replenish_w >= 0.0, "replenish rate cannot be negative");
        SprintBudget::Limited {
            initial_j,
            replenish_w,
            cap_j: initial_j,
        }
    }

    /// The paper's limited scenario: 22 kJ, replenished at 6 sprint-minutes/hour
    /// for a cluster drawing `extra_power_w` extra while sprinting.
    #[must_use]
    pub fn paper_limited(extra_power_w: f64) -> Self {
        SprintBudget::limited(22_000.0, extra_power_w * 6.0 * 60.0 / 3600.0)
    }
}

/// Per-class sprint timeouts plus the shared budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SprintPolicy {
    /// `timeouts[k]` is `Some(T_k)` if class `k` sprints `T_k` seconds after
    /// dispatch (0 = from dispatch), `None` if the class never sprints.
    pub timeouts: Vec<Option<f64>>,
    /// The shared energy budget.
    pub budget: SprintBudget,
}

impl SprintPolicy {
    /// Sprint the single top-priority class from dispatch with no budget limit.
    ///
    /// # Panics
    ///
    /// Panics if `classes == 0`.
    #[must_use]
    pub fn unlimited_for_top(classes: usize) -> Self {
        assert!(classes > 0, "need at least one class");
        let mut timeouts = vec![None; classes];
        timeouts[classes - 1] = Some(0.0);
        SprintPolicy {
            timeouts,
            budget: SprintBudget::Unlimited,
        }
    }

    /// Sprint the top class after `timeout` seconds under `budget` — the paper's
    /// configurations (65 s timeout under the limited budget; 0 s when unlimited).
    ///
    /// # Panics
    ///
    /// Panics if `classes == 0` or `timeout < 0`.
    #[must_use]
    pub fn top_class(classes: usize, timeout: f64, budget: SprintBudget) -> Self {
        assert!(classes > 0, "need at least one class");
        assert!(timeout >= 0.0, "timeout cannot be negative");
        let mut timeouts = vec![None; classes];
        timeouts[classes - 1] = Some(timeout);
        SprintPolicy { timeouts, budget }
    }

    /// Timeout for a class, if it sprints.
    #[must_use]
    pub fn timeout_for(&self, class: usize) -> Option<f64> {
        self.timeouts.get(class).copied().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MultiSprinter;
    use dias_des::SimTime;
    use dias_engine::JobId;

    /// The paper's cluster-wide sprint is one gang as wide as the cluster:
    /// 20 slots at 45 W extra each draw the 900 W of 10 workers × 90 W.
    const SLOTS: usize = 20;
    const JOB: JobId = JobId(1);

    fn limited_sprinter() -> MultiSprinter {
        // 900 W extra draw, 90 W replenish, 22 kJ budget.
        MultiSprinter::new(
            SprintPolicy::top_class(2, 65.0, SprintBudget::paper_limited(900.0)),
            45.0,
        )
    }

    #[test]
    fn paper_limited_budget_values() {
        let b = SprintBudget::paper_limited(900.0);
        match b {
            SprintBudget::Limited {
                initial_j,
                replenish_w,
                cap_j,
            } => {
                assert!((initial_j - 22_000.0).abs() < 1e-9);
                assert!((replenish_w - 90.0).abs() < 1e-9);
                assert!((cap_j - 22_000.0).abs() < 1e-9);
            }
            SprintBudget::Unlimited => panic!("expected limited"),
        }
    }

    #[test]
    fn depletion_time_reflects_net_drain() {
        let mut s = limited_sprinter();
        assert!(s.try_start(SimTime::ZERO, JOB, SLOTS));
        let deadline = s.depletion_time().unwrap();
        // 22 kJ at net (900-90) W = 27.16 s.
        assert!((deadline.as_secs() - 22_000.0 / 810.0).abs() < 1e-9);
        assert!(s.is_sprinting(JOB));
    }

    #[test]
    fn budget_drains_and_replenishes() {
        let mut s = limited_sprinter();
        assert!(s.try_start(SimTime::ZERO, JOB, SLOTS));
        s.advance_to(SimTime::from_secs(10.0));
        assert!((s.budget_j() - (22_000.0 - 810.0 * 10.0)).abs() < 1e-9);
        s.stop(SimTime::from_secs(10.0), JOB);
        // Replenishes at 90 W while idle, capped at 22 kJ.
        s.advance_to(SimTime::from_secs(20.0));
        assert!((s.budget_j() - (22_000.0 - 8_100.0 + 900.0)).abs() < 1e-9);
        s.advance_to(SimTime::from_secs(1e6));
        assert!((s.budget_j() - 22_000.0).abs() < 1e-9);
    }

    #[test]
    fn empty_budget_refuses_to_sprint() {
        // (budget J, W per slot, slots, start s, dry at s, residue left).
        // 100 J at 20 × 50 W from t = 0 is dry at 0.1 s. 90 J at 3 × 45 W
        // from t = 1 s is dry at 1.6666666666666665 s, where the drain over
        // the rounded interval leaves ~1.4e-14 J: a residue that must count
        // as empty too.
        let cases = [
            (100.0, 50.0, SLOTS, 0.0, 0.1, false),
            (90.0, 45.0, 3, 1.0, 1.0 + 2.0 / 3.0, true),
        ];
        for (budget_j, slot_w, slots, start, dry, residue) in cases {
            let mut s = MultiSprinter::new(
                SprintPolicy::top_class(1, 0.0, SprintBudget::limited(budget_j, 0.0)),
                slot_w,
            );
            assert!(s.try_start(SimTime::from_secs(start), JOB, slots));
            let deadline = s.depletion_time().unwrap();
            assert!((deadline.as_secs() - dry).abs() < 1e-9);
            s.stop_all(deadline);
            assert!(s.budget_j() < 1e-12);
            assert_eq!(s.budget_j() > 0.0, residue, "{budget_j} J");
            assert!(!s.try_start(deadline, JOB, slots));
            assert!(s.sprinting_jobs().is_empty());
        }
    }

    #[test]
    fn unlimited_budget_never_depletes() {
        let mut s = MultiSprinter::new(SprintPolicy::unlimited_for_top(2), 45.0);
        assert!(s.try_start(SimTime::ZERO, JOB, SLOTS));
        assert!(s.depletion_time().is_none());
        s.advance_to(SimTime::from_secs(1e9));
        assert!(s.budget_j().is_infinite());
    }

    #[test]
    fn timeouts_only_for_top_class() {
        let p = SprintPolicy::top_class(3, 65.0, SprintBudget::Unlimited);
        assert_eq!(p.timeout_for(2), Some(65.0));
        assert_eq!(p.timeout_for(1), None);
        assert_eq!(p.timeout_for(0), None);
        assert_eq!(p.timeout_for(9), None);
    }
}
