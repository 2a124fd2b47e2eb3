//! Budgeted sprinting over *concurrent* jobs: per-class timers and a shared
//! replenishing energy budget driving per-gang frequency domains.
//!
//! [`MultiSprinter`] runs the paper's §3.3 [`SprintPolicy`] on the driver
//! ([`MultiJobExperiment`](crate::MultiJobExperiment)): every dispatched job
//! of a sprinting class arms its own timer, a job that starts sprinting flips
//! only *its* frequency domain
//! ([`ClusterSim::set_job_frequency`](dias_engine::ClusterSim::set_job_frequency)),
//! and the shared budget is charged per sprinting gang — at
//! [`ClusterSpec::sprint_extra_slot_power_w`](dias_engine::ClusterSpec::sprint_extra_slot_power_w)
//! per slot of the gang — so a narrow high-priority job drains far less than
//! the paper's whole-cluster sprint, and a gang as wide as the cluster drains
//! exactly the paper's cluster-wide extra power. When the budget depletes,
//! *all* sprinting domains drop back to base together, exactly like the
//! paper's single switch.
//!
//! Budget accounting is conservation-exact: at all times
//! `budget == initial + replenished − spent` holds under exact arithmetic,
//! property-tested with `==` over dyadic inputs in
//! `crates/core/tests/multi_sprint_properties.rs`.

use dias_des::SimTime;
use dias_engine::{IdMap, JobId};

use crate::{SprintBudget, SprintPolicy};

/// Runtime state of the concurrent sprinter: which jobs sprint right now, and
/// the shared budget through time.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiSprinter {
    policy: SprintPolicy,
    /// Extra power (W) one slot draws while its domain sprints — the per-slot
    /// drain rate (see `ClusterSpec::sprint_extra_slot_power_w`).
    extra_slot_power_w: f64,
    /// Initial budget fill (∞ when unlimited).
    initial_j: f64,
    budget_j: f64,
    spent_j: f64,
    replenished_j: f64,
    last: SimTime,
    /// Sprinting jobs, each with the slot count it is charged for (its gang
    /// width) and its sprint-start sequence number. Starts, stops and
    /// membership tests are O(1); only the calls that list the jobs in
    /// start order sort.
    active: IdMap<(usize, u64)>,
    /// Sequence number of the next sprint start.
    next_start: u64,
    /// Slots summed over `active`: the drain rate is read on every event,
    /// so it is kept rather than summed.
    active_slots: usize,
    /// Cap (W) on the aggregate *extra* draw of concurrently sprinting gangs;
    /// a start that would push [`MultiSprinter::drain_rate_w`] past it is
    /// refused. `None` (the default) reproduces the uncapped behaviour bit
    /// for bit. The federation partitions its global power cap into one such
    /// per-shard cap, pure function of the fleet spec.
    draw_cap_w: Option<f64>,
}

impl MultiSprinter {
    /// Creates a sprinter at time zero with a full budget.
    ///
    /// `extra_slot_power_w` is the extra draw of one sprinting slot
    /// ([`dias_engine::ClusterSpec::sprint_extra_slot_power_w`]); a sprinting
    /// job is charged it per slot of its gang.
    #[must_use]
    pub fn new(policy: SprintPolicy, extra_slot_power_w: f64) -> Self {
        let initial_j = match policy.budget {
            SprintBudget::Unlimited => f64::INFINITY,
            SprintBudget::Limited { initial_j, .. } => initial_j,
        };
        MultiSprinter {
            policy,
            extra_slot_power_w,
            initial_j,
            budget_j: initial_j,
            spent_j: 0.0,
            replenished_j: 0.0,
            last: SimTime::ZERO,
            active: IdMap::default(),
            next_start: 0,
            active_slots: 0,
            draw_cap_w: None,
        }
    }

    /// Caps the aggregate extra draw of concurrent sprints at `cap_w` watts
    /// (`None` lifts the cap): [`MultiSprinter::try_start`] refuses any start
    /// that would exceed it, while already-running sprints are never clipped
    /// retroactively. The check is a pure threshold on the would-be drain
    /// rate, so capped runs stay deterministic.
    #[must_use]
    pub fn with_draw_cap(mut self, cap_w: Option<f64>) -> Self {
        self.draw_cap_w = cap_w;
        self
    }

    /// The configured cap on aggregate sprint extra draw, if any.
    #[must_use]
    pub fn draw_cap_w(&self) -> Option<f64> {
        self.draw_cap_w
    }

    /// The configured policy.
    #[must_use]
    pub fn policy(&self) -> &SprintPolicy {
        &self.policy
    }

    /// Sprint timeout for `class`, if that class sprints at all.
    #[must_use]
    pub fn timeout_for(&self, class: usize) -> Option<f64> {
        self.policy.timeout_for(class)
    }

    /// Total drain rate (W) of the currently sprinting gangs.
    #[must_use]
    pub fn drain_rate_w(&self) -> f64 {
        self.active_slots as f64 * self.extra_slot_power_w
    }

    /// Whether `job` is currently sprinting.
    #[must_use]
    pub fn is_sprinting(&self, job: JobId) -> bool {
        self.active.contains_key(&job)
    }

    /// Jobs currently sprinting, in sprint-start order.
    #[must_use]
    pub fn sprinting_jobs(&self) -> Vec<JobId> {
        let mut jobs: Vec<(u64, JobId)> = self
            .active
            .iter()
            .map(|(&job, &(_, start))| (start, job))
            .collect();
        jobs.sort_unstable();
        jobs.into_iter().map(|(_, job)| job).collect()
    }

    /// Remaining budget in joules (∞ when unlimited).
    #[must_use]
    pub fn budget_j(&self) -> f64 {
        self.budget_j
    }

    /// Total joules drained by sprinting so far (0 when unlimited).
    #[must_use]
    pub fn spent_j(&self) -> f64 {
        self.spent_j
    }

    /// Total joules replenished into the budget so far (0 when unlimited).
    #[must_use]
    pub fn replenished_j(&self) -> f64 {
        self.replenished_j
    }

    /// The initial budget fill (∞ when unlimited).
    #[must_use]
    pub fn initial_j(&self) -> f64 {
        self.initial_j
    }

    /// Advances the budget to `now`: drains at the active gangs' rate,
    /// replenishes continuously, clamps into `[0, cap]`.
    ///
    /// The three counters are updated so that
    /// `budget == initial + replenished − spent` stays an identity: a segment
    /// clamped at the cap credits only the replenishment that fit under it,
    /// and an over-drained segment (the driver normally stops sprints at the
    /// depletion time first) spends only what was available.
    pub fn advance_to(&mut self, now: SimTime) {
        let dt = now - self.last;
        if dt <= 0.0 {
            self.last = now;
            return;
        }
        if let SprintBudget::Limited {
            replenish_w, cap_j, ..
        } = self.policy.budget
        {
            let mut spent = self.drain_rate_w() * dt;
            let added = replenish_w * dt;
            let mut replenished = added;
            let tentative = self.budget_j - spent + added;
            self.budget_j = if tentative > cap_j {
                // Only the replenishment that fit under the cap counts.
                replenished = cap_j - self.budget_j + spent;
                cap_j
            } else if tentative < 0.0 {
                // Over-drain guard: only what was available could be spent.
                spent = self.budget_j + added;
                0.0
            } else {
                tentative
            };
            self.spent_j += spent;
            self.replenished_j += replenished;
        }
        self.last = now;
    }

    /// Attempts to start sprinting `job`'s gang of `slots` at `now`.
    ///
    /// Returns `false` (and starts nothing) when the budget is empty or the
    /// start would push the aggregate extra draw past the configured
    /// [`MultiSprinter::with_draw_cap`]; starting an already-sprinting job is
    /// a no-op returning `true`.
    ///
    /// A limited budget at or below `cap_j · 1e-12` counts as empty: a
    /// depletion at the instant [`MultiSprinter::depletion_time`] computed
    /// can leave that much float residue, and a sprint started on it would
    /// deplete again within rounding, switching frequencies twice for
    /// nothing.
    pub fn try_start(&mut self, now: SimTime, job: JobId, slots: usize) -> bool {
        self.advance_to(now);
        if self.is_sprinting(job) {
            return true;
        }
        let empty_j = match self.policy.budget {
            SprintBudget::Limited { cap_j, .. } => cap_j * 1e-12,
            SprintBudget::Unlimited => 0.0,
        };
        if self.budget_j <= empty_j {
            return false;
        }
        if let Some(cap_w) = self.draw_cap_w {
            if self.drain_rate_w() + slots as f64 * self.extra_slot_power_w > cap_w {
                return false;
            }
        }
        self.active.insert(job, (slots, self.next_start));
        self.next_start += 1;
        self.active_slots += slots;
        true
    }

    /// Stops sprinting `job` at `now` (it finished or was evicted); returns
    /// whether it was sprinting.
    pub fn stop(&mut self, now: SimTime, job: JobId) -> bool {
        self.advance_to(now);
        match self.active.remove(&job) {
            Some((slots, _)) => {
                self.active_slots -= slots;
                true
            }
            None => false,
        }
    }

    /// Stops every sprinting job at `now` (budget depletion drops all domains
    /// to base together); returns them in sprint-start order.
    pub fn stop_all(&mut self, now: SimTime) -> Vec<JobId> {
        self.advance_to(now);
        let jobs = self.sprinting_jobs();
        self.active.clear();
        self.active_slots = 0;
        jobs
    }

    /// When the budget hits zero if the current sprints continue
    /// uninterrupted; `None` when nothing depletes (unlimited budget, no
    /// active sprint, or replenishment covers the drain).
    ///
    /// Valid immediately after [`MultiSprinter::advance_to`] (or any
    /// start/stop, which advance internally).
    #[must_use]
    pub fn depletion_time(&self) -> Option<SimTime> {
        let SprintBudget::Limited { replenish_w, .. } = self.policy.budget else {
            return None;
        };
        if self.active.is_empty() {
            return None;
        }
        let net_drain = self.drain_rate_w() - replenish_w;
        if net_drain <= 0.0 {
            return None;
        }
        Some(self.last + self.budget_j / net_drain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limited(initial: f64, replenish: f64) -> MultiSprinter {
        // 4 W extra per sprinting slot.
        MultiSprinter::new(
            SprintPolicy::top_class(2, 0.0, SprintBudget::limited(initial, replenish)),
            4.0,
        )
    }

    #[test]
    fn drain_scales_with_sprinting_slots() {
        let mut s = limited(1024.0, 0.0);
        assert!(s.try_start(SimTime::ZERO, JobId(1), 8));
        assert_eq!(s.drain_rate_w(), 32.0);
        assert!(s.try_start(SimTime::ZERO, JobId(2), 4));
        assert_eq!(s.drain_rate_w(), 48.0);
        // 1024 J at 48 W depletes in 1024/48 s.
        let d = s.depletion_time().unwrap();
        assert!((d.as_secs() - 1024.0 / 48.0).abs() < 1e-9);
        // Stopping the wide job stretches the deadline.
        s.advance_to(SimTime::from_secs(4.0));
        assert_eq!(s.budget_j(), 1024.0 - 48.0 * 4.0);
        assert!(s.stop(SimTime::from_secs(4.0), JobId(1)));
        let d2 = s.depletion_time().unwrap();
        assert!((d2.as_secs() - (4.0 + (1024.0 - 192.0) / 16.0)).abs() < 1e-9);
    }

    #[test]
    fn conservation_identity_holds() {
        let mut s = limited(512.0, 2.0);
        s.try_start(SimTime::ZERO, JobId(1), 8);
        s.advance_to(SimTime::from_secs(8.0));
        s.stop(SimTime::from_secs(8.0), JobId(1));
        s.advance_to(SimTime::from_secs(24.0));
        // Exact: initial + replenished − spent == remaining (dyadic inputs).
        assert_eq!(
            s.budget_j(),
            s.initial_j() + s.replenished_j() - s.spent_j()
        );
        assert_eq!(s.spent_j(), 8.0 * 32.0);
        assert_eq!(s.replenished_j(), 24.0 * 2.0);
    }

    #[test]
    fn replenishment_clamps_at_cap_and_counts_only_what_fit() {
        let mut s = limited(64.0, 8.0);
        // 16 s idle at 8 W would add 128 J, but only the cap (64 J) fits: the
        // budget was already full, so nothing is credited.
        s.advance_to(SimTime::from_secs(16.0));
        assert_eq!(s.budget_j(), 64.0);
        assert_eq!(s.replenished_j(), 0.0);
        assert_eq!(
            s.budget_j(),
            s.initial_j() + s.replenished_j() - s.spent_j()
        );
    }

    #[test]
    fn empty_budget_refuses_to_start() {
        let mut s = limited(64.0, 0.0);
        assert!(s.try_start(SimTime::ZERO, JobId(1), 8));
        // 64 J at 32 W: dry at t = 2.
        let d = s.depletion_time().unwrap();
        assert_eq!(d.as_secs(), 2.0);
        assert_eq!(s.stop_all(d), vec![JobId(1)]);
        assert_eq!(s.budget_j(), 0.0);
        assert!(!s.try_start(d, JobId(2), 4));
        assert!(s.sprinting_jobs().is_empty());
    }

    #[test]
    fn unlimited_budget_never_depletes() {
        let mut s = MultiSprinter::new(SprintPolicy::unlimited_for_top(2), 4.0);
        assert!(s.try_start(SimTime::ZERO, JobId(1), 20));
        assert!(s.depletion_time().is_none());
        s.advance_to(SimTime::from_secs(1e9));
        assert!(s.budget_j().is_infinite());
        assert_eq!(s.spent_j(), 0.0);
    }

    #[test]
    fn draw_cap_refuses_starts_past_the_cap() {
        let mut s = limited(4096.0, 0.0).with_draw_cap(Some(40.0));
        assert_eq!(s.draw_cap_w(), Some(40.0));
        assert!(s.try_start(SimTime::ZERO, JobId(1), 8)); // 32 W
        assert!(!s.try_start(SimTime::ZERO, JobId(2), 4)); // 48 W > cap
        assert!(s.try_start(SimTime::ZERO, JobId(3), 2)); // exactly 40 W: fits
        assert!(s.is_sprinting(JobId(1)));
        assert!(!s.is_sprinting(JobId(2)));
        assert_eq!(s.drain_rate_w(), 40.0);
        // Stopping a gang frees headroom for the refused one.
        assert!(s.stop(SimTime::ZERO, JobId(1)));
        assert!(s.try_start(SimTime::ZERO, JobId(2), 8));
        assert_eq!(s.drain_rate_w(), 40.0);
    }

    #[test]
    fn no_draw_cap_is_the_default_and_never_refuses() {
        let mut s = limited(4096.0, 0.0);
        assert_eq!(s.draw_cap_w(), None);
        assert!(s.try_start(SimTime::ZERO, JobId(1), 1000));
        assert_eq!(s.drain_rate_w(), 4000.0);
    }

    #[test]
    fn double_start_is_idempotent() {
        let mut s = limited(1024.0, 0.0);
        assert!(s.try_start(SimTime::ZERO, JobId(1), 8));
        assert!(s.try_start(SimTime::ZERO, JobId(1), 8));
        assert_eq!(s.sprinting_jobs(), vec![JobId(1)]);
        assert_eq!(s.drain_rate_w(), 32.0);
        assert!(!s.stop(SimTime::ZERO, JobId(9)));
    }
}
