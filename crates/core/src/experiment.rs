//! The closed-loop experiment runner: job source → priority-ordered pending
//! queue → deflator drops → engine, with optional sprinting — the harness
//! behind every evaluation figure.

use std::fmt;

use dias_engine::{
    EngineError, JobId, JobInstance, PendingView, RunningView, Scheduler, SlotRange,
};

use crate::{ExperimentReport, MultiJobExperiment, Policy, Series};

/// A stream of sampled jobs with non-decreasing arrival times.
///
/// Implementations live in `dias-workloads` (Poisson streams over text/graph
/// analytics job profiles); [`VecJobSource`] adapts a pre-built vector for tests and
/// small examples.
pub trait JobSource {
    /// Number of priority classes the stream produces.
    fn classes(&self) -> usize;

    /// The next arriving job, or `None` when the stream is exhausted.
    ///
    /// `JobInstance::arrival_secs` must be non-decreasing across calls.
    fn next_job(&mut self) -> Option<JobInstance>;
}

/// A [`JobSource`] over a pre-built vector of instances.
///
/// The instances are `Arc`-shared and the source keeps only a cursor, so
/// cloning is O(1) however long the stream — checkpoint-and-branch
/// re-execution snapshots the source at every checkpoint, and a deep copy of
/// every undelivered instance would make recording quadratic in the run
/// length.
#[derive(Debug, Clone)]
pub struct VecJobSource {
    jobs: std::sync::Arc<[JobInstance]>,
    next: usize,
    classes: usize,
}

impl VecJobSource {
    /// Wraps `jobs` (sorted by `arrival_secs`) for `classes` priority classes.
    ///
    /// # Panics
    ///
    /// Panics if arrivals are not sorted or reference a class out of range.
    #[must_use]
    pub fn new(jobs: Vec<JobInstance>, classes: usize) -> Self {
        let mut last = 0.0;
        for j in &jobs {
            assert!(
                j.arrival_secs >= last,
                "arrivals must be sorted by arrival_secs"
            );
            assert!(j.class() < classes, "job class out of range");
            last = j.arrival_secs;
        }
        VecJobSource {
            jobs: jobs.into(),
            next: 0,
            classes,
        }
    }
}

impl JobSource for VecJobSource {
    fn classes(&self) -> usize {
        self.classes
    }

    fn next_job(&mut self) -> Option<JobInstance> {
        let inst = self.jobs.get(self.next)?.clone();
        self.next += 1;
        Some(inst)
    }
}

/// Errors from configuring or running an experiment.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentError {
    /// The policy covers a different number of classes than the job source emits.
    ClassMismatch {
        /// Classes in the policy.
        policy: usize,
        /// Classes in the source.
        source: usize,
    },
    /// The engine rejected an operation (a bug in the driving loop or the inputs).
    Engine(EngineError),
    /// A measured job was starved: the run processed far more completions than
    /// the measurement window and still could not finish it (the offered load
    /// of higher classes is at or above capacity).
    Starved {
        /// Measured jobs that did complete.
        measured_done: usize,
        /// Measured jobs requested.
        target: usize,
    },
    /// A run setting is out of its valid range. Every builder stores its
    /// settings unchecked; the run method reports the first bad one here.
    InvalidConfig {
        /// The builder setter (or constructor argument) that set the value.
        field: &'static str,
        /// What is wrong with it.
        reason: String,
    },
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::ClassMismatch { policy, source } => write!(
                f,
                "policy has {policy} classes but the job source produces {source}"
            ),
            ExperimentError::Engine(e) => write!(f, "engine error: {e}"),
            ExperimentError::Starved {
                measured_done,
                target,
            } => write!(
                f,
                "measured jobs starved: {measured_done}/{target} completed within the \
                 completion budget (higher-priority load at or above capacity?)"
            ),
            ExperimentError::InvalidConfig { field, reason } => {
                write!(f, "invalid `{field}`: {reason}")
            }
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<EngineError> for ExperimentError {
    fn from(e: EngineError) -> Self {
        ExperimentError::Engine(e)
    }
}

impl ExperimentError {
    /// An [`ExperimentError::InvalidConfig`] for `field`.
    pub(crate) fn invalid(field: &'static str, reason: impl Into<String>) -> Self {
        ExperimentError::InvalidConfig {
            field,
            reason: reason.into(),
        }
    }
}

/// A configured experiment: source + policy on the paper's reference
/// cluster, measuring a fixed window of the arrival sequence.
///
/// It is a [`MultiJobExperiment`] whose scheduler gives each job the whole
/// cluster, with the policy's drop ratios and sprint policy, plus the
/// policy's label for the report. See the crate-level example.
///
/// The report's per-class books are the inner run's
/// [`MultiClassStats`](crate::MultiClassStats), moved whole: `completed`,
/// `response` and the per-class energy split always, and the optional
/// series asked for with [`Experiment::record`] (none by default).
#[derive(Debug)]
pub struct Experiment<S> {
    inner: MultiJobExperiment<S>,
    label: String,
}

impl<S: JobSource> Experiment<S> {
    /// Creates an experiment on the paper's reference cluster, measuring 1000
    /// jobs (by arrival order) after a 10% warm-up.
    #[must_use]
    pub fn new(source: S, policy: Policy) -> Self {
        let scheduler = WholeCluster {
            preemptive: policy.is_preemptive(),
        };
        let thetas: Vec<f64> = policy.classes.iter().map(|c| c.theta_droppable).collect();
        let mut inner = MultiJobExperiment::new(source, Box::new(scheduler)).drops(&thetas);
        if let Some(sprint) = policy.sprint {
            inner = inner.sprint(sprint);
        }
        Experiment {
            inner,
            label: policy.label,
        }
    }

    /// Sets the number of measured jobs (see [`MultiJobExperiment::jobs`]).
    #[must_use]
    pub fn jobs(mut self, n: usize) -> Self {
        self.inner = self.inner.jobs(n);
        self
    }

    /// Overrides the warm-up (see [`MultiJobExperiment::warmup`]).
    #[must_use]
    pub fn warmup(mut self, n: usize) -> Self {
        self.inner = self.inner.warmup(n);
        self
    }

    /// Sets the optional series the report records (see
    /// [`MultiJobExperiment::record`]).
    #[must_use]
    pub fn record(mut self, series: Series) -> Self {
        self.inner = self.inner.record(series);
        self
    }

    /// Runs the closed loop until the measured jobs complete (or the source is
    /// exhausted) and reports the measurements.
    ///
    /// Measurement is keyed on *arrival order*, not completion order: the jobs
    /// measured are arrivals `warmup..warmup + jobs`, whatever order they
    /// finish in. Every policy therefore measures the identical set of sampled
    /// jobs, which makes reports directly comparable across policies (and
    /// makes invariants like "DA never touches high-class execution" exact
    /// rather than approximate).
    ///
    /// The paper's per-priority buffers are the engine's pending queue, the
    /// dispatcher is the scheduler's class-ordered pick, and the sprinter is
    /// a [`MultiSprinter`](crate::MultiSprinter) over one gang as wide as
    /// the cluster.
    ///
    /// # Errors
    ///
    /// Exactly as [`MultiJobExperiment::run`]: in particular
    /// [`ExperimentError::ClassMismatch`] when the policy (or its sprint
    /// timeouts) and the source disagree on the number of classes, and
    /// [`ExperimentError::InvalidConfig`] naming `drops` when a hand-built
    /// policy carries a drop ratio outside `[0, 1]`.
    pub fn run(self) -> Result<ExperimentReport, ExperimentError> {
        let slots = self.inner.cluster.slots();
        let r = self.inner.run()?;
        let sprint_slot_secs: f64 = r.per_class.iter().map(|c| c.sprint_slot_secs).sum();
        Ok(ExperimentReport {
            policy: self.label,
            per_class: r.per_class,
            wasted_work_secs: r.wasted_work_secs,
            total_work_secs: r.total_work_secs + r.wasted_work_secs,
            evictions: r.evictions,
            energy_joules: r.energy_joules,
            idle_energy_joules: r.idle_energy_joules,
            horizon_secs: r.horizon_secs,
            utilization: r.utilization,
            sprint_secs: sprint_slot_secs / slots as f64,
        })
    }
}

/// The paper's one-job-at-a-time engine as a [`Scheduler`]: a job is placed
/// only on an empty cluster and always receives every slot.
///
/// Waiting jobs sit in the engine's pending queue. The next one is the
/// earliest of the highest waiting class; an evicted job re-queues at the
/// head, so it is first in its class. Under a preemptive policy an arrival
/// evicts the running job when that job is of a strictly lower class.
#[derive(Debug)]
struct WholeCluster {
    preemptive: bool,
}

impl Scheduler for WholeCluster {
    fn label(&self) -> &'static str {
        "WholeCluster"
    }

    fn place(
        &mut self,
        _class: usize,
        _width: usize,
        total_slots: usize,
        running: &[RunningView],
    ) -> Option<SlotRange> {
        running.is_empty().then(|| SlotRange::new(0, total_slots))
    }

    fn pick_next(
        &mut self,
        pending: &[PendingView],
        total_slots: usize,
        running: &[RunningView],
    ) -> Option<(usize, SlotRange)> {
        if !running.is_empty() {
            return None;
        }
        // The highest class; among equals the earliest in the queue.
        let (i, _) = pending
            .iter()
            .enumerate()
            .max_by_key(|&(i, p)| (p.class, std::cmp::Reverse(i)))?;
        Some((i, SlotRange::new(0, total_slots)))
    }

    fn victim(
        &mut self,
        class: usize,
        _width: usize,
        _total_slots: usize,
        running: &[RunningView],
    ) -> Option<JobId> {
        running
            .first()
            .filter(|r| self.preemptive && r.class < class)
            .map(|r| r.job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SprintBudget, SprintPolicy};
    use dias_engine::{JobSpec, StageKind, StageSpec};
    use dias_stochastic::Dist;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Deterministic two-class workload: every 10th job is high priority.
    fn workload(n: u64, gap: f64, map_secs: f64) -> VecJobSource {
        let mut rng = StdRng::seed_from_u64(11);
        let jobs = (0..n)
            .map(|i| {
                let class = usize::from(i % 10 == 0);
                let spec = JobSpec::builder(i, class)
                    .setup(Dist::constant(1.0))
                    .shuffle(Dist::constant(0.5))
                    .stage(StageSpec::new(StageKind::Map, 40, Dist::constant(map_secs)))
                    .stage(StageSpec::new(StageKind::Reduce, 8, Dist::constant(1.0)))
                    .build();
                let mut inst = JobInstance::sample(&spec, &mut rng);
                inst.arrival_secs = i as f64 * gap;
                inst
            })
            .collect();
        VecJobSource::new(jobs, 2)
    }

    /// One low-priority arrival at t=0, then an endless saturating stream of
    /// high-priority work (5 s of service arriving every second).
    struct SaturatingSource {
        emitted: u64,
    }

    impl JobSource for SaturatingSource {
        fn classes(&self) -> usize {
            2
        }

        fn next_job(&mut self) -> Option<JobInstance> {
            let (class, arrival) = if self.emitted == 0 {
                (0, 0.0)
            } else {
                (1, self.emitted as f64)
            };
            let spec = JobSpec::builder(self.emitted, class)
                .stage(StageSpec::new(StageKind::Map, 20, Dist::constant(5.0)))
                .build();
            let mut rng = StdRng::seed_from_u64(self.emitted);
            let mut inst = JobInstance::sample(&spec, &mut rng);
            inst.arrival_secs = arrival;
            self.emitted += 1;
            Some(inst)
        }
    }

    #[test]
    fn starved_measured_job_errors_instead_of_spinning() {
        // Preemptive policy + overloaded high class: the single measured
        // low-priority job can never run to completion. The driver must give
        // up with `Starved` rather than loop forever.
        let err = Experiment::new(SaturatingSource { emitted: 0 }, Policy::preemptive(2))
            .jobs(1)
            .warmup(0)
            .run()
            .unwrap_err();
        assert!(matches!(
            err,
            ExperimentError::Starved {
                measured_done: 0,
                target: 1
            }
        ));
    }

    #[test]
    fn class_mismatch_rejected() {
        let err = Experiment::new(workload(10, 5.0, 1.0), Policy::preemptive(3))
            .jobs(5)
            .run()
            .unwrap_err();
        assert!(matches!(err, ExperimentError::ClassMismatch { .. }));
    }

    #[test]
    fn non_preemptive_never_evicts() {
        let report = Experiment::new(workload(200, 6.0, 2.0), Policy::non_preemptive(2))
            .jobs(150)
            .run()
            .unwrap();
        assert_eq!(report.evictions, 0);
        assert_eq!(report.waste_fraction(), 0.0);
        assert!(report.mean_response(1) > 0.0);
    }

    #[test]
    fn preemptive_wastes_work_under_load() {
        // Long low-priority jobs, frequent high arrivals: eviction must occur.
        let report = Experiment::new(workload(300, 4.0, 3.0), Policy::preemptive(2))
            .jobs(200)
            .run()
            .unwrap();
        assert!(report.evictions > 0, "expected evictions under P");
        assert!(report.waste_fraction() > 0.0);
        // High priority must be faster than low priority.
        assert!(report.mean_response(1) < report.mean_response(0));
        assert_energy_split_is_lossless(&report);
    }

    /// Mean execution time of class `k`, which the test asked to record.
    fn execution_mean(r: &ExperimentReport, k: usize) -> f64 {
        r.class_stats(k)
            .execution
            .as_ref()
            .expect("recorded")
            .mean()
    }

    #[test]
    fn drops_shrink_low_priority_execution() {
        let plain = Experiment::new(workload(200, 6.0, 2.0), Policy::non_preemptive(2))
            .jobs(150)
            .record(Series::EXECUTION)
            .run()
            .unwrap();
        let da = Experiment::new(
            workload(200, 6.0, 2.0),
            Policy::da_percent_high_to_low(&[0.0, 50.0]),
        )
        .jobs(150)
        .record(Series::EXECUTION)
        .run()
        .unwrap();
        // Dropping 50% of 40 map tasks removes one of the two waves, so the
        // low-class execution time must visibly shrink.
        assert!(
            execution_mean(&da, 0) < execution_mean(&plain, 0),
            "DA must shorten low-priority execution"
        );
        // High class execution untouched.
        let rel =
            (execution_mean(&da, 1) - execution_mean(&plain, 1)).abs() / execution_mean(&plain, 1);
        assert!(rel < 1e-9, "high-class execution must be identical");
    }

    #[test]
    fn unlimited_sprint_accelerates_top_class() {
        let plain = Experiment::new(workload(200, 6.0, 2.0), Policy::non_preemptive(2))
            .jobs(150)
            .record(Series::EXECUTION)
            .run()
            .unwrap();
        let policy = Policy::non_preemptive(2).with_sprint(SprintPolicy::unlimited_for_top(2));
        let nps = Experiment::new(workload(200, 6.0, 2.0), policy)
            .jobs(150)
            .record(Series::EXECUTION)
            .run()
            .unwrap();
        let ratio = execution_mean(&nps, 1) / execution_mean(&plain, 1);
        assert!(
            (ratio - 0.4).abs() < 0.02,
            "sprint-from-dispatch at 2.5x should scale high-class exec by 0.4, got {ratio}"
        );
        assert!(nps.sprint_secs > 0.0);
    }

    #[test]
    fn limited_budget_caps_sprinting() {
        let tiny_budget = SprintPolicy::top_class(2, 0.0, SprintBudget::limited(500.0, 0.0));
        // DiAS: the low class's drops plus the high class's sprints.
        let policy = Policy::da_percent_high_to_low(&[0.0, 20.0]).with_sprint(tiny_budget);
        let report = Experiment::new(workload(200, 6.0, 2.0), policy)
            .jobs(150)
            .run()
            .unwrap();
        // 500 J at 900 W extra = 0.55 s of sprint per refill, never replenished:
        // total sprint time is tiny but non-zero.
        assert!(report.sprint_secs > 0.0);
        assert!(report.sprint_secs < 2.0, "sprint {}", report.sprint_secs);
        assert_energy_split_is_lossless(&report);
    }

    /// `idle + Σ per-class active == total` to 1e-9 relative: the report's
    /// per-class books carry the driver's energy split whole.
    fn assert_energy_split_is_lossless(r: &ExperimentReport) {
        let active: f64 = r.per_class.iter().map(|c| c.active_energy_joules).sum();
        let rel = (r.idle_energy_joules + active - r.energy_joules).abs() / r.energy_joules;
        assert!(rel < 1e-9, "energy split off by {rel}");
        assert!(r.per_class.iter().all(|c| c.active_energy_joules > 0.0));
    }

    #[test]
    fn energy_is_positive_and_bounded() {
        let report = Experiment::new(workload(100, 6.0, 2.0), Policy::non_preemptive(2))
            .jobs(80)
            .run()
            .unwrap();
        let min = 900.0 * report.horizon_secs; // idle floor
        let max = 2700.0 * report.horizon_secs; // everything sprinting
        assert!(report.energy_joules > min && report.energy_joules < max);
    }

    #[test]
    fn source_exhaustion_ends_run() {
        let report = Experiment::new(workload(20, 5.0, 1.0), Policy::non_preemptive(2))
            .jobs(1000)
            .warmup(0)
            .run()
            .unwrap();
        let total: u64 = report.per_class.iter().map(|c| c.completed).sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn warmup_and_jobs_compose_in_any_order() {
        // Warm-up 3 over a 22-job source measures arrivals 3..22: 19 jobs.
        // A warm-up reset to `jobs / 10` would measure 20.
        let run = |exp: Experiment<VecJobSource>| exp.run().unwrap();
        let policy = Policy::non_preemptive(2);
        let warmup_first = run(Experiment::new(workload(22, 5.0, 1.0), policy.clone())
            .warmup(3)
            .jobs(20));
        let jobs_first = run(Experiment::new(workload(22, 5.0, 1.0), policy)
            .jobs(20)
            .warmup(3));
        for report in [&warmup_first, &jobs_first] {
            let total: u64 = report.per_class.iter().map(|c| c.completed).sum();
            assert_eq!(total, 19);
        }
        assert_eq!(
            warmup_first.mean_response(0).to_bits(),
            jobs_first.mean_response(0).to_bits()
        );
    }

    #[test]
    fn vec_source_validates_order() {
        let mut rng = StdRng::seed_from_u64(1);
        let spec = JobSpec::builder(0, 0)
            .stage(StageSpec::new(StageKind::Map, 1, Dist::constant(1.0)))
            .build();
        let mut a = JobInstance::sample(&spec, &mut rng);
        a.arrival_secs = 10.0;
        let mut b = JobInstance::sample(&spec, &mut rng);
        b.arrival_secs = 5.0;
        let result = std::panic::catch_unwind(|| VecJobSource::new(vec![a, b], 1));
        assert!(result.is_err());
    }
}

#[cfg(test)]
mod whole_cluster_tests {
    use std::collections::VecDeque;

    use super::*;
    use dias_engine::{ClusterSim, ClusterSpec, JobSpec, StageKind, StageSpec};
    use dias_stochastic::Dist;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const CLASSES: usize = 4;

    fn job(id: u64, class: usize) -> JobInstance {
        let spec = JobSpec::builder(id, class)
            .stage(StageSpec::new(StageKind::Map, 2, Dist::constant(1.0)))
            .build();
        JobInstance::sample(&spec, &mut StdRng::seed_from_u64(id))
    }

    /// The paper's Fig. 3 buffers: one FCFS queue per class, an evicted job
    /// back at the head of its class. Returns the dispatch order of job 0
    /// (class 0, running first) followed by `classes` submitted while it
    /// runs.
    fn buffer_model(classes: &[usize], preemptive: bool) -> Vec<u64> {
        let mut queues = vec![VecDeque::new(); CLASSES];
        let mut running = (0u64, 0usize);
        let mut log = vec![0];
        for (i, &class) in classes.iter().enumerate() {
            let id = i as u64 + 1;
            if preemptive && class > running.1 {
                queues[running.1].push_front(running.0);
                running = (id, class);
                log.push(id);
            } else {
                queues[class].push_back(id);
            }
        }
        while let Some(id) = queues.iter_mut().rev().find_map(VecDeque::pop_front) {
            log.push(id);
        }
        log
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn dispatch_respects_priority_then_fifo(
            classes in prop::collection::vec(0usize..CLASSES, 1..60),
            preemptive in any::<bool>(),
        ) {
            let mut engine = ClusterSim::with_scheduler(
                ClusterSpec::paper_reference(),
                Box::new(WholeCluster { preemptive }),
            )
            .unwrap();
            engine.submit_job(&job(0, 0), &[0.0]).unwrap();
            for (i, &class) in classes.iter().enumerate() {
                engine.submit_job(&job(i as u64 + 1, class), &[0.0]).unwrap();
            }
            while engine.advance().is_ok() {}
            let dispatched: Vec<u64> = engine.take_dispatched().iter().map(|d| d.job.0).collect();
            // Every attempt, re-dispatches of evicted jobs included, in the
            // order the per-class buffers would have released them.
            prop_assert_eq!(dispatched, buffer_model(&classes, preemptive));
        }
    }
}
