//! Multi-job experiments: a concurrent arrival stream driven straight into the
//! engine's scheduler, with per-class latency, energy and approximation-loss
//! reporting.
//!
//! Every arrival is [`ClusterSim::submit_job`]ed on release and the engine's
//! [`Scheduler`] policy decides whether it runs beside the current jobs on a
//! disjoint slot subset
//! ([`GangBinPack`](dias_engine::GangBinPack)), waits in the engine's pending
//! queue, or evicts lower-class jobs
//! ([`PriorityPreempt`](dias_engine::PriorityPreempt)). The
//! engine's per-job [`EnergyMeter`](dias_engine::EnergyMeter) attribution is
//! harvested per completion, so the report can split the cluster's active
//! energy by priority class — the measurement the paper's energy discussion
//! (§5.3) needs once jobs coexist. The paper's one-job-at-a-time
//! [`Experiment`](crate::Experiment) is this driver with a scheduler that
//! gives every job the whole cluster.
//!
//! Sprinting is *per gang*: a full [`SprintPolicy`] (per-class timeouts plus
//! a shared replenishing budget, the paper's §3.3 knobs) drives a
//! [`MultiSprinter`] whose start/stop events flip individual jobs' frequency
//! domains ([`ClusterSim::set_job_frequency`]) instead of the whole cluster.
//! Queueing is measured from the engine's dispatch log
//! ([`ClusterSim::take_dispatched`]) and decomposed into plain waiting
//! (arrival → first dispatch) and preemption re-execution loss (first → final
//! dispatch).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dias_des::stats::{SampleSet, SampleStats};
use dias_des::SimTime;
use dias_engine::{
    Checkpoint as EngineCheckpoint, ClusterSim, ClusterSpec, EngineEvent, EvictedWork, FaultCursor,
    FaultTrace, FreqLevel, IdMap, JobEnergy, JobId, JobInstance, Scheduler, Submission,
};
use dias_models::accuracy::{AccuracyCurve, SamplingErrorModel};

use crate::{
    DegradationPolicy, ExperimentError, JobSource, MultiSprinter, SprintBudget, SprintPolicy,
};

/// The optional per-class series a run records, as a set.
///
/// Every run records `completed` and `response` for each class. The series
/// named here are recorded only when a builder's `record` setter asks for
/// them ([`MultiJobExperiment::record`],
/// [`SoakExperiment::record`](crate::SoakExperiment::record),
/// [`FederationExperiment::record`](crate::FederationExperiment::record),
/// [`Experiment::record`](crate::Experiment::record)); the branch runners
/// take theirs from the [`MultiJobExperiment`] they are handed. A series
/// that was not asked for is `None` in the report, never an empty set that
/// reads as 0. The default is the empty set.
///
/// ```
/// use dias_core::Series;
///
/// let breakdown = Series::QUEUEING | Series::EXECUTION;
/// assert!(breakdown.contains(Series::EXECUTION));
/// assert!(!breakdown.contains(Series::DROP_FRACTION));
/// assert!(Series::ALL.contains(breakdown));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Series(u8);

impl Series {
    /// Arrival → final-attempt dispatch ([`MultiClassStats::queueing`]) and
    /// its exact decomposition into [`MultiClassStats::dispatch_wait`] and
    /// [`MultiClassStats::reexec_loss`].
    pub const QUEUEING: Series = Series(1);
    /// Final-attempt execution time ([`MultiClassStats::execution`]).
    pub const EXECUTION: Series = Series(1 << 1);
    /// Fraction of tasks dropped ([`MultiClassStats::drop_fraction`]).
    pub const DROP_FRACTION: Series = Series(1 << 2);
    /// Every optional series.
    pub const ALL: Series = Series(0b111);

    /// Whether every series of `other` is in this set.
    #[must_use]
    pub const fn contains(self, other: Series) -> bool {
        self.0 & other.0 == other.0
    }
}

impl std::ops::BitOr for Series {
    type Output = Series;

    fn bitor(self, other: Series) -> Series {
        Series(self.0 | other.0)
    }
}

/// Per-class outcomes of a [`MultiJobExperiment`].
///
/// Generic over the statistics backend `B`: closed fixed-N experiments use
/// the default exact [`SampleSet`]; the open-system soak driver
/// ([`SoakExperiment`](crate::SoakExperiment)) instantiates it with
/// [`StreamingSummary`](dias_des::stats::StreamingSummary) so per-class
/// memory stays O(1) over millions of jobs. The scalar counters and energy
/// fields mean the same thing under either backend.
///
/// `completed` and `response` are always recorded. The five `Option`
/// series hold a set only when the run's [`Series`] asked for them, and are
/// `None` otherwise; [`Series::QUEUEING`] records `queueing` together with
/// its decomposition `dispatch_wait` + `reexec_loss`. By the same rule
/// `slo_attained` is `None` unless the run set SLO targets.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MultiClassStats<B: SampleStats = SampleSet> {
    /// Completed measured jobs of the class.
    pub completed: u64,
    /// End-to-end response times (arrival → completion) of measured jobs.
    pub response: B,
    /// Queueing + re-execution times, measured from the engine's dispatch
    /// log: arrival → final-attempt dispatch. Decomposes exactly into
    /// [`MultiClassStats::dispatch_wait`] + [`MultiClassStats::reexec_loss`].
    /// Recorded under [`Series::QUEUEING`].
    pub queueing: Option<B>,
    /// Plain waiting: arrival → *first* dispatch (time spent purely queued,
    /// no work lost). Recorded under [`Series::QUEUEING`].
    pub dispatch_wait: Option<B>,
    /// Preemption re-execution loss: first dispatch → final dispatch (the
    /// destroyed attempts plus the re-queue waits between them; 0 for jobs
    /// never evicted). Recorded under [`Series::QUEUEING`].
    pub reexec_loss: Option<B>,
    /// Final-attempt execution times. Recorded under [`Series::EXECUTION`].
    pub execution: Option<B>,
    /// Fraction of each measured job's tasks dropped by the deflator — the
    /// approximation the class absorbed (0 for exact classes). Recorded
    /// under [`Series::DROP_FRACTION`].
    pub drop_fraction: Option<B>,
    /// Evictions suffered by measured jobs of this class.
    pub evictions: u64,
    /// The subset of `evictions` caused by slot failures (as opposed to
    /// priority preemption).
    pub failure_evictions: u64,
    /// Measured jobs of the class whose response time met the per-class SLO
    /// target; `None` unless [`MultiJobExperiment::slos`] set targets.
    pub slo_attained: Option<u64>,
    /// Active (above-idle) energy attributed to *all* attempts of this
    /// class's jobs over the whole run, evicted attempts included, in joules.
    pub active_energy_joules: f64,
    /// Busy slot-seconds attributed to the class (all attempts).
    pub busy_slot_secs: f64,
    /// The subset of `busy_slot_secs` spent at sprint frequency.
    pub sprint_slot_secs: f64,
}

/// Pushes `x` into `series` when it is recorded.
fn push<B: SampleStats>(series: &mut Option<B>, x: f64) {
    if let Some(b) = series {
        b.push(x);
    }
}

/// Merges `other` into `mine`. A series kept by only one side would cover
/// only part of the completions, so it becomes `None`.
fn merge_series<B: SampleStats>(mine: &mut Option<B>, other: &Option<B>) {
    match (mine.as_mut(), other) {
        (Some(a), Some(b)) => a.merge(b),
        _ => *mine = None,
    }
}

impl<B: SampleStats> MultiClassStats<B> {
    /// Empty statistics that record `response` and the series in `series`,
    /// each set built by `new`, and count `slo_attained` when `scored`.
    pub(crate) fn recording(series: Series, scored: bool, new: impl Fn() -> B) -> Self {
        let kept = |s| series.contains(s).then(&new);
        MultiClassStats {
            response: new(),
            slo_attained: scored.then_some(0),
            queueing: kept(Series::QUEUEING),
            dispatch_wait: kept(Series::QUEUEING),
            reexec_loss: kept(Series::QUEUEING),
            execution: kept(Series::EXECUTION),
            drop_fraction: kept(Series::DROP_FRACTION),
            ..Default::default()
        }
    }

    /// Mean drop fraction of the class's measured jobs; `None` unless
    /// [`Series::DROP_FRACTION`] was recorded.
    #[must_use]
    pub fn mean_drop_fraction(&self) -> Option<f64> {
        self.drop_fraction.as_ref().map(SampleStats::mean)
    }

    /// Folds one measured completion into the class statistics — the single
    /// recording path shared by the closed driver (exact backend) and the
    /// open-system soak (streaming backend), so the two can never drift in
    /// what they count. Only the recorded series are pushed. `slos` are the
    /// per-class response-time targets, if any.
    pub(crate) fn record(&mut self, obs: &CompletionObs, slos: Option<&[f64]>) {
        self.completed += 1;
        self.response.push(obs.response);
        push(&mut self.execution, obs.execution);
        push(&mut self.dispatch_wait, obs.dispatch_wait);
        push(&mut self.reexec_loss, obs.reexec_loss);
        push(&mut self.queueing, obs.queueing);
        push(&mut self.drop_fraction, obs.drop_fraction);
        self.evictions += u64::from(obs.evictions);
        self.failure_evictions += u64::from(obs.failure_evictions);
        if let Some(n) = &mut self.slo_attained {
            *n += u64::from(obs.meets_slo(slos));
        }
    }

    /// Expected relative analysis error (%) for the class's mean drop
    /// fraction under `curve` — the approximation-loss number the paper's
    /// Fig. 6 maps drop ratios onto. `None` unless
    /// [`Series::DROP_FRACTION`] was recorded.
    #[must_use]
    pub fn approximation_loss_pct(&self, curve: &dyn AccuracyCurve) -> Option<f64> {
        self.mean_drop_fraction().map(|d| curve.error_at(d))
    }

    /// Fraction of the class's completed measured jobs that met the SLO
    /// target (1.0 when no jobs completed, mirroring "no violations");
    /// `None` unless the run set SLO targets.
    #[must_use]
    pub fn slo_attainment(&self) -> Option<f64> {
        self.slo_attained.map(|n| {
            if self.completed == 0 {
                1.0
            } else {
                n as f64 / self.completed as f64
            }
        })
    }

    /// Live heap objects over `response` and the recorded series: the
    /// buffered samples of an exact [`SampleSet`], the sketch nodes of a
    /// [`StreamingSummary`](dias_des::stats::StreamingSummary).
    #[must_use]
    pub fn live_nodes(&self) -> usize {
        let optional = [
            &self.queueing,
            &self.dispatch_wait,
            &self.reexec_loss,
            &self.execution,
            &self.drop_fraction,
        ];
        self.response.live_nodes()
            + optional
                .into_iter()
                .flatten()
                .map(B::live_nodes)
                .sum::<usize>()
    }

    /// Merges another report's statistics for the same class into this one.
    ///
    /// The series merge as their backend does (exact concatenation for a
    /// [`SampleSet`]) and the counters/energies add, so folding per-shard
    /// federation reports in shard order yields the same statistics
    /// regardless of how many worker threads (or which epoch length)
    /// produced them. Only series, and the SLO count, present on both sides
    /// are merged; one missing from either side is `None` after.
    pub fn merge(&mut self, other: &Self) {
        self.completed += other.completed;
        self.response.merge(&other.response);
        merge_series(&mut self.queueing, &other.queueing);
        merge_series(&mut self.dispatch_wait, &other.dispatch_wait);
        merge_series(&mut self.reexec_loss, &other.reexec_loss);
        merge_series(&mut self.execution, &other.execution);
        merge_series(&mut self.drop_fraction, &other.drop_fraction);
        self.evictions += other.evictions;
        self.failure_evictions += other.failure_evictions;
        self.slo_attained = self
            .slo_attained
            .zip(other.slo_attained)
            .map(|(a, b)| a + b);
        self.active_energy_joules += other.active_energy_joules;
        self.busy_slot_secs += other.busy_slot_secs;
        self.sprint_slot_secs += other.sprint_slot_secs;
    }
}

/// The full outcome of one multi-job run: the totals and per-class books
/// every report in the crate keeps.
///
/// Generic over the statistics backend `B` like [`MultiClassStats`]: the
/// closed run and the fleet keep exact [`SampleSet`]s, and the soak's
/// [`SoakReport::totals`](crate::SoakReport::totals) keeps
/// [`StreamingSummary`](dias_des::stats::StreamingSummary) sketches. The
/// fleet's [`FederationReport::totals`](crate::FederationReport::totals) is
/// the [`MultiJobReport::merge`] of its shards' reports.
///
/// Reports compare with `==` bit-exactly: the conformance oracle relies on
/// a resumed suffix replay producing a report identical to a full run's,
/// float for float.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MultiJobReport<B: SampleStats = SampleSet> {
    /// Label of the scheduler policy that produced this report (a merge
    /// keeps the label of the report merged into).
    pub scheduler: String,
    /// Per-class statistics, indexed by class (higher = higher priority).
    pub per_class: Vec<MultiClassStats<B>>,
    /// Wall-clock horizon of the run in seconds (a merge keeps the later).
    pub horizon_secs: f64,
    /// Total cluster energy over the horizon, in joules.
    pub energy_joules: f64,
    /// Energy a fully idle cluster would have consumed over the horizon.
    pub idle_energy_joules: f64,
    /// Machine-seconds of work destroyed by evictions.
    pub wasted_work_secs: f64,
    /// Machine-seconds of work performed (completed attempts).
    pub total_work_secs: f64,
    /// Evictions across the whole run.
    pub evictions: u64,
    /// Slot-seconds busy across all jobs and attempts.
    pub busy_slot_secs: f64,
    /// Slots of the cluster (a merge adds them up).
    pub slots: usize,
    /// Average fraction of the slot capacity in use: `busy_slot_secs` over
    /// `slots × horizon_secs`, at most 1. A merged report counts a cluster
    /// that drained early as idle capacity up to the later horizon.
    pub utilization: f64,
    /// Joules the sprint budget spent over the run (0 without a sprint policy
    /// or with an unlimited budget).
    pub sprint_budget_spent_j: f64,
    /// Joules replenished into the sprint budget over the run.
    pub sprint_budget_replenished_j: f64,
    /// Sprint budget remaining at the end of the run (∞ for an unlimited
    /// budget, 0 without a sprint policy).
    pub sprint_budget_remaining_j: f64,
    /// Evictions caused by slot failures (subset of
    /// [`MultiJobReport::evictions`]).
    pub failure_evictions: u64,
    /// Machine-seconds of work destroyed by slot failures (subset of
    /// [`MultiJobReport::wasted_work_secs`]).
    pub failure_lost_work_secs: f64,
    /// Fault batches that changed the schedulable pool (the effective slot
    /// count) over the run; 0 for fault-free runs. The run starts at the full
    /// slot count, and each change is a pure function of the fault-trace
    /// prefix applied so far, so the `(time, effective slots)` timeline can
    /// be rebuilt from the trace without storing it here.
    pub capacity_changes: u64,
}

impl<B: SampleStats> MultiJobReport<B> {
    /// Mean response time of class `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[must_use]
    pub fn mean_response(&self, k: usize) -> f64 {
        self.per_class[k].response.mean()
    }

    /// 95th-percentile response time of class `k` (within the sketch's rank
    /// error on the streaming backend).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[must_use]
    pub fn p95_response(&self, k: usize) -> f64 {
        self.per_class[k].response.p95()
    }

    /// Measured completions across every class.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.per_class.iter().map(|c| c.completed).sum()
    }

    /// Fraction of performed work destroyed by evictions.
    #[must_use]
    pub fn waste_fraction(&self) -> f64 {
        let denom = self.total_work_secs + self.wasted_work_secs;
        if denom > 0.0 {
            self.wasted_work_secs / denom
        } else {
            0.0
        }
    }

    /// Folds another run's report into this one, class by class as
    /// [`MultiClassStats::merge`] does. Counters, energies, work, slots and
    /// sprint-budget books add, the horizon is the later one and
    /// `utilization` is taken afresh over the merged capacity. The fleet
    /// folds its shards' reports into empty books in shard order, so its
    /// totals are the same floats whatever thread count or epoch length
    /// produced the shards.
    pub fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.per_class.iter_mut().zip(&other.per_class) {
            mine.merge(theirs);
        }
        self.horizon_secs = self.horizon_secs.max(other.horizon_secs);
        self.energy_joules += other.energy_joules;
        self.idle_energy_joules += other.idle_energy_joules;
        self.wasted_work_secs += other.wasted_work_secs;
        self.total_work_secs += other.total_work_secs;
        self.evictions += other.evictions;
        self.busy_slot_secs += other.busy_slot_secs;
        self.slots += other.slots;
        self.sprint_budget_spent_j += other.sprint_budget_spent_j;
        self.sprint_budget_replenished_j += other.sprint_budget_replenished_j;
        self.sprint_budget_remaining_j += other.sprint_budget_remaining_j;
        self.failure_evictions += other.failure_evictions;
        self.failure_lost_work_secs += other.failure_lost_work_secs;
        self.capacity_changes += other.capacity_changes;
        self.update_utilization();
    }

    /// Sets `utilization` from the busy slot-seconds, the slots and the
    /// horizon.
    fn update_utilization(&mut self) {
        let capacity = self.horizon_secs * self.slots as f64;
        self.utilization = if capacity > 0.0 {
            (self.busy_slot_secs / capacity).min(1.0)
        } else {
            0.0
        };
    }

    /// Attributes one job's energy ledger to class `class`.
    fn add_energy(&mut self, class: usize, energy: &JobEnergy) {
        let stats = &mut self.per_class[class];
        stats.active_energy_joules += energy.active_joules;
        stats.busy_slot_secs += energy.busy_slot_secs;
        stats.sprint_slot_secs += energy.sprint_slot_secs;
        self.busy_slot_secs += energy.busy_slot_secs;
    }
}

/// A configured multi-job experiment: source + engine scheduler + per-class
/// drop ratios, measuring a fixed window of the arrival sequence.
///
/// The report records each class's `completed` count and `response` times,
/// plus the optional series asked for with [`MultiJobExperiment::record`]
/// (none by default).
///
/// # Examples
///
/// ```
/// use dias_core::{MultiJobExperiment, Series, VecJobSource};
/// use dias_engine::{GangBinPack, JobInstance, JobSpec, StageKind, StageSpec};
/// use dias_stochastic::Dist;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(3);
/// let jobs: Vec<JobInstance> = (0..40u64)
///     .map(|i| {
///         let spec = JobSpec::builder(i, usize::from(i % 4 == 0))
///             .setup(Dist::constant(1.0))
///             .stage(StageSpec::new(StageKind::Map, 8, Dist::exponential(2.0)))
///             .build();
///         let mut inst = JobInstance::sample(&spec, &mut rng);
///         inst.arrival_secs = i as f64 * 2.0;
///         inst
///     })
///     .collect();
/// let report = MultiJobExperiment::new(VecJobSource::new(jobs, 2), Box::new(GangBinPack))
///     .jobs(30)
///     .warmup(5)
///     .record(Series::EXECUTION)
///     .run()
///     .unwrap();
/// assert_eq!(report.scheduler, "GangBinPack");
/// assert!(report.mean_response(0) > 0.0);
/// assert!(report.per_class[0].execution.is_some());
/// assert!(report.per_class[0].queueing.is_none());
/// ```
#[derive(Debug)]
pub struct MultiJobExperiment<S> {
    source: S,
    scheduler: Box<dyn Scheduler>,
    pub(crate) cluster: ClusterSpec,
    /// Per-class drop ratio applied to droppable stages.
    thetas: Option<Vec<f64>>,
    sprint: Option<SprintPolicy>,
    sprint_draw_cap_w: Option<f64>,
    jobs: usize,
    warmup: Option<usize>,
    faults: FaultTrace,
    pub(crate) slos: Option<Vec<f64>>,
    degrade: Option<DegradationPolicy>,
    /// Arrivals drawn ahead and released together, at the latest arrival
    /// time among them. 1 everywhere except the soak, which sets it from
    /// [`SoakExperiment::arrival_batch`](crate::SoakExperiment::arrival_batch).
    pub(crate) arrival_batch: usize,
    /// The optional per-class series the report records.
    pub(crate) series: Series,
}

/// Driver-side record of one submitted job.
#[derive(Debug, Clone)]
struct JobMeta {
    class: usize,
    arrival_secs: f64,
    seq: usize,
    evictions: u32,
    /// The subset of `evictions` inflicted by slot failures.
    failure_evictions: u32,
    /// Dispatch count of the job so far (bumped per attempt); sprint timers
    /// are armed per attempt and die with it on eviction.
    attempt: u32,
    /// When the first attempt started executing.
    first_dispatch: Option<f64>,
    /// When the latest attempt started executing.
    last_dispatch: f64,
    /// Gang width of the latest attempt — the slot count a sprint is charged
    /// for.
    width: usize,
}

/// A pending per-attempt sprint timer: when it fires, `job`'s domain starts
/// sprinting if the attempt is still running and the budget allows.
///
/// The derived order is field order, `(at, seq)` first: [`TimerHeap`] fires
/// timers in time order and, at equal times, in the order they were armed
/// (`seq` is unique, so the later fields never decide).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct SprintTimer {
    at: SimTime,
    /// Arming sequence number: the tie-break among timers due together.
    seq: u64,
    job: JobId,
    attempt: u32,
}

/// Armed sprint timers, earliest on top.
///
/// A timer dies with its attempt (the job finished, or was evicted and will
/// re-arm under a new attempt). Dead timers are not searched for: they are
/// dropped when they reach the top, which is all the arbiter needs — the
/// earliest *live* timer — at O(log n) per timer.
type TimerHeap = BinaryHeap<Reverse<SprintTimer>>;

/// One arm of the driver's event arbiter, in the loop's fixed tie order:
/// engine event → budget depletion → sprint timers → faults → arrival.
/// [`MultiDriver::next_arm`] picks the arm, [`MultiDriver::step`] executes
/// it, and [`MultiDriver::run_until`] is the one loop over the pair. Every
/// driver in the crate — closed run, soak, federation shard and, through a
/// whole-cluster scheduler, the paper's one-job
/// [`Experiment`](crate::Experiment) — runs that loop with its own
/// [`Recorder`], so the tie order, the stop rule and the starvation
/// watchdog are each written down once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LoopArm {
    /// The engine's next calendar event.
    Engine,
    /// The sprint budget runs dry.
    Depletion,
    /// A per-attempt sprint timer fires.
    Timer,
    /// A fault-trace batch is due.
    Fault,
    /// The drawn arrivals are released.
    Arrival,
}

impl<S: JobSource> MultiJobExperiment<S> {
    /// Creates an experiment on the paper's reference cluster, measuring 1000
    /// jobs (by arrival order) after a 10% warm-up, with no approximation and
    /// no sprinting.
    #[must_use]
    pub fn new(source: S, scheduler: Box<dyn Scheduler>) -> Self {
        MultiJobExperiment {
            source,
            scheduler,
            cluster: ClusterSpec::paper_reference(),
            thetas: None,
            sprint: None,
            sprint_draw_cap_w: None,
            jobs: 1000,
            warmup: None,
            faults: FaultTrace::empty(),
            slos: None,
            degrade: None,
            arrival_batch: 1,
            series: Series::default(),
        }
    }

    /// Sets the number of measured jobs — arrivals `warmup..warmup + n`
    /// (warm-up defaults to 10% of it unless [`MultiJobExperiment::warmup`]
    /// set it explicitly; the two builder calls compose in any order).
    #[must_use]
    pub fn jobs(mut self, n: usize) -> Self {
        self.jobs = n;
        self
    }

    /// Overrides the warm-up: the first `n` *arrivals* are processed but not
    /// measured.
    #[must_use]
    pub fn warmup(mut self, n: usize) -> Self {
        self.warmup = Some(n);
        self
    }

    /// Sets the optional per-class series the report records besides
    /// `completed` and `response`, for example
    /// `.record(Series::QUEUEING | Series::EXECUTION)`. By default none is
    /// recorded, and an unrecorded series reads `None`
    /// ([`MultiClassStats`]).
    #[must_use]
    pub fn record(mut self, series: Series) -> Self {
        self.series = series;
        self
    }

    /// Overrides the cluster specification.
    #[must_use]
    pub fn cluster(mut self, spec: ClusterSpec) -> Self {
        self.cluster = spec;
        self
    }

    /// Sets per-class drop ratios for droppable stages, indexed by class
    /// (index 0 = lowest priority) — differential approximation across
    /// concurrent jobs. Each ratio must lie in `[0, 1]`; the run checks it.
    #[must_use]
    pub fn drops(mut self, thetas: &[f64]) -> Self {
        self.thetas = Some(thetas.to_vec());
        self
    }

    /// Runs a full [`SprintPolicy`] over the concurrent jobs: each dispatched
    /// attempt of a sprinting class arms a per-attempt timer; when it fires,
    /// only that job's frequency domain sprints
    /// ([`ClusterSim::set_job_frequency`]), charged to the policy's shared
    /// budget at [`ClusterSpec::sprint_extra_slot_power_w`] per slot of its
    /// gang. Budget depletion drops every sprinting domain back to base
    /// together (the paper's single-switch semantics).
    ///
    /// [`SprintPolicy::unlimited_for_top`] is the simplest differential
    /// rule: top-class jobs sprint their own gangs from dispatch with no
    /// budget limit, while lower-class neighbours stay at base.
    #[must_use]
    pub fn sprint(mut self, policy: SprintPolicy) -> Self {
        self.sprint = Some(policy);
        self
    }

    /// Injects a deterministic fault stream: each [`FaultTrace`] event is
    /// applied to the engine at its timestamp, interleaved with engine
    /// events, sprint bookkeeping and arrivals at a fixed tie order (engine
    /// event → budget depletion → sprint timers → faults → arrival).
    /// Failure victims re-queue at the head of the pending queue and are
    /// accounted as failure evictions. An empty trace (the default)
    /// reproduces the fault-free run bit for bit. The run reads the trace
    /// through a [`FaultTrace::cursor`], so a generated trace is drawn as
    /// the run goes and never stored.
    #[must_use]
    pub fn faults(mut self, trace: FaultTrace) -> Self {
        self.faults = trace;
        self
    }

    /// Sets per-class response-time SLO targets in seconds (index 0 = lowest
    /// class). Each completed measured job whose arrival→completion response
    /// is within its class target counts toward
    /// [`MultiClassStats::slo_attained`]. Each target must be positive; the
    /// run checks it.
    #[must_use]
    pub fn slos(mut self, targets: &[f64]) -> Self {
        self.slos = Some(targets.to_vec());
        self
    }

    /// Installs a graceful-degradation controller: the policy's *base* drop
    /// vector replaces [`MultiJobExperiment::drops`], and whenever the fault
    /// stream changes the effective slot pool the controller escalates
    /// per-class drop fractions toward the policy's caps
    /// ([`DegradationPolicy::thetas_for`]). Escalated thetas apply to jobs
    /// *arriving* after the capacity change (in-flight jobs keep their drop
    /// decision, exactly like the paper's dispatch-time deflator).
    #[must_use]
    pub fn degrade(mut self, policy: DegradationPolicy) -> Self {
        self.degrade = Some(policy);
        self
    }

    /// Caps the aggregate extra power draw of concurrently sprinting gangs
    /// at `cap_w` watts: a sprint start that would push the combined drain
    /// rate past the cap is refused (the attempt's timer has fired and is
    /// not re-armed, exactly as a budget refusal behaves). `None` — the
    /// default — reproduces the uncapped run bit for bit.
    ///
    /// This is the power-cap coupling of the sharded federation
    /// ([`FederationExperiment`](crate::FederationExperiment)), which
    /// partitions a fleet-wide cap into per-shard caps proportional to slot
    /// share.
    #[must_use]
    pub(crate) fn sprint_draw_cap(mut self, cap_w: Option<f64>) -> Self {
        self.sprint_draw_cap_w = cap_w;
        self
    }

    /// Runs the closed loop until the measured jobs complete (or the source
    /// is exhausted) and reports the measurements.
    ///
    /// Measurement is keyed on *arrival order* exactly as in
    /// [`Experiment::run`](crate::Experiment::run), so reports are directly
    /// comparable across scheduler policies. Energy, waste and utilization
    /// span the whole run. With a sprint policy configured, per-attempt sprint
    /// timers, budget-depletion stops and per-gang domain switches are
    /// interleaved with engine events and arrivals at exact event times.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError::ClassMismatch`] when the drop vector or the
    /// sprint policy and the source disagree on the number of classes,
    /// [`ExperimentError::InvalidConfig`] naming `drops` for a ratio outside
    /// `[0, 1]` (NaN included), `slos` for a target that is not positive,
    /// `sprint` for a hand-built policy with a negative or NaN timeout or
    /// budget figure, or `source` for a job whose class the source does not
    /// declare, a wrapped engine error if submission fails, or
    /// [`ExperimentError::Starved`] when a measured job cannot complete under
    /// the offered load.
    pub fn run(self) -> Result<MultiJobReport, ExperimentError> {
        MultiDriver::build(self, SampleSet::new)?.run_closed()
    }
}

impl<S: JobSource + Clone> MultiJobExperiment<S> {
    /// Whether this configuration is eligible for checkpoint-and-branch
    /// re-execution ([`MultiJobExperiment::run_recording`] /
    /// [`MultiJobExperiment::run_from`]).
    ///
    /// Graceful degradation couples the drop vector to the fault schedule at
    /// run time (the divergence index could not be computed from the sweep
    /// parameters alone), and SLO-scored runs are excluded conservatively;
    /// both fall back to full replay in the branch-aware sweep runner.
    #[must_use]
    pub fn branchable(&self) -> bool {
        self.degrade.is_none() && self.slos.is_none()
    }

    /// The `InvalidConfig` a branch runner returns for a configuration that
    /// is not [`MultiJobExperiment::branchable`], naming the setting that
    /// disables branching.
    fn check_branchable(&self) -> Result<(), ExperimentError> {
        let field = match (&self.degrade, &self.slos) {
            (None, None) => return Ok(()),
            (Some(_), _) => "degrade",
            (None, Some(_)) => "slos",
        };
        let reason = "degradation/SLO runs conservatively disable branching";
        Err(ExperimentError::invalid(field, reason))
    }

    /// Runs exactly like [`MultiJobExperiment::run`] while recording a
    /// branchable [`MultiRunTrace`]: a resume checkpoint every `stride`
    /// arrivals (a clone of the driver's run state — books, fault cursor and
    /// the source, its replay RNG positioned at the checkpoint's draw offset
    /// — plus an engine checkpoint) and a per-arrival drop signature for
    /// divergence detection.
    ///
    /// Recording does not perturb the run: the returned report is
    /// bit-identical to what [`MultiJobExperiment::run`] produces.
    ///
    /// # Errors
    ///
    /// As [`MultiJobExperiment::run`], plus [`ExperimentError::InvalidConfig`]
    /// naming `stride` when it is zero, or `degrade` or `slos` when the
    /// configuration is not [`MultiJobExperiment::branchable`].
    pub fn run_recording(
        self,
        stride: usize,
    ) -> Result<(MultiJobReport, MultiRunTrace<S>), ExperimentError> {
        if stride == 0 {
            return Err(ExperimentError::invalid(
                "stride",
                "checkpoint stride must be positive",
            ));
        }
        self.check_branchable()?;
        let (thetas, series) = (self.thetas.clone(), self.series);
        let mut driver = MultiDriver::build(self, SampleSet::new)?;
        let mut recording = Recording {
            stride,
            checkpoints: Vec::new(),
            signatures: Vec::new(),
        };
        driver.run_until(SimTime::FAR_FUTURE, &mut recording)?;
        let events_total = driver.run.events_done;
        let report = driver.finalize();
        let trace = MultiRunTrace {
            thetas,
            series,
            checkpoints: recording.checkpoints,
            signatures: recording.signatures,
            events_total,
        };
        Ok((report, trace))
    }

    /// Replays only this experiment's *suffix* against a recorded reference
    /// run: restores the latest checkpoint at or before the divergence index
    /// — the first arrival that the reference thetas and this experiment's
    /// thetas deflate differently — and drives to completion from there.
    ///
    /// This experiment must be configured identically to the recorded
    /// reference in everything except the drop vector: same source stream,
    /// cluster, scheduler policy, sprint policy, fault trace, measurement
    /// window and recorded [`Series`]. Under that contract the result is bit-identical to a full
    /// [`MultiJobExperiment::run`]: before the divergence index every
    /// arrival's post-drop work is equal by construction, so the reference
    /// prefix *is* this point's prefix.
    ///
    /// # Errors
    ///
    /// As [`MultiJobExperiment::run`], plus [`ExperimentError::InvalidConfig`]
    /// naming `degrade` or `slos` when the configuration is not
    /// [`MultiJobExperiment::branchable`], or `record` when it asks for other
    /// series than the reference recorded (the resumed books are the
    /// reference's).
    pub fn run_from(self, trace: &MultiRunTrace<S>) -> Result<MultiJobReport, ExperimentError> {
        self.check_branchable()?;
        if self.series != trace.series {
            return Err(ExperimentError::invalid(
                "record",
                format!(
                    "series {:?} differ from the reference run's {:?}",
                    self.series, trace.series
                ),
            ));
        }
        let divergence = trace.divergence_index(self.thetas.as_deref());
        let Some(cp) = trace.checkpoint_before(divergence) else {
            // Nothing recorded before the divergence (empty trace): replay in
            // full.
            return self.run();
        };
        let mut driver = MultiDriver::build(self, SampleSet::new)?;
        driver.engine.restore(&cp.1);
        driver.run.clone_from(&cp.0);
        driver.run_closed()
    }
}

/// One arrival's drop-relevant shape: its class plus each stage's drawn task
/// count and droppability — everything needed to decide whether two theta
/// vectors deflate the job identically.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ArrivalSignature {
    class: usize,
    /// Per stage: `(drawn task count, droppable)`.
    stages: Vec<(usize, bool)>,
}

impl ArrivalSignature {
    fn of(instance: &JobInstance) -> Self {
        ArrivalSignature {
            class: instance.class(),
            stages: instance
                .task_secs
                .iter()
                .zip(&instance.spec.stages)
                .map(|(ts, s)| (ts.len(), s.kind.droppable()))
                .collect(),
        }
    }

    /// Whether theta vectors `a` and `b` deflate this arrival identically.
    ///
    /// Behaviour-exact, not merely theta-equality: the engine keeps
    /// `⌈n(1−θ)⌉` tasks per droppable stage and derives *everything* else
    /// (width, setup scaling, drop counts) from those kept counts, so two
    /// different thetas that round to the same kept count per stage simulate
    /// bit-identically. That is what makes fine-grained theta grids diverge
    /// late: nearby points share long prefixes.
    fn same_drops(&self, a: Option<&[f64]>, b: Option<&[f64]>) -> bool {
        let ta = a.map_or(0.0, |t| t[self.class]);
        let tb = b.map_or(0.0, |t| t[self.class]);
        if ta == tb {
            return true;
        }
        self.stages
            .iter()
            .all(|&(n, droppable)| !droppable || keep_count(n, ta) == keep_count(n, tb))
    }
}

/// Kept-task count of an `n`-task stage under drop ratio `theta` — the exact
/// float expression the engine's deflator uses, mirrored so divergence
/// detection never disagrees with the simulation.
fn keep_count(n: usize, theta: f64) -> usize {
    ((n as f64) * (1.0 - theta)).ceil() as usize
}

/// What is wrong with a sprint policy, if anything: a negative or NaN
/// timeout or budget figure. These are the rules [`SprintPolicy::top_class`]
/// and [`SprintBudget::limited`] assert, checked here for hand-built
/// policies, except that a zero budget stays valid (it never sprints).
fn sprint_policy_error(policy: &SprintPolicy) -> Option<String> {
    let bad = |x: f64| x.is_nan() || x < 0.0;
    if let Some(t) = policy.timeouts.iter().flatten().find(|t| bad(**t)) {
        return Some(format!("sprint timeout {t} is negative or NaN"));
    }
    match policy.budget {
        SprintBudget::Limited {
            initial_j,
            replenish_w,
            cap_j,
        } if bad(initial_j) || bad(replenish_w) || bad(cap_j) => Some(format!(
            "budget {initial_j} J, replenish {replenish_w} W, cap {cap_j} J: \
             a figure is negative or NaN"
        )),
        _ => None,
    }
}

/// A resume point of a recorded reference run, captured immediately before
/// the drawn arrivals were submitted: a clone of the driver's run state and
/// an engine checkpoint. Resuming is the reverse: restore both, keep the
/// resuming experiment's configuration (its divergent thetas are exactly the
/// point of branching).
struct MultiCheckpoint<S>(RunState<S>, EngineCheckpoint);

/// The branchable record of one reference run, produced by
/// [`MultiJobExperiment::run_recording`]: resume checkpoints at arrival
/// boundaries plus per-arrival drop signatures for divergence detection.
///
/// One trace serves every other sweep point of a theta-only sweep:
/// [`MultiJobExperiment::run_from`] restores the latest checkpoint at or
/// before the point's divergence index and replays only the suffix.
pub struct MultiRunTrace<S> {
    /// The reference run's theta vector (divergence is measured against it).
    thetas: Option<Vec<f64>>,
    /// The series the reference run's books record.
    series: Series,
    checkpoints: Vec<MultiCheckpoint<S>>,
    signatures: Vec<ArrivalSignature>,
    events_total: u64,
}

impl<S> MultiRunTrace<S> {
    /// Arrivals the reference run submitted.
    #[must_use]
    pub fn arrivals(&self) -> usize {
        self.signatures.len()
    }

    /// Engine events the reference run processed — the cost a full replay of
    /// one sweep point would pay again.
    #[must_use]
    pub fn events_total(&self) -> u64 {
        self.events_total
    }

    /// Resume checkpoints recorded (one per `stride` arrivals).
    #[must_use]
    pub fn checkpoints(&self) -> usize {
        self.checkpoints.len()
    }

    /// The divergence index of a sweep point with drop vector `thetas`: the
    /// first arrival the reference and the point deflate differently, or
    /// [`MultiRunTrace::arrivals`] when the two simulate identically
    /// throughout.
    #[must_use]
    pub fn divergence_index(&self, thetas: Option<&[f64]>) -> usize {
        self.signatures
            .iter()
            .position(|sig| !sig.same_drops(self.thetas.as_deref(), thetas))
            .unwrap_or(self.signatures.len())
    }

    /// The checkpoint a resume at `divergence` restores, as `(arrival index,
    /// engine events skipped)`; `None` when nothing was recorded at or before
    /// it.
    #[must_use]
    pub fn resume_point(&self, divergence: usize) -> Option<(usize, u64)> {
        self.checkpoint_before(divergence)
            .map(|c| (c.0.arrival_seq, c.0.events_done))
    }

    /// The latest checkpoint at or before arrival `divergence`.
    fn checkpoint_before(&self, divergence: usize) -> Option<&MultiCheckpoint<S>> {
        self.checkpoints
            .iter()
            .rev()
            .find(|c| c.0.arrival_seq <= divergence)
    }
}

/// What a caller of [`MultiDriver::run_until`] adds to the one loop: how a
/// completion is recorded, when the run has what it came for, and what it
/// observes at an arrival boundary and after each step. The loop is
/// monomorphized over it, so the hooks a recorder leaves out cost nothing.
///
/// The defaults are the closed run's ([`Closed`]): measured completions go
/// into the driver's per-class books ([`MultiDriver::record`]) until `jobs`
/// of them are in.
pub(crate) trait Recorder<S, B: SampleStats = SampleSet> {
    /// Measured completions so far and the count that ends the run. A run
    /// that starves reports both in [`ExperimentError::Starved`].
    fn progress(&self, driver: &MultiDriver<S, B>) -> (usize, usize) {
        (driver.run.measured_done, driver.jobs)
    }

    /// Records one completion. By default an unmeasured (warm-up) one is
    /// dropped here, after its side effects in [`MultiDriver::step`].
    fn record(&mut self, driver: &mut MultiDriver<S, B>, obs: &CompletionObs) {
        if obs.measured {
            driver.record(obs);
        }
    }

    /// Called at an arrival boundary, *before* the drawn arrivals in the
    /// driver's release buffer are submitted: the state branch re-execution
    /// resumes from.
    fn on_arrival(&mut self, _driver: &MultiDriver<S, B>) {}

    /// Called after every step.
    fn after_step(&mut self, _driver: &MultiDriver<S, B>) {}
}

/// The closed run's recorder: the trait's defaults.
struct Closed;

impl<S, B: SampleStats> Recorder<S, B> for Closed {}

/// The closed run that also records the branchable trace: every arrival's
/// signature, and a checkpoint every `stride` arrivals (always including
/// arrival 0, so a resume point at or before any divergence index exists).
struct Recording<S> {
    stride: usize,
    checkpoints: Vec<MultiCheckpoint<S>>,
    signatures: Vec<ArrivalSignature>,
}

impl<S: Clone> Recorder<S> for Recording<S> {
    fn on_arrival(&mut self, driver: &MultiDriver<S>) {
        self.signatures
            .extend(driver.run.arrivals.iter().map(ArrivalSignature::of));
        if driver.run.arrival_seq.is_multiple_of(self.stride) {
            self.checkpoints.push(MultiCheckpoint(
                driver.run.clone(),
                driver.engine.checkpoint(),
            ));
        }
    }
}

/// One job completion as observed at the driver's `JobFinished` arm: every
/// number [`MultiClassStats::record`] folds into a class, plus the sequence
/// and timestamp bookkeeping an open-system window accountant needs.
///
/// Splitting observation (engine-side, here) from recording (backend-side,
/// [`MultiClassStats::record`]) is what lets the soak driver route the same
/// completions into streaming statistics and tumbling windows without the
/// closed driver paying anything for it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CompletionObs {
    /// The completed job — the key an external window accountant (the
    /// federation's shard driver) resolves its own bookkeeping under.
    pub(crate) job: JobId,
    /// Priority class of the completed job.
    pub(crate) class: usize,
    /// Whether the job's arrival falls in the driver's measured window
    /// (`warmup..target` by arrival order).
    pub(crate) measured: bool,
    /// Arrival → completion, seconds.
    pub(crate) response: f64,
    /// Final-attempt execution time, seconds.
    pub(crate) execution: f64,
    /// Arrival → first dispatch, seconds.
    pub(crate) dispatch_wait: f64,
    /// First dispatch → final dispatch, seconds.
    pub(crate) reexec_loss: f64,
    /// Arrival → final dispatch, seconds.
    pub(crate) queueing: f64,
    /// Fraction of the job's tasks dropped by the deflator.
    pub(crate) drop_fraction: f64,
    /// Evictions the job suffered.
    pub(crate) evictions: u32,
    /// The subset of `evictions` caused by slot failures.
    pub(crate) failure_evictions: u32,
    /// Engine time of the completion, seconds.
    pub(crate) completed_at_secs: f64,
}

impl CompletionObs {
    /// Whether the response met the class's target in `slos` (false without
    /// targets).
    pub(crate) fn meets_slo(&self, slos: Option<&[f64]>) -> bool {
        slos.is_some_and(|s| self.response <= s[self.class])
    }
}

/// The driver behind every run in the crate: the experiment's fixed
/// configuration, the engine, and the run state the loop carries from one
/// step to the next.
///
/// [`MultiDriver::run_until`] is the one loop; callers differ only in the
/// [`Recorder`] they hand it, and in the backend `B` of their per-class
/// books. A checkpoint is a clone of [`RunState`] plus an engine
/// [`EngineCheckpoint`], so a piece of state added to either is captured and
/// restored without further edits.
pub(crate) struct MultiDriver<S, B: SampleStats = SampleSet> {
    // Immutable configuration.
    thetas: Option<Vec<f64>>,
    pub(crate) slos: Option<Vec<f64>>,
    degrade: Option<DegradationPolicy>,
    cluster: ClusterSpec,
    pub(crate) classes: usize,
    warmup: usize,
    target: usize,
    jobs: usize,
    /// Termination guard: the run fails as starved once more completions
    /// than this went by without the recorder's count being reached.
    pub(crate) completion_cap: usize,
    arrival_batch: usize,
    pub(crate) engine: ClusterSim,
    pub(crate) run: RunState<S, B>,
    /// Per-arrival drop-signature scratch, reused across admissions so the
    /// hot path stops allocating once millions of jobs flow through a shard
    /// (cleared and refilled in [`MultiDriver::admit`]; never checkpointed).
    drops_scratch: Vec<f64>,
}

/// Everything the loop carries across iterations besides the engine — what
/// a [`MultiCheckpoint`] clones.
#[derive(Clone)]
pub(crate) struct RunState<S, B: SampleStats = SampleSet> {
    /// The arrival stream. A clone taken at an arrival boundary sits exactly
    /// at that boundary's draw offset, so a restored checkpoint draws the
    /// remaining jobs bit for bit.
    pub(crate) source: S,
    pub(crate) report: MultiJobReport<B>,
    meta: IdMap<JobMeta>,
    timers: TimerHeap,
    /// Sequence number of the next armed timer.
    timer_seq: u64,
    sprinter: Option<MultiSprinter>,
    /// The driver's place in the fault schedule: a clone continues bit for
    /// bit, so a branch resumes the identical failure history.
    faults: FaultCursor,
    last_effective: usize,
    /// The release buffer: up to `arrival_batch` drawn arrivals, released
    /// together at the latest arrival time they hold.
    arrivals: Vec<JobInstance>,
    /// Arrivals submitted so far (also the sequence number of the next).
    arrival_seq: usize,
    /// Completions recorded into `report`'s per-class statistics.
    pub(crate) measured_done: usize,
    pub(crate) total_completions: usize,
    /// Engine events processed so far — what a branch resuming here skips
    /// re-simulating.
    pub(crate) events_done: u64,
}

impl<S, B: SampleStats> MultiDriver<S, B> {
    /// Counts one measured completion and folds it into its class's books:
    /// the one recording call of every driver.
    pub(crate) fn record(&mut self, obs: &CompletionObs) {
        self.run.measured_done += 1;
        self.run.report.per_class[obs.class].record(obs, self.slos.as_deref());
    }
}

impl<S: JobSource, B: SampleStats> MultiDriver<S, B> {
    /// Validates the experiment and sets up the start-of-run state, with
    /// per-class books whose series `new` builds. This is where every
    /// builder's per-class settings are checked.
    pub(crate) fn build(
        mut exp: MultiJobExperiment<S>,
        new: impl Fn() -> B,
    ) -> Result<Self, ExperimentError> {
        let classes = exp.source.classes();
        // Every per-class setting must cover exactly the source's classes.
        let lens = [
            exp.thetas.as_ref().map(Vec::len),
            exp.slos.as_ref().map(Vec::len),
            exp.degrade.as_ref().map(DegradationPolicy::classes),
            exp.sprint.as_ref().map(|p| p.timeouts.len()),
        ];
        if let Some(policy) = lens.into_iter().flatten().find(|&n| n != classes) {
            return Err(ExperimentError::ClassMismatch {
                policy,
                source: classes,
            });
        }
        let bad_theta = exp
            .thetas
            .iter()
            .flatten()
            .find(|t| !(0.0..=1.0).contains(*t));
        if let Some(t) = bad_theta {
            let reason = format!("drop ratio {t} is outside [0, 1]");
            return Err(ExperimentError::invalid("drops", reason));
        }
        if let Some(t) = exp.slos.iter().flatten().find(|t| t.is_nan() || **t <= 0.0) {
            let reason = format!("SLO target {t} is not positive");
            return Err(ExperimentError::invalid("slos", reason));
        }
        if let Some(reason) = exp.sprint.as_ref().and_then(sprint_policy_error) {
            return Err(ExperimentError::invalid("sprint", reason));
        }
        // Only the federation sets the cap (its share of `power_cap_w`).
        if let Some(cap) = exp.sprint_draw_cap_w.filter(|c| c.is_nan() || *c < 0.0) {
            let reason = format!("power cap {cap} W is negative or NaN");
            return Err(ExperimentError::invalid("power_cap_w", reason));
        }
        if let Some(d) = &exp.degrade {
            // The degradation controller owns the drop vector from here on.
            exp.thetas = Some(d.base().to_vec());
        }
        let sprinter = exp.sprint.map(|p| {
            MultiSprinter::new(p, exp.cluster.sprint_extra_slot_power_w())
                .with_draw_cap(exp.sprint_draw_cap_w)
        });
        let engine = ClusterSim::with_scheduler(exp.cluster.clone(), exp.scheduler)?;
        let books = MultiClassStats::recording(exp.series, exp.slos.is_some(), new);
        let report = MultiJobReport {
            scheduler: engine.scheduler_label().to_string(),
            per_class: vec![books; classes],
            ..Default::default()
        };
        let total_slots = exp.cluster.slots();
        let warmup = exp.warmup.unwrap_or(exp.jobs / 10);
        // `jobs(usize::MAX)` means "until the source drains".
        let target = warmup.saturating_add(exp.jobs);
        let mut driver = MultiDriver {
            thetas: exp.thetas,
            slos: exp.slos,
            degrade: exp.degrade,
            cluster: exp.cluster,
            classes,
            warmup,
            target,
            jobs: exp.jobs,
            // Under saturating higher-class load a measured job may never
            // complete.
            completion_cap: target.saturating_mul(64).saturating_add(1024),
            arrival_batch: exp.arrival_batch,
            engine,
            run: RunState {
                source: exp.source,
                report,
                meta: IdMap::default(),
                timers: TimerHeap::new(),
                timer_seq: 0,
                sprinter,
                faults: exp.faults.cursor(),
                last_effective: total_slots,
                arrivals: Vec::with_capacity(exp.arrival_batch),
                arrival_seq: 0,
                measured_done: 0,
                total_completions: 0,
                events_done: 0,
            },
            drops_scratch: Vec::new(),
        };
        driver.top_up_arrivals();
        Ok(driver)
    }

    /// The one arbiter loop: [`MultiDriver::next_arm`] arbitration and
    /// [`MultiDriver::step`] execution of every event strictly before
    /// `horizon`, until the recorder's count is reached or no event remains
    /// (source exhausted, engine drained). Runs that are not cut into epochs
    /// pass [`SimTime::FAR_FUTURE`].
    ///
    /// # Errors
    ///
    /// Engine errors, or [`ExperimentError::Starved`] once more than
    /// `completion_cap` completions went by short of the recorder's count.
    pub(crate) fn run_until<R: Recorder<S, B>>(
        &mut self,
        horizon: SimTime,
        recorder: &mut R,
    ) -> Result<(), ExperimentError> {
        loop {
            let (measured_done, target) = recorder.progress(self);
            if measured_done >= target {
                return Ok(());
            }
            if self.run.total_completions > self.completion_cap {
                return Err(ExperimentError::Starved {
                    measured_done,
                    target,
                });
            }
            let Some((next_t, arm)) = self.next_arm().filter(|&(t, _)| t < horizon) else {
                return Ok(());
            };
            if arm == LoopArm::Arrival {
                recorder.on_arrival(self);
            }
            if let Some(obs) = self.step(next_t, arm)? {
                recorder.record(self, &obs);
            }
            recorder.after_step(self);
        }
    }

    /// Runs the closed loop to the end of the measured window and closes the
    /// books.
    fn run_closed(mut self) -> Result<MultiJobReport<B>, ExperimentError> {
        self.run_until(SimTime::FAR_FUTURE, &mut Closed)?;
        Ok(self.finalize())
    }

    /// The event arbiter: which composable source — engine calendar, budget
    /// depletion, sprint timers, fault batches, or the arrival release —
    /// fires next, and when. `None` means the run is over (no event time
    /// remains anywhere).
    ///
    /// Tie-breaking at equal timestamps is fixed — engine event, then budget
    /// depletion, then sprint timers, then faults, then the release — so
    /// runs are deterministic whatever the configuration. This is the only
    /// place the order is written down.
    pub(crate) fn next_arm(&mut self) -> Option<(SimTime, LoopArm)> {
        let engine_t = self.engine.next_event_time();
        let depletion_t = self
            .run
            .sprinter
            .as_ref()
            .and_then(MultiSprinter::depletion_time);
        // Drop dead timers off the top (job finished, or evicted — a
        // re-dispatch arms a fresh timer under a bumped attempt). A dead
        // timer must not keep the clock running past the last real event,
        // or a finite source's horizon (and idle energy) would grow a
        // phantom tail. The first live timer on top is the earliest one.
        while let Some(Reverse(t)) = self.run.timers.peek() {
            let live = self
                .run
                .meta
                .get(&t.job)
                .is_some_and(|m| m.attempt == t.attempt)
                && self.engine.job_frequency(t.job).is_some();
            if live {
                break;
            }
            self.run.timers.pop();
        }
        let timer_t = self.run.timers.peek().map(|Reverse(t)| t.at);
        // Fault events only matter while work remains (arrivals ahead or
        // jobs running/pending): once the run is winding down, a tail of
        // repairs must not stretch the horizon with phantom idle time.
        let fault_t = if !self.run.arrivals.is_empty() || !self.engine.is_idle() {
            self.run
                .faults
                .peek()
                .map(|e| SimTime::from_secs(e.at_secs))
        } else {
            None
        };
        // A release happens at the *latest* arrival it holds: earlier jobs
        // wait for it, and that wait is charged to their response times
        // (arrival timestamps stay truthful).
        let release_t = self
            .run
            .arrivals
            .iter()
            .map(|j| SimTime::from_secs(j.arrival_secs))
            .max();
        let next_t = [engine_t, depletion_t, timer_t, fault_t, release_t]
            .iter()
            .flatten()
            .copied()
            .min()?;
        let arm = if engine_t == Some(next_t) {
            LoopArm::Engine
        } else if depletion_t == Some(next_t) {
            LoopArm::Depletion
        } else if timer_t == Some(next_t) {
            LoopArm::Timer
        } else if fault_t == Some(next_t) {
            LoopArm::Fault
        } else {
            LoopArm::Arrival
        };
        Some((next_t, arm))
    }

    /// Executes one arbitrated arm at its event time. Completions surface as
    /// [`CompletionObs`] for the [`Recorder`] to record (closed loop:
    /// per-class exact stats; soak: streaming windows; federation:
    /// global-window shard accounting).
    ///
    /// The arms that can place jobs — a departure's backfill, a fault
    /// batch, a release — end by draining the engine's dispatch log; task
    /// events and frequency switches never dispatch.
    fn step(
        &mut self,
        next_t: SimTime,
        arm: LoopArm,
    ) -> Result<Option<CompletionObs>, ExperimentError> {
        match arm {
            LoopArm::Engine => {
                let obs = self.handle_engine_event(next_t)?;
                if obs.is_some() {
                    self.drain_dispatches();
                }
                Ok(obs)
            }
            LoopArm::Depletion => {
                self.handle_depletion(next_t);
                Ok(None)
            }
            LoopArm::Timer => {
                self.handle_timers(next_t);
                Ok(None)
            }
            LoopArm::Fault => {
                self.handle_faults(next_t)?;
                self.drain_dispatches();
                Ok(None)
            }
            LoopArm::Arrival => {
                // Hand the released arrivals straight to the engine's
                // scheduler.
                let mut release = std::mem::take(&mut self.run.arrivals);
                for instance in release.drain(..) {
                    self.admit(instance, next_t)?;
                }
                self.drain_dispatches();
                // The emptied buffer keeps its allocation for the next draw.
                self.run.arrivals = release;
                self.top_up_arrivals();
                Ok(None)
            }
        }
    }

    /// Draws arrivals from the source until the release buffer holds
    /// `arrival_batch` of them or the source runs dry. The federation
    /// coordinator calls this after routing new jobs into a shard's inbox.
    pub(crate) fn top_up_arrivals(&mut self) {
        while self.run.arrivals.len() < self.arrival_batch {
            match self.run.source.next_job() {
                Some(j) => self.run.arrivals.push(j),
                None => break,
            }
        }
    }

    /// Advances the engine one event and, when a job finished, observes it:
    /// completion counters, work/energy books, and the metadata-derived
    /// response decomposition. Recording the observation into per-class
    /// statistics is the [`Recorder`]'s half, so the energy ledger drain and
    /// the statistics pushes touch disjoint accumulators whoever records.
    fn handle_engine_event(
        &mut self,
        next_t: SimTime,
    ) -> Result<Option<CompletionObs>, ExperimentError> {
        let event = self.engine.advance()?;
        self.run.events_done += 1;
        let EngineEvent::JobFinished { job, metrics } = event else {
            return Ok(None);
        };
        if let Some(s) = self.run.sprinter.as_mut() {
            s.stop(next_t, job);
        }
        self.run.total_completions += 1;
        self.run.report.total_work_secs += metrics.work_secs;
        let m = self
            .run
            .meta
            .remove(&job)
            .expect("finished job was submitted");
        let response = self.engine.now().as_secs() - m.arrival_secs;
        // Queueing straight from the engine's dispatch log: plain waiting
        // before the first attempt, plus the re-execution loss preemption
        // inflicted after it.
        let first = m.first_dispatch.unwrap_or(m.arrival_secs);
        // The engine is the authority on what was dropped (prefix-keep of
        // ⌈n(1−θ)⌉ tasks per stage).
        let total_tasks = metrics.tasks_run + metrics.tasks_dropped;
        let obs = CompletionObs {
            job,
            class: m.class,
            measured: (self.warmup..self.target).contains(&m.seq),
            response,
            execution: metrics.execution_secs,
            dispatch_wait: first - m.arrival_secs,
            reexec_loss: m.last_dispatch - first,
            queueing: m.last_dispatch - m.arrival_secs,
            drop_fraction: if total_tasks == 0 {
                0.0
            } else {
                metrics.tasks_dropped as f64 / total_tasks as f64
            },
            evictions: m.evictions,
            failure_evictions: m.failure_evictions,
            completed_at_secs: self.engine.now().as_secs(),
        };
        self.harvest_energy(m.class, job);
        Ok(Some(obs))
    }

    /// Budget dry: every sprinting domain drops to base together.
    fn handle_depletion(&mut self, next_t: SimTime) {
        self.engine.idle_until(next_t);
        let s = self
            .run
            .sprinter
            .as_mut()
            .expect("depletion implies a sprinter");
        for job in s.stop_all(next_t) {
            self.engine
                .set_job_frequency(job, FreqLevel::Base)
                .expect("sprinting job is running");
        }
    }

    /// Per-attempt sprint timers: start each due job's domain if its attempt
    /// still runs and the budget has joules left.
    fn handle_timers(&mut self, next_t: SimTime) {
        self.engine.idle_until(next_t);
        let s = self.run.sprinter.as_mut().expect("timers imply a sprinter");
        while let Some(&Reverse(t)) = self.run.timers.peek() {
            if t.at != next_t {
                break;
            }
            self.run.timers.pop();
            let Some(m) = self.run.meta.get(&t.job) else {
                continue;
            };
            if m.attempt != t.attempt || self.engine.job_frequency(t.job) != Some(FreqLevel::Base) {
                continue; // attempt evicted/finished, or already sprinting
            }
            if s.try_start(next_t, t.job, m.width) {
                self.engine
                    .set_job_frequency(t.job, FreqLevel::Sprint)
                    .expect("timer fired for a running job");
            }
        }
    }

    /// Fault batch: apply every trace event due at `next_t` in trace order.
    /// Victims of failed slots re-queue at the pending head inside the
    /// engine; here they are accounted exactly like preemption victims, plus
    /// the failure counters.
    fn handle_faults(&mut self, next_t: SimTime) -> Result<(), ExperimentError> {
        self.engine.idle_until(next_t);
        while let Some(&e) = self.run.faults.peek() {
            if SimTime::from_secs(e.at_secs) != next_t {
                break;
            }
            self.run.faults.advance();
            for (victim, lost) in self.engine.apply_fault(&e)? {
                self.book_eviction(next_t, victim, lost, true);
            }
        }
        // Degradation reacts to the *batch*, not each event: the
        // controller sees the post-batch pool once, and the report counts
        // one change per batch that moved it.
        let effective = self.engine.effective_slots();
        if effective != self.run.last_effective {
            self.run.last_effective = effective;
            self.run.report.capacity_changes += 1;
            if let Some(d) = &self.degrade {
                self.thetas = Some(d.thetas_for(self.cluster.slots(), effective));
            }
        }
        Ok(())
    }

    /// Submits one released arrival to the engine's scheduler at `next_t`
    /// and accounts any preemption evictions it causes.
    fn admit(&mut self, instance: JobInstance, next_t: SimTime) -> Result<(), ExperimentError> {
        let class = instance.class();
        if class >= self.classes {
            let reason = format!(
                "job {} has class {class}, but the source declares {} classes",
                instance.spec.id.0, self.classes
            );
            return Err(ExperimentError::invalid("source", reason));
        }
        // Per-stage drop vector under the class's theta (droppable stages
        // only, as in `Policy::drops_for`), built into the reused scratch.
        let theta = self.thetas.as_deref().map_or(0.0, |t| t[class]);
        self.drops_scratch.clear();
        self.drops_scratch
            .extend(
                instance
                    .spec
                    .stages
                    .iter()
                    .map(|s| if s.kind.droppable() { theta } else { 0.0 }),
            );
        self.engine.idle_until(next_t);
        let submission = self.engine.submit_job(&instance, &self.drops_scratch)?;
        self.run.meta.insert(
            instance.spec.id,
            JobMeta {
                class,
                arrival_secs: instance.arrival_secs,
                seq: self.run.arrival_seq,
                evictions: 0,
                failure_evictions: 0,
                attempt: 0,
                first_dispatch: None,
                last_dispatch: instance.arrival_secs,
                width: 0,
            },
        );
        self.run.arrival_seq += 1;
        // A preempting scheduler reports destroyed work whether or
        // not the arrival was ultimately placed.
        let evicted = match submission {
            Submission::Preempted { evicted, .. } | Submission::Queued { evicted } => evicted,
            Submission::Dispatched { .. } => Vec::new(),
        };
        for (victim, lost) in evicted {
            self.book_eviction(next_t, victim, lost, false);
        }
        Ok(())
    }

    /// Books one destroyed attempt — a preemption victim, or with `failure`
    /// a victim of failed slots: counters and lost work, its sprint (a
    /// sprinting victim stops draining the budget; its timer dies with the
    /// attempt) and the energy ledger that retired with it.
    fn book_eviction(&mut self, next_t: SimTime, victim: JobId, lost: EvictedWork, failure: bool) {
        self.run.report.evictions += 1;
        self.run.report.wasted_work_secs += lost.work_secs;
        if failure {
            self.run.report.failure_evictions += 1;
            self.run.report.failure_lost_work_secs += lost.work_secs;
        }
        if let Some(s) = self.run.sprinter.as_mut() {
            s.stop(next_t, victim);
        }
        let mut class = 0;
        if let Some(vm) = self.run.meta.get_mut(&victim) {
            vm.evictions += 1;
            vm.failure_evictions += u32::from(failure);
            class = vm.class;
        }
        self.harvest_energy(class, victim);
    }

    /// Drains newly retired per-job energy ledgers into the per-class totals.
    ///
    /// `expected_class` short-circuits the common case (the ledger just
    /// retired belongs to the job we processed); ledgers of other jobs
    /// drained in the same sweep resolve their class through the job
    /// metadata.
    fn harvest_energy(&mut self, expected_class: usize, expected_job: JobId) {
        for (job, energy) in self.engine.meter_mut().take_finished() {
            let class = if job == expected_job {
                expected_class
            } else {
                self.run.meta.get(&job).map_or(expected_class, |m| m.class)
            };
            self.run.report.add_energy(class, &energy);
        }
    }

    /// Drains the engine's dispatch log: every placement (arrival, backfill,
    /// eviction re-dispatch) stamps the attempt and arms its sprint timer.
    fn drain_dispatches(&mut self) {
        for d in self.engine.take_dispatched() {
            let m = self
                .run
                .meta
                .get_mut(&d.job)
                .expect("dispatched job was submitted");
            m.attempt += 1;
            let secs = d.time.as_secs();
            if m.first_dispatch.is_none() {
                m.first_dispatch = Some(secs);
            }
            m.last_dispatch = secs;
            m.width = d.slots.count;
            if let Some(s) = self.run.sprinter.as_ref() {
                if let Some(timeout) = s.timeout_for(m.class) {
                    self.run.timers.push(Reverse(SprintTimer {
                        at: d.time + timeout,
                        seq: self.run.timer_seq,
                        job: d.job,
                        attempt: m.attempt,
                    }));
                    self.run.timer_seq += 1;
                }
            }
        }
    }

    /// Joules the sprint budget has spent so far (0 without a sprint policy).
    /// The books accrue lazily on sprinter interactions, so between events
    /// this is a telemetry-grade lower bound, exact again at
    /// [`MultiDriver::finalize`].
    pub(crate) fn sprint_spent_j(&self) -> f64 {
        self.run
            .sprinter
            .as_ref()
            .map_or(0.0, MultiSprinter::spent_j)
    }

    /// Live driver+engine objects right now: calendar entries, pending and
    /// running jobs, job metadata records, armed sprint timers (dead ones
    /// included until they reach the top of the heap), drawn arrivals and
    /// the per-class books' live nodes. The soak adds its windows on top to
    /// form the peak-RSS proxy.
    pub(crate) fn live_objects(&self) -> usize {
        let books = &self.run.report.per_class;
        let books: usize = books.iter().map(MultiClassStats::live_nodes).sum();
        self.engine.pending_events()
            + self.engine.pending_jobs()
            + self.engine.running_count()
            + self.run.meta.len()
            + self.run.timers.len()
            + self.run.arrivals.len()
            + books
    }

    /// Closes the books: in-flight energy attribution, horizon, utilization
    /// and sprint-budget totals.
    pub(crate) fn finalize(mut self) -> MultiJobReport<B> {
        // Jobs still running when the measured window closes have accrued
        // active energy the cluster total includes; attribute their in-flight
        // ledgers so the per-class split stays lossless: idle + Σ per-class
        // == total. (Evicted attempts of jobs now *pending* were already
        // drained at eviction time, so `job_energy` is None for them here.)
        // Summation order is arrival order — a HashMap walk would randomize
        // float rounding across identically seeded runs.
        let mut leftover: Vec<(&JobId, &JobMeta)> = self.run.meta.iter().collect();
        leftover.sort_by_key(|(_, m)| m.seq);
        for (job, m) in leftover {
            if let Some(energy) = self.engine.job_energy(*job) {
                self.run.report.add_energy(m.class, &energy);
            }
        }

        let horizon = self.engine.now().as_secs();
        self.run.report.horizon_secs = horizon;
        self.run.report.energy_joules = self.engine.energy_joules();
        self.run.report.idle_energy_joules =
            self.cluster.cluster_power_w(0, FreqLevel::Base) * horizon;
        if let Some(s) = self.run.sprinter.as_mut() {
            s.advance_to(self.engine.now());
            self.run.report.sprint_budget_spent_j = s.spent_j();
            self.run.report.sprint_budget_replenished_j = s.replenished_j();
            self.run.report.sprint_budget_remaining_j = s.budget_j();
        }
        self.run.report.slots = self.cluster.slots();
        self.run.report.update_utilization();
        self.run.report
    }
}

/// The paper's Fig. 6 sampling-error curve — the default mapping from a
/// class's mean drop fraction to its expected relative analysis error, used
/// by [`MultiClassStats::approximation_loss_pct`].
#[must_use]
pub fn default_accuracy_curve() -> SamplingErrorModel {
    SamplingErrorModel::paper_fig6()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VecJobSource;
    use dias_engine::{
        Fifo, GangBinPack, JobInstance, JobSpec, PriorityPreempt, StageKind, StageSpec,
    };
    use dias_stochastic::Dist;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `n` two-class jobs: every 5th is high priority, 8-task map stages.
    fn workload(n: u64, gap: f64, map_secs: f64) -> VecJobSource {
        let mut rng = StdRng::seed_from_u64(23);
        let jobs = (0..n)
            .map(|i| {
                let class = usize::from(i % 5 == 0);
                let spec = JobSpec::builder(i, class)
                    .setup(Dist::constant(1.0))
                    .stage(StageSpec::new(StageKind::Map, 8, Dist::constant(map_secs)))
                    .build();
                let mut inst = JobInstance::sample(&spec, &mut rng);
                inst.arrival_secs = i as f64 * gap;
                inst
            })
            .collect();
        VecJobSource::new(jobs, 2)
    }

    /// A series the test asked for.
    fn recorded(series: &Option<SampleSet>) -> &SampleSet {
        series.as_ref().expect("the run records this series")
    }

    /// The mean of a series the test asked for.
    fn mean(series: &Option<SampleSet>) -> f64 {
        recorded(series).mean()
    }

    #[test]
    fn unrequested_series_are_absent_and_stay_absent_through_merge() {
        let run = |series| {
            MultiJobExperiment::new(workload(40, 3.0, 2.0), Box::new(GangBinPack))
                .jobs(30)
                .drops(&[0.5, 0.0])
                .record(series)
                .run()
                .unwrap()
        };
        let (plain, all) = (run(Series::default()), run(Series::ALL));
        let mut merged = plain.per_class[0].clone();
        merged.merge(&plain.per_class[0]);
        let curve = default_accuracy_curve();
        for c in plain.per_class.iter().chain([&merged]) {
            assert!(c.response.count() > 0);
            assert_eq!(c.queueing, None);
            assert_eq!(c.dispatch_wait, None);
            assert_eq!(c.reexec_loss, None);
            assert_eq!(c.execution, None);
            assert_eq!(c.drop_fraction, None);
            assert_eq!(c.mean_drop_fraction(), None);
            assert_eq!(c.approximation_loss_pct(&curve), None);
        }
        assert_eq!(
            merged.response.count(),
            2 * plain.per_class[0].response.count()
        );
        // Asking for a series records it without touching the rest.
        assert_eq!(all.per_class[0].mean_drop_fraction(), Some(0.5));
        assert_eq!(all.per_class[0].response, plain.per_class[0].response);
        // A series kept by one side only would cover part of the jobs.
        let mut mixed = all.per_class[0].clone();
        mixed.merge(&plain.per_class[0]);
        assert_eq!(mixed.execution, None);
        let mut both = all.per_class[0].clone();
        both.merge(&all.per_class[0]);
        assert_eq!(
            recorded(&both.execution).count(),
            2 * all.per_class[0].completed
        );
    }

    #[test]
    fn unbounded_jobs_after_a_warmup_measure_until_the_source_drains() {
        // `jobs(usize::MAX)` means "until the source drains"; the warm-up
        // must not overflow the end of the measurement window.
        let report = MultiJobExperiment::new(workload(30, 3.0, 2.0), Box::new(GangBinPack))
            .jobs(usize::MAX)
            .warmup(5)
            .run()
            .unwrap();
        let measured: u64 = report.per_class.iter().map(|c| c.completed).sum();
        assert_eq!(measured, 25);
    }

    #[test]
    fn gang_beats_fifo_on_narrow_concurrent_jobs() {
        let fifo = MultiJobExperiment::new(workload(120, 3.0, 10.0), Box::new(Fifo))
            .jobs(80)
            .run()
            .unwrap();
        let gang = MultiJobExperiment::new(workload(120, 3.0, 10.0), Box::new(GangBinPack))
            .jobs(80)
            .run()
            .unwrap();
        // Two 8-wide jobs coexist on 20 slots: queueing must shrink.
        assert!(
            gang.mean_response(0) < fifo.mean_response(0),
            "gang {} vs fifo {}",
            gang.mean_response(0),
            fifo.mean_response(0)
        );
        assert_eq!(fifo.scheduler, "FIFO");
        assert_eq!(gang.evictions, 0);
    }

    #[test]
    fn simultaneous_sprint_timers_fire_in_arming_order() {
        use crate::{SprintBudget, SprintPolicy};
        // Two high-class jobs dispatch at t = 0 and their timers come due
        // together at 0.5 s. The draw cap admits one sprint, so the timer
        // armed first (job 0's, by dispatch order) must take it.
        let mut rng = StdRng::seed_from_u64(5);
        let jobs = [(0u64, 4usize, 20.0), (1, 8, 40.0)]
            .into_iter()
            .map(|(id, width, secs)| {
                let spec = JobSpec::builder(id, 1)
                    .setup(Dist::constant(1.0))
                    .stage(StageSpec::new(StageKind::Map, width, Dist::constant(secs)))
                    .build();
                JobInstance::sample(&spec, &mut rng)
            })
            .collect();
        let cap = 8.0 * ClusterSpec::paper_reference().sprint_extra_slot_power_w();
        let report = MultiJobExperiment::new(VecJobSource::new(jobs, 2), Box::new(GangBinPack))
            .jobs(2)
            .warmup(0)
            .sprint(SprintPolicy::top_class(2, 0.5, SprintBudget::Unlimited))
            .sprint_draw_cap(Some(cap))
            .record(Series::EXECUTION)
            .run()
            .unwrap();
        // Job 0 sprinted from 0.5 s at 2.5x; job 1 ran at base throughout.
        let exec = recorded(&report.per_class[1].execution);
        assert_eq!(exec.max(), 41.0);
        assert!((exec.quantile(0.0) - (0.5 + 20.5 / 2.5)).abs() < 1e-9);
    }

    #[test]
    fn preempt_reports_waste_and_favors_high_class() {
        let report = MultiJobExperiment::new(workload(200, 2.0, 20.0), Box::new(PriorityPreempt))
            .jobs(120)
            .run()
            .unwrap();
        assert!(report.evictions > 0, "saturated low class must be evicted");
        assert!(report.wasted_work_secs > 0.0);
        assert!(report.waste_fraction() > 0.0);
        assert!(report.mean_response(1) < report.mean_response(0));
    }

    #[test]
    fn class_energy_sums_to_cluster_active_energy() {
        // Measure only 40 of 60 arrivals: several jobs are still running or
        // pending when the window closes, and their in-flight attribution
        // must be part of the split for the identity to hold.
        let report = MultiJobExperiment::new(workload(60, 4.0, 8.0), Box::new(GangBinPack))
            .jobs(40)
            .warmup(0)
            .run()
            .unwrap();
        let attributed: f64 = report
            .per_class
            .iter()
            .map(|c| c.active_energy_joules)
            .sum();
        let active = report.energy_joules - report.idle_energy_joules;
        let rel = (attributed - active).abs() / active.max(1.0);
        assert!(rel < 1e-9, "attributed {attributed} vs active {active}");
        assert!(report.utilization > 0.0 && report.utilization <= 1.0);
    }

    /// Like `workload` but with 30-task map stages: wider than the cluster,
    /// so dropping half the tasks removes a whole wave (with 8-task stages a
    /// gang runs one wave either way — drops shrink slot *demand*, not
    /// makespan).
    fn wide_workload(n: u64, gap: f64) -> VecJobSource {
        let mut rng = StdRng::seed_from_u64(29);
        let jobs = (0..n)
            .map(|i| {
                let class = usize::from(i % 5 == 0);
                let spec = JobSpec::builder(i, class)
                    .setup(Dist::constant(1.0))
                    .stage(StageSpec::new(StageKind::Map, 30, Dist::constant(10.0)))
                    .build();
                let mut inst = JobInstance::sample(&spec, &mut rng);
                inst.arrival_secs = i as f64 * gap;
                inst
            })
            .collect();
        VecJobSource::new(jobs, 2)
    }

    #[test]
    fn drops_shrink_low_class_execution_and_report_loss() {
        let series = Series::EXECUTION | Series::DROP_FRACTION;
        let exact = MultiJobExperiment::new(wide_workload(120, 25.0), Box::new(GangBinPack))
            .jobs(80)
            .record(series)
            .run()
            .unwrap();
        let da = MultiJobExperiment::new(wide_workload(120, 25.0), Box::new(GangBinPack))
            .drops(&[0.5, 0.0])
            .jobs(80)
            .record(series)
            .run()
            .unwrap();
        assert!(
            mean(&da.per_class[0].execution) < mean(&exact.per_class[0].execution),
            "dropping half the tasks must shorten low-class execution"
        );
        let drop = |k: usize| da.per_class[k].mean_drop_fraction().unwrap();
        assert!((drop(0) - 0.5).abs() < 1e-9);
        assert_eq!(drop(1), 0.0);
        let curve = default_accuracy_curve();
        let loss = |k: usize| da.per_class[k].approximation_loss_pct(&curve).unwrap();
        assert!(loss(0) > 0.0);
        assert_eq!(loss(1), 0.0);
    }

    #[test]
    fn unlimited_top_sprint_accelerates_and_attributes_sprint_energy() {
        let plain = MultiJobExperiment::new(workload(100, 4.0, 10.0), Box::new(GangBinPack))
            .jobs(60)
            .record(Series::EXECUTION)
            .run()
            .unwrap();
        let sprint = MultiJobExperiment::new(workload(100, 4.0, 10.0), Box::new(GangBinPack))
            .sprint(SprintPolicy::unlimited_for_top(2))
            .jobs(60)
            .record(Series::EXECUTION)
            .run()
            .unwrap();
        assert!(
            mean(&sprint.per_class[1].execution) < mean(&plain.per_class[1].execution),
            "sprinting must shorten top-class execution"
        );
        let sprinted: f64 = sprint.per_class.iter().map(|c| c.sprint_slot_secs).sum();
        assert!(sprinted > 0.0);
        // Per-gang domains: only top-class jobs sprint — the low class never
        // accrues a single sprint slot-second.
        assert_eq!(sprint.per_class[0].sprint_slot_secs, 0.0);
        assert!(sprint.per_class[1].sprint_slot_secs > 0.0);
        assert_eq!(
            plain
                .per_class
                .iter()
                .map(|c| c.sprint_slot_secs)
                .sum::<f64>(),
            0.0
        );
        // Unlimited budget: nothing spent, nothing left to replenish.
        assert_eq!(sprint.sprint_budget_spent_j, 0.0);
        assert!(sprint.sprint_budget_remaining_j.is_infinite());
    }

    #[test]
    fn budgeted_sprint_spends_and_conserves_the_budget() {
        use crate::{SprintBudget, SprintPolicy};
        let budget = SprintBudget::limited(40_000.0, 45.0);
        let report = MultiJobExperiment::new(workload(100, 4.0, 10.0), Box::new(GangBinPack))
            .sprint(SprintPolicy::top_class(2, 0.0, budget))
            .jobs(60)
            .run()
            .unwrap();
        assert!(report.sprint_budget_spent_j > 0.0, "top class must sprint");
        assert!(report.per_class[1].sprint_slot_secs > 0.0);
        assert_eq!(report.per_class[0].sprint_slot_secs, 0.0);
        // Conservation: initial + replenished − spent == remaining (within
        // float noise for arbitrary task times; exact under dyadic inputs —
        // see crates/core/tests/multi_sprint_properties.rs).
        let residual = 40_000.0 + report.sprint_budget_replenished_j
            - report.sprint_budget_spent_j
            - report.sprint_budget_remaining_j;
        assert!(residual.abs() < 1e-6, "residual {residual}");
        // The budget is charged per sprinting gang: spent equals the sprint
        // slot-seconds times the per-slot extra power... as long as every
        // charged slot was busy. Gangs idle trailing slots late in a stage,
        // so the *accrued* sprint slot-seconds only bound the charge.
        let spec = dias_engine::ClusterSpec::paper_reference();
        assert!(
            report.sprint_budget_spent_j
                >= report.per_class[1].sprint_slot_secs * spec.sprint_extra_slot_power_w() - 1e-6
        );
    }

    #[test]
    fn zero_budget_reproduces_the_no_sprint_run_bit_identically() {
        use crate::{SprintBudget, SprintPolicy};
        // `jobs(90)` exceeds the 80-job source: the run ends by source
        // exhaustion, the path where stale timers could once stretch the
        // horizon (the loop only breaks when no event time remains).
        let none = MultiJobExperiment::new(workload(80, 3.0, 12.0), Box::new(PriorityPreempt))
            .jobs(90)
            .warmup(0)
            .record(Series::QUEUEING)
            .run()
            .unwrap();
        // T=0 exercises timers firing with an empty budget; the long timeout
        // exercises timers armed but still pending when the source drains —
        // neither may flip a domain, and stale timers must not stretch the
        // horizon past the last real event (no phantom idle tail).
        for timeout in [0.0, 5_000.0] {
            let zero = SprintBudget::Limited {
                initial_j: 0.0,
                replenish_w: 0.0,
                cap_j: 0.0,
            };
            let zeroed =
                MultiJobExperiment::new(workload(80, 3.0, 12.0), Box::new(PriorityPreempt))
                    .sprint(SprintPolicy::top_class(2, timeout, zero))
                    .jobs(90)
                    .warmup(0)
                    .record(Series::QUEUEING)
                    .run()
                    .unwrap();
            // Bit-identical: an empty budget must never flip a domain, so
            // every timestamp and energy figure matches exactly.
            assert_eq!(none.horizon_secs, zeroed.horizon_secs, "T={timeout}");
            assert_eq!(none.energy_joules, zeroed.energy_joules, "T={timeout}");
            for (a, b) in none.per_class.iter().zip(&zeroed.per_class) {
                assert_eq!(a.response.mean(), b.response.mean());
                assert_eq!(mean(&a.queueing), mean(&b.queueing));
                assert_eq!(a.active_energy_joules, b.active_energy_joules);
                assert_eq!(a.sprint_slot_secs, 0.0);
                assert_eq!(b.sprint_slot_secs, 0.0);
            }
            assert_eq!(zeroed.sprint_budget_spent_j, 0.0);
        }
    }

    /// Cluster-wide jobs (20-task map stages): every high-class arrival must
    /// preempt the low-class job running under it, so re-execution loss is
    /// guaranteed to appear.
    fn cluster_wide_workload(n: u64, gap: f64) -> VecJobSource {
        let mut rng = StdRng::seed_from_u64(31);
        let jobs = (0..n)
            .map(|i| {
                let class = usize::from(i % 5 == 0);
                let spec = JobSpec::builder(i, class)
                    .setup(Dist::constant(1.0))
                    .stage(StageSpec::new(StageKind::Map, 20, Dist::constant(10.0)))
                    .build();
                let mut inst = JobInstance::sample(&spec, &mut rng);
                inst.arrival_secs = i as f64 * gap;
                inst
            })
            .collect();
        VecJobSource::new(jobs, 2)
    }

    #[test]
    fn queueing_decomposes_into_wait_plus_reexec_loss() {
        let report =
            MultiJobExperiment::new(cluster_wide_workload(120, 8.0), Box::new(PriorityPreempt))
                .jobs(70)
                .record(Series::QUEUEING)
                .run()
                .unwrap();
        assert!(report.evictions > 0, "scenario must actually preempt");
        for c in &report.per_class {
            // The decomposition is exact per job: queueing = wait + re-exec.
            let (queued, wait, reexec) = (
                mean(&c.queueing),
                mean(&c.dispatch_wait),
                mean(&c.reexec_loss),
            );
            assert!(
                (queued - wait - reexec).abs() < 1e-9,
                "queueing {queued} vs wait {wait} + reexec {reexec}"
            );
        }
        // The saturated low class suffers evictions: re-execution loss shows
        // up only there, and never for the never-evicted high class.
        assert!(mean(&report.per_class[0].reexec_loss) > 0.0);
        assert_eq!(mean(&report.per_class[1].reexec_loss), 0.0);
    }

    #[test]
    fn class_mismatch_rejected() {
        let err = MultiJobExperiment::new(workload(10, 5.0, 1.0), Box::new(GangBinPack))
            .drops(&[0.0, 0.0, 0.0])
            .jobs(5)
            .run()
            .unwrap_err();
        assert!(matches!(err, ExperimentError::ClassMismatch { .. }));
    }

    #[test]
    fn source_exhaustion_ends_run() {
        let report = MultiJobExperiment::new(workload(20, 5.0, 1.0), Box::new(GangBinPack))
            .jobs(1000)
            .warmup(0)
            .run()
            .unwrap();
        let total: u64 = report.per_class.iter().map(|c| c.completed).sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn every_checkpoint_resumes_to_the_uninterrupted_report() {
        use crate::{SprintBudget, SprintPolicy};
        use dias_des::SeedSequence;
        use dias_stochastic::Ph;
        // Preemption, a budget that runs dry and slot failures: every arm of
        // the arbiter and every piece of run state is in play at the
        // checkpoints, so a field a checkpoint misses shows up as a diff.
        // Only 4 of the 20 slots fail, so the pool is often whole again and
        // a stale capacity mark would miscount a change.
        let up = Ph::exponential(1.0 / 100.0).expect("valid rate");
        let down = Ph::exponential(1.0 / 30.0).expect("valid rate");
        let exp = || {
            MultiJobExperiment::new(workload(90, 5.0, 8.0), Box::new(PriorityPreempt))
                .drops(&[0.3, 0.0])
                .sprint(SprintPolicy::top_class(
                    2,
                    2.0,
                    SprintBudget::limited(5_000.0, 10.0),
                ))
                .faults(FaultTrace::renewal(
                    4,
                    600.0,
                    &up,
                    &down,
                    SeedSequence::new(11),
                ))
                .jobs(75)
                .warmup(5)
        };
        let full = exp().run().unwrap();
        assert!(full.evictions > 0 && full.failure_evictions > 0);
        assert!(full.sprint_budget_spent_j > 0.0);
        let (recorded, mut trace) = exp().run_recording(8).unwrap();
        assert_eq!(recorded, full);
        let recorded_checkpoints = trace.checkpoints();
        assert!(recorded_checkpoints >= 8, "{recorded_checkpoints}");
        // `run_from` under the reference thetas resumes from the latest
        // checkpoint; dropping it each round walks back through all of them.
        let everything = trace.arrivals();
        while let Some((arrival_idx, _)) = trace.resume_point(everything) {
            let resumed = exp().run_from(&trace).unwrap();
            assert!(resumed == full, "resume at arrival {arrival_idx} diverged");
            trace.checkpoints.pop();
        }
    }
}
