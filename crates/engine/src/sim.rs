//! The cluster simulator: concurrent multi-stage jobs scheduled onto disjoint
//! slot subsets by a pluggable [`Scheduler`] policy, with dropping, per-gang
//! DVFS frequency domains, per-job energy attribution and per-job eviction.
//!
//! The engine's historical invariant — one job at a time over all `C` slots,
//! the abstraction the paper's analysis assumes — is now just the [`Fifo`]
//! policy (the default of [`ClusterSim::new`], pinned bit-for-bit by
//! `crates/engine/tests/golden_trace.rs`). [`GangBinPack`] packs jobs onto
//! disjoint slot ranges sized by their widest stage, and [`PriorityPreempt`]
//! adds class-ordered backfill plus eviction of lower-class jobs through
//! their calendar handles (the indexed [`EventQueue`]'s O(log n) cancel).
//!
//! Frequency is a *per-gang* property: every running job owns a frequency
//! domain, starts at [`FreqLevel::Base`] and is switched individually by
//! [`ClusterSim::set_job_frequency`] (only that job's in-flight completions
//! are rescaled, through their calendar handles). The paper's cluster-global
//! DVFS is that call on every running job; under [`Fifo`] there is only one.
//!
//! Capacity is *elastic*: [`ClusterSim::fail_slot`] kills a slot (evicting
//! the overlapping run to the head of the pending queue, like a preemption
//! victim), [`ClusterSim::drain_slot`] removes it gracefully once its
//! occupant departs, [`ClusterSim::repair_slot`] brings it back, and
//! [`ClusterSim::slow_slot`] turns it into a straggler (the overlapping gang
//! is retimed to the max factor across its slots — a wave is only as fast as
//! its slowest slot). Non-up slots are surfaced to schedulers as phantom
//! blocked ranges (job [`BLOCKED_SLOT_JOB`], class [`BLOCKED_SLOT_CLASS`])
//! so every placement policy routes around dead capacity with no trait
//! change; a phantom is never a legal preemption victim. With no faults
//! injected, every fast path reduces to the PR 5 engine bit for bit
//! (`slow == 1.0` divisions and phantom-free views are exact no-ops).

use std::collections::VecDeque;
use std::fmt;

use serde::{Deserialize, Serialize};

use dias_des::{EventHandle, EventQueue, SimTime};

use crate::faults::{FaultEvent, FaultKind, SlotHealth};
use crate::sched::{PendingView, RunningView, Scheduler, SlotRange};
use crate::{ClusterSpec, EnergyMeter, Fifo, FreqLevel, IdMap, JobEnergy, JobId, JobInstance};

/// Errors from driving the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// An operation required a running job but the engine is idle.
    Idle,
    /// The drop-ratio vector does not match the job's stages or is out of range.
    BadDrops(String),
    /// The cluster specification is invalid.
    InvalidSpec(String),
    /// The referenced job is not running.
    UnknownJob(JobId),
    /// A fault-injection parameter is invalid (bad timestamp or straggler
    /// factor).
    BadFault(String),
    /// The referenced slot index is outside the cluster.
    UnknownSlot(usize),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Idle => write!(f, "engine is idle"),
            EngineError::BadDrops(msg) => write!(f, "invalid drop ratios: {msg}"),
            EngineError::InvalidSpec(msg) => write!(f, "invalid cluster spec: {msg}"),
            EngineError::UnknownJob(id) => write!(f, "{id} is not running"),
            EngineError::BadFault(msg) => write!(f, "invalid fault: {msg}"),
            EngineError::UnknownSlot(slot) => write!(f, "slot {slot} is outside the cluster"),
        }
    }
}

impl std::error::Error for EngineError {}

/// What happened when the simulator advanced by one internal event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EngineEvent {
    /// The setup (overhead) stage completed.
    SetupFinished {
        /// The running job.
        job: JobId,
    },
    /// One task completed; more remain in the stage.
    TaskFinished {
        /// The running job.
        job: JobId,
        /// Stage index of the task.
        stage: usize,
        /// Tasks still to complete in this stage.
        tasks_left: usize,
    },
    /// A stage completed (its shuffle, if any, begins).
    StageFinished {
        /// The running job.
        job: JobId,
        /// The completed stage index.
        stage: usize,
    },
    /// An inter-stage shuffle completed.
    ShuffleFinished {
        /// The running job.
        job: JobId,
        /// The stage about to start.
        next_stage: usize,
    },
    /// The job's last stage completed; its slots are free again.
    JobFinished {
        /// The finished job.
        job: JobId,
        /// Execution metrics of this (final) attempt.
        metrics: JobRunMetrics,
    },
}

/// Metrics of one completed job attempt.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobRunMetrics {
    /// Wall-clock execution time of this attempt (dispatch to completion).
    pub execution_secs: f64,
    /// Machine-seconds of work performed, in base-frequency equivalents.
    pub work_secs: f64,
    /// Wall-clock seconds of this attempt spent at sprint frequency.
    pub sprint_secs: f64,
    /// Tasks executed.
    pub tasks_run: usize,
    /// Tasks dropped by the deflator's ratios.
    pub tasks_dropped: usize,
}

/// Work destroyed by evicting a running job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvictedWork {
    /// Wall-clock seconds the attempt had been running.
    pub wall_secs: f64,
    /// Machine-seconds of work performed and lost (base-frequency equivalents).
    pub work_secs: f64,
    /// Wall-clock seconds of the attempt spent sprinting.
    pub sprint_secs: f64,
}

/// Where [`ClusterSim::submit_job`] put an arriving job.
#[derive(Debug, Clone, PartialEq)]
pub enum Submission {
    /// Dispatched immediately onto `slots`.
    Dispatched {
        /// The slot subset the job runs on.
        slots: SlotRange,
    },
    /// Held in the engine's pending queue until capacity frees up; it will be
    /// dispatched by a later departure (the scheduler's backfill). `evicted`
    /// is normally empty; a (custom) scheduler that names victims and then
    /// still cannot place the arrival leaves their lost work itemized here —
    /// it must not be silently dropped.
    Queued {
        /// Victims evicted before placement was abandoned, with the work
        /// each lost (empty for the shipped schedulers: `PriorityPreempt`
        /// checks feasibility before naming its first victim).
        evicted: Vec<(JobId, EvictedWork)>,
    },
    /// Dispatched onto `slots` after evicting `evicted` lower-class jobs;
    /// the victims re-queue at the head of the pending queue and re-execute
    /// from scratch (their lost work is itemized per victim).
    Preempted {
        /// The slot subset the arriving job runs on.
        slots: SlotRange,
        /// Victims in eviction order, with the work each lost.
        evicted: Vec<(JobId, EvictedWork)>,
    },
}

#[derive(Debug, Clone)]
struct RunningTask {
    work_left: f64,
    since: SimTime,
    handle: EventHandle,
}

#[derive(Debug, Clone)]
enum Phase {
    /// Setup or shuffle: a single serial activity.
    Serial {
        is_setup: bool,
        next_stage: usize,
        work_left: f64,
        since: SimTime,
        handle: EventHandle,
    },
    Stage {
        idx: usize,
        /// Index in the stage's task list of the next task to launch; the
        /// tasks before it run or have finished.
        next: usize,
        running: Vec<RunningTask>,
    },
}

/// A calendar entry's payload. Each names its run by [`RunTable`] key, so
/// processing an event finds the run without searching for it.
#[derive(Debug, Clone, Copy)]
enum Internal {
    SerialDone { run: usize },
    TaskDone { run: usize, stage: usize },
}

/// A job's prepared (post-drop) work, reusable across eviction re-runs —
/// preemptive-repeat-identical semantics without storing the instance.
#[derive(Debug, Clone)]
struct JobWork {
    job: JobId,
    class: usize,
    /// Slots the job asks for: its widest kept stage, at least 1.
    width: usize,
    setup_secs: f64,
    stage_tasks: Vec<Vec<f64>>,
    shuffle_secs: Vec<f64>,
    tasks_dropped: usize,
}

impl JobWork {
    fn view(&self) -> PendingView {
        PendingView {
            job: self.job,
            class: self.class,
            width: self.width,
        }
    }
}

/// The engine's pending queue, with the scheduler's view of it kept index
/// for index beside it, so backfill hands over a slice instead of building
/// one per decision.
#[derive(Debug, Clone, Default)]
struct PendingQueue {
    works: VecDeque<JobWork>,
    views: Vec<PendingView>,
}

impl PendingQueue {
    fn len(&self) -> usize {
        self.works.len()
    }

    fn is_empty(&self) -> bool {
        self.works.is_empty()
    }

    fn push_back(&mut self, work: JobWork) {
        self.views.push(work.view());
        self.works.push_back(work);
    }

    fn push_front(&mut self, work: JobWork) {
        self.views.insert(0, work.view());
        self.works.push_front(work);
    }

    fn remove(&mut self, idx: usize) -> JobWork {
        self.views.remove(idx);
        self.works
            .remove(idx)
            .expect("scheduler picked a pending index in range")
    }
}

/// The running attempts, each under a key that stays fixed while it runs.
///
/// Calendar events carry their run's key, the energy meter keeps the run's
/// ledger under the same key, and the job-id index resolves the rest, so no
/// per-event path searches the running jobs. Dispatch order is a doubly
/// linked list through the live entries; free entries chain through their
/// `next` link and are reused last freed first.
#[derive(Debug, Clone)]
struct RunTable {
    entries: Vec<RunEntry>,
    /// First and last live key in dispatch order ([`NIL`] when empty).
    head: usize,
    tail: usize,
    /// Most recently freed key ([`NIL`] when none).
    free: usize,
    by_job: IdMap<usize>,
}

#[derive(Debug, Clone)]
struct RunEntry {
    run: Option<Run>,
    /// Neighbours in dispatch order; for a free entry `next` is the next
    /// free key.
    prev: usize,
    next: usize,
}

/// The end-of-list marker of [`RunTable`]'s links.
const NIL: usize = usize::MAX;

impl RunTable {
    fn new() -> Self {
        RunTable {
            entries: Vec::new(),
            head: NIL,
            tail: NIL,
            free: NIL,
            by_job: IdMap::default(),
        }
    }

    fn len(&self) -> usize {
        self.by_job.len()
    }

    fn is_empty(&self) -> bool {
        self.by_job.is_empty()
    }

    /// The key the next [`RunTable::insert`] will use.
    fn next_key(&self) -> usize {
        match self.free {
            NIL => self.entries.len(),
            key => key,
        }
    }

    /// Stores `run` under [`RunTable::next_key`], last in dispatch order.
    fn insert(&mut self, run: Run) -> usize {
        self.by_job.insert(run.work.job, self.next_key());
        let entry = RunEntry {
            run: Some(run),
            prev: self.tail,
            next: NIL,
        };
        let key = match self.free {
            NIL => {
                self.entries.push(entry);
                self.entries.len() - 1
            }
            key => {
                self.free = self.entries[key].next;
                self.entries[key] = entry;
                key
            }
        };
        match self.tail {
            NIL => self.head = key,
            tail => self.entries[tail].next = key,
        }
        self.tail = key;
        key
    }

    fn remove(&mut self, key: usize) -> Run {
        let entry = &mut self.entries[key];
        let run = entry.run.take().expect("run key is live");
        let (prev, next) = (entry.prev, entry.next);
        entry.next = self.free;
        self.free = key;
        match prev {
            NIL => self.head = next,
            prev => self.entries[prev].next = next,
        }
        match next {
            NIL => self.tail = prev,
            next => self.entries[next].prev = prev,
        }
        self.by_job.remove(&run.work.job);
        run
    }

    fn get(&self, key: usize) -> &Run {
        self.entries[key].run.as_ref().expect("run key is live")
    }

    fn get_mut(&mut self, key: usize) -> &mut Run {
        self.entries[key].run.as_mut().expect("run key is live")
    }

    fn key_of(&self, job: JobId) -> Option<usize> {
        self.by_job.get(&job).copied()
    }

    /// Key of the earliest-dispatched run, if any.
    fn earliest(&self) -> Option<usize> {
        (self.head != NIL).then_some(self.head)
    }

    /// The run dispatched right after run `key`, if any.
    fn next_dispatched(&self, key: usize) -> Option<usize> {
        let next = self.entries[key].next;
        (next != NIL).then_some(next)
    }

    /// Live keys in dispatch order.
    fn in_dispatch_order(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.earliest(), |&key| self.next_dispatched(key))
    }
}

/// Where the view `(start, job)` sits in a slot-ordered view list: views
/// sort by slot start, then job id, which puts a phantom after the run
/// sharing its first slot.
fn view_pos(views: &[RunningView], start: usize, job: JobId) -> usize {
    views.partition_point(|v| (v.slots.start, v.job) < (start, job))
}

#[derive(Debug, Clone)]
struct Run {
    work: JobWork,
    slots: SlotRange,
    phase: Phase,
    started: SimTime,
    /// The run's frequency domain: the level its in-flight work executes at
    /// and the rate its busy slots are charged at.
    freq: FreqLevel,
    /// Straggler factor of the run's slowest slot (≥ 1.0; 1.0 = full speed).
    /// A gang executes in lockstep waves, so the whole run slows to its
    /// slowest slot: effective speed = `speed_at(freq) / slow`.
    slow: f64,
    work_done: f64,
    sprint_secs: f64,
    sprint_since: Option<SimTime>,
    tasks_run: usize,
}

impl Run {
    /// Slots the run keeps busy right now (a serial activity uses one).
    fn busy(&self) -> usize {
        match &self.phase {
            Phase::Serial { .. } => 1,
            Phase::Stage { running, .. } => running.len(),
        }
    }
}

/// One job-attempt dispatch, recorded when the scheduler places work on slots
/// (arrival-time placement, backfill, or re-dispatch after an eviction).
///
/// Drained by [`ClusterSim::take_dispatched`]; drivers use the records to
/// measure queueing directly (arrival → dispatch) instead of deriving it from
/// response − execution, and to arm per-attempt sprint timers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DispatchRecord {
    /// The dispatched job.
    pub job: JobId,
    /// When this attempt started executing.
    pub time: SimTime,
    /// The slot subset the attempt runs on (its gang).
    pub slots: SlotRange,
}

/// The Spark-like engine: a cluster of `C` slots executing concurrent
/// multi-stage jobs on disjoint slot subsets, advanced one event at a time.
///
/// Driving pattern: the controller compares [`ClusterSim::next_event_time`]
/// with its own arrival/sprint timers and calls [`ClusterSim::advance`]
/// whenever the engine holds the earliest event. Jobs enter through
/// [`ClusterSim::submit_job`] (dispatch, queue, or preempt, per the
/// [`Scheduler`] policy; under [`Fifo`] a job dispatches onto the whole
/// cluster when it is idle and queues otherwise) and leave by completing or
/// through [`ClusterSim::evict_job`]. See the crate-level example.
#[derive(Debug)]
pub struct ClusterSim {
    spec: ClusterSpec,
    scheduler: Box<dyn Scheduler>,
    /// Everything that evolves during a run; [`ClusterSim::checkpoint`] is
    /// its clone.
    state: SimState,
}

/// The mutable half of a [`ClusterSim`]: the fixed spec and the scheduler
/// stay outside it.
#[derive(Debug, Clone)]
struct SimState {
    time: SimTime,
    queue: EventQueue<Internal>,
    runs: RunTable,
    /// What the scheduler sees: one view per run plus the phantom blocked
    /// ranges, sorted by slot start and updated in place.
    views: Vec<RunningView>,
    pending: PendingQueue,
    meter: EnergyMeter,
    dispatched: Vec<DispatchRecord>,
    /// Per-slot fault state, indexed by slot. All-`Up`/`1.0` on a healthy
    /// cluster; the `unavailable`/`stragglers` counters fast-path that case
    /// so fault-free runs pay nothing.
    slot_states: Vec<SlotState>,
    /// Number of slots whose health is not [`SlotHealth::Up`].
    unavailable: usize,
    /// Number of slots with a straggler factor other than 1.0.
    stragglers: usize,
}

/// Fault state of one slot.
#[derive(Debug, Clone, Copy)]
struct SlotState {
    health: SlotHealth,
    /// Straggler factor (≥ 1.0; 1.0 = full speed).
    slow: f64,
}

/// A bitwise-exact snapshot of a [`ClusterSim`]'s mutable state, captured by
/// [`ClusterSim::checkpoint`] and reinstated by [`ClusterSim::restore`] (into
/// this sim or a fresh one built with the same spec and scheduler).
///
/// A checkpoint owns everything that evolves during a run: the wall clock,
/// the event calendar (cloned with its handle generations, so the calendar
/// handles stored in the run table stay valid), the run and pending tables,
/// the per-job energy ledgers, the undrained dispatch log, and the per-slot
/// fault state (the fault *cursor* of a driver-level fault trace lives with
/// the driver, which clones it alongside). It does **not** capture the
/// cluster spec or the scheduler: both are fixed at construction and the
/// shipped schedulers are stateless.
///
/// Checkpoints are plain owned data — `Clone`, `Send` and `Sync` — so one
/// reference run can fan out to many concurrent branches.
#[derive(Debug, Clone)]
pub struct Checkpoint(SimState);

/// Priority class of the phantom "blocked" views fault injection inserts for
/// out-of-service slots: never a legal preemption victim (no arriving class
/// exceeds it), so schedulers route around dead capacity for free.
pub const BLOCKED_SLOT_CLASS: usize = usize::MAX;

/// Job id of the phantom "blocked" views (never a real run's id).
pub const BLOCKED_SLOT_JOB: JobId = JobId(u64::MAX);

impl ClusterSim {
    /// Creates an idle cluster at time zero under the [`Fifo`] policy — the
    /// engine's historical one-job-at-a-time behaviour.
    ///
    /// # Panics
    ///
    /// Panics if `spec` fails validation; use [`ClusterSim::with_scheduler`]
    /// for the fallible constructor.
    #[must_use]
    pub fn new(spec: ClusterSpec) -> Self {
        Self::with_scheduler(spec, Box::new(Fifo)).expect("invalid cluster spec")
    }

    /// Creates an idle cluster at time zero driven by `scheduler`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidSpec`] when `spec` fails
    /// [`ClusterSpec::validate`].
    pub fn with_scheduler(
        spec: ClusterSpec,
        scheduler: Box<dyn Scheduler>,
    ) -> Result<Self, EngineError> {
        spec.validate().map_err(EngineError::InvalidSpec)?;
        let meter = EnergyMeter::new(&spec, SimTime::ZERO);
        let slots = spec.slots();
        Ok(ClusterSim {
            spec,
            scheduler,
            state: SimState {
                time: SimTime::ZERO,
                queue: EventQueue::new(),
                runs: RunTable::new(),
                views: Vec::new(),
                pending: PendingQueue::default(),
                meter,
                dispatched: Vec::new(),
                slot_states: vec![
                    SlotState {
                        health: SlotHealth::Up,
                        slow: 1.0,
                    };
                    slots
                ],
                unavailable: 0,
                stragglers: 0,
            },
        })
    }

    /// Name of the scheduling policy driving this cluster.
    #[must_use]
    pub fn scheduler_label(&self) -> &'static str {
        self.scheduler.label()
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.state.time
    }

    /// The cluster specification.
    #[must_use]
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Whether no job is running or waiting in the engine.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.state.runs.is_empty() && self.state.pending.is_empty()
    }

    /// Frequency level of `job`'s domain, or `None` when it is not running.
    #[must_use]
    pub fn job_frequency(&self, job: JobId) -> Option<FreqLevel> {
        self.state
            .runs
            .key_of(job)
            .map(|key| self.state.runs.get(key).freq)
    }

    /// Ids of all running jobs, in dispatch order.
    #[must_use]
    pub fn running_jobs(&self) -> Vec<JobId> {
        self.state
            .runs
            .in_dispatch_order()
            .map(|key| self.state.runs.get(key).work.job)
            .collect()
    }

    /// Number of currently running jobs, without allocating.
    ///
    /// The open-system soak driver samples this every iteration for its
    /// live-object memory proxy, where [`ClusterSim::running_jobs`]'s `Vec`
    /// would be pure overhead.
    #[must_use]
    pub fn running_count(&self) -> usize {
        self.state.runs.len()
    }

    /// Current slot assignments, one per running job, in dispatch order.
    /// Scheduler policies must keep these ranges pairwise disjoint.
    #[must_use]
    pub fn assignments(&self) -> Vec<(JobId, SlotRange)> {
        self.state
            .runs
            .in_dispatch_order()
            .map(|key| {
                let r = self.state.runs.get(key);
                (r.work.job, r.slots)
            })
            .collect()
    }

    /// Jobs waiting in the engine's pending queue for slots.
    #[must_use]
    pub fn pending_jobs(&self) -> usize {
        self.state.pending.len()
    }

    /// Total energy consumed so far, in joules.
    #[must_use]
    pub fn energy_joules(&self) -> f64 {
        self.state.meter.energy_joules(self.state.time)
    }

    /// The energy meter, for per-job attribution queries.
    #[must_use]
    pub fn meter(&self) -> &EnergyMeter {
        &self.state.meter
    }

    /// Mutable access to the energy meter, to drain finished-job
    /// attributions with [`EnergyMeter::take_finished`]. Only the engine
    /// writes the ledgers; the meter's public calls read or drain them.
    pub fn meter_mut(&mut self) -> &mut EnergyMeter {
        &mut self.state.meter
    }

    /// Energy attributed to `job` as of now (running or finished).
    #[must_use]
    pub fn job_energy(&self, job: JobId) -> Option<JobEnergy> {
        self.state.meter.job_energy(job, self.state.time)
    }

    /// Advances the wall clock to `now` without processing events (used by the
    /// controller while the engine is idle so energy integrates correctly).
    ///
    /// # Panics
    ///
    /// Panics if `now` is before the current time or an engine event precedes it.
    pub fn idle_until(&mut self, now: SimTime) {
        assert!(now >= self.state.time, "time must not run backwards");
        if let Some(t) = self.state.queue.peek_time() {
            assert!(now <= t, "cannot skip over a pending engine event");
        }
        self.state.time = now;
    }

    /// Number of events pending in the engine's internal calendar.
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.state.queue.len()
    }

    /// Drains the log of job-attempt dispatches since the last call, in
    /// dispatch order.
    ///
    /// Every placement — at arrival, by backfill after a departure, or the
    /// re-dispatch of an evicted job — appends one [`DispatchRecord`]. Drivers
    /// that need per-attempt dispatch timestamps (queueing decomposition,
    /// per-attempt sprint timers) harvest them here; callers that ignore the
    /// log pay one `Vec` push per dispatch.
    pub fn take_dispatched(&mut self) -> Vec<DispatchRecord> {
        std::mem::take(&mut self.state.dispatched)
    }

    /// Captures the simulation's complete mutable state as an owned
    /// [`Checkpoint`]: the clock, the event calendar (handle generations
    /// preserved, so the calendar handles inside the run table stay valid),
    /// the run and pending tables, the per-job energy ledgers, the undrained
    /// dispatch log, per-slot fault state and the per-gang frequency domains.
    /// Restoring it into a sim built with the same spec and scheduler is
    /// bitwise-exact: the branch's event stream, dispatch log and energy
    /// books replay identically to an uninterrupted run.
    #[must_use]
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint(self.state.clone())
    }

    /// Reinstates a state captured by [`ClusterSim::checkpoint`], overwriting
    /// every mutable field (the clock may move backwards).
    ///
    /// The checkpoint must come from a sim with the *same* cluster spec; the
    /// scheduler is not part of the snapshot — all shipped schedulers are
    /// stateless ([`Fifo`], [`crate::GangBinPack`],
    /// [`crate::PriorityPreempt`]), so any policy-compatible sim restores
    /// exactly. Restoring under a stateful custom scheduler, or into a sim
    /// with a different spec, is a logic error. Restoring into a fresh sim
    /// branches the run: the two then evolve independently.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's slot count does not match this sim's spec.
    pub fn restore(&mut self, cp: &Checkpoint) {
        assert_eq!(
            cp.0.slot_states.len(),
            self.spec.slots(),
            "checkpoint is from a cluster with a different slot count"
        );
        self.state.clone_from(&cp.0);
    }

    /// Validates `drops` against `instance` and prepares the post-drop work.
    ///
    /// Stage `i` keeps its first `⌈n_i(1−drops[i])⌉` tasks; task order within
    /// an instance is already i.i.d., so prefix selection is equivalent to the
    /// paper's random drop. Setup shortens with the data actually read
    /// (§4.3's drop-dependent overhead):
    /// `effective = setup × (1 − f + f·kept_fraction)`.
    fn prepare(&self, instance: &JobInstance, drops: &[f64]) -> Result<JobWork, EngineError> {
        if drops.len() != instance.task_secs.len() {
            return Err(EngineError::BadDrops(format!(
                "{} ratios for {} stages",
                drops.len(),
                instance.task_secs.len()
            )));
        }
        if drops.iter().any(|t| !(0.0..=1.0).contains(t)) {
            return Err(EngineError::BadDrops("ratios must be in [0,1]".into()));
        }

        let mut tasks_dropped = 0;
        let mut total_tasks = 0;
        let stage_tasks: Vec<Vec<f64>> = instance
            .task_secs
            .iter()
            .zip(drops)
            .map(|(ts, &theta)| {
                let keep = ((ts.len() as f64) * (1.0 - theta)).ceil() as usize;
                tasks_dropped += ts.len() - keep;
                total_tasks += ts.len();
                ts[..keep].to_vec()
            })
            .collect();

        let kept_fraction = if total_tasks == 0 {
            1.0
        } else {
            (total_tasks - tasks_dropped) as f64 / total_tasks as f64
        };
        let f = instance.spec.setup_data_fraction;
        let setup_secs = instance.setup_secs * (1.0 - f + f * kept_fraction);
        let width = stage_tasks.iter().map(Vec::len).max().unwrap_or(0).max(1);

        Ok(JobWork {
            job: instance.spec.id,
            class: instance.class(),
            width,
            setup_secs,
            stage_tasks,
            shuffle_secs: instance.shuffle_secs.clone(),
            tasks_dropped,
        })
    }

    /// Rebuilds the phantom blocked views after a slot changed between up
    /// and not up.
    ///
    /// Out-of-service slots (failed, draining) appear to the scheduler as
    /// *phantom* blocked views — class [`BLOCKED_SLOT_CLASS`], job
    /// [`BLOCKED_SLOT_JOB`], one per maximal run of non-up slots — so
    /// placement policies route around dead capacity with no trait change. A
    /// phantom is never a legal preemption victim, and [`Fifo`] (which only
    /// places on an empty view set) treats any capacity loss as a full
    /// outage — the paper's whole-cluster gang semantics.
    fn refresh_phantoms(&mut self) {
        self.state.views.retain(|v| v.job != BLOCKED_SLOT_JOB);
        let mut s = 0;
        let n = self.state.slot_states.len();
        while s < n {
            if self.state.slot_states[s].health == SlotHealth::Up {
                s += 1;
                continue;
            }
            let start = s;
            while s < n && self.state.slot_states[s].health != SlotHealth::Up {
                s += 1;
            }
            let pos = view_pos(&self.state.views, start, BLOCKED_SLOT_JOB);
            self.state.views.insert(
                pos,
                RunningView {
                    job: BLOCKED_SLOT_JOB,
                    class: BLOCKED_SLOT_CLASS,
                    slots: SlotRange::new(start, s - start),
                    started: SimTime::ZERO,
                },
            );
        }
    }

    /// Key of the run holding slot `slot`, if any.
    fn run_on_slot(&self, slot: usize) -> Option<usize> {
        self.state
            .views
            .iter()
            .find(|v| v.job != BLOCKED_SLOT_JOB && v.slots.start <= slot && slot < v.slots.end())
            .and_then(|v| self.state.runs.key_of(v.job))
    }

    /// Takes run `key` out of the run table and the scheduler's views.
    fn remove_run(&mut self, key: usize) -> Run {
        let run = self.state.runs.remove(key);
        let pos = view_pos(&self.state.views, run.slots.start, run.work.job);
        debug_assert_eq!(self.state.views[pos].job, run.work.job);
        self.state.views.remove(pos);
        run
    }

    /// Hands `instance` to the scheduler: dispatched onto a slot subset,
    /// queued inside the engine until capacity frees, or (under a preempting
    /// policy) dispatched after evicting lower-class jobs, which re-queue at
    /// the head and will re-execute from scratch.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BadDrops`] for a malformed drop vector.
    pub fn submit_job(
        &mut self,
        instance: &JobInstance,
        drops: &[f64],
    ) -> Result<Submission, EngineError> {
        let work = self.prepare(instance, drops)?;
        let total = self.spec.slots();
        let mut evicted: Vec<(JobId, EvictedWork)> = Vec::new();

        loop {
            if let Some(slots) =
                self.scheduler
                    .place(work.class, work.width, total, &self.state.views)
            {
                self.dispatch(work, slots);
                if !evicted.is_empty() {
                    // Eviction may have freed more capacity than the arrival
                    // consumed; offer the remainder to the pending queue now
                    // instead of waiting for the next departure.
                    self.backfill();
                }
                return Ok(if evicted.is_empty() {
                    Submission::Dispatched { slots }
                } else {
                    Submission::Preempted { slots, evicted }
                });
            }
            let victim = self
                .scheduler
                .victim(work.class, work.width, total, &self.state.views);
            // Only a still-running, strictly lower-class job is a legal
            // victim; anything else ends the eviction loop and queues the
            // arrival (guards against non-terminating scheduler answers).
            let Some(key) = victim
                .and_then(|v| self.state.runs.key_of(v))
                .filter(|&key| self.state.runs.get(key).work.class < work.class)
            else {
                self.state.pending.push_back(work);
                if !evicted.is_empty() {
                    // Defensive: victims were evicted but the arrival still
                    // cannot be placed. Re-offer the freed capacity to the
                    // pending queue (the head is the youngest victim, which
                    // always fits its own former slots) and surface the
                    // destroyed work to the caller.
                    self.backfill();
                }
                return Ok(Submission::Queued { evicted });
            };
            let job = self.state.runs.get(key).work.job;
            let (lost, requeue) = self.do_evict(key);
            evicted.push((job, lost));
            self.state.pending.push_front(requeue);
        }
    }

    /// Straggler factor governing a range: the max over its slots' factors
    /// (a gang's waves are as slow as their slowest slot). 1.0 when no slot
    /// anywhere straggles — the fault-free fast path.
    fn range_slow(&self, slots: SlotRange) -> f64 {
        if self.state.stragglers == 0 {
            return 1.0;
        }
        let mut slow = 1.0f64;
        for s in slots.start..slots.end().min(self.state.slot_states.len()) {
            slow = slow.max(self.state.slot_states[s].slow);
        }
        slow
    }

    /// Dispatches prepared work onto `slots` at the current time; the new
    /// run's frequency domain starts at [`FreqLevel::Base`] and its straggler
    /// factor at the slowest slot of its range (`x / 1.0 == x` bitwise, so a
    /// straggler-free dispatch is unchanged).
    fn dispatch(&mut self, work: JobWork, slots: SlotRange) {
        let freq = FreqLevel::Base;
        let slow = self.range_slow(slots);
        let speed = self.spec.speed_at(freq) / slow;
        let job = work.job;
        let class = work.class;
        let key = self.state.runs.next_key();
        let handle = self.state.queue.push(
            self.state.time + work.setup_secs / speed,
            Internal::SerialDone { run: key },
        );
        let setup_secs = work.setup_secs;
        self.state
            .meter
            .update_ledger(self.state.time, key, job, 1, freq);
        let inserted = self.state.runs.insert(Run {
            work,
            slots,
            phase: Phase::Serial {
                is_setup: true,
                next_stage: 0,
                work_left: setup_secs,
                since: self.state.time,
                handle,
            },
            started: self.state.time,
            freq,
            slow,
            work_done: 0.0,
            sprint_secs: 0.0,
            sprint_since: None,
            tasks_run: 0,
        });
        debug_assert_eq!(inserted, key);
        let pos = view_pos(&self.state.views, slots.start, job);
        self.state.views.insert(
            pos,
            RunningView {
                job,
                class,
                slots,
                started: self.state.time,
            },
        );
        self.state.dispatched.push(DispatchRecord {
            job,
            time: self.state.time,
            slots,
        });
    }

    /// Dispatches pending jobs into freed capacity until the scheduler
    /// declines (called after every departure).
    fn backfill(&mut self) {
        let total = self.spec.slots();
        while !self.state.pending.is_empty() {
            let Some((idx, slots)) =
                self.scheduler
                    .pick_next(&self.state.pending.views, total, &self.state.views)
            else {
                return;
            };
            let work = self.state.pending.remove(idx);
            self.dispatch(work, slots);
        }
    }

    /// Timestamp of the next internal event, if any job is running.
    ///
    /// The indexed calendar never holds cancelled entries, so this is a plain
    /// borrow (the pre-PR3 tombstoning queue needed `&mut self` to skim stale
    /// events here).
    #[must_use]
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.state.queue.peek_time()
    }

    /// Processes the next internal event and reports what happened.
    ///
    /// The event stays on the calendar until its handler takes it off: a
    /// finished task that launches the next queued task hands its calendar
    /// entry over with [`EventQueue::replace_top`], and every other path pops
    /// it before touching the calendar.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Idle`] when no job is running.
    pub fn advance(&mut self) -> Result<EngineEvent, EngineError> {
        let (t, handle, &ev) = self.state.queue.peek().ok_or(EngineError::Idle)?;
        self.state.time = t;
        match ev {
            Internal::SerialDone { run } => {
                self.state.queue.pop();
                self.finish_serial(run)
            }
            Internal::TaskDone { run, stage } => self.finish_task(run, stage, handle),
        }
    }

    /// Evicts a specific running job, losing all its work. The job does not
    /// re-queue.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownJob`] when `job` is not running.
    pub fn evict_job(&mut self, job: JobId) -> Result<EvictedWork, EngineError> {
        let key = self.run_key(job)?;
        let (lost, _) = self.do_evict(key);
        self.backfill();
        Ok(lost)
    }

    /// Removes run `key`: credits partial work, cancels its calendar events
    /// through their handles (other jobs' events stay put), retires its
    /// energy ledger, and returns the lost work plus the job's work for a
    /// head-of-queue re-submission.
    fn do_evict(&mut self, key: usize) -> (EvictedWork, JobWork) {
        let mut run = self.remove_run(key);
        let speed = self.spec.speed_at(run.freq) / run.slow;
        // Credit partial work of in-flight activities since their last
        // reschedule point (earlier segments were credited at those points).
        match &run.phase {
            Phase::Serial {
                work_left,
                since,
                handle,
                ..
            } => {
                let elapsed_work = ((self.state.time - *since) * speed).min(*work_left);
                run.work_done += elapsed_work;
                self.state.queue.cancel(*handle);
            }
            Phase::Stage { running, .. } => {
                for task in running {
                    run.work_done += ((self.state.time - task.since) * speed).min(task.work_left);
                }
                self.state
                    .queue
                    .cancel_many(running.iter().map(|t| t.handle));
            }
        }
        let sprint_secs = run.sprint_secs + run.sprint_since.map_or(0.0, |s| self.state.time - s);
        self.state.meter.retire_ledger(self.state.time, key);
        self.complete_drains(run.slots);
        let lost = EvictedWork {
            wall_secs: self.state.time - run.started,
            work_secs: run.work_done,
            sprint_secs,
        };
        (lost, run.work)
    }

    /// Rescales run `key`'s in-flight activities from its current domain
    /// level to `freq`, updating sprint accounting and its energy ledger.
    ///
    /// Every in-flight activity's completion is *rescheduled* in place
    /// (decrease/increase-key on the indexed calendar) rather than cancelled
    /// and re-pushed; the handles stay valid and the FIFO tie-breaking is
    /// identical to the old cancel+repush (a rescheduled event ties as if
    /// newly pushed). No-op when the run is already at `freq` and `slow`.
    ///
    /// `slow` is the straggler factor of the run's slowest slot (≥ 1.0);
    /// straggling rescales *time*, not power, so the energy ledger only sees
    /// the (possibly unchanged) frequency level.
    fn retime_run(&mut self, key: usize, freq: FreqLevel, slow: f64) {
        let run = self.state.runs.get_mut(key);
        if run.freq == freq && run.slow == slow {
            return;
        }
        let old_speed = self.spec.speed_at(run.freq) / run.slow;
        let new_speed = self.spec.speed_at(freq) / slow;
        let now = self.state.time;

        // Account sprint wall-time before the switch.
        if run.freq == FreqLevel::Sprint {
            if let Some(since) = run.sprint_since.take() {
                run.sprint_secs += now - since;
            }
        }
        match &mut run.phase {
            Phase::Serial {
                work_left,
                since,
                handle,
                ..
            } => {
                let done = ((now - *since) * old_speed).min(*work_left);
                run.work_done += done;
                *work_left -= done;
                *since = now;
                self.state
                    .queue
                    .reschedule(*handle, now + *work_left / new_speed);
            }
            Phase::Stage { running, .. } => {
                for task in running.iter_mut() {
                    let done = ((now - task.since) * old_speed).min(task.work_left);
                    run.work_done += done;
                    task.work_left -= done;
                    task.since = now;
                    self.state
                        .queue
                        .reschedule(task.handle, now + task.work_left / new_speed);
                }
            }
        }
        if freq == FreqLevel::Sprint {
            run.sprint_since = Some(now);
        }
        run.freq = freq;
        run.slow = slow;
        let (job, busy) = (run.work.job, run.busy());
        self.state.meter.update_ledger(now, key, job, busy, freq);
    }

    /// Switches `job`'s frequency domain to `freq`, rescaling only that job's
    /// in-flight completions in place (other jobs' events and domains stay
    /// put). The paper's whole-cluster sprint is this call on every running
    /// job. A later attempt of the job starts at [`FreqLevel::Base`] again.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownJob`] when `job` is not running (pending
    /// jobs have no domain yet; every dispatch starts at base).
    pub fn set_job_frequency(&mut self, job: JobId, freq: FreqLevel) -> Result<(), EngineError> {
        let key = self.run_key(job)?;
        let slow = self.state.runs.get(key).slow;
        self.retime_run(key, freq, slow);
        Ok(())
    }

    fn run_key(&self, job: JobId) -> Result<usize, EngineError> {
        self.state
            .runs
            .key_of(job)
            .ok_or(EngineError::UnknownJob(job))
    }

    fn finish_serial(&mut self, key: usize) -> Result<EngineEvent, EngineError> {
        let run = self.state.runs.get_mut(key);
        let job = run.work.job;
        let (is_setup, next_stage) = match &run.phase {
            Phase::Serial {
                is_setup,
                next_stage,
                work_left,
                ..
            } => {
                // Residual since the last reschedule point; earlier segments
                // were credited when the frequency changed.
                run.work_done += work_left;
                (*is_setup, *next_stage)
            }
            Phase::Stage { .. } => return Err(EngineError::Idle),
        };
        let event = if is_setup {
            EngineEvent::SetupFinished { job }
        } else {
            EngineEvent::ShuffleFinished { job, next_stage }
        };
        match self.enter_stage(key, next_stage) {
            Some(finished) => Ok(finished),
            None => Ok(event),
        }
    }

    /// Handles the task completion `fired`, which is still the calendar's
    /// earliest event.
    fn finish_task(
        &mut self,
        key: usize,
        stage: usize,
        fired: EventHandle,
    ) -> Result<EngineEvent, EngineError> {
        let time = self.state.time;
        let run = self.state.runs.get_mut(key);
        let job = run.work.job;
        let speed = self.spec.speed_at(run.freq) / run.slow;
        let (tasks_left, stage_done) = match &mut run.phase {
            Phase::Stage {
                idx: stage_idx,
                next,
                running,
            } if *stage_idx == stage => {
                // Remove exactly the task whose completion event fired,
                // matched by handle (the pre-PR3 engine matched by residual
                // work within an epsilon, which is ambiguous under ties).
                let pos = running
                    .iter()
                    .position(|t| t.handle == fired)
                    .expect("fired completion matches a running task");
                let done = running.swap_remove(pos);
                run.work_done += done.work_left;
                run.tasks_run += 1;
                let tasks = &run.work.stage_tasks[stage];
                // Launch the next pending task on the freed slot, in the
                // fired event's calendar entry.
                if let Some(&work) = tasks.get(*next) {
                    *next += 1;
                    let handle = self
                        .state
                        .queue
                        .replace_top(time + work / speed, Internal::TaskDone { run: key, stage });
                    running.push(RunningTask {
                        work_left: work,
                        since: time,
                        handle,
                    });
                } else {
                    self.state.queue.pop();
                }
                let queued = tasks.len() - *next;
                (queued + running.len(), running.is_empty() && queued == 0)
            }
            _ => {
                self.state.queue.pop();
                return Err(EngineError::Idle);
            }
        };
        if !stage_done {
            let (job_busy, freq) = {
                let run = self.state.runs.get(key);
                (run.busy(), run.freq)
            };
            self.state
                .meter
                .update_ledger(self.state.time, key, job, job_busy, freq);
            return Ok(EngineEvent::TaskFinished {
                job,
                stage,
                tasks_left,
            });
        }
        Ok(self
            .leave_stage(key, stage)
            .unwrap_or(EngineEvent::StageFinished { job, stage }))
    }

    /// Leaves stage `stage` of run `key`, completed or dropped whole: starts
    /// the shuffle into the next stage, or finishes the job after the last
    /// one and returns its `JobFinished`.
    fn leave_stage(&mut self, key: usize, stage: usize) -> Option<EngineEvent> {
        let time = self.state.time;
        let run = self.state.runs.get_mut(key);
        if stage + 1 >= run.work.stage_tasks.len() {
            return Some(self.finish_job(key));
        }
        let (job, freq) = (run.work.job, run.freq);
        let speed = self.spec.speed_at(freq) / run.slow;
        let shuffle = run.work.shuffle_secs[stage];
        let handle = self
            .state
            .queue
            .push(time + shuffle / speed, Internal::SerialDone { run: key });
        run.phase = Phase::Serial {
            is_setup: false,
            next_stage: stage + 1,
            work_left: shuffle,
            since: time,
            handle,
        };
        self.state.meter.update_ledger(time, key, job, 1, freq);
        None
    }

    /// Begins stage `stage` of run `key`; returns `Some(JobFinished)` if the
    /// job ends instead (e.g. every remaining stage was dropped empty).
    fn enter_stage(&mut self, key: usize, stage: usize) -> Option<EngineEvent> {
        let time = self.state.time;
        let run = self.state.runs.get_mut(key);
        let freq = run.freq;
        let speed = self.spec.speed_at(freq) / run.slow;
        let job = run.work.job;
        let slots = run.slots.count;
        if stage >= run.work.stage_tasks.len() {
            return Some(self.finish_job(key));
        }
        if run.work.stage_tasks[stage].is_empty() {
            // Entire stage dropped: move straight through its shuffle or finish.
            return self.leave_stage(key, stage);
        }
        let tasks = &run.work.stage_tasks[stage];
        let first_wave = &tasks[..tasks.len().min(slots)];
        let running: Vec<RunningTask> = first_wave
            .iter()
            .map(|&work| RunningTask {
                work_left: work,
                since: time,
                handle: self
                    .state
                    .queue
                    .push(time + work / speed, Internal::TaskDone { run: key, stage }),
            })
            .collect();
        let job_busy = running.len();
        run.phase = Phase::Stage {
            idx: stage,
            next: job_busy,
            running,
        };
        self.state
            .meter
            .update_ledger(time, key, job, job_busy, freq);
        None
    }

    /// Completes run `key`: frees its slots, retires its energy ledger, and
    /// backfills pending jobs into the freed capacity.
    fn finish_job(&mut self, key: usize) -> EngineEvent {
        let run = self.remove_run(key);
        let sprint_secs = run.sprint_secs + run.sprint_since.map_or(0.0, |s| self.state.time - s);
        self.state.meter.retire_ledger(self.state.time, key);
        self.complete_drains(run.slots);
        let event = EngineEvent::JobFinished {
            job: run.work.job,
            metrics: JobRunMetrics {
                execution_secs: self.state.time - run.started,
                work_secs: run.work_done,
                sprint_secs,
                tasks_run: run.tasks_run,
                tasks_dropped: run.work.tasks_dropped,
            },
        };
        self.backfill();
        event
    }

    // ------------------------------------------------------------------
    // Fault injection & elastic capacity
    // ------------------------------------------------------------------

    /// Health of slot `slot` ([`SlotHealth::Up`] on a fresh cluster).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownSlot`] when `slot` is out of range.
    pub fn slot_health(&self, slot: usize) -> Result<SlotHealth, EngineError> {
        self.check_slot(slot)?;
        Ok(self.state.slot_states[slot].health)
    }

    /// Number of slots currently schedulable ([`SlotHealth::Up`]). Draining
    /// and down slots are excluded; stragglers still count (they are slow,
    /// not gone).
    #[must_use]
    pub fn effective_slots(&self) -> usize {
        self.spec.slots() - self.state.unavailable
    }

    /// Kills slot `slot`: any run overlapping it is evicted (its partial
    /// work lost, its calendar events cancelled, its energy ledger retired)
    /// and pushed back to the *head* of the pending queue, exactly like a
    /// preemption victim; the slot then reads as down and the scheduler
    /// routes around it. Returns the evicted victims (at most one under
    /// disjoint gangs) so the caller can account re-execution loss.
    ///
    /// Failing a slot that is already down is a no-op. Failing a draining
    /// slot completes the drain immediately.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownSlot`] when `slot` is out of range.
    pub fn fail_slot(&mut self, slot: usize) -> Result<Vec<(JobId, EvictedWork)>, EngineError> {
        self.check_slot(slot)?;
        let mut victims = Vec::new();
        while let Some(key) = self.run_on_slot(slot) {
            let job = self.state.runs.get(key).work.job;
            let (lost, work) = self.do_evict(key);
            self.state.pending.push_front(work);
            victims.push((job, lost));
        }
        self.set_health(slot, SlotHealth::Down);
        self.backfill();
        Ok(victims)
    }

    /// Brings slot `slot` back up at full speed: clears any straggler factor
    /// (retiming an overlapping run, though none can exist while the slot is
    /// down), marks it up, and backfills pending jobs into the recovered
    /// capacity. Repairing an up slot only clears its straggler factor.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownSlot`] when `slot` is out of range.
    pub fn repair_slot(&mut self, slot: usize) -> Result<(), EngineError> {
        self.check_slot(slot)?;
        self.apply_slow(slot, 1.0);
        self.set_health(slot, SlotHealth::Up);
        self.backfill();
        Ok(())
    }

    /// Gracefully removes slot `slot`: if no run occupies it the slot goes
    /// down immediately (returns `Ok(true)`); otherwise it is marked
    /// draining — invisible to the scheduler but the occupying run keeps it
    /// until departure, at which point the drain completes (returns
    /// `Ok(false)`). Draining a slot that is already down is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownSlot`] when `slot` is out of range.
    pub fn drain_slot(&mut self, slot: usize) -> Result<bool, EngineError> {
        self.check_slot(slot)?;
        if self.state.slot_states[slot].health == SlotHealth::Down {
            return Ok(true);
        }
        if self.run_on_slot(slot).is_some() {
            self.set_health(slot, SlotHealth::Draining);
            Ok(false)
        } else {
            self.set_health(slot, SlotHealth::Down);
            Ok(true)
        }
    }

    /// Sets slot `slot`'s straggler factor to `factor` (≥ 1.0; 1.0 restores
    /// full speed). A run overlapping the slot is retimed in place to the
    /// max factor across its gang — a gang wave is only as fast as its
    /// slowest slot. Power rates are unchanged: straggling stretches busy
    /// time, it does not change the frequency level.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownSlot`] when `slot` is out of range and
    /// [`EngineError::BadFault`] when `factor` is not finite or below 1.0.
    pub fn slow_slot(&mut self, slot: usize, factor: f64) -> Result<(), EngineError> {
        self.check_slot(slot)?;
        if !factor.is_finite() || factor < 1.0 {
            return Err(EngineError::BadFault(format!(
                "straggler factor {factor} must be finite and >= 1.0"
            )));
        }
        self.apply_slow(slot, factor);
        Ok(())
    }

    /// Applies one [`FaultEvent`]'s kind to its slot (the event's timestamp
    /// is the *caller's* clock — the engine applies it at the current sim
    /// time). Returns failure victims for [`FaultKind::Fail`], empty
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Propagates [`EngineError::UnknownSlot`] / [`EngineError::BadFault`]
    /// from the underlying mutation.
    pub fn apply_fault(
        &mut self,
        event: &FaultEvent,
    ) -> Result<Vec<(JobId, EvictedWork)>, EngineError> {
        match event.kind {
            FaultKind::Fail => self.fail_slot(event.slot),
            FaultKind::Repair => self.repair_slot(event.slot).map(|()| Vec::new()),
            FaultKind::Drain => self.drain_slot(event.slot).map(|_| Vec::new()),
            FaultKind::Slow { factor } => self.slow_slot(event.slot, factor).map(|()| Vec::new()),
        }
    }

    fn check_slot(&self, slot: usize) -> Result<(), EngineError> {
        if slot < self.spec.slots() {
            Ok(())
        } else {
            Err(EngineError::UnknownSlot(slot))
        }
    }

    /// Transitions slot `slot` to `health`, keeping the `unavailable`
    /// (non-[`SlotHealth::Up`]) count in sync.
    fn set_health(&mut self, slot: usize, health: SlotHealth) {
        let entry = &mut self.state.slot_states[slot];
        let was_up = entry.health == SlotHealth::Up;
        let is_up = health == SlotHealth::Up;
        entry.health = health;
        match (was_up, is_up) {
            (true, false) => self.state.unavailable += 1,
            (false, true) => self.state.unavailable -= 1,
            _ => return,
        }
        self.refresh_phantoms();
    }

    /// Sets slot `slot`'s straggler factor, keeping the `stragglers` count
    /// in sync (the count gates the zero-fault fast path in `range_slow`).
    fn set_slow(&mut self, slot: usize, factor: f64) {
        let state = &mut self.state.slot_states[slot];
        let was_slow = state.slow != 1.0;
        let is_slow = factor != 1.0;
        state.slow = factor;
        match (was_slow, is_slow) {
            (false, true) => self.state.stragglers += 1,
            (true, false) => self.state.stragglers -= 1,
            _ => {}
        }
    }

    /// Sets slot `slot`'s straggler factor and retimes the overlapping run
    /// (if any) to the new max factor across its gang.
    fn apply_slow(&mut self, slot: usize, factor: f64) {
        self.set_slow(slot, factor);
        if let Some(key) = self.run_on_slot(slot) {
            let (slots, freq) = {
                let run = self.state.runs.get(key);
                (run.slots, run.freq)
            };
            let slow = self.range_slow(slots);
            self.retime_run(key, freq, slow);
        }
    }

    /// Completes pending drains in a departing run's slot range: every
    /// [`SlotHealth::Draining`] slot in `slots` goes down. Called from
    /// `do_evict` and `finish_job` *before* backfill, so the scheduler never
    /// re-places work onto a slot that was waiting for its occupant to leave.
    fn complete_drains(&mut self, slots: SlotRange) {
        if self.state.unavailable == 0 {
            return;
        }
        for slot in slots.start..slots.end() {
            if self.state.slot_states[slot].health == SlotHealth::Draining {
                self.set_health(slot, SlotHealth::Down);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GangBinPack, JobSpec, PriorityPreempt, StageKind, StageSpec};
    use dias_stochastic::Dist;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    pub(super) fn constant_job(map_tasks: usize, map_secs: f64) -> JobInstance {
        let spec = JobSpec::builder(1, 0)
            .input_mb(473.0)
            .setup(Dist::constant(10.0))
            .shuffle(Dist::constant(5.0))
            .stage(StageSpec::new(
                StageKind::Map,
                map_tasks,
                Dist::constant(map_secs),
            ))
            .stage(StageSpec::new(StageKind::Reduce, 10, Dist::constant(8.0)))
            .build();
        let mut rng = StdRng::seed_from_u64(1);
        JobInstance::sample(&spec, &mut rng)
    }

    pub(super) fn run_to_completion(sim: &mut ClusterSim) -> JobRunMetrics {
        loop {
            if let EngineEvent::JobFinished { metrics, .. } = sim.advance().unwrap() {
                return metrics;
            }
        }
    }

    /// A `Fifo` cluster running `job` alone, dispatched onto every slot at
    /// time zero.
    pub(super) fn running(job: &JobInstance, drops: &[f64]) -> ClusterSim {
        let mut sim = ClusterSim::new(ClusterSpec::paper_reference());
        let sub = sim.submit_job(job, drops).unwrap();
        assert_eq!(
            sub,
            Submission::Dispatched {
                slots: SlotRange::new(0, 20)
            }
        );
        sim
    }

    #[test]
    fn wave_execution_makespan() {
        // 50 constant tasks of 15 s on 20 slots: 3 waves (20, 20, 10) = 45 s.
        let mut sim = running(&constant_job(50, 15.0), &[0.0, 0.0]);
        let m = run_to_completion(&mut sim);
        let expected = 10.0 + 45.0 + 5.0 + 8.0;
        assert!(
            (m.execution_secs - expected).abs() < 1e-9,
            "{} vs {expected}",
            m.execution_secs
        );
        assert_eq!(m.tasks_run, 60);
        assert_eq!(m.tasks_dropped, 0);
        // Work = 10 + 50*15 + 5 + 10*8.
        assert!((m.work_secs - (10.0 + 750.0 + 5.0 + 80.0)).abs() < 1e-9);
    }

    #[test]
    fn dropping_removes_a_wave() {
        // Dropping 20% of 50 tasks leaves 40 = exactly 2 waves.
        let mut sim = running(&constant_job(50, 15.0), &[0.2, 0.0]);
        let m = run_to_completion(&mut sim);
        assert!((m.execution_secs - (10.0 + 30.0 + 5.0 + 8.0)).abs() < 1e-9);
        assert_eq!(m.tasks_dropped, 10);
    }

    #[test]
    fn full_drop_skips_stage_but_keeps_shuffle() {
        let mut sim = running(&constant_job(50, 15.0), &[1.0, 0.0]);
        let m = run_to_completion(&mut sim);
        assert!((m.execution_secs - (10.0 + 5.0 + 8.0)).abs() < 1e-9);
        assert_eq!(m.tasks_dropped, 50);
        assert_eq!(m.tasks_run, 10);
    }

    #[test]
    fn sprinting_from_start_speeds_everything() {
        let mut sim = running(&constant_job(50, 15.0), &[0.0, 0.0]);
        sim.set_job_frequency(JobId(1), FreqLevel::Sprint).unwrap();
        let m = run_to_completion(&mut sim);
        let expected = (10.0 + 45.0 + 5.0 + 8.0) / 2.5;
        assert!(
            (m.execution_secs - expected).abs() < 1e-9,
            "{} vs {expected}",
            m.execution_secs
        );
        // The whole attempt ran at sprint level.
        assert!((m.sprint_secs - m.execution_secs).abs() < 1e-9);
        // Work is counted in base-equivalents: unchanged by sprinting.
        assert!((m.work_secs - (10.0 + 750.0 + 5.0 + 80.0)).abs() < 1e-9);
    }

    #[test]
    fn mid_job_sprint_rescales_remaining_work() {
        let mut sim = running(&constant_job(20, 100.0), &[0.0, 0.0]);
        // Setup finishes at t=10; first (only) map wave runs 100 s at base.
        let ev = sim.advance().unwrap();
        assert!(matches!(ev, EngineEvent::SetupFinished { .. }));
        // Sprint halfway through the wave: 50 s of work left -> 20 s at 2.5x.
        sim.idle_until(SimTime::from_secs(60.0));
        sim.set_job_frequency(JobId(1), FreqLevel::Sprint).unwrap();
        let m = run_to_completion(&mut sim);
        // Map ends at 60 + 50/2.5 = 80; shuffle 5/2.5 = 2; reduce 8/2.5 = 3.2.
        let expected = 80.0 + 2.0 + 3.2;
        assert!(
            (m.execution_secs - expected).abs() < 1e-9,
            "{} vs {expected}",
            m.execution_secs
        );
        assert!((m.sprint_secs - (expected - 60.0)).abs() < 1e-9);
    }

    #[test]
    fn eviction_reports_lost_work() {
        let mut sim = running(&constant_job(50, 15.0), &[0.0, 0.0]);
        // Let setup finish (t=10), then one task wave partially complete.
        sim.advance().unwrap();
        sim.idle_until(SimTime::from_secs(17.0));
        let evicted = sim.evict_job(JobId(1)).unwrap();
        assert!((evicted.wall_secs - 17.0).abs() < 1e-9);
        // Setup 10 + 20 slots * 7 s of partial task work.
        assert!((evicted.work_secs - (10.0 + 140.0)).abs() < 1e-9);
        assert!(sim.is_idle());
        // The engine accepts a new job immediately.
        sim.submit_job(&constant_job(10, 1.0), &[0.0, 0.0]).unwrap();
        let m = run_to_completion(&mut sim);
        assert!(m.execution_secs > 0.0);
    }

    #[test]
    fn busy_engine_queues_second_job() {
        let mut sim = ClusterSim::new(ClusterSpec::paper_reference());
        let first = narrow_job(1, 0, 10, 1.0);
        let second = narrow_job(2, 0, 10, 1.0);
        let sub = sim.submit_job(&first, &[0.0]).unwrap();
        assert!(matches!(sub, Submission::Dispatched { .. }));
        let sub = sim.submit_job(&second, &[0.0]).unwrap();
        assert_eq!(sub, Submission::Queued { evicted: vec![] });
        assert_eq!(sim.running_jobs(), vec![JobId(1)]);
        assert_eq!(sim.pending_jobs(), 1);
        // Fifo dispatches the queued job onto the whole cluster the moment
        // the first one completes.
        loop {
            if let EngineEvent::JobFinished { job, .. } = sim.advance().unwrap() {
                assert_eq!(job, JobId(1));
                break;
            }
        }
        let finished_at = sim.now();
        assert_eq!(sim.running_jobs(), vec![JobId(2)]);
        assert_eq!(sim.pending_jobs(), 0);
        let dispatched = sim.take_dispatched();
        assert_eq!(dispatched.len(), 2);
        assert_eq!(dispatched[1].job, JobId(2));
        assert_eq!(dispatched[1].time, finished_at);
        assert_eq!(dispatched[1].slots, SlotRange::new(0, 20));
    }

    #[test]
    fn idle_engine_rejects_operations() {
        let mut sim = ClusterSim::new(ClusterSpec::paper_reference());
        assert_eq!(
            sim.evict_job(JobId(1)),
            Err(EngineError::UnknownJob(JobId(1)))
        );
        assert_eq!(sim.advance(), Err(EngineError::Idle));
        assert!(sim.next_event_time().is_none());
    }

    #[test]
    fn bad_drop_vectors_rejected() {
        let mut sim = ClusterSim::new(ClusterSpec::paper_reference());
        let job = constant_job(10, 1.0);
        assert!(matches!(
            sim.submit_job(&job, &[0.0]),
            Err(EngineError::BadDrops(_))
        ));
        assert!(matches!(
            sim.submit_job(&job, &[0.5, 1.5]),
            Err(EngineError::BadDrops(_))
        ));
    }

    #[test]
    fn event_sequence_is_coherent() {
        let mut sim = running(&constant_job(25, 10.0), &[0.0, 0.0]);
        let mut seen_setup = false;
        let mut seen_stage0 = false;
        let mut seen_shuffle = false;
        loop {
            match sim.advance().unwrap() {
                EngineEvent::SetupFinished { .. } => {
                    assert!(!seen_setup);
                    seen_setup = true;
                }
                EngineEvent::TaskFinished { .. } => assert!(seen_setup),
                EngineEvent::StageFinished { stage, .. } => {
                    assert_eq!(stage, 0);
                    seen_stage0 = true;
                }
                EngineEvent::ShuffleFinished { next_stage, .. } => {
                    assert!(seen_stage0);
                    assert_eq!(next_stage, 1);
                    seen_shuffle = true;
                }
                EngineEvent::JobFinished { .. } => break,
            }
        }
        assert!(seen_setup && seen_stage0 && seen_shuffle);
    }

    #[test]
    fn energy_accounts_for_busy_time() {
        let mut sim = running(&constant_job(20, 10.0), &[0.0, 0.0]);
        let m = run_to_completion(&mut sim);
        let energy = sim.energy_joules();
        // Lower bound: idle floor for the whole run. Upper: full power all run.
        let idle_floor = 900.0 * m.execution_secs;
        let full_power = 1800.0 * m.execution_secs;
        assert!(
            energy > idle_floor && energy < full_power,
            "energy {energy}"
        );
    }

    #[test]
    fn variable_task_times_finish_out_of_order() {
        let spec = JobSpec::builder(2, 0)
            .setup(Dist::constant(1.0))
            .shuffle(Dist::constant(1.0))
            .stage(StageSpec::new(StageKind::Map, 40, Dist::uniform(5.0, 20.0)))
            .stage(StageSpec::new(StageKind::Reduce, 5, Dist::constant(2.0)))
            .build();
        let mut rng = StdRng::seed_from_u64(9);
        let inst = JobInstance::sample(&spec, &mut rng);
        let mut sim = running(&inst, &[0.0, 0.0]);
        let m = run_to_completion(&mut sim);
        // Work conservation: all sampled work executed.
        assert!((m.work_secs - inst.total_work_secs()).abs() < 1e-6);
        assert_eq!(m.tasks_run, 45);
    }

    // -------- multi-job scheduling --------

    /// A single-stage job of `tasks` × `secs` for `class`, no setup/shuffle.
    fn narrow_job(id: u64, class: usize, tasks: usize, secs: f64) -> JobInstance {
        let spec = JobSpec::builder(id, class)
            .setup(Dist::constant(2.0))
            .stage(StageSpec::new(StageKind::Map, tasks, Dist::constant(secs)))
            .build();
        let mut rng = StdRng::seed_from_u64(id);
        JobInstance::sample(&spec, &mut rng)
    }

    #[test]
    fn gang_runs_narrow_jobs_concurrently() {
        let mut sim =
            ClusterSim::with_scheduler(ClusterSpec::paper_reference(), Box::new(GangBinPack))
                .unwrap();
        // Two 8-wide jobs fit the 20-slot cluster side by side.
        let a = sim.submit_job(&narrow_job(1, 0, 8, 16.0), &[0.0]).unwrap();
        let b = sim.submit_job(&narrow_job(2, 0, 8, 16.0), &[0.0]).unwrap();
        assert!(matches!(a, Submission::Dispatched { .. }));
        assert!(matches!(b, Submission::Dispatched { .. }));
        assert_eq!(sim.running_jobs(), vec![JobId(1), JobId(2)]);
        let ranges = sim.assignments();
        assert!(!ranges[0].1.overlaps(&ranges[1].1), "{ranges:?}");
        // Both finish at t = 2 + 16 (one wave each, concurrently).
        let mut finished = Vec::new();
        while !sim.running_jobs().is_empty() {
            if let EngineEvent::JobFinished { job, metrics } = sim.advance().unwrap() {
                finished.push((job, metrics.execution_secs));
            }
        }
        assert_eq!(finished.len(), 2);
        for (_, exec) in &finished {
            assert!((exec - 18.0).abs() < 1e-9, "exec {exec}");
        }
        assert!((sim.now().as_secs() - 18.0).abs() < 1e-9);
    }

    #[test]
    fn gang_queues_when_cluster_is_full_and_backfills() {
        let mut sim =
            ClusterSim::with_scheduler(ClusterSpec::paper_reference(), Box::new(GangBinPack))
                .unwrap();
        sim.submit_job(&narrow_job(1, 0, 12, 10.0), &[0.0]).unwrap();
        sim.submit_job(&narrow_job(2, 0, 8, 10.0), &[0.0]).unwrap();
        // 12 + 8 fill the cluster; a 4-wide job must wait.
        let c = sim.submit_job(&narrow_job(3, 0, 4, 1.0), &[0.0]).unwrap();
        assert_eq!(c, Submission::Queued { evicted: vec![] });
        assert_eq!(sim.pending_jobs(), 1);
        // Drive until job 3 dispatches (first departure frees its slots).
        let mut saw_three = false;
        while !sim.is_idle() {
            sim.advance().unwrap();
            if sim.running_jobs().contains(&JobId(3)) {
                saw_three = true;
            }
        }
        assert!(saw_three, "queued job must eventually dispatch");
    }

    #[test]
    fn priority_preempt_evicts_low_class_mid_stage() {
        let mut sim =
            ClusterSim::with_scheduler(ClusterSpec::paper_reference(), Box::new(PriorityPreempt))
                .unwrap();
        // A wide low-class job takes the whole cluster.
        sim.submit_job(&narrow_job(1, 0, 20, 50.0), &[0.0]).unwrap();
        // Setup done at t=2, tasks run to t=52.
        sim.advance().unwrap();
        sim.idle_until(SimTime::from_secs(10.0));
        // A high-class arrival needs 20 slots: the low job is evicted.
        let sub = sim.submit_job(&narrow_job(2, 1, 20, 5.0), &[0.0]).unwrap();
        match sub {
            Submission::Preempted { evicted, .. } => {
                assert_eq!(evicted.len(), 1);
                assert_eq!(evicted[0].0, JobId(1));
                // 2 s setup + 20 slots × 8 s of partial tasks.
                assert!((evicted[0].1.work_secs - (2.0 + 160.0)).abs() < 1e-9);
            }
            other => panic!("expected preemption, got {other:?}"),
        }
        assert_eq!(sim.running_jobs(), vec![JobId(2)]);
        assert_eq!(sim.pending_jobs(), 1, "victim re-queued at head");
        // High job finishes at 10 + 2 + 5 = 17; victim re-dispatches and
        // re-executes from scratch (repeat-identical).
        let mut finish_times = Vec::new();
        while !sim.is_idle() {
            if let EngineEvent::JobFinished { job, metrics } = sim.advance().unwrap() {
                finish_times.push((job, sim.now().as_secs(), metrics));
            }
        }
        assert_eq!(finish_times[0].0, JobId(2));
        assert!((finish_times[0].1 - 17.0).abs() < 1e-9);
        assert_eq!(finish_times[1].0, JobId(1));
        // Restarted at 17: full 2 + 50 again.
        assert!((finish_times[1].1 - (17.0 + 52.0)).abs() < 1e-9);
        assert!((finish_times[1].2.execution_secs - 52.0).abs() < 1e-9);
    }

    #[test]
    fn same_class_never_preempts() {
        let mut sim =
            ClusterSim::with_scheduler(ClusterSpec::paper_reference(), Box::new(PriorityPreempt))
                .unwrap();
        sim.submit_job(&narrow_job(1, 1, 20, 10.0), &[0.0]).unwrap();
        let sub = sim.submit_job(&narrow_job(2, 1, 20, 10.0), &[0.0]).unwrap();
        assert_eq!(sub, Submission::Queued { evicted: vec![] });
    }

    #[test]
    fn evict_job_targets_a_specific_run() {
        let mut sim =
            ClusterSim::with_scheduler(ClusterSpec::paper_reference(), Box::new(GangBinPack))
                .unwrap();
        sim.submit_job(&narrow_job(1, 0, 8, 10.0), &[0.0]).unwrap();
        sim.submit_job(&narrow_job(2, 0, 8, 10.0), &[0.0]).unwrap();
        assert_eq!(
            sim.evict_job(JobId(9)),
            Err(EngineError::UnknownJob(JobId(9)))
        );
        sim.evict_job(JobId(2)).unwrap();
        assert_eq!(sim.running_jobs(), vec![JobId(1)]);
        // Job 1's events are untouched: it still completes.
        let m = run_to_completion(&mut sim);
        assert!((m.execution_secs - 12.0).abs() < 1e-9);
    }

    #[test]
    fn per_job_energy_is_attributed() {
        let mut sim =
            ClusterSim::with_scheduler(ClusterSpec::paper_reference(), Box::new(GangBinPack))
                .unwrap();
        sim.submit_job(&narrow_job(1, 0, 8, 16.0), &[0.0]).unwrap();
        sim.submit_job(&narrow_job(2, 0, 4, 16.0), &[0.0]).unwrap();
        while !sim.is_idle() {
            sim.advance().unwrap();
        }
        let e1 = sim.job_energy(JobId(1)).unwrap();
        let e2 = sim.job_energy(JobId(2)).unwrap();
        // Setup: 1 slot × 2 s; stage: width slots × 16 s.
        assert_eq!(e1.busy_slot_secs, 2.0 + 8.0 * 16.0);
        assert_eq!(e2.busy_slot_secs, 2.0 + 4.0 * 16.0);
        // 45 W per busy slot at base; attribution is lossless vs the meter.
        assert_eq!(e1.active_joules, 45.0 * e1.busy_slot_secs);
        let idle = 900.0 * sim.now().as_secs();
        assert_eq!(
            sim.energy_joules(),
            idle + e1.active_joules + e2.active_joules
        );
    }

    #[test]
    fn scheduler_label_is_reported() {
        let sim = ClusterSim::new(ClusterSpec::paper_reference());
        assert_eq!(sim.scheduler_label(), "FIFO");
        let sim =
            ClusterSim::with_scheduler(ClusterSpec::paper_reference(), Box::new(PriorityPreempt))
                .unwrap();
        assert_eq!(sim.scheduler_label(), "PriorityPreempt");
    }
}

#[cfg(test)]
mod setup_scaling_tests {
    use super::tests::running;
    use super::*;
    use crate::{JobSpec, StageKind, StageSpec};
    use dias_stochastic::Dist;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn setup_shrinks_with_dropped_data() {
        let spec = JobSpec::builder(0, 0)
            .setup(Dist::constant(10.0))
            .setup_data_fraction(0.5)
            .stage(StageSpec::new(StageKind::Map, 50, Dist::constant(1.0)))
            .build();
        let mut rng = StdRng::seed_from_u64(1);
        let inst = JobInstance::sample(&spec, &mut rng);
        // Drop 90% of tasks: kept fraction = 5/50 = 0.1, setup = 10*(0.5+0.05) = 5.5.
        let sim = running(&inst, &[0.9]);
        let first = sim.next_event_time().unwrap();
        assert!((first.as_secs() - 5.5).abs() < 1e-9, "{first}");
        // Without drops the full setup applies.
        let sim2 = running(&inst, &[0.0]);
        assert!((sim2.next_event_time().unwrap().as_secs() - 10.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::tests::{constant_job, run_to_completion, running};
    use super::*;
    use crate::{GangBinPack, JobSpec, SlotHealth, StageKind, StageSpec};
    use dias_stochastic::Dist;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn narrow_job(id: u64, width: usize, secs: f64) -> JobInstance {
        let spec = JobSpec::builder(id, 0)
            .setup(Dist::constant(2.0))
            .stage(StageSpec::new(StageKind::Map, width, Dist::constant(secs)))
            .build();
        let mut rng = StdRng::seed_from_u64(id);
        JobInstance::sample(&spec, &mut rng)
    }

    #[test]
    fn straggler_slows_whole_gang() {
        // 20 map tasks of 100 s on 20 slots under Fifo: one wave.
        let mut sim = running(&constant_job(20, 100.0), &[0.0, 0.0]);
        sim.advance().unwrap(); // setup done at t = 10
        sim.idle_until(SimTime::from_secs(15.0));
        // One slot at factor 2 halves the whole gang: 95 s left -> 190 s.
        sim.slow_slot(3, 2.0).unwrap();
        let m = run_to_completion(&mut sim);
        // Map ends 15 + 190 = 205; shuffle 5*2 = 10; reduce 8*2 = 16.
        let expected = 205.0 + 10.0 + 16.0;
        assert!(
            (m.execution_secs - expected).abs() < 1e-9,
            "{} vs {expected}",
            m.execution_secs
        );
        // Work is counted in base-equivalents: straggling stretches wall
        // time, not work.
        assert!((m.work_secs - (10.0 + 2000.0 + 5.0 + 80.0)).abs() < 1e-9);
    }

    #[test]
    fn repair_restores_full_speed() {
        let mut sim = running(&constant_job(20, 100.0), &[0.0, 0.0]);
        sim.advance().unwrap();
        sim.idle_until(SimTime::from_secs(15.0));
        sim.slow_slot(3, 2.0).unwrap();
        assert_eq!(sim.state.slot_states[3].slow, 2.0);
        // Half speed for 10 s (5 s of work), then repaired: 90 s left at full.
        sim.idle_until(SimTime::from_secs(25.0));
        sim.repair_slot(3).unwrap();
        assert_eq!(sim.state.slot_states[3].slow, 1.0);
        let m = run_to_completion(&mut sim);
        let expected = 115.0 + 5.0 + 8.0;
        assert!(
            (m.execution_secs - expected).abs() < 1e-9,
            "{} vs {expected}",
            m.execution_secs
        );
    }

    #[test]
    fn fail_slot_evicts_and_redispatches_around_it() {
        let mut sim =
            ClusterSim::with_scheduler(ClusterSpec::paper_reference(), Box::new(GangBinPack))
                .unwrap();
        let job = narrow_job(7, 8, 16.0);
        assert!(matches!(
            sim.submit_job(&job, &[0.0]).unwrap(),
            Submission::Dispatched { .. }
        ));
        let assigned = sim.assignments()[0].1;
        assert_eq!((assigned.start, assigned.count), (0, 8));
        sim.advance().unwrap(); // setup done at t = 2
        sim.idle_until(SimTime::from_secs(6.0));
        // Kill a slot inside the gang: the job is evicted and immediately
        // re-dispatched around the dead slot.
        let victims = sim.fail_slot(2).unwrap();
        assert_eq!(victims.len(), 1);
        assert_eq!(victims[0].0, JobId(7));
        // Lost: 2 s setup + 8 slots * 4 s of partial map work.
        assert!((victims[0].1.work_secs - (2.0 + 32.0)).abs() < 1e-9);
        assert_eq!(sim.effective_slots(), 19);
        assert_eq!(sim.slot_health(2).unwrap(), SlotHealth::Down);
        // Re-dispatched on the gap after the dead slot, starting over.
        assert_eq!(sim.running_jobs(), vec![JobId(7)]);
        let re = sim.assignments()[0].1;
        assert!(re.start > 2, "gang {re:?} must avoid the dead slot");
        let m = run_to_completion(&mut sim);
        assert!((m.execution_secs - 18.0).abs() < 1e-9);
        // Repair restores the full pool.
        sim.repair_slot(2).unwrap();
        assert_eq!(sim.effective_slots(), 20);
        assert_eq!(sim.slot_health(2).unwrap(), SlotHealth::Up);
    }

    #[test]
    fn drain_waits_for_occupant_then_completes() {
        let mut sim =
            ClusterSim::with_scheduler(ClusterSpec::paper_reference(), Box::new(GangBinPack))
                .unwrap();
        let job = narrow_job(1, 8, 16.0);
        sim.submit_job(&job, &[0.0]).unwrap();
        // Slot 3 is occupied by the 8-wide gang: the drain must wait.
        assert!(!sim.drain_slot(3).unwrap());
        assert_eq!(sim.slot_health(3).unwrap(), SlotHealth::Draining);
        // Draining capacity is already unavailable to new placements.
        assert_eq!(sim.effective_slots(), 19);
        run_to_completion(&mut sim);
        // The occupant left: the drain completed.
        assert_eq!(sim.slot_health(3).unwrap(), SlotHealth::Down);
        // An unoccupied slot drains immediately.
        assert!(sim.drain_slot(15).unwrap());
        assert_eq!(sim.effective_slots(), 18);
        // New gangs route around both dead slots.
        sim.submit_job(&narrow_job(2, 8, 16.0), &[0.0]).unwrap();
        let re = sim.assignments()[0].1;
        assert!(re.start >= 4, "gang {re:?} must avoid drained slot 3");
        assert!(re.end() <= 15 || re.start > 15);
    }

    #[test]
    fn fault_parameters_are_validated() {
        let mut sim = ClusterSim::new(ClusterSpec::paper_reference());
        assert_eq!(sim.fail_slot(20), Err(EngineError::UnknownSlot(20)));
        assert_eq!(sim.repair_slot(99), Err(EngineError::UnknownSlot(99)));
        assert_eq!(sim.slot_health(20), Err(EngineError::UnknownSlot(20)));
        assert!(matches!(
            sim.slow_slot(0, 0.5),
            Err(EngineError::BadFault(_))
        ));
        assert!(matches!(
            sim.slow_slot(0, f64::NAN),
            Err(EngineError::BadFault(_))
        ));
    }

    #[test]
    fn apply_fault_dispatches_by_kind() {
        use crate::faults::{FaultEvent, FaultKind};
        let mut sim = ClusterSim::new(ClusterSpec::paper_reference());
        let fail = FaultEvent {
            at_secs: 0.0,
            slot: 4,
            kind: FaultKind::Fail,
        };
        assert!(sim.apply_fault(&fail).unwrap().is_empty());
        assert_eq!(sim.slot_health(4).unwrap(), SlotHealth::Down);
        let slow = FaultEvent {
            at_secs: 0.0,
            slot: 5,
            kind: FaultKind::Slow { factor: 2.0 },
        };
        sim.apply_fault(&slow).unwrap();
        assert_eq!(sim.state.slot_states[5].slow, 2.0);
        let repair = FaultEvent {
            at_secs: 0.0,
            slot: 4,
            kind: FaultKind::Repair,
        };
        sim.apply_fault(&repair).unwrap();
        assert_eq!(sim.slot_health(4).unwrap(), SlotHealth::Up);
        assert_eq!(sim.effective_slots(), 20);
    }
}

#[cfg(test)]
mod bookkeeping_tests {
    //! The O(1) bookkeeping (run table, slot-ordered views, pending views,
    //! per-level meter counts) checked against brute-force recomputation
    //! after every operation of random fault-laden, preempting runs.

    use super::*;
    use crate::{JobSpec, PowerModel, PriorityPreempt, StageKind, StageSpec};
    use dias_stochastic::Dist;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Recomputes everything the engine maintains incrementally and asserts
    /// equality.
    fn check(sim: &ClusterSim) {
        // Run table: the dispatch list holds every live entry exactly once,
        // and keys, job index and count agree.
        let live: Vec<(usize, &Run)> = sim
            .state
            .runs
            .in_dispatch_order()
            .map(|key| (key, sim.state.runs.get(key)))
            .collect();
        assert_eq!(live.len(), sim.state.runs.len());
        let occupied = sim
            .state
            .runs
            .entries
            .iter()
            .filter(|e| e.run.is_some())
            .count();
        assert_eq!(occupied, live.len());
        for &(key, run) in &live {
            assert_eq!(sim.state.runs.key_of(run.work.job), Some(key));
        }

        // Views: one per run plus the phantoms, sorted by (start, job).
        let mut expected: Vec<RunningView> = live
            .iter()
            .map(|(_, r)| RunningView {
                job: r.work.job,
                class: r.work.class,
                slots: r.slots,
                started: r.started,
            })
            .collect();
        let mut s = 0;
        let n = sim.state.slot_states.len();
        while s < n {
            if sim.state.slot_states[s].health == SlotHealth::Up {
                s += 1;
                continue;
            }
            let start = s;
            while s < n && sim.state.slot_states[s].health != SlotHealth::Up {
                s += 1;
            }
            expected.push(RunningView {
                job: BLOCKED_SLOT_JOB,
                class: BLOCKED_SLOT_CLASS,
                slots: SlotRange::new(start, s - start),
                started: SimTime::ZERO,
            });
        }
        expected.sort_by_key(|v| (v.slots.start, v.job));
        assert_eq!(sim.state.views, expected);

        // Pending views mirror the queue.
        let pending: Vec<PendingView> = sim.state.pending.works.iter().map(JobWork::view).collect();
        assert_eq!(sim.state.pending.views, pending);

        // Meter: busy slots and power from the runs themselves (integer
        // wattages, so the grouped sum is exact).
        let busy: usize = live.iter().map(|(_, r)| r.busy()).sum();
        assert_eq!(sim.state.meter.busy_slots(), busy);
        let power = live
            .iter()
            .fold(sim.spec.cluster_power_w(0, FreqLevel::Base), |p, (_, r)| {
                p + r.busy() as f64 * sim.spec.active_slot_power_w(r.freq)
            });
        assert_eq!(sim.state.meter.power_w(), power);
        for (_, r) in &live {
            assert_eq!(sim.job_frequency(r.work.job), Some(r.freq));
        }
    }

    fn job(id: u64, class: usize, width: usize, rng: &mut StdRng) -> JobInstance {
        let spec = JobSpec::builder(id, class)
            .setup(Dist::constant(1.0))
            .shuffle(Dist::constant(0.5))
            .stage(StageSpec::new(
                StageKind::Map,
                width,
                Dist::exponential(1.0 / 6.0),
            ))
            .stage(StageSpec::new(
                StageKind::Reduce,
                1 + width / 3,
                Dist::exponential(1.0 / 3.0),
            ))
            .build();
        JobInstance::sample(&spec, rng)
    }

    #[test]
    fn incremental_books_match_recomputation() {
        let spec = ClusterSpec {
            workers: 20,
            cores_per_worker: 2,
            base_freq_ghz: 0.8,
            sprint_freq_ghz: 2.4,
            sprint_speedup: 2.5,
            power: PowerModel::paper_reference(),
        };
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let scheduler: Box<dyn Scheduler> = if seed % 2 == 0 {
                Box::new(PriorityPreempt)
            } else {
                Box::new(crate::GangBinPack)
            };
            let mut sim = ClusterSim::with_scheduler(spec.clone(), scheduler).unwrap();
            let slots = spec.slots();
            let mut next_id = 0u64;
            let mut saved: Option<Checkpoint> = None;
            for _ in 0..3000 {
                match rng.gen_range(0..20) {
                    0..=4 => {
                        let width = rng.gen_range(1usize..15);
                        let class = usize::from(rng.gen_bool(0.3));
                        let inst = job(next_id, class, width, &mut rng);
                        next_id += 1;
                        sim.submit_job(&inst, &[0.2 * class as f64, 0.0]).unwrap();
                    }
                    5..=11 => {
                        if sim.next_event_time().is_some() {
                            sim.advance().unwrap();
                        }
                    }
                    12 => {
                        sim.fail_slot(rng.gen_range(0..slots)).unwrap();
                    }
                    13 => sim.repair_slot(rng.gen_range(0..slots)).unwrap(),
                    14 => {
                        sim.drain_slot(rng.gen_range(0..slots)).unwrap();
                    }
                    15 => sim
                        .slow_slot(rng.gen_range(0..slots), rng.gen_range(1.0..3.0))
                        .unwrap(),
                    16 => {
                        let running = sim.running_jobs();
                        if !running.is_empty() {
                            let job = running[rng.gen_range(0..running.len())];
                            let freq = if rng.gen_bool(0.5) {
                                FreqLevel::Sprint
                            } else {
                                FreqLevel::Base
                            };
                            sim.set_job_frequency(job, freq).unwrap();
                        }
                    }
                    17 => {
                        let running = sim.running_jobs();
                        if !running.is_empty() {
                            sim.evict_job(running[rng.gen_range(0..running.len())])
                                .unwrap();
                        }
                    }
                    18 => saved = Some(sim.checkpoint()),
                    _ => {
                        if let Some(cp) = &saved {
                            sim.restore(cp);
                        }
                    }
                }
                check(&sim);
            }
        }
    }

    #[test]
    fn dispatch_order_survives_key_reuse() {
        let mut sim = ClusterSim::with_scheduler(
            ClusterSpec::paper_reference(),
            Box::new(crate::GangBinPack),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for id in 0..4 {
            sim.submit_job(&job(id, 0, 4, &mut rng), &[0.0, 0.0])
                .unwrap();
        }
        // Evicting job 1 frees its key; job 4 reuses it but runs last.
        sim.evict_job(JobId(1)).unwrap();
        sim.submit_job(&job(4, 0, 4, &mut rng), &[0.0, 0.0])
            .unwrap();
        assert_eq!(
            sim.running_jobs(),
            vec![JobId(0), JobId(2), JobId(3), JobId(4)]
        );
        // The earliest-dispatched run is job 0, then job 2.
        sim.evict_job(JobId(0)).unwrap();
        assert_eq!(sim.running_jobs()[0], JobId(2));
        check(&sim);
    }
}
