//! Sharded parallel federation: timely-style workers with deterministic
//! epoch exchange.
//!
//! A [`FederationExperiment`] splits a fleet of clusters across worker
//! threads the way timely dataflow splits operators across workers: each
//! shard owns its [`ClusterSim`](dias_engine::ClusterSim) calendar outright
//! and advances it privately, and the only cross-shard coordination is a
//! barrier at fixed *epoch* boundaries (every `epoch_secs` of simulated
//! time). A deterministic [`Router`] — a pure function of the arrival stream,
//! never of simulation state — assigns every job drawn from the shared
//! [`JobSource`] to a shard, so the per-shard sub-streams are identical no
//! matter how many threads advance them.
//!
//! # Determinism contract
//!
//! The report is **bitwise identical** across thread counts *and* epoch
//! lengths. Three rules make that hold structurally rather than by luck:
//!
//! 1. **Routing is stream-pure.** [`Router::Hash`] keys on the job id;
//!    [`Router::LeastLoaded`] tracks the work it has already routed (scaled
//!    by shard width) — both depend only on the arrival prefix, so every
//!    configuration routes every job identically.
//! 2. **Couplings are partitioned up front, not negotiated at runtime.** The
//!    shared sprint budget ([`SprintPolicy`]) and the global power cap are
//!    split across shards proportionally to slot share before the run
//!    starts. The epoch exchange reads telemetry; it never moves joules
//!    between shards, so no result can depend on barrier timing.
//! 3. **Epoch boundaries are inert.** The coordinator delivers arrivals that
//!    fall before the epoch horizon and lets each shard run the one arbiter
//!    loop (`MultiDriver::run_until`, the monolithic [`MultiJobExperiment`]
//!    loop under a global-window recorder) strictly below the horizon.
//!    Shards are never idled *to* the horizon, and the run ends when every
//!    shard drains — never at a boundary — so the choice of `epoch_secs`
//!    changes wall clock, not results.
//!
//! A single-shard federation is bit-identical to [`MultiJobExperiment`] on
//! the same stream: the slot share is exactly 1.0 (budget scaling is a
//! bitwise no-op) and the arbiter processes the same arms at the same times,
//! merely batched by epoch.
//!
//! # Examples
//!
//! ```
//! use dias_core::federation::{FederationExperiment, Router};
//! use dias_core::VecJobSource;
//! use dias_engine::{ClusterSpec, GangBinPack, JobInstance, JobSpec, StageKind, StageSpec};
//! use dias_stochastic::Dist;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let mut jobs = Vec::new();
//! for i in 0..40u64 {
//!     let spec = JobSpec::builder(i, usize::from(i % 5 == 0))
//!         .setup(Dist::constant(0.5))
//!         .stage(StageSpec::new(StageKind::Map, 16, Dist::exponential(2.0)))
//!         .build();
//!     let mut inst = JobInstance::sample(&spec, &mut rng);
//!     inst.arrival_secs = i as f64 * 4.0;
//!     jobs.push(inst);
//! }
//! let shards = vec![ClusterSpec::paper_reference(), ClusterSpec::paper_reference()];
//! let report = FederationExperiment::new(VecJobSource::new(jobs, 2), shards, |_| {
//!     Box::new(GangBinPack)
//! })
//! .router(Router::Hash)
//! .epoch_secs(20.0)
//! .run(2)
//! .unwrap();
//! assert_eq!(report.shards.len(), 2);
//! assert_eq!(report.routed_jobs.iter().sum::<u64>(), 40);
//! ```

use std::collections::VecDeque;
use std::ops::{Deref, Range};

use dias_des::stats::SampleSet;
use dias_des::SimTime;
use dias_engine::{ClusterSpec, FaultTrace, IdMap, JobInstance, Scheduler};

use crate::multi::{CompletionObs, MultiDriver, Recorder};
use crate::sweep::run_parallel;
use crate::{
    ExperimentError, JobSource, MultiJobExperiment, MultiJobReport, Series, SprintBudget,
    SprintPolicy,
};

/// Deterministic job-to-shard assignment policy.
///
/// Both variants are pure functions of the arrival stream prefix: they never
/// observe queue depths, engine clocks or any other simulation state, which
/// is what makes the per-shard sub-streams independent of thread count and
/// epoch length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Router {
    /// `splitmix64(job id) mod shards`: stateless, uniform in expectation,
    /// and stable under re-sharding of everything but the shard count.
    Hash,
    /// Routes each job to the shard with the least *routed* work per slot so
    /// far (estimated sequential seconds accumulated at routing time,
    /// divided by the shard's slot count; ties break to the lowest shard
    /// id). A deterministic stand-in for join-the-shortest-queue that only
    /// reads its own past decisions.
    LeastLoaded,
}

/// The routing state of one federation run: a [`Router`] plus the
/// accumulated per-shard load its decisions have produced.
///
/// Exposed so property tests (and schedulers-of-schedulers built on top) can
/// replay routing decisions without running a simulation.
#[derive(Debug, Clone)]
pub struct RouterCursor {
    router: Router,
    /// Slot count per shard, as weights for load normalisation.
    slots: Vec<f64>,
    /// Estimated routed work per slot, per shard.
    loads: Vec<f64>,
}

impl RouterCursor {
    /// Creates a cursor over `shard_slots.len()` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shard_slots` is empty or any shard has zero slots.
    #[must_use]
    pub fn new(router: Router, shard_slots: &[usize]) -> Self {
        assert!(
            !shard_slots.is_empty(),
            "federation needs at least one shard"
        );
        assert!(
            shard_slots.iter().all(|&s| s > 0),
            "every shard needs at least one slot"
        );
        RouterCursor {
            router,
            slots: shard_slots.iter().map(|&s| s as f64).collect(),
            loads: vec![0.0; shard_slots.len()],
        }
    }

    /// Number of shards routed over.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.slots.len()
    }

    /// Assigns `job` to a shard and updates the cursor's load books.
    ///
    /// Feeding the same job sequence to two cursors built with the same
    /// configuration yields the same assignment sequence.
    pub fn route(&mut self, job: &JobInstance) -> usize {
        match self.router {
            Router::Hash => (splitmix64(job.spec.id.0) % self.slots.len() as u64) as usize,
            Router::LeastLoaded => {
                let mut best = 0;
                for i in 1..self.loads.len() {
                    if self.loads[i] < self.loads[best] {
                        best = i;
                    }
                }
                self.loads[best] += estimate_work_secs(job) / self.slots[best];
                best
            }
        }
    }
}

/// Sequential-seconds estimate of a job instance: setup + shuffles + every
/// sampled task duration. Used only for [`Router::LeastLoaded`] bookkeeping.
fn estimate_work_secs(job: &JobInstance) -> f64 {
    job.setup_secs
        + job.shuffle_secs.iter().sum::<f64>()
        + job
            .task_secs
            .iter()
            .map(|stage| stage.iter().sum::<f64>())
            .sum::<f64>()
}

/// Fast 64-bit mixer (splitmix64 finalizer); avalanches sequential job ids
/// into uniform shard picks.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A shard's private arrival queue: jobs the coordinator has routed here but
/// the shard's arbiter has not yet admitted. Implements [`JobSource`] so the
/// shard's `MultiDriver` runs the exact monolithic event loop over it.
#[derive(Debug)]
struct ShardInbox {
    queue: VecDeque<JobInstance>,
    classes: usize,
}

impl JobSource for ShardInbox {
    fn classes(&self) -> usize {
        self.classes
    }

    fn next_job(&mut self) -> Option<JobInstance> {
        self.queue.pop_front()
    }
}

/// One worker's owned state: a full `MultiDriver` over the shard's inbox,
/// plus the global-window recorder it runs under.
///
/// The shard driver is built with a degenerate local measurement window
/// (warmup 0, unbounded jobs) and leaves the *global* windowing to its
/// [`GlobalWindow`] recorder.
struct ShardDriver {
    driver: MultiDriver<ShardInbox>,
    window: GlobalWindow,
    /// Jobs ever routed to this shard.
    routed: u64,
}

impl ShardDriver {
    /// Accepts one routed job carrying its global arrival index.
    fn deliver(&mut self, seq: usize, inst: JobInstance) {
        self.routed += 1;
        self.window.global_seq.insert(inst.spec.id, seq);
        self.driver.run.source.queue.push_back(inst);
        self.driver.top_up_arrivals();
    }
}

/// A shard's recorder. The coordinator stamps every delivered job with its
/// global arrival sequence number, and a completion is recorded into the
/// shard report only when that number falls inside the federation's
/// `warmup..warmup + jobs` window — exactly the monolithic criterion.
///
/// A shard stops at each epoch horizon, never on a count, so the recorder
/// never ends the run; the degenerate local window leaves the starvation
/// watchdog's cap at `usize::MAX` (the coordinator delivers finite epochs).
struct GlobalWindow {
    /// Global arrival sequence number of every job currently routed here and
    /// not yet completed.
    global_seq: IdMap<usize>,
    /// Global measurement window (`warmup..warmup + jobs`).
    measured: Range<usize>,
}

impl Recorder<ShardInbox> for GlobalWindow {
    fn progress(&self, driver: &MultiDriver<ShardInbox>) -> (usize, usize) {
        (driver.run.measured_done, usize::MAX)
    }

    fn record(&mut self, driver: &mut MultiDriver<ShardInbox>, obs: &CompletionObs) {
        let seq = self
            .global_seq
            .remove(&obs.job)
            .expect("completed job was delivered to this shard");
        if self.measured.contains(&seq) {
            driver.record(obs);
        }
    }
}

/// Telemetry snapshot taken at one epoch barrier, in shard order. All
/// counters are cumulative since the start of the run.
///
/// Epoch records are *observations* of the exchange, not inputs to it —
/// they depend on `epoch_secs` (shorter epochs mean more barriers), which is
/// exactly why they live outside [`FederationReport`] and its equality.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// Zero-based barrier index.
    pub index: u64,
    /// Epoch horizon in seconds (`f64::INFINITY` for the final drain pass).
    pub horizon_secs: f64,
    /// Jobs routed to shards so far.
    pub delivered: usize,
    /// Jobs completed across all shards so far.
    pub completions: usize,
    /// Engine events processed across all shards so far.
    pub events: u64,
    /// Joules drawn from the (partitioned) sprint budget across all shards
    /// so far, summed in shard order.
    pub sprint_spent_j: f64,
}

/// Per-epoch telemetry of one federation run, from
/// [`FederationExperiment::run_with_log`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FederationRunLog {
    /// One record per epoch barrier, in execution order. Epochs in which no
    /// shard had an event are skipped entirely, so this also documents the
    /// coordinator's skip-ahead.
    pub epochs: Vec<EpochRecord>,
}

/// The outcome of a federation run.
///
/// Compares with `==` bit-exactly; the conformance oracle relies on
/// runs at different thread counts and epoch lengths producing reports that
/// are identical float for float. Everything in here is therefore a pure
/// function of (stream, shards, router, couplings) — per-epoch telemetry
/// lives in [`FederationRunLog`] instead.
///
/// Dereferences to [`FederationReport::totals`], so the fleet's numbers
/// read as on any run: `report.energy_joules`, `report.per_class[k]`,
/// `report.completed()`.
#[derive(Debug, Clone, PartialEq)]
pub struct FederationReport {
    /// The fleet's books: the [`MultiJobReport::merge`] of every shard's
    /// report in shard order. Its per-class statistics hold every shard's
    /// measured completions over `response` and the series asked for with
    /// [`FederationExperiment::record`]; its `horizon_secs` is the latest
    /// shard horizon, so `utilization` counts a shard that drained early as
    /// idle capacity until the last one finishes; its sprint-budget books
    /// sum the partitioned budgets; its `scheduler` is shard 0's.
    pub totals: MultiJobReport,
    /// Per-shard reports, in shard order, each over the shard's own horizon
    /// and slot capacity.
    pub shards: Vec<MultiJobReport>,
    /// Jobs routed to each shard.
    pub routed_jobs: Vec<u64>,
}

impl Deref for FederationReport {
    type Target = MultiJobReport;

    fn deref(&self) -> &MultiJobReport {
        &self.totals
    }
}

/// A configured federation: a shared arrival stream sharded across a fleet
/// of clusters advanced by worker threads with epoch-synchronised exchange.
///
/// Each shard is a [`MultiJobExperiment`] over the shard's private inbox,
/// built in [`FederationExperiment::new`]; the per-class setters write
/// through to every shard, and the run checks the shards' settings as
/// [`MultiJobExperiment::run`] does. The extra knobs are the [`Router`],
/// the epoch length and the fleet-level couplings (a shared
/// [`SprintPolicy`] and a global power cap, both partitioned across shards
/// by slot share when they are set).
///
/// Each shard's report and the fleet-wide merge keep every class's
/// `completed` count and `response` times in exact sets, plus the series
/// asked for with [`FederationExperiment::record`] (none by default).
#[derive(Debug)]
pub struct FederationExperiment<S> {
    source: S,
    shards: Vec<MultiJobExperiment<ShardInbox>>,
    router: Router,
    epoch_secs: f64,
    shard_faults: Option<Vec<FaultTrace>>,
    arrivals: usize,
    jobs: usize,
    warmup: usize,
}

impl<S: JobSource> FederationExperiment<S> {
    /// Creates a federation over `shards`, calling `scheduler(i)` once per
    /// shard to build its engine policy.
    ///
    /// Defaults: [`Router::Hash`], 60-second epochs, no drops, no sprint, no
    /// power cap, no faults, and a measurement window covering every
    /// arrival.
    pub fn new<F>(source: S, shards: Vec<ClusterSpec>, scheduler: F) -> Self
    where
        F: FnMut(usize) -> Box<dyn Scheduler>,
    {
        let classes = source.classes();
        // Each shard runs the monolithic loop with a degenerate local window;
        // its `GlobalWindow` recorder applies the global one.
        let shards = shards
            .into_iter()
            .zip((0..).map(scheduler))
            .map(|(spec, sched)| {
                let inbox = ShardInbox {
                    queue: VecDeque::new(),
                    classes,
                };
                MultiJobExperiment::new(inbox, sched)
                    .cluster(spec)
                    .warmup(0)
                    .jobs(usize::MAX)
            })
            .collect();
        FederationExperiment {
            source,
            shards,
            router: Router::Hash,
            epoch_secs: 60.0,
            shard_faults: None,
            arrivals: usize::MAX,
            jobs: usize::MAX,
            warmup: 0,
        }
    }

    /// Applies `set` to every shard's experiment, passing the shard's share
    /// of the fleet's slots.
    fn each_shard<F>(mut self, set: F) -> Self
    where
        F: Fn(MultiJobExperiment<ShardInbox>, f64) -> MultiJobExperiment<ShardInbox>,
    {
        let total_slots: usize = self.shards.iter().map(|s| s.cluster.slots()).sum();
        self.shards = self
            .shards
            .into_iter()
            .map(|s| {
                let share = s.cluster.slots() as f64 / total_slots as f64;
                set(s, share)
            })
            .collect();
        self
    }

    /// Sets the job-to-shard assignment policy.
    #[must_use]
    pub fn router(mut self, router: Router) -> Self {
        self.router = router;
        self
    }

    /// Sets the epoch length in simulated seconds, which must be finite and
    /// positive; the run checks it. Epoch length trades barrier frequency
    /// against arrival-delivery batching; it never changes results.
    #[must_use]
    pub fn epoch_secs(mut self, secs: f64) -> Self {
        self.epoch_secs = secs;
        self
    }

    /// Per-class drop ratios, applied identically on every shard (the
    /// deflator is per-job, so sharding does not change its meaning).
    #[must_use]
    pub fn drops(self, thetas: &[f64]) -> Self {
        self.each_shard(|s, _| s.drops(thetas))
    }

    /// Fleet-wide sprint policy. The budget is partitioned across shards
    /// proportionally to slot share (`initial_j`, `replenish_w` and `cap_j`
    /// all scale; timeouts are shared verbatim), so the fleet as a whole
    /// honours the stated budget without any runtime negotiation.
    #[must_use]
    pub fn sprint(self, policy: SprintPolicy) -> Self {
        self.each_shard(|s, share| s.sprint(scale_policy(&policy, share)))
    }

    /// Fleet-wide cap on aggregate sprint extra power draw, in watts.
    /// Partitioned across shards by slot share and enforced shard-locally,
    /// so the fleet's total sprint draw never exceeds `cap_w`. The cap must
    /// not be negative or NaN; the run checks it.
    #[must_use]
    pub fn power_cap_w(self, cap_w: f64) -> Self {
        self.each_shard(|s, share| s.sprint_draw_cap(Some(cap_w * share)))
    }

    /// Sets the optional per-class series every shard's report and the
    /// fleet-wide merge record besides `completed` and `response` (see
    /// [`MultiJobExperiment::record`]). None by default.
    #[must_use]
    pub fn record(self, series: Series) -> Self {
        self.each_shard(|s, _| s.record(series))
    }

    /// Per-class SLO targets (seconds), shared by every shard.
    #[must_use]
    pub fn slos(self, targets: &[f64]) -> Self {
        self.each_shard(|s, _| s.slos(targets))
    }

    /// Per-shard fault schedules, one trace per shard; the run checks the
    /// count.
    #[must_use]
    pub fn shard_faults(mut self, traces: Vec<FaultTrace>) -> Self {
        self.shard_faults = Some(traces);
        self
    }

    /// Caps the number of arrivals drawn from the source (for open-ended
    /// streams). Defaults to unlimited: the run ends when the source does.
    #[must_use]
    pub fn arrivals(mut self, n: usize) -> Self {
        self.arrivals = n;
        self
    }

    /// Number of measured jobs, counted in *global* arrival order after the
    /// warm-up. Defaults to every delivered arrival.
    #[must_use]
    pub fn jobs(mut self, n: usize) -> Self {
        self.jobs = n;
        self
    }

    /// Number of global arrivals to treat as unmeasured warm-up.
    #[must_use]
    pub fn warmup(mut self, n: usize) -> Self {
        self.warmup = n;
        self
    }

    /// Runs the federation on up to `threads` lanes (the calling thread is
    /// one of them) and merges the shard reports into the fleet's.
    ///
    /// The report is bitwise identical for every `threads >= 1` and every
    /// epoch length.
    ///
    /// # Errors
    ///
    /// As [`FederationExperiment::run_with_log`].
    pub fn run(self, threads: usize) -> Result<FederationReport, ExperimentError> {
        self.run_with_log(threads).map(|(report, _)| report)
    }

    /// Like [`FederationExperiment::run`], additionally returning per-epoch
    /// barrier telemetry.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError::InvalidConfig`] naming `shards` for an
    /// empty shard list, `epoch_secs` for an epoch length that is not
    /// finite and positive, `shard_faults` when the trace count differs
    /// from the shard count, or `power_cap_w` for a negative or NaN cap.
    /// Propagates validation and engine errors from
    /// any shard, exactly as [`MultiJobExperiment::run`]; the first failing
    /// shard in shard order wins.
    pub fn run_with_log(
        mut self,
        threads: usize,
    ) -> Result<(FederationReport, FederationRunLog), ExperimentError> {
        if self.shards.is_empty() {
            return Err(ExperimentError::invalid(
                "shards",
                "a federation needs at least one shard",
            ));
        }
        let secs = self.epoch_secs;
        if !(secs.is_finite() && secs > 0.0) {
            let reason = format!("epoch length {secs} is not finite and positive");
            return Err(ExperimentError::invalid("epoch_secs", reason));
        }
        let faults = match self.shard_faults.take() {
            Some(traces) if traces.len() != self.shards.len() => {
                let reason = format!("{} traces for {} shards", traces.len(), self.shards.len());
                return Err(ExperimentError::invalid("shard_faults", reason));
            }
            Some(traces) => traces,
            None => vec![FaultTrace::default(); self.shards.len()],
        };
        let slot_counts: Vec<usize> = self.shards.iter().map(|s| s.cluster.slots()).collect();
        let measured = self.warmup..self.warmup.saturating_add(self.jobs);

        let mut drivers: Vec<ShardDriver> = Vec::with_capacity(self.shards.len());
        for (exp, trace) in self.shards.into_iter().zip(faults) {
            drivers.push(ShardDriver {
                driver: MultiDriver::build(exp.faults(trace), SampleSet::new)?,
                window: GlobalWindow {
                    global_seq: IdMap::default(),
                    measured: measured.clone(),
                },
                routed: 0,
            });
        }

        // The fleet's books start as shard 0's empty ones.
        let totals = drivers[0].driver.run.report.clone();
        let mut cursor = RouterCursor::new(self.router, &slot_counts);
        let mut next = if self.arrivals > 0 {
            self.source.next_job()
        } else {
            None
        };
        let mut delivered = 0usize;
        let mut log = FederationRunLog::default();

        loop {
            // Earliest pending activity anywhere — the next undelivered
            // arrival or any shard's next event — picks the next epoch;
            // stretches of empty epochs are skipped wholesale, which is
            // sound because the barrier itself has no simulation effect.
            let mut min_t = next.as_ref().map(|j| SimTime::from_secs(j.arrival_secs));
            for shard in &mut drivers {
                if let Some((t, _)) = shard.driver.next_arm() {
                    min_t = Some(min_t.map_or(t, |m| m.min(t)));
                }
            }
            let Some(min_t) = min_t else {
                break; // Source exhausted and every shard drained.
            };
            // The epoch horizon is the next Δ-grid boundary strictly after
            // the earliest event; once the source is exhausted the fleet
            // drains in one final unbounded pass (no further exchange is
            // needed: arrivals are the only cross-shard input).
            let horizon = if next.is_none() {
                SimTime::FAR_FUTURE
            } else {
                let grid = (min_t.as_secs() / self.epoch_secs).floor();
                SimTime::from_secs((grid + 1.0) * self.epoch_secs)
            };

            // Deliver every arrival below the horizon, in global arrival
            // order, stamped with its global sequence number.
            while let Some(job) = next.as_ref() {
                if SimTime::from_secs(job.arrival_secs) >= horizon {
                    break;
                }
                let inst = next.take().expect("checked above");
                let shard = cursor.route(&inst);
                drivers[shard].deliver(delivered, inst);
                delivered += 1;
                next = if delivered < self.arrivals {
                    self.source.next_job()
                } else {
                    None
                };
            }

            // Advance every shard privately to the horizon, fanned out over
            // the worker pool. Shards share nothing mutable, so lane count
            // and scheduling order cannot influence any shard's evolution.
            let results = run_parallel(drivers.iter_mut().collect(), threads, |_, shard| {
                shard.driver.run_until(horizon, &mut shard.window)
            });
            for result in results {
                result?;
            }

            // The exchange: a barrier plus shard-order telemetry. No state
            // crosses shards here — budgets were partitioned up front.
            let mut record = EpochRecord {
                index: log.epochs.len() as u64,
                horizon_secs: horizon.as_secs(),
                delivered,
                completions: 0,
                events: 0,
                sprint_spent_j: 0.0,
            };
            for shard in &drivers {
                record.completions += shard.driver.run.total_completions;
                record.events += shard.driver.run.events_done;
                record.sprint_spent_j += shard.driver.sprint_spent_j();
            }
            log.epochs.push(record);
        }

        // Close the books in shard order.
        let mut report = FederationReport {
            totals,
            shards: Vec::with_capacity(drivers.len()),
            routed_jobs: Vec::with_capacity(drivers.len()),
        };
        for shard in drivers {
            report.routed_jobs.push(shard.routed);
            report.shards.push(shard.driver.finalize());
        }
        // Merge once every shard driver is gone, so the fleet's sets do not
        // grow while the engines still hold their memory.
        for shard in &report.shards {
            report.totals.merge(shard);
        }
        Ok((report, log))
    }
}

/// Scales a fleet-wide sprint policy to one shard's slot share. Timeouts
/// are semantic (per-class behaviour) and shared verbatim; the budget is an
/// extensive quantity and splits linearly. A share of exactly 1.0 is a
/// bitwise no-op, which is what makes single-shard federations bit-identical
/// to the monolithic experiment.
fn scale_policy(policy: &SprintPolicy, share: f64) -> SprintPolicy {
    let budget = match policy.budget {
        SprintBudget::Unlimited => SprintBudget::Unlimited,
        SprintBudget::Limited {
            initial_j,
            replenish_w,
            cap_j,
        } => SprintBudget::Limited {
            initial_j: initial_j * share,
            replenish_w: replenish_w * share,
            cap_j: cap_j * share,
        },
    };
    SprintPolicy {
        timeouts: policy.timeouts.clone(),
        budget,
    }
}
