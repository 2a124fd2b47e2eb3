//! One scenario description for the driver suites.
//!
//! A [`Scenario`] holds the seed, the stream shape, the scheduler, θ, the
//! sprint policy, faults, SLOs, the measurement window and the recorded
//! series, plus the knobs only some drivers read (release batch, sketch ε,
//! epoch length, power cap, checkpoint stride). Every source and driver builder the suites use comes
//! from it, so two drivers handed the same scenario run the same simulation.
//! [`oracle`] generates scenarios and checks each identity between two
//! driver paths; the named suites build their pinned cases here too.

#![allow(dead_code)] // each suite uses its own subset

pub mod oracle;

use std::panic::{catch_unwind, AssertUnwindSafe};

use dias_core::federation::{FederationExperiment, Router};
use dias_core::sweep::run_multi_experiments_branch;
use dias_core::{
    ClassPolicy, DegradationPolicy, Experiment, ExperimentError, JobSource, MultiJobExperiment,
    Policy, Scheduling, Series, SoakExperiment, SprintBudget, SprintPolicy, VecJobSource,
    WarmupRule,
};
use dias_des::SeedSequence;
use dias_engine::{
    ClusterSpec, FaultEvent, FaultTrace, GangBinPack, JobInstance, JobSpec, PriorityPreempt,
    Scheduler, StageKind, StageSpec,
};
use dias_stochastic::{Dist, Ph};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Applies a scenario's recorded series and its θ, sprint policy and SLO
/// targets, where set, to a driver builder; every builder names the four
/// setters alike.
macro_rules! per_class {
    ($builder:expr, $s:expr) => {{
        let mut e = $builder.record($s.series);
        if let Some(t) = &$s.thetas {
            e = e.drops(t);
        }
        if let Some(p) = &$s.sprint {
            e = e.sprint(p.clone());
        }
        if let Some(t) = &$s.slos {
            e = e.slos(t);
        }
        e
    }};
}

/// Map width of each job, by arrival index.
#[derive(Debug, Clone, Copy)]
pub enum Widths {
    /// Cycles through the widths.
    Cycle(&'static [usize]),
    /// 8 tasks, except job `k`, which draws 24.
    WideAt(u64),
    /// 8 tasks, except every `k`-th job from job 0, which draws 24.
    WideEvery(u64),
}

impl Widths {
    fn of(self, i: u64) -> usize {
        match self {
            Widths::Cycle(w) => w[i as usize % w.len()],
            Widths::WideAt(k) if i == k => 24,
            Widths::WideEvery(k) if i.is_multiple_of(k) => 24,
            _ => 8,
        }
    }
}

/// The fault schedule of a cluster.
#[derive(Debug, Clone)]
pub enum Faults {
    None,
    /// `Renewal(mtbf, mttr, horizon, seed)`: an exponential up/down renewal
    /// process per slot over `horizon` seconds, with mean times between
    /// failures and to repair in seconds; shard `i` of a fleet draws from
    /// `seed ^ i·0x9e37`.
    Renewal(f64, f64, f64, u64),
    /// These events, on every cluster.
    Fixed(Vec<FaultEvent>),
}

/// One run description for every driver.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Seeds the job sampler.
    pub seed: u64,
    /// Jobs in the stream, one every `gap` seconds from time 0.
    pub arrivals: u64,
    pub gap: f64,
    /// Every `high_every`-th job (from job 0) has class `high_class`, the
    /// rest class 0. The source declares two classes, so a `high_class` of
    /// 2 or more is a malformed stream.
    pub high_every: u64,
    pub high_class: usize,
    /// Constant setup and per-shuffle seconds.
    pub setup: f64,
    pub shuffle: f64,
    pub widths: Widths,
    /// Map task seconds.
    pub map: Dist,
    /// Reduce stage: task count and task seconds.
    pub reduce: Option<(usize, Dist)>,
    pub cluster: ClusterSpec,
    /// `PriorityPreempt` when set, `GangBinPack` otherwise (the paper's P
    /// and NP for the one-job `Experiment`).
    pub preempt: bool,
    pub thetas: Option<Vec<f64>>,
    pub sprint: Option<SprintPolicy>,
    pub faults: Faults,
    pub slos: Option<Vec<f64>>,
    pub degrade: Option<DegradationPolicy>,
    /// Measurement window by arrival index: `warmup..warmup + jobs`.
    pub warmup: usize,
    pub jobs: usize,
    /// The optional per-class series every driver records.
    pub series: Series,
    // Read by some drivers only.
    pub batch: usize,
    pub epsilon: f64,
    pub window_jobs: usize,
    pub epoch_secs: f64,
    pub router: Router,
    pub power_cap_w: Option<f64>,
    pub stride: usize,
}

impl Scenario {
    /// 80 two-class jobs seven seconds apart (every 8th high), 30-task
    /// exponential maps and a 6-task reduce, 60 measured after 6, under
    /// `GangBinPack` on the paper's cluster, recording every series; nothing
    /// else set.
    pub fn new(seed: u64) -> Self {
        Scenario {
            seed,
            arrivals: 80,
            gap: 7.0,
            high_every: 8,
            high_class: 1,
            setup: 1.0,
            shuffle: 0.5,
            widths: Widths::Cycle(&[30]),
            map: Dist::exponential(2.0),
            reduce: Some((6, Dist::constant(1.0))),
            cluster: ClusterSpec::paper_reference(),
            preempt: false,
            thetas: None,
            sprint: None,
            faults: Faults::None,
            slos: None,
            degrade: None,
            warmup: 6,
            jobs: 60,
            series: Series::ALL,
            batch: 1,
            epsilon: 0.01,
            window_jobs: 50,
            epoch_secs: 60.0,
            router: Router::Hash,
            power_cap_w: None,
            stride: 4,
        }
    }

    /// This scenario with `edit` applied.
    pub fn with(mut self, edit: impl FnOnce(&mut Self)) -> Self {
        edit(&mut self);
        self
    }

    /// The sampled stream.
    pub fn instances(&self) -> Vec<JobInstance> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..self.arrivals)
            .map(|i| {
                let class = self.high_class * usize::from(i.is_multiple_of(self.high_every));
                let map = StageSpec::new(StageKind::Map, self.widths.of(i), self.map.clone());
                let mut spec = JobSpec::builder(i, class)
                    .setup(Dist::constant(self.setup))
                    .shuffle(Dist::constant(self.shuffle))
                    .stage(map);
                if let Some((tasks, secs)) = &self.reduce {
                    spec = spec.stage(StageSpec::new(StageKind::Reduce, *tasks, secs.clone()));
                }
                let mut inst = JobInstance::sample(&spec.build(), &mut rng);
                inst.arrival_secs = i as f64 * self.gap;
                inst
            })
            .collect()
    }

    pub fn source(&self) -> Source {
        Source(VecJobSource::new(
            self.instances(),
            self.high_class.max(1) + 1,
        ))
    }

    /// The fault trace of shard `shard`, a cluster of `slots` slots (shard 0
    /// is the closed run's).
    pub fn trace(&self, slots: usize, shard: usize) -> FaultTrace {
        match &self.faults {
            Faults::None => FaultTrace::empty(),
            Faults::Renewal(mtbf, mttr, horizon, seed) => {
                let up = Ph::exponential(1.0 / mtbf).expect("valid rate");
                let down = Ph::exponential(1.0 / mttr).expect("valid rate");
                let seed = SeedSequence::new(seed ^ (shard as u64).wrapping_mul(0x9e37));
                FaultTrace::renewal(slots, *horizon, &up, &down, seed)
            }
            Faults::Fixed(events) => FaultTrace::new(events.clone()).expect("valid events"),
        }
    }

    /// The closed multi-job run.
    pub fn multi(&self) -> MultiJobExperiment<Source> {
        let e = MultiJobExperiment::new(self.source(), scheduler(self.preempt))
            .cluster(self.cluster.clone())
            .warmup(self.warmup)
            .jobs(self.jobs)
            .faults(self.trace(self.cluster.slots(), 0));
        let e = per_class!(e, self);
        match &self.degrade {
            Some(d) => e.degrade(d.clone()),
            None => e,
        }
    }

    /// The soak with a fixed arrival warm-up, which reads the closed run's
    /// window. The soak has no cluster or degradation setting.
    pub fn soak(&self) -> SoakExperiment<Source> {
        assert!(self.cluster == ClusterSpec::paper_reference() && self.degrade.is_none());
        let e = SoakExperiment::new(self.source(), scheduler(self.preempt))
            .jobs(self.jobs)
            .warmup(WarmupRule::Arrivals(self.warmup))
            .arrival_batch(self.batch)
            .window_jobs(self.window_jobs)
            .epsilon(self.epsilon)
            .faults(self.trace(self.cluster.slots(), 0));
        per_class!(e, self)
    }

    /// A federation of one shard of the scenario's cluster per entry of
    /// `workers`, resized to that many workers. Shard `i` runs the other
    /// scheduler when `i` is odd. The federation has no degradation setting.
    pub fn fleet(&self, workers: &[usize]) -> FederationExperiment<Source> {
        assert!(self.degrade.is_none());
        let shards: Vec<ClusterSpec> = workers
            .iter()
            .map(|&workers| ClusterSpec {
                workers,
                ..self.cluster.clone()
            })
            .collect();
        let traces = shards
            .iter()
            .enumerate()
            .map(|(i, s)| self.trace(s.slots(), i))
            .collect();
        let preempt = self.preempt;
        let e = FederationExperiment::new(self.source(), shards, move |i| {
            scheduler(preempt ^ (i % 2 == 1))
        })
        .router(self.router)
        .epoch_secs(self.epoch_secs)
        .warmup(self.warmup)
        .jobs(self.jobs)
        .shard_faults(traces);
        let e = per_class!(e, self);
        match self.power_cap_w {
            Some(w) => e.power_cap_w(w),
            None => e,
        }
    }

    /// The paper's one-job experiment: the stream, window, θ and sprint
    /// policy under P (`preempt`) or NP, on the paper's cluster. It has no
    /// fault, SLO or degradation setting.
    pub fn experiment(&self) -> Experiment<Source> {
        let scheduling = [Scheduling::NonPreemptive, Scheduling::Preemptive];
        let thetas = self.thetas.as_deref().unwrap_or(&[0.0; 2]).iter();
        let policy = Policy {
            scheduling: scheduling[usize::from(self.preempt)],
            classes: thetas
                .map(|&t| ClassPolicy { theta_droppable: t })
                .collect(),
            sprint: self.sprint.clone(),
            label: "scenario".into(),
        };
        Experiment::new(self.source(), policy)
            .warmup(self.warmup)
            .jobs(self.jobs)
            .record(self.series)
    }
}

/// Sprints the top of two classes `timeout` seconds after dispatch from a
/// limited budget.
pub fn top_sprint(timeout: f64, initial_j: f64, replenish_w: f64) -> Option<SprintPolicy> {
    let budget = SprintBudget::limited(initial_j, replenish_w);
    Some(SprintPolicy::top_class(2, timeout, budget))
}

/// A hand-built policy that sprints the top of two classes `timeout`
/// seconds after dispatch from a limited budget, unchecked by
/// `SprintPolicy::top_class` and `SprintBudget::limited`.
pub fn hand_sprint(timeout: f64, initial_j: f64, replenish_w: f64) -> SprintPolicy {
    let (cap_j, timeouts) = (30_000.0, vec![None, Some(timeout)]);
    let budget = SprintBudget::Limited {
        initial_j,
        replenish_w,
        cap_j,
    };
    SprintPolicy { timeouts, budget }
}

/// `PriorityPreempt` when `preempt` is set, `GangBinPack` otherwise.
pub fn scheduler(preempt: bool) -> Box<dyn Scheduler> {
    if preempt {
        Box::new(PriorityPreempt)
    } else {
        Box::new(GangBinPack)
    }
}

/// A scenario's stream. It always declares two classes, whatever classes
/// its jobs carry.
#[derive(Debug, Clone)]
pub struct Source(VecJobSource);

impl JobSource for Source {
    fn classes(&self) -> usize {
        2
    }

    fn next_job(&mut self) -> Option<JobInstance> {
        self.0.next_job()
    }
}

/// Runs `case` and asserts it returns `InvalidConfig` naming `field`; a panic
/// anywhere fails the assertion.
#[track_caller]
pub fn assert_invalid<T>(
    field: &str,
    what: &str,
    case: impl FnOnce() -> Result<T, ExperimentError>,
) {
    let Ok(result) = catch_unwind(AssertUnwindSafe(case)) else {
        panic!("{what}: panicked instead of returning an error");
    };
    match result {
        Err(ExperimentError::InvalidConfig { field: named, .. }) => {
            assert_eq!(named, field, "{what}: wrong field");
        }
        Err(e) => panic!("{what}: expected InvalidConfig on `{field}`, got {e}"),
        Ok(_) => panic!("{what}: expected InvalidConfig on `{field}`, got a report"),
    }
}

/// Every path that reads `field` returns `InvalidConfig` naming it: the
/// closed run, the soak, a 4-shard fleet, the paper's `Experiment`, a
/// recording run and a branch sweep, as each reads the field.
pub fn rejects(s: &Scenario, field: &'static str) {
    let reads = |fields: &[&str]| fields.contains(&field);
    let common = ["drops", "slos", "sprint", "source"];
    if reads(&common) {
        assert_invalid(field, "closed", || s.multi().run());
    }
    if reads(&common) || reads(&["arrival_batch", "epsilon"]) {
        assert_invalid(field, "soak", || s.soak().run());
    }
    if reads(&common) || reads(&["epoch_secs", "power_cap_w"]) {
        assert_invalid(field, "fleet", || s.fleet(&oracle::FLEET).run(2));
    }
    if reads(&["drops", "sprint", "source"]) {
        assert_invalid(field, "paper", || s.experiment().run());
    }
    if reads(&["drops", "sprint", "source", "stride", "slos"]) {
        assert_invalid(field, "recording", || s.multi().run_recording(s.stride));
        let grid = [s.thetas.clone().unwrap_or_else(|| vec![0.0; 2])];
        assert_invalid(field, "branch", || {
            run_multi_experiments_branch(&grid, 1, 1, s.stride, |_| s.multi())
        });
    }
}
