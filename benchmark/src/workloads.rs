//! The four benchmark workloads: how each builds its inputs from a seed, runs
//! through the program's public API, and, for the soaks and the fleet, is
//! replayed engine-call by engine-call.
//!
//! Every workload is an open-system simulation with Poisson arrivals; the
//! host runs it as one batch job on one thread (the fleet on one pool lane).

use std::sync::Arc;
use std::time::Instant;

use dias_core::federation::{
    FederationExperiment, FederationReport, FederationRunLog, Router, RouterCursor,
};
use dias_core::{
    Experiment, ExperimentReport, JobSource, Policy, SoakExperiment, SoakReport, SprintBudget,
    SprintPolicy, WarmupRule,
};
use dias_des::stats::{SampleSet, SampleStats, StreamingSummary};
use dias_engine::{ClusterSpec, FaultTrace, GangBinPack, PriorityPreempt, Scheduler};
use dias_workloads::{
    heterogeneous_width_fleet, heterogeneous_width_two_priority, reference_two_priority,
    slot_failure_trace, JobStream,
};

use crate::probe::{Counter, SchedCounters, Spans, TimedScheduler, TimedSource};
use crate::replay::{self, EngineTally, MultiEngine, Recorder};

/// Seed the arrival rates are calibrated at, whatever `--seed` is.
///
/// The stream generators calibrate their rates by profiling 40 jobs per
/// class drawn from the seed, so each seed would offer a slightly different
/// load, and near saturation latency moves as 1/(1 − ρ). Calibrating once
/// fixes the offered load; `--seed` then draws the sample path (arrivals,
/// task times, failures). At seed 42 the stream is the generator's own.
const CALIBRATION_SEED: u64 = 42;

/// Rank-error bound of the soaks' quantile sketches. The driver's 1% default
/// puts "p99" anywhere from p98 to p100, which at 1M jobs moves it by more
/// than any run-to-run change worth measuring.
const SKETCH_EPSILON: f64 = 0.001;

/// Per-class drop ratios of the soaks and the fleet: low class 20%, high
/// class exact.
const DROPS: [f64; 2] = [0.2, 0.0];
/// Fleet shape: 16 shards of 313 two-core workers (626 slots each).
const FLEET_SHARDS: usize = 16;
const FLEET_WORKERS: usize = 313;
/// Federation epoch, simulated seconds.
const FLEET_EPOCH_SECS: f64 = 60.0;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 1M-job soak on `GangBinPack` at utilization 0.7: the hot path.
    SoakPlain,
    /// The 1M-job soak on `PriorityPreempt` at 0.8 with slot failures.
    SoakContended,
    /// A 16-shard federation: deep calendars and wide scheduler scans.
    Fleet16x,
    /// The paper's one-job-at-a-time loop under P, NP, DA(0,20), DiAS(0,20).
    PaperDias,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SoakPlain,
        Workload::SoakContended,
        Workload::Fleet16x,
        Workload::PaperDias,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SoakPlain => "soak_plain",
            Workload::SoakContended => "soak_contended",
            Workload::Fleet16x => "fleet_16x",
            Workload::PaperDias => "paper_dias",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the traced pass can replay the workload's engine calls: the
    /// soaks and the fleet run `MultiDriver`'s loop, which the replay
    /// repeats; the paper workload runs the one-job loop, which it does not.
    pub fn has_replay(self) -> bool {
        self != Workload::PaperDias
    }

    /// The size a benchmark run uses: measured jobs of a soak, arrivals of
    /// the fleet, measured jobs per policy of the paper loop. Each class
    /// then completes at least 10k measured jobs, so its p99 has 100 samples
    /// beyond it.
    ///
    /// Host noise on a shared machine moves one repeat by ±4%, so runs are
    /// sized for several repeats within `--seconds`; the contended soak
    /// keeps 1M jobs because its low-class tail needs them to repeat within
    /// a few percent from seed to seed.
    pub fn full_size(self) -> usize {
        match self {
            Workload::SoakPlain => 500_000,
            Workload::SoakContended => 1_000_000,
            Workload::Fleet16x => 200_000,
            Workload::PaperDias => 100_000,
        }
    }
}

/// A workload's inputs, generated from the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub workload: Workload,
    /// Run size, as [`Workload::full_size`] counts it.
    pub size: usize,
    stream: JobStream,
    faults: FaultTrace,
    /// Seconds spent calibrating the arrival stream (engine profiling runs).
    pub calibrate_s: f64,
    /// Seconds spent on the whole input generation, calibration included.
    pub prepare_s: f64,
}

/// Generates a workload's inputs at run size `size`: the arrival stream,
/// calibrated at [`CALIBRATION_SEED`] and sampled from `seed`, and, for the
/// contended soak, the slot-failure trace.
pub fn prepare(workload: Workload, seed: u64, size: usize) -> Inputs {
    let start = Instant::now();
    let calibrated = match workload {
        Workload::SoakPlain => heterogeneous_width_two_priority(0.7, CALIBRATION_SEED),
        Workload::SoakContended => heterogeneous_width_two_priority(0.8, CALIBRATION_SEED),
        Workload::Fleet16x => heterogeneous_width_fleet(&fleet_spec(), 0.7, CALIBRATION_SEED),
        Workload::PaperDias => reference_two_priority(0.8, CALIBRATION_SEED),
    };
    let calibrate_s = start.elapsed().as_secs_f64();
    let stream = JobStream::with_rates(
        calibrated.profiles().to_vec(),
        calibrated.rates().to_vec(),
        seed,
    )
    .expect("calibrated rates are valid");
    let faults = if workload == Workload::SoakContended {
        // The expected horizon (warm-up cut included) plus 5%: at 1M jobs
        // the last arrival's time varies by about 0.1%.
        let rate: f64 = stream.rates().iter().sum();
        let horizon = 1.05 * (size + 2_000) as f64 / rate;
        slot_failure_trace(
            ClusterSpec::paper_reference().slots(),
            horizon,
            2_400.0,
            150.0,
            seed,
        )
    } else {
        FaultTrace::empty()
    };
    Inputs {
        workload,
        size,
        stream,
        faults,
        calibrate_s,
        prepare_s: start.elapsed().as_secs_f64(),
    }
}

/// One shard of the fleet.
fn shard_spec() -> ClusterSpec {
    ClusterSpec {
        workers: FLEET_WORKERS,
        ..ClusterSpec::paper_reference()
    }
}

/// The whole fleet as one cluster, for stream calibration.
fn fleet_spec() -> ClusterSpec {
    ClusterSpec {
        workers: FLEET_WORKERS * FLEET_SHARDS,
        ..ClusterSpec::paper_reference()
    }
}

/// The soak harness's 22 kJ budget (4-wide high gangs, 6 sprint-minutes per
/// hour) scaled to one shard's slots, times `shards`.
///
/// The federation hands each shard its slot share of the fleet's budget. The
/// fleet's shards are equal, so the share is exactly 1/16, and a fleet budget
/// built as 16 × the shard budget splits back into the shard budget bit for
/// bit: `budgeted_sprint(s, 1)` is what the replay gives each shard.
fn budgeted_sprint(shard_slots: usize, shards: usize) -> SprintPolicy {
    let spec = ClusterSpec::paper_reference();
    let ratio = shard_slots as f64 / spec.slots() as f64;
    let n = shards as f64;
    SprintPolicy::top_class(
        2,
        65.0,
        SprintBudget::limited(
            n * (22_000.0 * ratio),
            n * (4.0 * spec.sprint_extra_slot_power_w() * 6.0 * 60.0 / 3600.0 * ratio),
        ),
    )
}

/// The soaks' engine policy: preemption on the contended soak.
fn soak_policy(workload: Workload) -> Box<dyn Scheduler> {
    if workload == Workload::SoakContended {
        Box::new(PriorityPreempt)
    } else {
        Box::new(GangBinPack)
    }
}

/// The four policies of the paper workload, in report order.
fn paper_policies() -> [Policy; 4] {
    let extra = ClusterSpec::paper_reference().sprint_extra_power_w();
    let limited = SprintPolicy::top_class(2, 65.0, SprintBudget::paper_limited(extra));
    [
        Policy::preemptive(2),
        Policy::non_preemptive(2),
        Policy::da_percent_high_to_low(&[0.0, 20.0]),
        Policy::da_percent_high_to_low(&[0.0, 20.0]).with_sprint(limited),
    ]
}

/// Which of the program's seams a run wraps with timers.
#[derive(Debug, Clone, Default)]
pub struct Seams {
    pub source: Option<Arc<Counter>>,
    pub sched: Option<Arc<SchedCounters>>,
}

impl Seams {
    fn scheduler(&self, policy: Box<dyn Scheduler>) -> Box<dyn Scheduler> {
        match &self.sched {
            Some(counters) => Box::new(TimedScheduler::new(policy, Arc::clone(counters))),
            None => policy,
        }
    }
}

/// The program's report of one run, compared whole between repeats.
#[derive(Debug, Clone)]
pub enum Report {
    Soak(Box<SoakReport>),
    Fleet(Box<FederationReport>, FederationRunLog),
    Paper(Vec<ExperimentReport>),
}

/// Simulated per-class latency of one class, seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub mean: f64,
    pub p95: f64,
    pub p99: f64,
}

impl Latency {
    fn of(s: &impl SampleStats) -> Latency {
        Latency {
            mean: s.mean(),
            p95: s.quantile(0.95),
            p99: s.quantile(0.99),
        }
    }
}

/// What one run produced: the report, and the numbers the benchmark reads
/// off it.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub report: Report,
    /// Measured completions (all policies together on the paper workload).
    pub measured_jobs: u64,
    /// Low class (0) and high class (1).
    pub latency: [Latency; 2],
    pub energy_joules: f64,
    pub evictions: u64,
    pub failure_evictions: u64,
    /// Completed work over completed plus destroyed work.
    pub useful_work_ratio: f64,
    pub sprint_spent_j: f64,
}

impl Outcome {
    /// Whether two runs simulated the same thing (host timings aside).
    pub fn same_simulation(&self, other: &Outcome) -> bool {
        match (&self.report, &other.report) {
            (Report::Soak(a), Report::Soak(b)) => a.same_simulation(b),
            (Report::Fleet(a, _), Report::Fleet(b, _)) => a == b,
            (Report::Paper(a), Report::Paper(b)) => a == b,
            _ => false,
        }
    }

    /// The paper's shape on the paper workload: only P wastes work, DA(0,20)
    /// serves the low class faster than P, and DiAS(0,20)'s sprint serves
    /// the high class faster than DA(0,20). `None` on other workloads.
    pub fn paper_shape_holds(&self) -> Option<bool> {
        let Report::Paper(r) = &self.report else {
            return None;
        };
        let [p, np, da, dias] = [&r[0], &r[1], &r[2], &r[3]];
        Some(
            p.wasted_work_secs > 0.0
                && [np, da, dias].iter().all(|x| x.wasted_work_secs == 0.0)
                && da.mean_response(0) < p.mean_response(0)
                && dias.mean_response(1) < da.mean_response(1),
        )
    }

    /// Busiest shard's routed jobs over the mean (1 for one engine).
    pub fn routed_max_over_mean(&self) -> f64 {
        let Report::Fleet(f, _) = &self.report else {
            return 1.0;
        };
        let max = f.routed_jobs.iter().copied().max().unwrap_or(0) as f64;
        let mean = f.routed_jobs.iter().sum::<u64>() as f64 / f.routed_jobs.len() as f64;
        max / mean
    }

    /// Federation epoch barriers (0 off the fleet).
    pub fn epochs(&self) -> usize {
        match &self.report {
            Report::Fleet(_, log) => log.epochs.len(),
            _ => 0,
        }
    }
}

/// A finished run: its outcome and how long the host took.
#[derive(Debug)]
pub struct Executed {
    pub outcome: Outcome,
    /// The run itself, seconds: the experiment's `run` call, which builds
    /// the engines and drives the simulation to its end.
    pub run_s: f64,
}

/// Runs a workload through the program on `lanes` pool lanes, wrapping the
/// seams `seams` names.
pub fn execute(inputs: &Inputs, seams: &Seams, lanes: usize) -> Result<Executed, String> {
    match &seams.source {
        None => execute_with(inputs, inputs.stream.clone(), seams, lanes),
        Some(counter) => {
            let source = TimedSource::new(inputs.stream.clone(), Arc::clone(counter));
            execute_with(inputs, source, seams, lanes)
        }
    }
}

fn execute_with<S: JobSource + Clone>(
    inputs: &Inputs,
    source: S,
    seams: &Seams,
    lanes: usize,
) -> Result<Executed, String> {
    match inputs.workload {
        Workload::SoakPlain | Workload::SoakContended => {
            let exp = SoakExperiment::new(source, seams.scheduler(soak_policy(inputs.workload)))
                .jobs(inputs.size)
                .warmup(WarmupRule::Mser { calibration: 0 })
                .epsilon(SKETCH_EPSILON)
                .drops(&DROPS)
                .faults(inputs.faults.clone());
            let start = Instant::now();
            let r = exp.run().map_err(|e| e.to_string())?;
            let run_s = start.elapsed().as_secs_f64();
            let t = &r.totals;
            let outcome = Outcome {
                measured_jobs: r.measured_jobs,
                latency: [
                    Latency::of(&r.per_class[0].response),
                    Latency::of(&r.per_class[1].response),
                ],
                energy_joules: t.energy_joules,
                evictions: t.evictions,
                failure_evictions: t.failure_evictions,
                useful_work_ratio: 1.0 - t.waste_fraction(),
                sprint_spent_j: t.sprint_budget_spent_j,
                report: Report::Soak(Box::new(r)),
            };
            Ok(Executed { outcome, run_s })
        }
        Workload::Fleet16x => {
            let shards = vec![shard_spec(); FLEET_SHARDS];
            let exp = FederationExperiment::new(source, shards, |_| {
                seams.scheduler(Box::new(GangBinPack))
            })
            .router(Router::Hash)
            .epoch_secs(FLEET_EPOCH_SECS)
            .drops(&DROPS)
            .sprint(budgeted_sprint(shard_spec().slots(), FLEET_SHARDS))
            .arrivals(inputs.size);
            let start = Instant::now();
            let (r, log) = exp.run_with_log(lanes).map_err(|e| e.to_string())?;
            let run_s = start.elapsed().as_secs_f64();
            let outcome = Outcome {
                measured_jobs: r.completed(),
                latency: [
                    Latency::of(&r.per_class[0].response),
                    Latency::of(&r.per_class[1].response),
                ],
                energy_joules: r.energy_joules,
                evictions: r.evictions,
                failure_evictions: r.failure_evictions,
                useful_work_ratio: useful(
                    r.total_work_secs,
                    r.wasted_work_secs + r.total_work_secs,
                ),
                sprint_spent_j: r.sprint_budget_spent_j,
                report: Report::Fleet(Box::new(r), log),
            };
            Ok(Executed { outcome, run_s })
        }
        Workload::PaperDias => {
            let exps: Vec<_> = paper_policies()
                .into_iter()
                .map(|p| Experiment::new(source.clone(), p).jobs(inputs.size))
                .collect();
            let start = Instant::now();
            let reports = exps
                .into_iter()
                .map(|e| e.run().map_err(|e| e.to_string()))
                .collect::<Result<Vec<_>, _>>()?;
            let run_s = start.elapsed().as_secs_f64();
            let dias = &reports[3];
            let sum = |f: fn(&ExperimentReport) -> f64| reports.iter().map(f).sum::<f64>();
            let extra_w = ClusterSpec::paper_reference().sprint_extra_power_w();
            let outcome = Outcome {
                measured_jobs: reports
                    .iter()
                    .flat_map(|r| &r.per_class)
                    .map(|c| c.completed)
                    .sum(),
                latency: [
                    Latency::of(&dias.per_class[0].response),
                    Latency::of(&dias.per_class[1].response),
                ],
                energy_joules: sum(|r| r.energy_joules),
                evictions: reports.iter().map(|r| r.evictions).sum(),
                failure_evictions: 0,
                // The one-job report's total already includes the destroyed
                // attempts.
                useful_work_ratio: useful(
                    sum(|r| r.total_work_secs - r.wasted_work_secs),
                    sum(|r| r.total_work_secs),
                ),
                sprint_spent_j: sum(|r| r.sprint_secs) * extra_w,
                report: Report::Paper(reports),
            };
            Ok(Executed { outcome, run_s })
        }
    }
}

fn useful(useful_work: f64, all_work: f64) -> f64 {
    if all_work > 0.0 {
        useful_work / all_work
    } else {
        1.0
    }
}

/// What a replay measured and whether it matched the run it replays.
#[derive(Debug)]
pub struct Replayed {
    /// Host seconds of the replay loop (engine construction excluded).
    pub wall_s: f64,
    pub tally: EngineTally,
    /// Empty when the replay ended bit-identical to the run; otherwise what
    /// differed.
    pub mismatch: Vec<String>,
}

/// Replays a run's engine calls, timing them through `spans` and wrapping
/// each engine's scheduler as `seams` says. Only for workloads that
/// [`Workload::has_replay`].
pub fn replay<S: Spans>(
    inputs: &Inputs,
    outcome: &Outcome,
    seams: &Seams,
    spans: &mut S,
) -> Result<Replayed, String> {
    let mut mismatch = Vec::new();
    let mut expect = |what: &str, got: f64, want: f64| {
        if got.to_bits() != want.to_bits() {
            mismatch.push(format!("{what}: replay {got} vs run {want}"));
        }
    };
    let source = inputs.stream.clone();
    let (wall_s, tally) = match (&outcome.report, inputs.workload) {
        (Report::Soak(r), Workload::SoakPlain | Workload::SoakContended) => {
            let sketch = || StreamingSummary::with_epsilon(SKETCH_EPSILON);
            let recorder = Recorder::new(2, sketch).with_window(inputs.size / 50, sketch);
            let mut engine = MultiEngine::new(
                ClusterSpec::paper_reference(),
                seams.scheduler(soak_policy(inputs.workload)),
                &DROPS,
                inputs.faults.clone(),
                None,
                recorder,
            )
            .map_err(|e| e.to_string())?;
            let start = Instant::now();
            replay::replay_soak(source, &mut engine, r.measured_jobs + r.warmup_jobs, spans)
                .map_err(|e| e.to_string())?;
            let wall_s = start.elapsed().as_secs_f64();
            expect("events", engine.tally.events as f64, r.events as f64);
            expect(
                "completions",
                engine.tally.completions as f64,
                (r.measured_jobs + r.warmup_jobs) as f64,
            );
            expect("horizon_secs", engine.horizon_secs(), r.totals.horizon_secs);
            expect(
                "energy_joules",
                engine.energy_joules(),
                r.totals.energy_joules,
            );
            (wall_s, engine.tally)
        }
        (Report::Fleet(r, log), Workload::Fleet16x) => {
            let specs = vec![shard_spec(); FLEET_SHARDS];
            let slots: Vec<usize> = specs.iter().map(ClusterSpec::slots).collect();
            let mut shards = specs
                .into_iter()
                .map(|spec| {
                    let sprint = budgeted_sprint(spec.slots(), 1);
                    MultiEngine::new(
                        spec,
                        seams.scheduler(Box::new(GangBinPack)),
                        &DROPS,
                        FaultTrace::empty(),
                        Some(sprint),
                        Recorder::new(2, SampleSet::new),
                    )
                })
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?;
            let cursor = RouterCursor::new(Router::Hash, &slots);
            let start = Instant::now();
            replay::replay_fleet(source, &mut shards, cursor, inputs.size, spans)
                .map_err(|e| e.to_string())?;
            let wall_s = start.elapsed().as_secs_f64();
            let mut tally = EngineTally::default();
            for (i, (shard, report)) in shards.iter().zip(&r.shards).enumerate() {
                expect(
                    &format!("shard {i} horizon_secs"),
                    shard.horizon_secs(),
                    report.horizon_secs,
                );
                expect(
                    &format!("shard {i} energy_joules"),
                    shard.energy_joules(),
                    report.energy_joules,
                );
                tally.add(&shard.tally);
            }
            expect(
                "completions",
                tally.completions as f64,
                r.completed() as f64,
            );
            let events = log.epochs.last().map_or(0, |e| e.events);
            expect("events", tally.events as f64, events as f64);
            (wall_s, tally)
        }
        _ => return Err(format!("{} has no replay", inputs.workload.name())),
    };
    Ok(Replayed {
        wall_s,
        tally,
        mismatch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{Timed, Untimed};

    /// Small enough for a debug build, large enough for queueing,
    /// evictions, faults and sprints to occur.
    const SMALL: usize = 20_000;

    fn wrapped() -> Seams {
        Seams {
            source: Some(Arc::new(Counter::default())),
            sched: Some(Arc::new(SchedCounters::default())),
        }
    }

    #[test]
    fn wrappers_do_not_change_the_simulation() {
        for w in [
            Workload::SoakPlain,
            Workload::SoakContended,
            Workload::Fleet16x,
        ] {
            let inputs = prepare(w, 42, SMALL);
            let plain = execute(&inputs, &Seams::default(), 1).unwrap();
            let seams = wrapped();
            let timed = execute(&inputs, &seams, 1).unwrap();
            assert!(
                timed.outcome.same_simulation(&plain.outcome),
                "{}: wrapped run differs",
                w.name()
            );
            assert!(seams.source.unwrap().calls() >= SMALL as u64);
            assert!(seams.sched.unwrap().calls() > 0);
        }
    }

    #[test]
    fn soak_replays_are_bit_identical() {
        for w in [Workload::SoakPlain, Workload::SoakContended] {
            for seed in [42, 7] {
                let inputs = prepare(w, seed, SMALL);
                let run = execute(&inputs, &Seams::default(), 1).unwrap();
                let bare = replay(&inputs, &run.outcome, &Seams::default(), &mut Untimed).unwrap();
                assert!(
                    bare.mismatch.is_empty(),
                    "{} seed {seed}: {:?}",
                    w.name(),
                    bare.mismatch
                );
                let mut spans = Timed::calibrated();
                let timed = replay(&inputs, &run.outcome, &wrapped(), &mut spans).unwrap();
                assert!(
                    timed.mismatch.is_empty(),
                    "{} seed {seed}: {:?}",
                    w.name(),
                    timed.mismatch
                );
                assert_eq!(bare.tally, timed.tally);
            }
        }
    }

    #[test]
    fn contended_soak_evicts_and_fails() {
        let inputs = prepare(Workload::SoakContended, 42, SMALL);
        let run = execute(&inputs, &Seams::default(), 1).unwrap();
        assert!(run.outcome.failure_evictions > 0);
        assert!(run.outcome.evictions > run.outcome.failure_evictions);
        assert!(run.outcome.useful_work_ratio < 1.0);
    }

    #[test]
    fn fleet_replay_is_bit_identical() {
        let inputs = prepare(Workload::Fleet16x, 42, SMALL);
        let run = execute(&inputs, &Seams::default(), 1).unwrap();
        assert!(run.outcome.sprint_spent_j > 0.0, "the fleet must sprint");
        let bare = replay(&inputs, &run.outcome, &Seams::default(), &mut Untimed).unwrap();
        assert!(bare.mismatch.is_empty(), "{:?}", bare.mismatch);
        let paper = prepare(Workload::PaperDias, 42, 200);
        let run = execute(&paper, &Seams::default(), 1).unwrap();
        assert!(replay(&paper, &run.outcome, &Seams::default(), &mut Untimed).is_err());
    }

    #[test]
    fn fleet_report_is_the_same_on_two_lanes() {
        let inputs = prepare(Workload::Fleet16x, 42, SMALL);
        let one = execute(&inputs, &Seams::default(), 1).unwrap();
        let two = execute(&inputs, &Seams::default(), 2).unwrap();
        assert!(one.outcome.same_simulation(&two.outcome));
    }
}
