//! Determinism, equivalence and memory-bound properties of the open-system
//! soak driver (ISSUE 9 satellites).
//!
//! Three contracts:
//!
//! 1. **Closed-driver equivalence.** A soak with `arrival_batch = 1` and a
//!    fixed arrival warm-up over a finite source executes the exact
//!    operation sequence of [`MultiJobExperiment::run`] — so every
//!    engine-side total (horizon, energy split, waste, utilization, sprint
//!    budget books, capacity changes, per-class energy harvest) must be
//!    **bit-identical**, per-class counts exact, and per-class means equal
//!    up to the Welford-vs-naive-sum summation difference (≤ 1e-9
//!    relative; the streaming backend accumulates mean/M2 incrementally, so
//!    bitwise equality of means is not the contract — value equality is).
//! 2. **Rerun determinism.** Any `arrival_batch`, with sprint + faults +
//!    degradation in play, reproduces the same [`SoakReport`] (modulo
//!    wall-clock fields) when rerun — `SoakReport::same_simulation`.
//! 3. **Window concatenation.** Tumbling windows partition the measured
//!    stream: per-class completion/SLO counts sum exactly to the lifetime
//!    books, and completion-weighted window means recompose the lifetime
//!    mean to float slop.
//!
//! Plus the memory-bound regression: a 10×-longer soak may not move the
//! live-object high-water mark by 2× (catches any reintroduced per-job
//! buffering).

use dias_core::{
    JobSource, MultiJobExperiment, SoakExperiment, SoakReport, SprintBudget, SprintPolicy,
    VecJobSource, WarmupRule,
};
use dias_des::SeedSequence;
use dias_engine::{
    FaultTrace, GangBinPack, JobInstance, JobSpec, PriorityPreempt, Scheduler, StageKind, StageSpec,
};
use dias_stochastic::{Dist, Ph};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Two-class workload with enough width variety to exercise queueing,
/// drops and (under `PriorityPreempt`) evictions.
fn workload(seed: u64, n: u64, gap: f64) -> VecJobSource {
    let mut rng = StdRng::seed_from_u64(seed);
    let jobs = (0..n)
        .map(|i| {
            let class = usize::from(i % 6 == 0);
            let map_tasks = if i % 11 == 0 { 24 } else { 8 };
            let spec = JobSpec::builder(i, class)
                .setup(Dist::constant(0.5))
                .shuffle(Dist::constant(0.25))
                .stage(StageSpec::new(
                    StageKind::Map,
                    map_tasks,
                    Dist::exponential(2.0),
                ))
                .stage(StageSpec::new(StageKind::Reduce, 4, Dist::exponential(1.0)))
                .build();
            let mut inst = JobInstance::sample(&spec, &mut rng);
            inst.arrival_secs = i as f64 * gap;
            inst
        })
        .collect();
    VecJobSource::new(jobs, 2)
}

fn renewal_trace(seed: u64) -> FaultTrace {
    let up = Ph::exponential(1.0 / 180.0).expect("valid rate");
    let down = Ph::exponential(1.0 / 50.0).expect("valid rate");
    FaultTrace::renewal(20, 600.0, &up, &down, SeedSequence::new(seed))
}

/// Full-featured closed experiment: drops, sprinting, faults, SLOs.
fn closed(scheduler: Box<dyn Scheduler>, seed: u64) -> MultiJobExperiment<VecJobSource> {
    MultiJobExperiment::new(workload(seed, 400, 6.0), scheduler)
        .jobs(220)
        .warmup(40)
        .drops(&[0.3, 0.0])
        .sprint(SprintPolicy::top_class(
            2,
            10.0,
            SprintBudget::limited(60_000.0, 40.0),
        ))
        .faults(renewal_trace(seed ^ 0xfa17))
        .slos(&[400.0, 150.0])
}

/// The identically configured soak (fixed arrival warm-up, batch 1).
fn soak(scheduler: Box<dyn Scheduler>, seed: u64) -> SoakExperiment<VecJobSource> {
    SoakExperiment::new(workload(seed, 400, 6.0), scheduler)
        .jobs(220)
        .warmup(WarmupRule::Arrivals(40))
        .arrival_batch(1)
        .window_jobs(50)
        .drops(&[0.3, 0.0])
        .sprint(SprintPolicy::top_class(
            2,
            10.0,
            SprintBudget::limited(60_000.0, 40.0),
        ))
        .faults(renewal_trace(seed ^ 0xfa17))
        .slos(&[400.0, 150.0])
}

fn assert_close(a: f64, b: f64, what: &str) {
    let tol = 1e-9 * a.abs().max(b.abs()).max(1.0);
    assert!((a - b).abs() <= tol, "{what}: {a} vs {b}");
}

#[test]
fn batch_one_soak_is_bit_identical_to_closed_driver_on_shared_metrics() {
    for (seed, preempt, changes) in [(11u64, false, 100), (12, true, 94), (13, false, 87)] {
        let scheduler = |p: bool| -> Box<dyn Scheduler> {
            if p {
                Box::new(PriorityPreempt)
            } else {
                Box::new(GangBinPack)
            }
        };
        let exact = closed(scheduler(preempt), seed).run().expect("closed run");
        let streamed = soak(scheduler(preempt), seed).run().expect("soak run");

        // Engine-side totals: the same operation sequence, bit for bit.
        let t = &streamed.totals;
        assert_eq!(t.horizon_secs, exact.horizon_secs, "horizon (seed {seed})");
        assert_eq!(t.energy_joules, exact.energy_joules);
        assert_eq!(t.idle_energy_joules, exact.idle_energy_joules);
        assert_eq!(t.wasted_work_secs, exact.wasted_work_secs);
        assert_eq!(t.total_work_secs, exact.total_work_secs);
        assert_eq!(t.evictions, exact.evictions);
        assert_eq!(t.busy_slot_secs, exact.busy_slot_secs);
        assert_eq!(t.utilization, exact.utilization);
        assert_eq!(t.sprint_budget_spent_j, exact.sprint_budget_spent_j);
        assert_eq!(
            t.sprint_budget_replenished_j,
            exact.sprint_budget_replenished_j
        );
        assert_eq!(t.sprint_budget_remaining_j, exact.sprint_budget_remaining_j);
        assert_eq!(t.failure_evictions, exact.failure_evictions);
        assert_eq!(t.failure_lost_work_secs, exact.failure_lost_work_secs);
        assert_eq!(t.capacity_changes, exact.capacity_changes);
        assert_eq!(t.capacity_changes, changes, "changes (seed {seed})");

        // Per-class energy harvest lives on the driver either way: bitwise.
        for k in 0..2 {
            assert_eq!(
                t.per_class[k].active_energy_joules,
                exact.per_class[k].active_energy_joules
            );
            assert_eq!(
                t.per_class[k].busy_slot_secs,
                exact.per_class[k].busy_slot_secs
            );
            assert_eq!(
                t.per_class[k].sprint_slot_secs,
                exact.per_class[k].sprint_slot_secs
            );
        }

        // Measured-window statistics: counts exact, folds value-equal. (The
        // fault trace can strand part of the measured window on failed
        // capacity, so the contract is agreement with the closed driver,
        // not a fixed count.)
        let exact_measured: u64 = exact.per_class.iter().map(|c| c.completed).sum();
        assert_eq!(streamed.measured_jobs, exact_measured, "seed {seed}");
        assert!(
            streamed.measured_jobs > 0,
            "no measured completions (seed {seed})"
        );
        for k in 0..2 {
            let s = &streamed.per_class[k];
            let e = &exact.per_class[k];
            assert_eq!(s.completed, e.completed, "completed[{k}] (seed {seed})");
            assert_eq!(s.evictions, e.evictions);
            assert_eq!(s.failure_evictions, e.failure_evictions);
            assert_eq!(s.slo_attained, e.slo_attained);
            use dias_des::stats::SampleStats;
            assert_eq!(s.response.count(), e.response.count());
            assert_close(s.response.mean(), e.response.mean(), "response mean");
            assert_close(s.queueing.mean(), e.queueing.mean(), "queueing mean");
            assert_close(s.execution.mean(), e.execution.mean(), "execution mean");
            assert_close(
                s.dispatch_wait.mean(),
                e.dispatch_wait.mean(),
                "dispatch mean",
            );
            assert_close(
                s.drop_fraction.mean(),
                e.drop_fraction.mean(),
                "drop fraction mean",
            );
            assert_eq!(s.response.max(), e.response.max(), "response max[{k}]");
            // Quantiles: the sketch returns an order statistic while
            // `SampleSet` interpolates between two, so the contract is the
            // ε rank guarantee, not value equality.
            let mut sorted = e.response.samples().to_vec();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let n = sorted.len() as f64;
            let rank = (0.95 * n).ceil().max(1.0);
            let lo = sorted[((rank - 0.01 * n).ceil().max(1.0) as usize) - 1];
            let hi = sorted[((rank + 0.01 * n).floor().min(n).max(1.0) as usize) - 1];
            let p95 = s.response.p95();
            assert!(
                (lo..=hi).contains(&p95),
                "p95[{k}] {p95} outside rank bracket [{lo}, {hi}]"
            );
        }
    }
}

#[test]
fn soak_reruns_are_bitwise_deterministic_at_any_batch() {
    for batch in [1usize, 3, 16] {
        let run = |_: ()| -> SoakReport {
            SoakExperiment::new(workload(77, 500, 5.0), Box::new(PriorityPreempt))
                .jobs(250)
                .warmup(WarmupRule::Mser { calibration: 60 })
                .arrival_batch(batch)
                .window_jobs(40)
                .drops(&[0.2, 0.0])
                .sprint(SprintPolicy::top_class(
                    2,
                    15.0,
                    SprintBudget::limited(40_000.0, 30.0),
                ))
                .faults(renewal_trace(0xbeef))
                .slos(&[300.0, 120.0])
                .run()
                .expect("soak run")
        };
        let a = run(());
        let b = run(());
        assert!(
            a.same_simulation(&b),
            "batch {batch}: reruns diverged\n{a:#?}\n{b:#?}"
        );
    }
}

#[test]
fn batching_charges_latency_but_preserves_throughput_accounting() {
    let run = |batch: usize| {
        SoakExperiment::new(workload(55, 600, 4.0), Box::new(GangBinPack))
            .jobs(300)
            .warmup(WarmupRule::Arrivals(30))
            .arrival_batch(batch)
            .run()
            .expect("soak run")
    };
    let fine = run(1);
    let coarse = run(32);
    assert_eq!(fine.measured_jobs, coarse.measured_jobs);
    // Waiting for a 32-batch boundary delays admission; jobs keep their true
    // arrival stamps, so the delay must surface as added mean response.
    let fine_mean: f64 = (0..2).map(|k| fine.mean_response(k)).sum();
    let coarse_mean: f64 = (0..2).map(|k| coarse.mean_response(k)).sum();
    assert!(
        coarse_mean > fine_mean,
        "batching hid its latency cost: {coarse_mean} <= {fine_mean}"
    );
}

#[test]
fn windows_concatenate_exactly_to_lifetime_books() {
    let report = SoakExperiment::new(workload(21, 500, 5.0), Box::new(GangBinPack))
        .jobs(260)
        .warmup(WarmupRule::Mser { calibration: 80 })
        .arrival_batch(4)
        .window_jobs(37) // deliberately not a divisor: last window partial
        .slos(&[500.0, 200.0])
        .run()
        .expect("soak run");

    use dias_des::stats::SampleStats;
    assert!(report.windows.len() >= 3, "want several windows");
    for k in 0..2 {
        let lifetime = &report.per_class[k];
        let count: u64 = report
            .windows
            .iter()
            .map(|w| w.per_class[k].completed)
            .sum();
        assert_eq!(count, lifetime.completed, "window counts[{k}]");
        let slo: u64 = report
            .windows
            .iter()
            .map(|w| w.per_class[k].slo_attained)
            .sum();
        assert_eq!(slo, lifetime.slo_attained, "window slo counts[{k}]");
        let weighted: f64 = report
            .windows
            .iter()
            .map(|w| w.per_class[k].mean_response * w.per_class[k].completed as f64)
            .sum();
        assert_close(
            weighted / count as f64,
            lifetime.response.mean(),
            "window-weighted mean",
        );
    }
    // Window timestamps tile the measured horizon monotonically.
    for pair in report.windows.windows(2) {
        assert!(pair[0].end_secs <= pair[1].start_secs + 1e-12);
        assert_eq!(pair[1].index, pair[0].index + 1);
    }
}

/// Unbounded constant-work source: two classes, fixed interarrival gap, no
/// RNG — the cheapest possible stream for long-horizon memory tests.
#[derive(Debug)]
struct TickSource {
    next_id: u64,
    gap: f64,
    rng: StdRng,
}

impl TickSource {
    fn new(gap: f64) -> Self {
        TickSource {
            next_id: 0,
            gap,
            rng: StdRng::seed_from_u64(4242),
        }
    }
}

impl JobSource for TickSource {
    fn classes(&self) -> usize {
        2
    }

    fn next_job(&mut self) -> Option<JobInstance> {
        let i = self.next_id;
        self.next_id += 1;
        let spec = JobSpec::builder(i, usize::from(i.is_multiple_of(5)))
            .stage(StageSpec::new(StageKind::Map, 4, Dist::constant(2.0)))
            .build();
        let mut inst = JobInstance::sample(&spec, &mut self.rng);
        inst.arrival_secs = i as f64 * self.gap;
        Some(inst)
    }
}

#[test]
fn live_object_high_water_mark_is_flat_in_run_length() {
    let run = |jobs: usize| {
        SoakExperiment::new(TickSource::new(1.0), Box::new(GangBinPack))
            .jobs(jobs)
            .warmup(WarmupRule::Mser { calibration: 200 })
            .window_jobs(jobs / 20)
            .run()
            .expect("soak run")
    };
    let short = run(20_000);
    let long = run(200_000);
    assert_eq!(long.measured_jobs, 200_000);
    // 10× the jobs may not even double the peak live-object count: per-job
    // state must die with the job, and sketches stay logarithmic.
    assert!(
        long.live_high_water < 2 * short.live_high_water,
        "high-water mark grew with run length: {} (200k) vs {} (20k)",
        long.live_high_water,
        short.live_high_water
    );
}
