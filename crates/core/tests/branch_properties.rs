//! Branch-equivalence pins of checkpoint-and-branch re-execution.
//!
//! The PR 8 tentpole's contract: a theta-only sweep evaluated through
//! [`run_multi_experiments_branch`] — reference point recorded once, every
//! other point restored from the latest checkpoint before its divergence
//! index and replayed only over the suffix — must produce a report grid
//! **bit-identical** to full replay of every cell, at any thread count, with
//! sprint budgets and fault injection in play. `MultiJobReport` derives
//! `PartialEq`, so `==` here is float-for-float.

use proptest::prelude::*;

use dias_core::sweep::{run_differential, run_multi_experiments_branch};
use dias_core::{MultiJobExperiment, SprintBudget, SprintPolicy, VecJobSource};
use dias_des::SeedSequence;
use dias_engine::{
    FaultTrace, GangBinPack, JobInstance, JobSpec, PriorityPreempt, Scheduler, StageKind, StageSpec,
};
use dias_stochastic::{Dist, Ph};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Two-class workload of 8-task map jobs, except job `wide_at` which draws a
/// 24-task map. On 8 tasks thetas 0.05 and 0.10 keep the same ⌈n(1−θ)⌉ = 8
/// tasks — only the 24-task job tells them apart (23 vs 22 kept) — so the
/// sweep's divergence index lands exactly on `wide_at` and everything before
/// it is shared prefix.
fn workload(seed: u64, n: u64, gap: f64, wide_at: u64) -> VecJobSource {
    let mut rng = StdRng::seed_from_u64(seed);
    let jobs = (0..n)
        .map(|i| {
            let class = usize::from(i % 8 == 0);
            let map_tasks = if i == wide_at { 24 } else { 8 };
            let spec = JobSpec::builder(i, class)
                .setup(Dist::constant(1.0))
                .shuffle(Dist::constant(0.5))
                .stage(StageSpec::new(
                    StageKind::Map,
                    map_tasks,
                    Dist::exponential(2.0),
                ))
                .stage(StageSpec::new(StageKind::Reduce, 4, Dist::constant(1.0)))
                .build();
            let mut inst = JobInstance::sample(&spec, &mut rng);
            inst.arrival_secs = i as f64 * gap;
            inst
        })
        .collect();
    VecJobSource::new(jobs, 2)
}

/// A PH up/down renewal failure schedule over the paper cluster's 20 slots.
fn renewal_trace(seed: u64) -> FaultTrace {
    let up = Ph::exponential(1.0 / 150.0).expect("valid rate");
    let down = Ph::exponential(1.0 / 40.0).expect("valid rate");
    FaultTrace::renewal(20, 400.0, &up, &down, SeedSequence::new(seed))
}

fn scheduler(idx: usize) -> Box<dyn Scheduler> {
    if idx == 0 {
        Box::new(GangBinPack)
    } else {
        Box::new(PriorityPreempt)
    }
}

/// The base experiment of one replica, *without* a drop vector (the branch
/// runner applies the point's thetas itself).
fn base(
    seed: u64,
    wide_at: u64,
    sched: usize,
    sprint: bool,
    faults: bool,
) -> MultiJobExperiment<VecJobSource> {
    let mut exp =
        MultiJobExperiment::new(workload(seed, 50, 6.0, wide_at), scheduler(sched)).jobs(30);
    if sprint {
        exp = exp.sprint(SprintPolicy::top_class(
            2,
            10.0,
            SprintBudget::limited(30_000.0, 90.0),
        ));
    }
    if faults {
        exp = exp.faults(renewal_trace(seed ^ 0x5eed));
    }
    exp
}

/// The theta grid: reference plus a non-diverging twin (same kept counts on
/// every 8-task stage *and* the 24-task one? no — 23 vs 22, it diverges at
/// `wide_at`), a truly identical point, and an early-diverging point.
fn grid() -> Vec<Vec<f64>> {
    vec![
        vec![0.05, 0.0], // reference
        vec![0.10, 0.0], // diverges only at the 24-task job
        vec![0.05, 0.0], // identical: full skip, zero suffix simulation
        vec![0.30, 0.0], // diverges at the first class-0 arrival
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The acceptance pin: branch-mode report grids equal full-replay grids
    /// bit for bit, across schedulers, sprint budgets, fault injection,
    /// checkpoint strides and thread counts.
    #[test]
    fn branch_sweep_is_bitwise_identical_to_full_replay(
        seed in 0u64..1000,
        stride in 1usize..6,
        wide_at in 0u64..40,
        sched in 0usize..2,
        sprint in any::<bool>(),
        faults in any::<bool>(),
    ) {
        let thetas = grid();
        let full = run_differential(thetas.len(), 2, 2, |p, r| {
            base(seed + r as u64, wide_at, sched, sprint, faults).drops(&thetas[p]).run()
        })
        .expect("valid grid");
        for threads in [1, 3] {
            let (branched, stats) = run_multi_experiments_branch(
                &thetas,
                2,
                threads,
                stride,
                |r| base(seed + r as u64, wide_at, sched, sprint, faults),
            )
            .expect("valid grid");
            prop_assert_eq!(branched.points(), full.points());
            for p in 0..full.points() {
                prop_assert!(
                    branched.point(p) == full.point(p),
                    "point {} diverged at {} threads (stride {})",
                    p,
                    threads,
                    stride
                );
            }
            // The identical point (index 2) never diverges: with stride-1
            // checkpoints its replay would skip every arrival; at any stride
            // branching must have skipped *something* once a checkpoint at
            // arrival 0 exists.
            prop_assert!(stats.suffix_cells == (thetas.len() - 1) * 2);
            prop_assert!(stats.events_skipped <= stats.events_full);
        }
    }
}

/// SLO-scored configurations are conservatively non-branchable: the runner
/// must fall back to full replay for every cell (default stats) and still
/// return the exact full-replay grid.
#[test]
fn non_branchable_configs_fall_back_to_full_replay() {
    let thetas = grid();
    let with_slos = |r: usize| base(9 + r as u64, 10, 1, false, true).slos(&[400.0, 120.0]);
    let full = run_differential(thetas.len(), 2, 2, |p, r| {
        with_slos(r).drops(&thetas[p]).run()
    })
    .expect("valid grid");
    let (branched, stats) =
        run_multi_experiments_branch(&thetas, 2, 2, 4, with_slos).expect("valid grid");
    assert_eq!(stats, dias_core::BranchStats::default());
    for p in 0..full.points() {
        assert_eq!(branched.point(p), full.point(p), "fallback point {p}");
    }
}

/// Work-avoidance telemetry: an identical sweep point skips its whole
/// prefix, and with stride-1 checkpoints the skipped-arrival count reaches
/// the divergence index exactly.
#[test]
fn trace_reports_divergence_and_skip_telemetry() {
    let exp = || base(3, 12, 0, false, false);
    let (_, trace) = exp()
        .drops(&[0.05, 0.0])
        .run_recording(1)
        .expect("valid experiment");
    // 30 measured + 3 warmup jobs arrive before the window closes.
    assert!(trace.arrivals() >= 33);
    assert_eq!(trace.checkpoints(), trace.arrivals());
    // Identical thetas: never diverges.
    assert_eq!(trace.divergence_index(Some(&[0.05, 0.0])), trace.arrivals());
    // 0.10 keeps the same 8 of 8 map tasks everywhere except the 24-task job
    // at arrival 12 (23 vs 22 kept).
    assert_eq!(trace.divergence_index(Some(&[0.10, 0.0])), 12);
    // 0.30 drops map tasks of the first class-0 arrival — job 1 (job 0 is
    // class 1, whose theta is 0.0 at every point).
    assert_eq!(trace.divergence_index(Some(&[0.30, 0.0])), 1);
    // Dropping nothing at all matches 0.05 on every 8-task stage (both keep
    // ⌈8(1−θ)⌉ = 8 tasks) — behaviour-exact detection sees through the
    // different theta and diverges only at the 24-task job (24 vs 23 kept).
    assert_eq!(trace.divergence_index(None), 12);
    let (arrivals, events) = trace.resume_point(12).expect("stride-1 checkpoints");
    assert_eq!(arrivals, 12);
    assert!(events > 0, "a mid-run resume skips real engine events");
}
