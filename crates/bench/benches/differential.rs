//! `sweep/differential` — common-random-numbers sweep vs independent replication.
//!
//! PR 5's sweep path estimates the effect of a policy change by running each
//! policy point on independently seeded job streams and differencing the means.
//! The differential path seeds one stream per replica and runs a clone of it
//! at every policy point, so each point sees the *identical* jobs and policy
//! deltas are paired contrasts: the arrival noise cancels and the confidence
//! interval on the delta tightens.
//!
//! Reported numbers:
//!
//! * wall-clock of the two grid runs (same experiment count and the same
//!   stream code, so they should be close);
//! * the 95% CI half-width of the policy delta under pairing vs independent
//!   replication at the *same* replica count;
//! * the equal-precision speedup: CI half-width scales as `1/√R`, so matching
//!   the paired precision independently needs `(hw_ind / hw_par)²` × as many
//!   replicas.

use std::time::Instant;

use dias_bench::{banner, compare, scaled};
use dias_core::{run_differential, DifferentialReport, Experiment, ExperimentReport, Policy};
use dias_workloads::{reference_two_priority, JobStream};

fn main() {
    banner(
        "sweep/differential",
        "CRN stream clones vs independent replication",
    );
    let jobs = scaled(600);
    let replicas = 6;
    let threads = dias_bench::threads();
    // Three sweep points: the preemptive baseline and two neighbouring drop
    // ratios. The headline contrast is the *sweep derivative* DA(0,30) vs
    // DA(0,50) — same discipline, nearby θ — where the shared stream makes
    // the two runs strongly correlated and pairing shines.
    let policies = [
        Policy::preemptive(2),
        Policy::differential_approximation(&[0.3, 0.0]),
        Policy::differential_approximation(&[0.5, 0.0]),
    ];
    println!(
        "grid: {} policies x {replicas} replicas, {jobs} jobs each",
        policies.len()
    );

    // Differential mode: one seeded stream per replica, cloned at every point.
    let start = Instant::now();
    let streams: Vec<JobStream> = (0..replicas)
        .map(|r| reference_two_priority(0.8, 101 + r as u64))
        .collect();
    let paired_report = run_differential(policies.len(), replicas, threads, |p, r| {
        Experiment::new(streams[r].clone(), policies[p].clone())
            .jobs(jobs)
            .run()
    })
    .expect("valid differential grid");
    let paired_secs = start.elapsed().as_secs_f64();

    // Independent mode (the PR 5 path): every (point, replica) cell gets its
    // own seed, so contrasts must difference independent means.
    let start = Instant::now();
    let indep_report = run_differential(policies.len(), replicas, threads, |p, r| {
        let seed = 101 + (p * replicas + r) as u64;
        Experiment::new(reference_two_priority(0.8, seed), policies[p].clone())
            .jobs(jobs)
            .run()
    })
    .expect("valid independent grid");
    let indep_secs = start.elapsed().as_secs_f64();

    let metric = |rep: &ExperimentReport| rep.mean_response(0);
    report(
        "low-class mean response",
        &paired_report,
        paired_secs,
        indep_secs,
    );
    for (a, b, label) in [(1, 2, "DA(0,30) vs DA(0,50)"), (0, 2, "P vs DA(0,50)")] {
        let paired = paired_report.paired_contrast(a, b, metric);
        let indep = indep_report.independent_contrast(a, b, metric);
        println!(
            "  {label}: paired {:>8.2}s +/- {:>6.2}s | independent {:>8.2}s +/- {:>6.2}s",
            paired.mean_delta, paired.half_width, indep.mean_delta, indep.half_width
        );
    }
    let paired = paired_report.paired_contrast(1, 2, metric);
    let indep = indep_report.independent_contrast(1, 2, metric);
    let tightening = indep.half_width / paired.half_width;
    let replica_factor = tightening * tightening;
    compare(
        "sweep-derivative CI tightening (target >= 2x)",
        ">= 2x",
        &format!("{tightening:.1}x"),
    );
    compare(
        "equal-precision replica speedup",
        "-",
        &format!("{replica_factor:.1}x fewer replicas"),
    );

    // The branch section measures *work avoidance*, so it runs single-
    // threaded: with enough cores a 10-cell grid is one wall-clock run
    // either way, and the saved events show up as freed cores, not time.
    branch_section(1);
}

/// `sweep/differential` part two — checkpoint-and-branch suffix replay.
///
/// A theta-only sweep whose grid points diverge *late*: every job draws an
/// 8-task map that all five thetas deflate to the same 6 kept tasks, except
/// one 40-task job at 3/4 of the run where the grid splits 28/28/26/26/30.
/// The reference point records a checkpoint trace; every other point restores
/// the latest checkpoint before its divergence index and simulates only the
/// suffix. Reported: simulated-events-skipped and wall-clock vs full replay
/// of the identical grid (the two report grids are asserted bit-identical).
fn branch_section(threads: usize) {
    use dias_core::sweep::run_multi_experiments_branch;
    use dias_core::{MultiJobExperiment, VecJobSource};
    use dias_engine::{GangBinPack, JobInstance, JobSpec, StageKind, StageSpec};
    use dias_stochastic::Dist;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    banner(
        "sweep/differential (branch)",
        "checkpoint-and-branch suffix replay vs full replay",
    );
    let jobs = scaled(600);
    let replicas = 2;
    let warmup = jobs / 10;
    let target = jobs + warmup;
    let wide_at = (target * 3 / 4) as u64;
    let workload = move |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let instances: Vec<JobInstance> = (0..(2 * target) as u64)
            .map(|i| {
                let map_tasks = if i == wide_at { 40 } else { 8 };
                let spec = JobSpec::builder(i, 0)
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
                inst.arrival_secs = i as f64 * 6.0;
                inst
            })
            .collect();
        VecJobSource::new(instances, 1)
    };
    // ⌈8(1−θ)⌉ = 6 for every point; ⌈40(1−θ)⌉ = 28/28/26/26/30 — the 0.32
    // point never diverges at all (full prefix skip).
    let thetas: Vec<Vec<f64>> = [0.30, 0.32, 0.35, 0.37, 0.26]
        .iter()
        .map(|&t| vec![t])
        .collect();
    // One sampled stream per replica, shared by every point of both paths
    // (the CRN contract); `VecJobSource` clones are O(1) cursor copies, so
    // the timed region measures simulation, not job sampling.
    let sources: Vec<VecJobSource> = (0..replicas).map(|r| workload(211 + r as u64)).collect();
    let base = move |r: usize| {
        MultiJobExperiment::new(sources[r].clone(), Box::new(GangBinPack)).jobs(jobs)
    };
    println!(
        "grid: {} theta points x {replicas} replicas, {jobs} jobs each (wide job at arrival {wide_at})",
        thetas.len()
    );

    let start = Instant::now();
    let full = run_differential(thetas.len(), replicas, threads, |p, r| {
        base(r).drops(&thetas[p]).run()
    })
    .expect("valid full grid");
    let full_secs = start.elapsed().as_secs_f64();

    // Checkpoints cost O(outstanding state) each, so the stride scales with
    // the run: ~8 checkpoints regardless of the job count.
    let stride = (target / 8).max(1);
    let start = Instant::now();
    let (branched, stats) = run_multi_experiments_branch(&thetas, replicas, threads, stride, base)
        .expect("valid branch grid");
    let branch_secs = start.elapsed().as_secs_f64();

    for p in 0..full.points() {
        assert!(
            branched.point(p) == full.point(p),
            "branch grid diverged from full replay at point {p}"
        );
    }
    println!("  full replay:   {full_secs:>6.2}s wall-clock");
    println!("  suffix replay: {branch_secs:>6.2}s wall-clock (bit-identical grid)");
    println!(
        "  suffix cells: {} | events skipped: {} of {} ({:.0}%) | arrivals skipped: {} of {}",
        stats.suffix_cells,
        stats.events_skipped,
        stats.events_full,
        stats.skip_fraction() * 100.0,
        stats.arrivals_skipped,
        stats.arrivals_total
    );
    compare(
        "branch sweep wall-clock speedup (target >= 2x)",
        ">= 2x",
        &format!("{:.1}x", full_secs / branch_secs.max(1e-9)),
    );
}

fn report(metric: &str, grid: &DifferentialReport<ExperimentReport>, paired: f64, indep: f64) {
    println!("metric: {metric} over {} replicas", grid.replicas());
    println!("  differential sweep (cloned streams): {paired:>6.2}s wall-clock");
    println!("  independent sweep  (fresh streams):  {indep:>6.2}s wall-clock");
}
