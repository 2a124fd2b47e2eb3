//! Ablation — eviction semantics and task-time variability.
//!
//! Two design choices DESIGN.md calls out:
//!
//! 1. **Eviction semantics.** Production preemption re-executes evicted jobs from
//!    scratch (*repeat*); most queueing models assume *resume*. The Monte-Carlo
//!    queue evaluator runs the same workload under non-preemptive, preemptive-resume,
//!    preemptive-repeat-identical and repeat-resample, showing that "P" is only as
//!    bad as the paper observes because of the repeat semantics — and that the
//!    high class cannot tell the difference.
//!
//! 2. **Task-time variability.** The engine's gains from dropping are
//!    wave-quantized when tasks are deterministic and smooth when they vary; the
//!    sweep shows the low-class execution gain of DA(0,20) across task-time SCVs.

use dias_bench::{banner, bench_jobs, pct, recorded, rel};
use dias_core::sweep::run_mc_replicated;
use dias_core::{Experiment, Policy, Series};
use dias_engine::ClusterSpec;
use dias_models::mc::{Discipline, McQueue};
use dias_stochastic::{Dist, MarkedPoisson, Ph};
use dias_workloads::{JobProfile, JobStream};

fn eviction_semantics() {
    println!("--- 1. eviction semantics (MC queue, 2 classes, rho = 0.75) ---");
    println!(
        "{:<26} {:>10} {:>10} {:>8}",
        "discipline", "low-mean", "high-mean", "waste"
    );
    let base = |discipline| McQueue {
        arrivals: MarkedPoisson::new(vec![0.0045, 0.0008]).unwrap(),
        service: vec![
            Ph::erlang(4, 4.0 / 140.0).unwrap(),
            Ph::erlang(4, 4.0 / 120.0).unwrap(),
        ],
        sprint: vec![None, None],
        discipline,
        servers: 1,
        jobs: 60_000,
        warmup: 6_000,
        seed: 3,
    };
    for (label, d) in [
        ("non-preemptive", Discipline::NonPreemptive),
        ("preemptive-resume", Discipline::PreemptiveResume),
        (
            "preemptive-repeat-ident",
            Discipline::PreemptiveRepeatIdentical,
        ),
        (
            "preemptive-repeat-resample",
            Discipline::PreemptiveRepeatResample,
        ),
    ] {
        // Four deterministic replications fanned across whatever cores the
        // machine has: the replica split is fixed, so the printed numbers are
        // identical at any thread count (and on a single core).
        let r =
            run_mc_replicated(&base(d), 4, dias_bench::threads()).expect("stable configuration");
        println!(
            "{:<26} {:>9.1}s {:>9.1}s {:>7.1}%",
            label,
            r.mean_response(0),
            r.mean_response(1),
            r.waste_fraction * 100.0
        );
    }
    println!("repeat semantics are what make eviction expensive; resume barely differs");
    println!("from non-preemptive for the low class at this load.");
}

fn variability_sweep() {
    println!();
    println!("--- 2. task-time variability: DA(0,20) low-class exec gain vs SCV ---");
    println!(
        "{:>8} {:>12} {:>12} {:>10}",
        "scv", "NP exec[s]", "DA exec[s]", "gain"
    );
    let jobs = bench_jobs() / 4;
    for scv in [0.0001, 0.02, 0.08, 0.3, 1.0] {
        let profile = |name: &str| JobProfile {
            name: name.into(),
            input_mb: 1117.0,
            setup: Dist::constant(12.0),
            shuffle: Dist::constant(8.0),
            setup_data_fraction: 0.5,
            stages: vec![
                dias_engine::StageSpec::new(
                    dias_engine::StageKind::Map,
                    50,
                    Dist::lognormal(33.4, scv),
                ),
                dias_engine::StageSpec::new(
                    dias_engine::StageKind::Reduce,
                    10,
                    Dist::lognormal(12.0, scv),
                ),
            ],
        };
        let stream = |seed| {
            JobStream::with_target_utilization(
                vec![profile("low"), profile("high")],
                vec![0.9, 0.1],
                &ClusterSpec::paper_reference(),
                0.7,
                seed,
            )
        };
        let run = |policy| {
            Experiment::new(stream(1), policy)
                .jobs(jobs)
                .record(Series::EXECUTION)
                .run()
                .expect("valid experiment")
        };
        let np = run(Policy::non_preemptive(2));
        let da = run(Policy::da_percent_high_to_low(&[0.0, 20.0]));
        let np_exec = recorded(&np.class_stats(0).execution).mean();
        let da_exec = recorded(&da.class_stats(0).execution).mean();
        println!(
            "{scv:>8.4} {np_exec:>12.1} {da_exec:>12.1} {:>10}",
            pct(rel(da_exec, np_exec))
        );
    }
    println!("20% of 50 tasks is exactly one wave: the gain exists even at SCV→0");
    println!("(whole-wave drop) and grows smoother as task times vary.");
}

fn main() {
    banner(
        "Ablation",
        "eviction semantics and task-time variability (DESIGN.md)",
    );
    eviction_semantics();
    variability_sweep();
}
