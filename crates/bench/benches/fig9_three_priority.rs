//! Figure 9 — differential approximation with three priority classes.
//!
//! Setup (§5.2.3): total arrival rate 2.3 jobs/min with high-medium-low ratio
//! 1-4-5, ≈ 80% system load. Policies: `P` (absolute), `NP`, `DA(0,10,20)` and
//! `DA(0,20,40)` relative to `P`.
//!
//! Paper checkpoints: resource waste ≈ 16% under `P` and zero otherwise; tail
//! latency reduced for all three classes by up to 60%; the mean latency gain is
//! larger for low than for medium priority; high-priority mean latency slightly
//! increases.

use dias_bench::{banner, bench_jobs, compare, pct, print_relative_table, rel, run_policies};
use dias_core::{Policy, Series};
use dias_workloads::three_priority_stream;

fn main() {
    banner(
        "Figure 9",
        "three-priority system: P vs NP / DA(0,10,20) / DA(0,20,40)",
    );
    let jobs = bench_jobs();
    let seed = 42;
    let stream = three_priority_stream(seed);

    // The four policy points are independent: one parallel sweep.
    let mut reports = run_policies(
        stream,
        vec![
            Policy::preemptive(3),
            Policy::non_preemptive(3),
            Policy::da_percent_high_to_low(&[0.0, 10.0, 20.0]),
            Policy::da_percent_high_to_low(&[0.0, 20.0, 40.0]),
        ],
        jobs,
        Series::default(),
    )
    .into_iter();
    let (p, np, da12, da24) = (
        reports.next().expect("4 reports"),
        reports.next().expect("4 reports"),
        reports.next().expect("4 reports"),
        reports.next().expect("4 reports"),
    );

    print_relative_table(
        &p,
        &[np, da12.clone(), da24.clone()],
        &["low", "middle", "high"],
    );

    println!();
    println!("paper-vs-measured checkpoints:");
    compare(
        "P: resource waste",
        "~16%",
        &format!("{:.1}%", p.waste_fraction() * 100.0),
    );
    compare(
        "DA(0,10,20): low tail vs P",
        "up to -60%",
        &pct(rel(da12.p95_response(0), p.p95_response(0))),
    );
    compare(
        "DA(0,10,20): middle tail vs P",
        "up to -60%",
        &pct(rel(da12.p95_response(1), p.p95_response(1))),
    );
    compare(
        "DA(0,10,20): high tail vs P",
        "up to -60%",
        &pct(rel(da12.p95_response(2), p.p95_response(2))),
    );
    let low_gain = -rel(da24.mean_response(0), p.mean_response(0));
    let mid_gain = -rel(da24.mean_response(1), p.mean_response(1));
    compare(
        "DA reduces low mean more than middle mean",
        "yes",
        if low_gain > mid_gain { "yes" } else { "no" },
    );
}
