//! Figure 8 — sensitivity analysis of differential approximation.
//!
//! Three variations of the Fig. 7 reference, one parameter changed at a time:
//!
//! * **(a) equal job sizes** — both priorities process the 473 MB dataset. Paper:
//!   low-priority gains grow to ≈ 80%, and the high-priority class improves too
//!   (shorter low jobs mean shorter head-of-line blocking).
//! * **(b) high:low = 9:1** — the arrival ratio inverts; approximation applies to
//!   only 10% of jobs. Paper: gains shrink, the low tail gain falls to ≈ 20%.
//! * **(c) 50% load** — paper: P ≈ NP (the engine is rarely busy on arrival), and
//!   DA(0,20)'s gain comes from processing-time reduction rather than queueing.

use dias_bench::{banner, bench_jobs, compare, pct, print_relative_table, rel, run_policies};
use dias_core::{Policy, Series};
use dias_workloads::{
    equal_size_two_priority, inverted_ratio_two_priority, reference_two_priority,
};

fn scenario(title: &str, stream: dias_workloads::JobStream) -> Vec<dias_core::ExperimentReport> {
    println!();
    println!("--- {title} ---");
    let jobs = bench_jobs();
    // One sweep per scenario: the four policy points run in parallel.
    let reports = run_policies(
        stream,
        vec![
            Policy::preemptive(2),
            Policy::non_preemptive(2),
            Policy::da_percent_high_to_low(&[0.0, 10.0]),
            Policy::da_percent_high_to_low(&[0.0, 20.0]),
        ],
        jobs,
        Series::default(),
    );
    print_relative_table(&reports[0], &reports[1..], &["low", "high"]);
    reports
}

fn main() {
    banner(
        "Figure 8",
        "sensitivity: job sizes, arrival ratio, system load",
    );
    let seed = 42;

    let a = scenario(
        "(a) equal job sizes (both 473 MB)",
        equal_size_two_priority(0.8, seed),
    );
    let b = scenario(
        "(b) high:low arrival ratio 9:1",
        inverted_ratio_two_priority(0.8, seed),
    );
    let c = scenario("(c) 50% system load", reference_two_priority(0.5, seed));

    println!();
    println!("paper-vs-measured checkpoints:");
    compare(
        "(a) DA(0,20) low mean vs P",
        "up to -80%",
        &pct(rel(a[3].mean_response(0), a[0].mean_response(0))),
    );
    compare(
        "(a) high class also improves under DA vs NP",
        "yes",
        if a[3].mean_response(1) < a[1].mean_response(1) {
            "yes"
        } else {
            "no"
        },
    );
    compare(
        "(b) DA(0,20) low tail gain shrinks",
        "~-20%",
        &pct(rel(b[3].p95_response(0), b[0].p95_response(0))),
    );
    compare(
        "(c) NP ≈ P for high class",
        "~0%",
        &pct(rel(c[1].mean_response(1), c[0].mean_response(1))),
    );
    compare(
        "(c) DA(0,20) still helps the low class",
        "similar to reference",
        &pct(rel(c[3].mean_response(0), c[0].mean_response(0))),
    );
}
