//! Figure 7 — differential approximation on the two-priority reference setup.
//!
//! Reference parameters (§5.2.1): low:high arrival ratio 9:1, job sizes
//! 1117 MB / 473 MB, 80% system load. Policies: preemptive `P` (absolute values),
//! then `NP`, `DA(0,10)` and `DA(0,20)` as relative differences to `P` for mean
//! (solid bars) and 95th-percentile (shaded bars) latency.
//!
//! Paper headlines to reproduce in shape:
//! * under `P`, high-priority queueing ≈ 0 while low-priority queueing is huge;
//! * `NP` improves low-priority ≈ 20% while degrading high-priority ≈ +80%;
//! * `DA(0,20)` improves low-priority mean/tail ≈ 65% at only ≈ +10% high-priority
//!   mean latency;
//! * resource waste under `P` ≈ 4%, zero for every non-preemptive policy.

use dias_bench::{
    banner, bench_jobs, compare, pct, print_relative_table, recorded, rel, run_policies,
};
use dias_core::{Policy, Series};
use dias_workloads::reference_two_priority;

fn main() {
    banner(
        "Figure 7",
        "two-priority reference: P (absolute) vs NP / DA(0,10) / DA(0,20)",
    );
    let jobs = bench_jobs();
    let seed = 42;
    let stream = reference_two_priority(0.8, seed);

    // All four policy points are independent: fan them across cores.
    let mut reports = run_policies(
        stream,
        vec![
            Policy::preemptive(2),
            Policy::non_preemptive(2),
            Policy::da_percent_high_to_low(&[0.0, 10.0]),
            Policy::da_percent_high_to_low(&[0.0, 20.0]),
        ],
        jobs,
        Series::QUEUEING,
    )
    .into_iter();
    let (p, np, da10, da20) = (
        reports.next().expect("4 reports"),
        reports.next().expect("4 reports"),
        reports.next().expect("4 reports"),
        reports.next().expect("4 reports"),
    );

    print_relative_table(&p, &[np.clone(), da10, da20.clone()], &["low", "high"]);

    println!();
    println!("paper-vs-measured checkpoints:");
    compare(
        "P: resource waste",
        "~4%",
        &format!("{:.1}%", p.waste_fraction() * 100.0),
    );
    compare(
        "P: high-priority mean queueing",
        "0.03 s",
        &format!("{:.2} s", recorded(&p.class_stats(1).queueing).mean()),
    );
    compare(
        "P: low-priority mean queueing",
        "310 s",
        &format!("{:.0} s", recorded(&p.class_stats(0).queueing).mean()),
    );
    compare(
        "NP: low mean latency vs P",
        "~-20%",
        &pct(rel(np.mean_response(0), p.mean_response(0))),
    );
    compare(
        "NP: high mean latency vs P",
        "~+80%",
        &pct(rel(np.mean_response(1), p.mean_response(1))),
    );
    compare(
        "DA(0,20): low mean latency vs P",
        "~-65%",
        &pct(rel(da20.mean_response(0), p.mean_response(0))),
    );
    compare(
        "DA(0,20): high mean latency vs P",
        "~+10%",
        &pct(rel(da20.mean_response(1), p.mean_response(1))),
    );
    compare(
        "DA(0,20): accuracy loss of low class",
        "15% (Fig 6)",
        "see fig6_accuracy",
    );
}
