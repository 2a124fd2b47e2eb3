//! Table 2 — queueing/execution decomposition under limited sprinting.
//!
//! For the limited-sprinting graph workload of Fig. 11(a), report the mean queueing
//! and execution times of high- and low-priority jobs under sprinted non-preemptive
//! scheduling (`NPS`), `DiAS(0,10)` and `DiAS(0,20)`.
//!
//! Paper values (seconds):
//!
//! | | NPS queue | NPS exec | DiAS(0,10) queue | exec | DiAS(0,20) queue | exec |
//! |---|---|---|---|---|---|---|
//! | High | 70.6 | 99.8 | 70.0 | 100.2 | 55.1 | 99.4 |
//! | Low  | 378.9 | 148.5 | 286.4 | 139.0 | 238.0 | 131.1 |
//!
//! Shape checks: high-priority execution is constant across the three policies
//! (sprinting is identical; approximation never touches the high class); the
//! low-priority execution falls with the drop ratio; queueing falls for *both*
//! classes as the low class shrinks.

use dias_bench::{banner, bench_jobs, compare, recorded, run_policies};
use dias_core::{ExperimentReport, Policy, Series, SprintBudget, SprintPolicy};
use dias_engine::ClusterSpec;
use dias_workloads::triangle_two_priority;

fn limited_sprint() -> SprintPolicy {
    let extra = ClusterSpec::paper_reference().sprint_extra_power_w();
    SprintPolicy::top_class(2, 65.0, SprintBudget::paper_limited(extra))
}

fn row(label: &str, r: &ExperimentReport) {
    println!(
        "{:<12} {:>11.1} {:>10.1} {:>11.1} {:>10.1}",
        label,
        recorded(&r.class_stats(1).queueing).mean(),
        recorded(&r.class_stats(1).execution).mean(),
        recorded(&r.class_stats(0).queueing).mean(),
        recorded(&r.class_stats(0).execution).mean(),
    );
}

fn main() {
    banner(
        "Table 2",
        "mean queueing and execution times under limited sprinting",
    );
    let jobs = bench_jobs();
    let seed = 42;
    let mut reports = run_policies(
        triangle_two_priority(0.8, seed),
        vec![
            Policy::non_preemptive(2).with_sprint(limited_sprint()),
            Policy::da_percent_high_to_low(&[0.0, 10.0]).with_sprint(limited_sprint()),
            Policy::da_percent_high_to_low(&[0.0, 20.0]).with_sprint(limited_sprint()),
        ],
        jobs,
        Series::QUEUEING | Series::EXECUTION,
    )
    .into_iter();
    let (nps, dias10, dias20) = (
        reports.next().expect("3 reports"),
        reports.next().expect("3 reports"),
        reports.next().expect("3 reports"),
    );

    println!(
        "{:<12} {:>11} {:>10} {:>11} {:>10}",
        "policy", "hi-queue[s]", "hi-exec[s]", "lo-queue[s]", "lo-exec[s]"
    );
    row("NPS", &nps);
    row("DiAS(0,10)", &dias10);
    row("DiAS(0,20)", &dias20);

    println!();
    println!("paper-vs-measured checkpoints (shape):");
    let hi_exec_const = {
        let e = [
            recorded(&nps.class_stats(1).execution).mean(),
            recorded(&dias10.class_stats(1).execution).mean(),
            recorded(&dias20.class_stats(1).execution).mean(),
        ];
        (e[0] - e[2]).abs() / e[0] < 0.05
    };
    compare(
        "high-priority execution constant across policies",
        "99.4-100.2 s",
        if hi_exec_const { "constant" } else { "varies" },
    );
    let lo_exec_falls = recorded(&dias20.class_stats(0).execution).mean()
        < recorded(&dias10.class_stats(0).execution).mean()
        && recorded(&dias10.class_stats(0).execution).mean()
            < recorded(&nps.class_stats(0).execution).mean();
    compare(
        "low-priority execution falls with drop",
        "148.5 > 139.0 > 131.1",
        if lo_exec_falls {
            "falls"
        } else {
            "does not fall"
        },
    );
    let queues_fall = recorded(&dias20.class_stats(0).queueing).mean()
        < recorded(&nps.class_stats(0).queueing).mean()
        && recorded(&dias20.class_stats(1).queueing).mean()
            <= recorded(&nps.class_stats(1).queueing).mean() * 1.05;
    compare(
        "queueing falls for both classes",
        "378.9→238.0 / 70.6→55.1",
        if queues_fall {
            "falls"
        } else {
            "does not fall"
        },
    );
    let exec_gap = recorded(&nps.class_stats(0).execution).mean()
        / recorded(&nps.class_stats(1).execution).mean();
    compare(
        "sprinted high executes ≥25% faster than low",
        "99.8 vs 148.5",
        &format!("ratio {exec_gap:.2}"),
    );
}
