//! Figure 11 — the complete DiAS: differential approximation **and** sprinting.
//!
//! Graph-analytics (triangle-count) jobs of equal size, high:low arrival ratio
//! 3:7. High-priority jobs sprint via DVFS (800 MHz → 2.4 GHz, effective 2.5×
//! speedup, 180 W → 270 W per server); low-priority jobs are approximated.
//!
//! Scenarios:
//! * **(a) limited sprinting** — 22 kJ budget (≈ 35% of high-priority execution
//!   sprinted), sprint starting 65 s after dispatch, budget replenished at 6
//!   sprint-minutes/hour;
//! * **(b) unlimited sprinting** — high-priority jobs sprint for their entire
//!   duration;
//! * **(c) energy** — total energy versus the non-sprinted preemptive baseline `P`.
//!
//! Paper checkpoints: latency improvements of 35–90% for both classes (≈ 90% for
//! low, 40–60% for high); energy reductions of ≈ 15%/26% from sprinting alone
//! (limited/unlimited) growing to ≈ 18.3%/21.6% (limited) and 28.2%/31%
//! (unlimited) for DiAS(0,10)/DiAS(0,20).

use dias_bench::{
    banner, bench_jobs, compare, pct, print_relative_table, recorded, rel, run_policies,
};
use dias_core::{Policy, Series, SprintBudget, SprintPolicy};
use dias_engine::ClusterSpec;
use dias_workloads::triangle_two_priority;

fn limited_sprint() -> SprintPolicy {
    let extra = ClusterSpec::paper_reference().sprint_extra_power_w();
    SprintPolicy::top_class(2, 65.0, SprintBudget::paper_limited(extra))
}

fn unlimited_sprint() -> SprintPolicy {
    SprintPolicy::top_class(2, 0.0, SprintBudget::Unlimited)
}

fn main() {
    banner(
        "Figure 11",
        "complete DiAS on triangle count: latency and energy",
    );
    let jobs = bench_jobs();
    let seed = 42;
    let stream = triangle_two_priority(0.8, seed);

    // All seven policy points replay clones of one stream and are
    // independent: a single parallel sweep covers (a) and (b).
    let mut reports = run_policies(
        stream,
        vec![
            Policy::preemptive(2),
            Policy::non_preemptive(2).with_sprint(limited_sprint()),
            Policy::da_percent_high_to_low(&[0.0, 10.0]).with_sprint(limited_sprint()),
            Policy::da_percent_high_to_low(&[0.0, 20.0]).with_sprint(limited_sprint()),
            Policy::non_preemptive(2).with_sprint(unlimited_sprint()),
            Policy::da_percent_high_to_low(&[0.0, 10.0]).with_sprint(unlimited_sprint()),
            Policy::da_percent_high_to_low(&[0.0, 20.0]).with_sprint(unlimited_sprint()),
        ],
        jobs,
        Series::EXECUTION,
    )
    .into_iter();
    let mut next = || reports.next().expect("7 reports");
    let p = next();
    let (nps_lim, dias10_lim, dias20_lim) = (next(), next(), next());
    let (nps_unl, dias10_unl, dias20_unl) = (next(), next(), next());

    println!();
    println!("--- (a) latency: limited sprinting (22 kJ, sprint after 65 s) ---");
    print_relative_table(
        &p,
        &[nps_lim.clone(), dias10_lim.clone(), dias20_lim.clone()],
        &["low", "high"],
    );

    println!();
    println!("--- (b) latency: unlimited sprinting (sprint from dispatch) ---");
    print_relative_table(
        &p,
        &[nps_unl.clone(), dias10_unl.clone(), dias20_unl.clone()],
        &["low", "high"],
    );

    println!();
    println!("--- (c) energy vs P ---");
    println!(
        "{:<16} {:>12} {:>9} {:>13} {:>9}",
        "policy", "energy[kJ]", "vs P", "dynamic[kJ]", "vs P"
    );
    println!(
        "{:<16} {:>12.0} {:>9} {:>13.0} {:>9}",
        "P",
        p.energy_joules / 1000.0,
        "base",
        p.dynamic_energy_joules() / 1000.0,
        "base"
    );
    let energy_row = |label: &str, r: &dias_core::ExperimentReport| {
        println!(
            "{:<16} {:>12.0} {:>9} {:>13.0} {:>9}",
            label,
            r.energy_joules / 1000.0,
            pct(rel(r.energy_joules, p.energy_joules)),
            r.dynamic_energy_joules() / 1000.0,
            pct(rel(r.dynamic_energy_joules(), p.dynamic_energy_joules()))
        );
    };
    energy_row("NPS (limited)", &nps_lim);
    energy_row("NPS (unlimited)", &nps_unl);
    energy_row("DiAS(0,10) lim", &dias10_lim);
    energy_row("DiAS(0,20) lim", &dias20_lim);
    energy_row("DiAS(0,10) unl", &dias10_unl);
    energy_row("DiAS(0,20) unl", &dias20_unl);

    println!();
    println!("paper-vs-measured checkpoints:");
    compare(
        "(b) DiAS(0,20) low mean vs P",
        "~-90%",
        &pct(rel(dias20_unl.mean_response(0), p.mean_response(0))),
    );
    compare(
        "(b) DiAS(0,20) high mean vs P",
        "-40..-60%",
        &pct(rel(dias20_unl.mean_response(1), p.mean_response(1))),
    );
    compare(
        "(a) DiAS(0,20) high mean vs P",
        "-40..-60%",
        &pct(rel(dias20_lim.mean_response(1), p.mean_response(1))),
    );
    compare(
        "(c) sprint-only dynamic energy (limited)",
        "~-15%",
        &pct(rel(
            nps_lim.dynamic_energy_joules(),
            p.dynamic_energy_joules(),
        )),
    );
    compare(
        "(c) sprint-only dynamic energy (unlimited)",
        "~-26%",
        &pct(rel(
            nps_unl.dynamic_energy_joules(),
            p.dynamic_energy_joules(),
        )),
    );
    compare(
        "(c) DiAS(0,20) dynamic energy (unlimited)",
        "~-31%",
        &pct(rel(
            dias20_unl.dynamic_energy_joules(),
            p.dynamic_energy_joules(),
        )),
    );
    compare(
        "(c) DiAS(0,20) dynamic energy (limited)",
        "~-21.6%",
        &pct(rel(
            dias20_lim.dynamic_energy_joules(),
            p.dynamic_energy_joules(),
        )),
    );
    compare(
        "high-priority sprint time share (limited)",
        "~35% of exec",
        &format!(
            "{:.0}% (sprint {:.0}s)",
            nps_lim.sprint_secs
                / recorded(&nps_lim.class_stats(1).execution)
                    .samples()
                    .iter()
                    .sum::<f64>()
                * 100.0,
            nps_lim.sprint_secs
        ),
    );
}
