//! Concurrent-workload harness — multi-job gang scheduling with per-class
//! energy accounting.
//!
//! The paper's evaluation runs one job at a time (its engine's invariant);
//! this harness exercises the scenario its *premise* implies: jobs of both
//! priority classes coexisting on the machine, competing for slot subsets.
//! The [`sharded_two_priority`] stream offers the reference workload's bytes
//! as narrow jobs (8-/4-wide gangs on the 20-slot cluster) and five policy
//! points run over identically seeded copies of it:
//!
//! * `FIFO` — one job at a time, the paper's discipline (baseline);
//! * `GangBinPack` — disjoint slot subsets, best-fit packed, FCFS backfill;
//! * `PriorityPreempt` — gang packing plus lower-class eviction, the
//!   preemptive baseline made concurrent (watch the waste column);
//! * `GangBinPack + DA(0,20)` — dropping 20% of low-class map tasks shrinks
//!   low-class gangs *and* their energy, without touching the high class;
//! * `… + sprint` — additionally sprints whenever a high-class job runs (the
//!   DiAS story with concurrency).
//!
//! Per class the table reports mean/p95 response, the active energy
//! attributed by the engine's per-job meter, and the approximation loss the
//! class's drop fraction maps to on the paper's Fig. 6 curve.
//!
//! A second sweep runs the **per-gang sprint frontier** (the Fig. 7/8/9-style
//! policy axis under concurrency) on the heterogeneous-width workload, where
//! 12-wide low gangs and 4-wide high gangs coexist and frequency domains
//! genuinely diverge: no sprint, unlimited per-gang sprint, budgeted sprint
//! from dispatch, and budgeted sprint after the paper's 65 s timeout. The
//! differential effect to look for: budgeted sprinting improves high-class
//! mean response while low-class active energy stays within noise of the
//! no-sprint run (low gangs never sprint — only scheduling shifts).

use dias_bench::{banner, bench_jobs, compare, recorded};
use dias_core::multi::default_accuracy_curve;
use dias_core::{run_parallel, MultiJobExperiment, MultiJobReport, Series};
use dias_core::{SprintBudget, SprintPolicy};
use dias_engine::{ClusterSpec, Fifo, GangBinPack, PriorityPreempt};
use dias_models::accuracy::AccuracyCurve;
use dias_workloads::{heterogeneous_width_two_priority, sharded_two_priority};

fn print_report(label: &str, r: &MultiJobReport, curve: &dyn AccuracyCurve) {
    println!("{label}");
    for (k, name) in ["low", "high"].iter().enumerate() {
        let c = &r.per_class[k];
        let drop = *recorded(&c.mean_drop_fraction());
        let loss = *recorded(&c.approximation_loss_pct(curve));
        println!(
            "  {name:>5}: mean {:>7.1}s  p95 {:>7.1}s  active {:>8.0} kJ  drop {:>4.1}%  loss {:>4.1}%",
            r.mean_response(k),
            r.p95_response(k),
            c.active_energy_joules / 1e3,
            drop * 100.0,
            loss,
        );
    }
    println!(
        "  waste {:.1}%  evictions {}  utilization {:.1}%  cluster energy {:.0} kJ",
        r.waste_fraction() * 100.0,
        r.evictions,
        r.utilization * 100.0,
        r.energy_joules / 1e3
    );
}

fn main() {
    banner(
        "Concurrent workloads",
        "multi-job scheduling over slot subsets, per-class energy",
    );
    let jobs = bench_jobs();
    let seed = 42;
    let util = 0.8;

    // Five policy points over identically seeded streams, fanned across cores.
    let experiments = vec![
        MultiJobExperiment::new(sharded_two_priority(util, seed), Box::new(Fifo)).jobs(jobs),
        MultiJobExperiment::new(sharded_two_priority(util, seed), Box::new(GangBinPack)).jobs(jobs),
        MultiJobExperiment::new(sharded_two_priority(util, seed), Box::new(PriorityPreempt))
            .jobs(jobs),
        MultiJobExperiment::new(sharded_two_priority(util, seed), Box::new(GangBinPack))
            .drops(&[0.2, 0.0])
            .jobs(jobs),
        MultiJobExperiment::new(sharded_two_priority(util, seed), Box::new(GangBinPack))
            .drops(&[0.2, 0.0])
            .sprint(SprintPolicy::unlimited_for_top(2))
            .jobs(jobs),
    ];
    let labels = [
        "FIFO (paper's one-job-at-a-time)",
        "GangBinPack",
        "PriorityPreempt",
        "GangBinPack + DA(0,20)",
        "GangBinPack + DA(0,20) + sprint",
    ];
    let reports: Vec<MultiJobReport> = run_parallel(experiments, dias_bench::threads(), |_, e| {
        e.record(Series::DROP_FRACTION).run()
    })
    .into_iter()
    .map(|r| r.expect("experiment configuration is valid"))
    .collect();

    let curve = default_accuracy_curve();
    for (label, report) in labels.iter().zip(&reports) {
        print_report(label, report, &curve);
        println!();
    }

    println!("checkpoints (expected shapes, not paper values — this scenario is new):");
    let (fifo, gang, preempt, da) = (&reports[0], &reports[1], &reports[2], &reports[3]);
    compare(
        "gang vs FIFO: low-class mean response",
        "shorter (jobs coexist)",
        &format!(
            "{:.1}s vs {:.1}s",
            gang.mean_response(0),
            fifo.mean_response(0)
        ),
    );
    compare(
        "preempt: resource waste",
        "> 0% (evictions return)",
        &format!("{:.1}%", preempt.waste_fraction() * 100.0),
    );
    compare(
        "gang / preempt: high-class mean response",
        "preempt faster",
        &format!(
            "{:.1}s vs {:.1}s",
            gang.mean_response(1),
            preempt.mean_response(1)
        ),
    );
    compare(
        "DA(0,20): low-class active energy vs exact gang",
        "lower (fewer tasks run)",
        &format!(
            "{:.0} kJ vs {:.0} kJ",
            da.per_class[0].active_energy_joules / 1e3,
            gang.per_class[0].active_energy_joules / 1e3
        ),
    );
    let fifo_split: f64 = fifo.per_class.iter().map(|c| c.active_energy_joules).sum();
    compare(
        "per-class active energy sums to cluster active",
        "exact split",
        &format!(
            "{:.0} kJ vs {:.0} kJ",
            fifo_split / 1e3,
            (fifo.energy_joules - fifo.idle_energy_joules) / 1e3
        ),
    );

    // ---- per-gang sprint frontier on heterogeneous gang widths ----
    println!();
    banner(
        "Per-gang sprint frontier",
        "budgeted/timeout sprint policies over heterogeneous-width gangs",
    );
    let spec = ClusterSpec::paper_reference();
    // The paper's limited scenario scaled to a 4-wide high gang: a gang
    // sprinting costs width × 45 W extra, replenished at 6 min/h of a
    // full-gang sprint.
    let budget = || {
        SprintBudget::limited(
            22_000.0,
            4.0 * spec.sprint_extra_slot_power_w() * 6.0 * 60.0 / 3600.0,
        )
    };
    let sprint_points = vec![
        MultiJobExperiment::new(
            heterogeneous_width_two_priority(util, seed),
            Box::new(GangBinPack),
        )
        .drops(&[0.2, 0.0])
        .jobs(jobs),
        MultiJobExperiment::new(
            heterogeneous_width_two_priority(util, seed),
            Box::new(GangBinPack),
        )
        .drops(&[0.2, 0.0])
        .sprint(SprintPolicy::unlimited_for_top(2))
        .jobs(jobs),
        MultiJobExperiment::new(
            heterogeneous_width_two_priority(util, seed),
            Box::new(GangBinPack),
        )
        .drops(&[0.2, 0.0])
        .sprint(SprintPolicy::top_class(2, 0.0, budget()))
        .jobs(jobs),
        MultiJobExperiment::new(
            heterogeneous_width_two_priority(util, seed),
            Box::new(GangBinPack),
        )
        .drops(&[0.2, 0.0])
        .sprint(SprintPolicy::top_class(2, 65.0, budget()))
        .jobs(jobs),
    ];
    let sprint_labels = [
        "no sprint",
        "unlimited per-gang sprint",
        "budgeted sprint (22 kJ, T=0)",
        "budgeted sprint (22 kJ, T=65s)",
    ];
    let frontier: Vec<MultiJobReport> =
        run_parallel(sprint_points, dias_bench::threads(), |_, e| {
            e.record(Series::DROP_FRACTION).run()
        })
        .into_iter()
        .map(|r| r.expect("experiment configuration is valid"))
        .collect();
    for (label, r) in sprint_labels.iter().zip(&frontier) {
        print_report(label, r, &curve);
        println!(
            "  sprint slot-secs {:.0}  budget spent {:.1} kJ  replenished {:.1} kJ  remaining {:.1} kJ",
            r.per_class.iter().map(|c| c.sprint_slot_secs).sum::<f64>(),
            r.sprint_budget_spent_j / 1e3,
            r.sprint_budget_replenished_j / 1e3,
            r.sprint_budget_remaining_j / 1e3,
        );
        println!();
    }

    println!("frontier checkpoints (the differential effect under a budget):");
    let (nosprint, budgeted) = (&frontier[0], &frontier[2]);
    compare(
        "budgeted sprint: high-class mean response",
        "improves vs no sprint",
        &format!(
            "{:.1}s vs {:.1}s",
            budgeted.mean_response(1),
            nosprint.mean_response(1)
        ),
    );
    compare(
        "budgeted sprint: low-class active energy",
        "within noise of no-sprint (low gangs never sprint)",
        &format!(
            "{:.0} kJ vs {:.0} kJ ({:+.2}%)",
            budgeted.per_class[0].active_energy_joules / 1e3,
            nosprint.per_class[0].active_energy_joules / 1e3,
            100.0
                * (budgeted.per_class[0].active_energy_joules
                    - nosprint.per_class[0].active_energy_joules)
                / nosprint.per_class[0].active_energy_joules,
        ),
    );
    compare(
        "budget charge: spent vs unlimited sprint slot-secs",
        "budget caps the sprint supply",
        &format!(
            "{:.1} kJ spent, {:.0} sprint slot-secs (vs {:.0} unlimited)",
            budgeted.sprint_budget_spent_j / 1e3,
            budgeted
                .per_class
                .iter()
                .map(|c| c.sprint_slot_secs)
                .sum::<f64>(),
            frontier[1]
                .per_class
                .iter()
                .map(|c| c.sprint_slot_secs)
                .sum::<f64>(),
        ),
    );
}
