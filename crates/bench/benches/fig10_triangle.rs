//! Figure 10 — differential approximation on the triangle-count job.
//!
//! The GraphX-style job has six ShuffleMap stages and one Result stage; task
//! dropping applies to **every ShuffleMap stage** with per-stage ratios
//! {1, 2, 5, 10, 20}% for low-priority jobs, so the effective drop compounds across
//! stages (§5.2.4). Classes have equal job sizes with high:low arrival ratio 3:7.
//!
//! Paper checkpoints: with per-stage ratios of only 5–10%, low-priority mean latency
//! falls by over 50%, and the tails of *both* classes fall by a similar factor.
//!
//! The accuracy side of per-stage dropping (the real triangle-count estimator on an
//! R-MAT web graph) is reported at the end.

use dias_bench::{banner, bench_jobs, compare, pct, print_relative_table, rel, run_policies};
use dias_core::{Policy, Series};
use dias_workloads::graph::{Graph, GraphConfig};
use dias_workloads::triangle_two_priority;

fn main() {
    banner("Figure 10", "triangle count: per-ShuffleMap-stage dropping");
    let jobs = bench_jobs();
    let seed = 42;
    let mut policies = vec![Policy::preemptive(2), Policy::non_preemptive(2)];
    for per_stage_pct in [1.0, 2.0, 5.0, 10.0, 20.0] {
        policies.push(Policy::da_percent_high_to_low(&[0.0, per_stage_pct]));
    }
    let mut others = run_policies(
        triangle_two_priority(0.8, seed),
        policies,
        jobs,
        Series::default(),
    );
    let p = others.remove(0);
    let das = &others[1..];
    print_relative_table(&p, &others, &["low", "high"]);

    println!();
    println!("paper-vs-measured checkpoints:");
    compare(
        "DA(0,5): low mean vs P",
        "over -50%",
        &pct(rel(das[2].mean_response(0), p.mean_response(0))),
    );
    compare(
        "DA(0,10): low mean vs P",
        "over -50%",
        &pct(rel(das[3].mean_response(0), p.mean_response(0))),
    );
    compare(
        "DA(0,10): high tail vs P",
        "similar factor",
        &pct(rel(das[3].p95_response(1), p.p95_response(1))),
    );

    // Accuracy of the compounded per-stage dropping on the real computation.
    println!();
    println!("triangle-count accuracy (R-MAT graph, 6 sampling stages):");
    let graph = Graph::generate(&GraphConfig::google_web_scaled());
    println!(
        "  graph: {} nodes, {} edges, {} exact triangles",
        graph.nodes(),
        graph.edges().len(),
        graph.triangles()
    );
    println!(
        "{:>12} {:>14} {:>10}",
        "per-stage", "effective-drop", "error"
    );
    for per_stage in [0.01f64, 0.02, 0.05, 0.1, 0.2] {
        let effective = 1.0 - (1.0 - per_stage).powi(6);
        let (_, err) = graph.approximate_triangles(per_stage, 6, 99);
        println!(
            "{:>11.0}% {:>13.1}% {:>9.1}%",
            per_stage * 100.0,
            effective * 100.0,
            err
        );
    }
}
