//! Chaos harness — per-class SLO attainment under elastic capacity.
//!
//! The paper's harnesses assume a fixed, perfectly reliable slot pool; this
//! one injects slot failures, autoscaling drains and stragglers and measures
//! what the differential-approximation knob buys when capacity shrinks. The
//! evaluation frame is BlinkDB's bounded-error/bounded-response-time
//! contract: per-class response-time SLOs, derived from a fault-free
//! calibration run, scored as attainment fractions under each fault regime.
//!
//! Three sections:
//!
//! 1. **Failure-rate sweep** — a per-slot crash/repair renewal
//!    ([`slot_failure_trace`]) at MTTR 150 s across an MTBF grid. At each
//!    failure rate two policies run over the *identical* trace (the fault
//!    analogue of common random numbers): the fixed-θ baseline (the drop
//!    vector a fault-free run would use) and the graceful-degradation
//!    controller ([`DegradationPolicy`]), which escalates low-class drops
//!    toward a cap as capacity shrinks. The differential effect to look for:
//!    high-class SLO attainment stays *above* the fixed-θ baseline while the
//!    low class absorbs the loss as extra approximation, not collapse.
//! 2. **Autoscaling square wave** — [`autoscaling_trace`] periodically drains
//!    the top 4 slots and repairs them: drains never kill work (zero failure
//!    evictions), capacity ramps are visible as capacity changes.
//! 3. **Stragglers** — [`straggler_trace`] slows slots 2× for exponential
//!    episodes: responses stretch with zero evictions (a straggling gang
//!    waves at its slowest slot).

use dias_bench::{banner, bench_jobs, compare, recorded};
use dias_core::multi::default_accuracy_curve;
use dias_core::{run_parallel, DegradationPolicy, MultiJobExperiment, MultiJobReport, Series};
use dias_engine::{FaultTrace, GangBinPack};
use dias_models::accuracy::AccuracyCurve;
use dias_workloads::{
    autoscaling_trace, sharded_two_priority, slot_failure_trace, straggler_trace, JobStream,
};

const SLOTS: usize = 20;
const MTTR_SECS: f64 = 150.0;
/// Fixed-θ baseline: the drop vector every fault-free harness point uses.
const BASE_THETA: [f64; 2] = [0.2, 0.0];
/// Degradation cap: the low class may absorb up to 80% drops; the high class
/// stays exact at any capacity.
const MAX_THETA: [f64; 2] = [0.8, 0.0];

fn experiment(
    jobs: usize,
    util: f64,
    seed: u64,
    slos: &[f64],
    trace: FaultTrace,
    degrade: bool,
) -> MultiJobExperiment<JobStream> {
    let e = MultiJobExperiment::new(sharded_two_priority(util, seed), Box::new(GangBinPack))
        .jobs(jobs)
        .slos(slos)
        .faults(trace)
        .record(Series::DROP_FRACTION);
    if degrade {
        e.degrade(DegradationPolicy::new(&BASE_THETA, &MAX_THETA))
    } else {
        e.drops(&BASE_THETA)
    }
}

/// SLO attainment of `c` in percent; every run here sets SLO targets.
fn slo_pct(c: &dias_core::MultiClassStats) -> f64 {
    *recorded(&c.slo_attainment()) * 100.0
}

fn print_report(label: &str, r: &MultiJobReport, curve: &dyn AccuracyCurve) {
    println!("{label}");
    for (k, name) in ["low", "high"].iter().enumerate() {
        let c = &r.per_class[k];
        let drop = *recorded(&c.mean_drop_fraction());
        let loss = *recorded(&c.approximation_loss_pct(curve));
        println!(
            "  {name:>5}: mean {:>7.1}s  p95 {:>7.1}s  SLO {:>5.1}%  drop {:>4.1}%  loss {:>4.1}%",
            r.mean_response(k),
            r.p95_response(k),
            slo_pct(c),
            drop * 100.0,
            loss,
        );
    }
    println!(
        "  evictions {} ({} by failures)  lost work {:.0} s ({:.0} s to failures)  capacity changes {}",
        r.evictions,
        r.failure_evictions,
        r.wasted_work_secs,
        r.failure_lost_work_secs,
        r.capacity_changes,
    );
}

#[allow(clippy::too_many_lines)]
fn main() {
    banner(
        "Chaos — elastic capacity",
        "slot failures, autoscaling drains, stragglers vs per-class SLOs",
    );
    let jobs = bench_jobs();
    let seed = 42;
    let util = 0.6;
    let curve = default_accuracy_curve();

    // ---- calibration: fault-free run derives the SLO targets ----
    let calib = MultiJobExperiment::new(sharded_two_priority(util, seed), Box::new(GangBinPack))
        .drops(&BASE_THETA)
        .jobs(jobs)
        .run()
        .expect("calibration run is fault-free");
    // Bounded-response-time contract: each class must answer within 1.25× its
    // fault-free p95 — tight enough that capacity loss shows, loose enough
    // that the fault-free run itself attains ~100%.
    let slos = [calib.p95_response(0) * 1.25, calib.p95_response(1) * 1.25];
    let horizon = calib.horizon_secs;
    println!(
        "calibration: horizon {:.0} s, SLO targets low {:.0} s / high {:.0} s (1.25 x fault-free p95)\n",
        horizon, slos[0], slos[1]
    );

    // ---- section 1: SLO attainment vs failure rate, fixed θ vs degradation ----
    // Per-slot MTBF grid at MTTR 150 s: expected unavailable fraction is
    // MTTR/(MTBF+MTTR) ≈ 6%, 11%, 20% of the pool.
    let mtbf_grid = [2400.0, 1200.0, 600.0];
    let mut experiments = Vec::new();
    let mut labels = Vec::new();
    let mut fail_rates = Vec::new();
    for &mtbf in &mtbf_grid {
        // 1.5× horizon margin: failures keep arriving while the tail of the
        // measured window drains.
        let trace = slot_failure_trace(SLOTS, horizon * 1.5, mtbf, MTTR_SECS, seed);
        let fails = trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, dias_engine::FaultKind::Fail))
            .count();
        let rate = fails as f64 / (horizon * 1.5) * 3600.0;
        fail_rates.push(rate);
        for degrade in [false, true] {
            experiments.push(experiment(jobs, util, seed, &slos, trace.clone(), degrade));
            labels.push(format!(
                "MTBF {mtbf:>5.0} s ({rate:.1} failures/h cluster-wide) — {}",
                if degrade {
                    "graceful degradation"
                } else {
                    "fixed θ"
                }
            ));
        }
    }
    let reports: Vec<MultiJobReport> =
        run_parallel(experiments, dias_bench::threads(), |_, e| e.run())
            .into_iter()
            .map(|r| r.expect("experiment configuration is valid"))
            .collect();
    for (label, r) in labels.iter().zip(&reports) {
        print_report(label, r, &curve);
        println!();
    }

    println!("SLO attainment vs failure rate (high class | low class):");
    println!("  failures/h   fixed θ        degradation");
    for (i, rate) in fail_rates.iter().enumerate() {
        let (fixed, degr) = (&reports[2 * i], &reports[2 * i + 1]);
        println!(
            "  {rate:>8.1}   {:>5.1}% | {:>5.1}%   {:>5.1}% | {:>5.1}%",
            slo_pct(&fixed.per_class[1]),
            slo_pct(&fixed.per_class[0]),
            slo_pct(&degr.per_class[1]),
            slo_pct(&degr.per_class[0]),
        );
    }
    println!();

    println!("checkpoints (the degradation contract under capacity loss):");
    let worst = &reports[reports.len() - 2];
    compare(
        "failures surface in telemetry",
        "failure evictions > 0, capacity changes > 0",
        &format!(
            "{} failure evictions, {} capacity changes",
            worst.failure_evictions, worst.capacity_changes
        ),
    );
    // The contract point: the moderate failure rate, where high-class service
    // is contended-for rather than capacity-bound (at the extreme rate both
    // policies lose the same raw slots and the high class ties).
    let (fixed, degr) = (&reports[2], &reports[3]);
    compare(
        &format!(
            "high-class SLO attainment at {:.1} failures/h",
            fail_rates[1]
        ),
        "degradation strictly above fixed θ",
        &format!(
            "{:.1}% vs {:.1}%",
            slo_pct(&degr.per_class[1]),
            slo_pct(&fixed.per_class[1])
        ),
    );
    compare(
        "low-class drops absorb the loss",
        "degradation mean drop above the fixed-θ baseline",
        &format!(
            "{:.1}% vs {:.1}% (cap 80% of map tasks)",
            recorded(&degr.per_class[0].drop_fraction).mean() * 100.0,
            recorded(&fixed.per_class[0].drop_fraction).mean() * 100.0
        ),
    );

    // ---- section 2: autoscaling square wave ----
    println!();
    banner(
        "Autoscaling drains",
        "periodic scale-down of the top 4 slots, graceful (drain) removal",
    );
    let wave = autoscaling_trace(SLOTS, 4, horizon / 4.0, horizon / 10.0, horizon * 1.5);
    let auto_reports: Vec<MultiJobReport> = run_parallel(
        vec![
            experiment(jobs, util, seed, &slos, wave.clone(), false),
            experiment(jobs, util, seed, &slos, wave, true),
        ],
        dias_bench::threads(),
        |_, e| e.run(),
    )
    .into_iter()
    .map(|r| r.expect("experiment configuration is valid"))
    .collect();
    for (label, r) in ["fixed θ", "graceful degradation"]
        .iter()
        .zip(&auto_reports)
    {
        print_report(label, r, &curve);
        println!();
    }
    compare(
        "drains never kill in-flight work",
        "0 failure evictions in both runs",
        &format!(
            "{} and {}",
            auto_reports[0].failure_evictions, auto_reports[1].failure_evictions
        ),
    );

    // ---- section 3: stragglers ----
    println!();
    banner(
        "Stragglers",
        "2x slot slowdowns, exponential episodes, no capacity loss",
    );
    let slow = straggler_trace(SLOTS, horizon * 1.5, 600.0, 120.0, 2.0, seed);
    let straggle = MultiJobExperiment::new(sharded_two_priority(util, seed), Box::new(GangBinPack))
        .drops(&BASE_THETA)
        .slos(&slos)
        .faults(slow)
        .jobs(jobs)
        .record(Series::DROP_FRACTION)
        .run()
        .expect("straggler run is valid");
    print_report("fixed θ + stragglers", &straggle, &curve);
    println!();
    compare(
        "stragglers stretch responses without evictions",
        "slower than fault-free, 0 evictions",
        &format!(
            "low mean {:.1}s vs {:.1}s fault-free, {} evictions",
            straggle.mean_response(0),
            calib.mean_response(0),
            straggle.evictions
        ),
    );
    compare(
        "stragglers do not change the schedulable pool",
        "0 capacity changes",
        &format!("{} capacity changes", straggle.capacity_changes),
    );
}
