//! Open-system soak — millions of jobs at bounded memory.
//!
//! The ROADMAP's north star talks about "heavy traffic from millions of
//! users"; every other harness here is a closed, fixed-N experiment whose
//! `SampleSet`s buffer one observation per job. This harness runs the
//! `multi_job/soak_1m` scenario: the PR 5 heterogeneous-width workload
//! streamed **open-loop** through `SoakExperiment` for a million jobs
//! (`DIAS_BENCH_JOBS`-scaled), with per-class statistics held in streaming
//! moments + Greenwald–Khanna sketches (ε = 1%) instead of buffers.
//!
//! Three headline variants — plain, budgeted sprint, slot-failure chaos —
//! then the two claims the issue pins:
//!
//! * **flat memory**: the live-object high-water mark (engine calendar +
//!   pending + running + driver metadata + sprint timers + arrival batch +
//!   sketch nodes + window rows) of the full run must stay < 2× the
//!   10×-shorter run's — per-job state must die with the job. The mark
//!   does not see report fields or inputs, so every run also prints the
//!   process's peak RSS (`VmHWM`) so far;
//! * **throughput**: simulated completions per wall-clock second, expected
//!   ≥ 10⁵ on the full-size run.
//!
//! The closing section sweeps the `arrival_batch` knob (the tpchlike
//! logical/physical batching analogue): admitting k arrivals per release
//! amortizes driver work but delays early jobs to the batch boundary, and
//! since jobs keep true arrival stamps that delay surfaces as mean response
//! — the throughput/latency trade, printed as a curve.

use dias_bench::{banner, compare, recorded, scaled};
use dias_core::{Series, SoakExperiment, SoakReport, SprintBudget, SprintPolicy, WarmupRule};
use dias_engine::{ClusterSpec, GangBinPack};
use dias_workloads::{heterogeneous_width_two_priority, slot_failure_trace, JobStream};

const UTIL: f64 = 0.7;
const SEED: u64 = 42;

fn source() -> JobStream {
    heterogeneous_width_two_priority(UTIL, SEED)
}

fn budget() -> SprintBudget {
    let spec = ClusterSpec::paper_reference();
    // The multi_job frontier's budget: a 4-wide high gang sprinting costs
    // width × extra watts, replenished at 6 min/h of a full-gang sprint.
    SprintBudget::limited(
        22_000.0,
        4.0 * spec.sprint_extra_slot_power_w() * 6.0 * 60.0 / 3600.0,
    )
}

fn base(jobs: usize) -> SoakExperiment<JobStream> {
    SoakExperiment::new(source(), Box::new(GangBinPack))
        .jobs(jobs)
        .warmup(WarmupRule::Mser { calibration: 0 })
        .drops(&[0.2, 0.0])
        .record(Series::DROP_FRACTION)
}

/// The process's peak resident set so far (`VmHWM` in `/proc/self/status`)
/// in MB, or "n/a" where that file is unreadable.
fn peak_rss() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            kb.trim().strip_suffix("kB")?.trim().parse::<f64>().ok()
        })
        .map_or_else(|| "n/a".to_string(), |kb| format!("{:.1} MB", kb / 1024.0))
}

fn print_soak(label: &str, r: &SoakReport) {
    println!("{label}");
    for (k, name) in ["low", "high"].iter().enumerate() {
        let c = &r.per_class[k];
        use dias_des::stats::SampleStats;
        println!(
            "  {name:>5}: n {:>8}  mean {:>7.1}s  p50 {:>7.1}s  p95 {:>7.1}s  p99 {:>7.1}s  drop {:>4.1}%",
            c.completed,
            c.response.mean(),
            c.response.quantile(0.5),
            c.response.quantile(0.95),
            c.response.quantile(0.99),
            recorded(&c.drop_fraction).mean() * 100.0,
        );
    }
    println!(
        "  {:.2}M events  horizon {:.2e} s  energy {:.2e} kJ  {} windows  warmup cut {}  HWM {} live objects  process VmHWM {}",
        r.events as f64 / 1e6,
        r.totals.horizon_secs,
        r.totals.energy_joules / 1e3,
        r.windows.len(),
        r.warmup_jobs,
        r.live_high_water,
        peak_rss(),
    );
    println!(
        "  wall {:.1}s  => {:.2e} simulated jobs/sec",
        r.wall_clock_secs, r.sim_jobs_per_sec
    );
}

fn main() {
    banner(
        "Open-system soak",
        "1M-job streaming runs, O(1) memory per class, batching curve",
    );
    let jobs = scaled(1_000_000);
    println!("multi_job/soak_1m at {jobs} measured jobs (DIAS_BENCH_JOBS-scaled)\n");

    // ---- the memory yardstick: a 10x-shorter run first ----
    let short_jobs = (jobs / 10).max(3);
    let short = base(short_jobs).run().expect("short soak");
    print_soak(&format!("soak_{short_jobs} (memory yardstick)"), &short);
    println!();

    // ---- headline: plain / sprint / chaos at full length ----
    let plain = base(jobs).run().expect("plain soak");
    print_soak("soak_1m plain (DA 20/0)", &plain);
    println!();

    let sprint = base(jobs)
        .sprint(SprintPolicy::top_class(2, 65.0, budget()))
        .run()
        .expect("sprint soak");
    print_soak("soak_1m + budgeted sprint (22 kJ, T=65s)", &sprint);
    println!(
        "  sprint budget: spent {:.1} kJ, replenished {:.1} kJ\n",
        sprint.totals.sprint_budget_spent_j / 1e3,
        sprint.totals.sprint_budget_replenished_j / 1e3,
    );

    // Failure schedule sized off the short run's horizon: same MTBF/MTTR
    // flavor as the chaos harness, margin for the 10x-longer horizon.
    let fault_horizon = short.totals.horizon_secs * 12.0;
    let trace = slot_failure_trace(20, fault_horizon, 2_400.0, 150.0, SEED);
    let chaos = base(jobs).faults(trace).run().expect("chaos soak");
    print_soak("soak_1m + slot failures (MTBF 2400s, MTTR 150s)", &chaos);
    println!(
        "  {} failure evictions, {:.0} s lost to failures, {} capacity changes\n",
        chaos.totals.failure_evictions,
        chaos.totals.failure_lost_work_secs,
        chaos.totals.capacity_changes,
    );

    // ---- the two pinned claims ----
    println!("checkpoints:");
    compare(
        "live-object high-water mark, 1m vs 1m/10 run",
        "< 2x (flat in run length)",
        &format!(
            "{} vs {} ({:.2}x)",
            plain.live_high_water,
            short.live_high_water,
            plain.live_high_water as f64 / short.live_high_water as f64
        ),
    );
    // The flatness claim is asymptotic: below ~10⁵ jobs the sketches and the
    // MSER calibration buffer are still climbing toward their logarithmic
    // plateau, so the hard gate only arms at full scale (smoke runs print
    // the ratio above but don't assert on it).
    if jobs >= 100_000 {
        assert!(
            plain.live_high_water < 2 * short.live_high_water,
            "memory grew with run length: HWM {} at {jobs} jobs vs {} at {short_jobs}",
            plain.live_high_water,
            short.live_high_water
        );
    }
    compare(
        "simulated jobs per wall-clock second",
        ">= 1e5 at full size",
        &format!("{:.2e}", plain.sim_jobs_per_sec),
    );

    // ---- arrival-batch throughput/latency curve ----
    println!();
    banner(
        "Batching knob",
        "k arrivals admitted per release: driver amortization vs charged latency",
    );
    let curve_jobs = (jobs / 5).max(3);
    println!(
        "{:>6}  {:>14}  {:>12}  {:>12}  {:>10}",
        "batch", "sim jobs/sec", "low mean", "high mean", "HWM"
    );
    // The four batch sizes are independent runs: fan them across the
    // DIAS_THREADS-aware worker pool. Results come back in input order.
    let curve = dias_core::run_parallel(vec![1usize, 4, 16, 64], dias_bench::threads(), |_, k| {
        (
            k,
            base(curve_jobs)
                .arrival_batch(k)
                .run()
                .expect("batched soak"),
        )
    });
    for (k, r) in curve {
        println!(
            "{k:>6}  {:>14.3e}  {:>11.1}s  {:>11.1}s  {:>10}",
            r.sim_jobs_per_sec,
            r.mean_response(0),
            r.mean_response(1),
            r.live_high_water,
        );
    }
    println!("\n(batching delays admission to the batch boundary; jobs keep true arrival stamps, so the delay lands in mean response.)");
}
