//! Sharded federation — thread scaling, epoch-length sensitivity, shard
//! counts.
//!
//! The PR 10 tentpole's harness: a 10k-slot fleet (16 shards × 626 slots)
//! under the PR 5 heterogeneous-width workload scaled to fleet traffic,
//! advanced by `FederationExperiment`'s epoch-synchronised workers. Four
//! sections:
//!
//! * **parity smoke** — a single-shard federation must reproduce the
//!   monolithic `MultiJobExperiment` bit for bit (hard assert);
//! * **thread scaling** — the same fleet at 1/2/4/… worker lanes, every
//!   report asserted bitwise identical, wall clock and speedup printed.
//!   Expected ≥ 1.5× at 4 threads on a multi-core host; advisory only,
//!   since CI may pin this to one core;
//! * **epoch length** — barrier period swept over two orders of magnitude,
//!   reports asserted identical (epochs are semantically inert), barrier
//!   counts and wall clock printed;
//! * **shard count** — the same ~10k slots split 4/8/16/32 ways (different
//!   routing, so *no* identity across rows), wall clock and per-class means
//!   printed;
//! * **recorded samples** — the 16-shard fleet recording the default series
//!   and `Series::ALL`: the exact count and bytes of the samples each report
//!   holds, a memory figure that heap layout cannot move.
//!
//! `DIAS_BENCH_JOBS` scales the arrival count; `DIAS_THREADS` caps the lane
//! count.

use std::time::Instant;

use dias_bench::{banner, scaled, threads};
use dias_core::federation::{FederationExperiment, FederationReport, Router};
use dias_core::{MultiJobExperiment, Series, SprintBudget, SprintPolicy};
use dias_engine::{ClusterSpec, GangBinPack};
use dias_workloads::{heterogeneous_width_fleet, heterogeneous_width_two_priority, JobStream};

const UTIL: f64 = 0.7;
const SEED: u64 = 42;

/// One shard: the paper's two-core servers, `workers` of them.
fn shard_spec(workers: usize) -> ClusterSpec {
    ClusterSpec {
        workers,
        ..ClusterSpec::paper_reference()
    }
}

/// `shards` equal shards totalling ≈ 10k slots (16 × 313 workers × 2 cores
/// = 10 016).
fn fleet(shards: usize) -> Vec<ClusterSpec> {
    let workers = (16 * 313) / shards;
    vec![shard_spec(workers); shards]
}

/// The fleet-rate arrival stream for a given shard layout.
fn fleet_stream(shards: &[ClusterSpec]) -> JobStream {
    let total_workers: usize = shards.iter().map(|s| s.workers).sum();
    heterogeneous_width_fleet(&shard_spec(total_workers), UTIL, SEED)
}

/// The fleet-wide sprint coupling: the soak harness's 22 kJ budget scaled to
/// fleet slots, partitioned per shard by the federation itself.
fn fleet_sprint(total_slots: usize) -> SprintPolicy {
    let spec = ClusterSpec::paper_reference();
    let ratio = total_slots as f64 / spec.slots() as f64;
    SprintPolicy::top_class(
        2,
        65.0,
        SprintBudget::limited(
            22_000.0 * ratio,
            4.0 * spec.sprint_extra_slot_power_w() * 6.0 * 60.0 / 3600.0 * ratio,
        ),
    )
}

/// Builds the standard fleet federation over `arrivals` jobs.
fn federation(
    shards: Vec<ClusterSpec>,
    arrivals: usize,
    epoch: f64,
) -> FederationExperiment<JobStream> {
    let total_slots: usize = shards.iter().map(ClusterSpec::slots).sum();
    let stream = fleet_stream(&shards);
    FederationExperiment::new(stream, shards, |_| Box::new(GangBinPack))
        .router(Router::Hash)
        .epoch_secs(epoch)
        .drops(&[0.2, 0.0])
        .sprint(fleet_sprint(total_slots))
        .arrivals(arrivals)
}

/// Samples a fleet report holds: every recorded series of the fleet-wide
/// classes and of each shard's classes.
fn held_samples(report: &FederationReport) -> usize {
    let shards = report.shards.iter().flat_map(|s| &s.per_class);
    shards
        .chain(&report.per_class)
        .map(|c| c.live_nodes())
        .sum()
}

fn print_row(label: &str, report: &FederationReport, wall: f64, base_wall: Option<f64>) {
    let speedup = base_wall.map_or_else(String::new, |b| format!("  {:>5.2}x", b / wall));
    println!(
        "{label:<18} {:>8} jobs  low {:>7.1}s  high {:>6.1}s  util {:>5.1}%  wall {:>7.2}s{speedup}",
        report.completed(),
        report.mean_response(0),
        report.mean_response(1),
        report.utilization * 100.0,
        wall,
    );
}

fn main() {
    banner(
        "Federation",
        "sharded epoch-synchronised fleet: threads, epochs, shard counts",
    );
    let arrivals = scaled(40_000);
    let lanes = threads();
    println!("{arrivals} arrivals (DIAS_BENCH_JOBS-scaled), up to {lanes} lanes (DIAS_THREADS)\n");

    // ---- parity smoke: 1 shard == monolithic experiment, bit for bit ----
    // Both runs consume the same *finite* job vector: the monolithic stop
    // rule ("n measured completions") only coincides with the federation's
    // run-to-drain semantics when the source itself ends at n jobs.
    let parity_jobs = scaled(1_500);
    let parity_source = || {
        use dias_core::JobSource;
        let mut stream = heterogeneous_width_two_priority(UTIL, SEED);
        let jobs = (0..parity_jobs)
            .map(|_| stream.next_job().expect("stream is endless"))
            .collect();
        dias_core::VecJobSource::new(jobs, 2)
    };
    let mono = MultiJobExperiment::new(parity_source(), Box::new(GangBinPack))
        .warmup(0)
        .jobs(parity_jobs)
        .drops(&[0.2, 0.0])
        .run()
        .expect("valid experiment");
    let fed = FederationExperiment::new(
        parity_source(),
        vec![ClusterSpec::paper_reference()],
        |_| Box::new(GangBinPack),
    )
    .epoch_secs(120.0)
    .drops(&[0.2, 0.0])
    .run(lanes)
    .expect("valid federation");
    assert!(
        fed.shards[0] == mono,
        "single-shard federation must be bit-identical to the monolithic run"
    );
    println!("parity: 1-shard federation == monolithic report over {parity_jobs} jobs  [ok]\n");

    // ---- thread scaling on the 16-shard, 10k-slot fleet ----
    banner("federation/threads", "16 shards x 626 slots, epoch 60 s");
    let mut lane_counts = vec![1usize, 2, 4];
    if lanes > 4 {
        lane_counts.push(lanes);
    }
    let mut reference: Option<(FederationReport, f64)> = None;
    for &t in &lane_counts {
        let start = Instant::now();
        let report = federation(fleet(16), arrivals, 60.0)
            .run(t)
            .expect("valid federation");
        let wall = start.elapsed().as_secs_f64();
        match &reference {
            None => {
                print_row(&format!("{t} thread(s)"), &report, wall, None);
                reference = Some((report, wall));
            }
            Some((ref_report, base_wall)) => {
                assert!(
                    &report == ref_report,
                    "federation report diverged at {t} threads"
                );
                print_row(&format!("{t} thread(s)"), &report, wall, Some(*base_wall));
            }
        }
    }
    println!("(reports bitwise identical at every lane count; >=1.5x expected at 4 threads on a multi-core host)\n");

    // ---- epoch-length sensitivity ----
    banner(
        "federation/epochs",
        "barrier period sweep, 16 shards, 4 lanes",
    );
    let epoch_lanes = lanes.min(4);
    let mut epoch_ref: Option<FederationReport> = None;
    for epoch in [5.0f64, 30.0, 120.0, 600.0] {
        let start = Instant::now();
        let (report, log) = federation(fleet(16), arrivals, epoch)
            .run_with_log(epoch_lanes)
            .expect("valid federation");
        let wall = start.elapsed().as_secs_f64();
        println!(
            "epoch {epoch:>6.0}s  {:>6} barriers  wall {wall:>7.2}s",
            log.epochs.len()
        );
        match &epoch_ref {
            None => epoch_ref = Some(report),
            Some(r) => assert!(
                &report == r,
                "federation report changed with epoch length {epoch}"
            ),
        }
    }
    println!("(reports bitwise identical at every epoch length)\n");

    // ---- shard-count scaling at fixed fleet size ----
    banner("federation/shards", "~10k slots split 4/8/16/32 ways");
    for shards in [4usize, 8, 16, 32] {
        let start = Instant::now();
        let report = federation(fleet(shards), arrivals, 60.0)
            .run(lanes)
            .expect("valid federation");
        let wall = start.elapsed().as_secs_f64();
        print_row(&format!("{shards} shards"), &report, wall, None);
    }
    println!("\n(routing differs per layout, so rows are not comparable bit-for-bit — shapes should agree)");

    // ---- samples the report holds, by recorded series ----
    println!();
    banner(
        "federation/samples",
        "16 shards: samples held by the report, per recorded series set",
    );
    let run = |series| {
        federation(fleet(16), arrivals, 60.0)
            .record(series)
            .run(lanes)
            .expect("valid federation")
    };
    let (default, all) = (run(Series::default()), run(Series::ALL));
    for (label, report) in [("default", &default), ("Series::ALL", &all)] {
        let samples = held_samples(report);
        let bytes = samples * std::mem::size_of::<f64>();
        println!("{label:<12} {samples:>10} samples  {bytes:>11} bytes");
    }
    let same = default
        .per_class
        .iter()
        .zip(&all.per_class)
        .all(|(d, a)| d.response == a.response);
    assert!(
        same,
        "recording more series must not change the response times"
    );
}
