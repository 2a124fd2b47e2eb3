//! The conformance oracle: every driver path runs the same simulation.
//!
//! The closed multi-job run, the soak, a federation shard, branch replay and
//! the paper's one-job `Experiment` share one arbiter loop and differ only
//! in what they record. Each identity between two paths is one check here,
//! taking a [`Scenario`]; [`conform`] runs a scenario down every path by
//! running every check, and [`arb_scenario`] generates the scenarios.
//! `conformance.rs` runs [`conform`]; each driver suite runs the checks of
//! its own driver over scenarios narrowed to the case it names. A new
//! driver path is registered here: build it from `Scenario`, add its check
//! and call it from [`conform`].

use proptest::prelude::*;

use dias_core::federation::{FederationExperiment, FederationReport, FederationRunLog, Router};
use dias_core::sweep::{run_differential, run_multi_experiments_branch, run_parallel};
use dias_core::{
    BranchStats, DegradationPolicy, ExperimentError, ExperimentReport, MultiClassStats,
    MultiJobReport, Series, SoakReport, SprintBudget, SprintPolicy, WarmupRule,
};
use dias_des::stats::SampleStats;
use dias_stochastic::Dist;

use super::{top_sprint, Faults, Scenario, Source, Widths};

/// The 4-shard fleet: unequal shard widths, so slot-share partitioning and
/// least-loaded routing see unequal weights.
pub const FLEET: [usize; 4] = [10, 6, 14, 10];

/// Runs a valid `s` down every driver path and asserts each cross-path
/// identity.
pub fn conform(s: &Scenario) -> Result<(), String> {
    multi_sweep_matches_sequential(s)?;
    paper_sweep_matches_sequential(s)?;
    // The soak and the fleet have no degradation setting.
    let plain = without_degradation(s);
    soak_matches_closed(&plain)?;
    soak_reruns_are_deterministic(&plain)?;
    single_shard_matches_closed(&plain)?;
    let (reference, log) = fleet_is_deterministic(&plain)?;
    fleet_books_balance(&plain, &reference, &log)?;
    series_are_recorded_on_request(&plain)?;
    branch_grid_matches_full_replay(s)
}

/// Three replicas of `s`, seeds `s.seed + 0..3`.
fn replicas(s: &Scenario) -> Vec<Scenario> {
    (0..3).map(|r| s.clone().with(|s| s.seed += r)).collect()
}

/// Fails on the first run of `runs` that returned an error, so that two
/// sweeps that fail alike never pass as equal.
fn succeeded<T>(runs: &[Result<T, ExperimentError>]) -> Result<(), String> {
    runs.iter()
        .try_for_each(|r| r.as_ref().map(drop).map_err(|e| e.to_string()))
}

/// A sweep of closed multi-job runs at 1, 2 and 4 threads equals the
/// sequential loop, in order; under a renewal schedule the pool changes, or
/// the fault checks are vacuous.
pub fn multi_sweep_matches_sequential(s: &Scenario) -> Result<(), String> {
    let replicas = replicas(s);
    let sequential: Vec<_> = replicas.iter().map(|r| r.multi().run()).collect();
    succeeded(&sequential)?;
    for threads in [1, 2, 4] {
        let swept = run_parallel(replicas.clone(), threads, |_, r| r.multi().run());
        prop_assert!(swept == sequential, "sweep at {} threads", threads);
    }
    let closed = sequential[0].as_ref().expect("succeeded");
    let faulted = matches!(s.faults, Faults::Renewal(..));
    prop_assert!(
        !faulted || closed.capacity_changes > 0,
        "no capacity change"
    );
    Ok(())
}

/// A sweep of the paper's one-job `Experiment` at 1, 2 and 4 threads equals
/// the sequential loop, in order.
pub fn paper_sweep_matches_sequential(s: &Scenario) -> Result<(), String> {
    let replicas = replicas(s);
    let sequential: Vec<_> = replicas.iter().map(|r| r.experiment().run()).collect();
    succeeded(&sequential)?;
    for threads in [1, 2, 4] {
        let swept = run_parallel(replicas.clone(), threads, |_, r| r.experiment().run());
        prop_assert!(swept == sequential, "paper sweep at {} threads", threads);
    }
    Ok(())
}

/// A soak at batch 1 under a fixed arrival warm-up runs the closed run's
/// operation sequence: engine-side totals and the per-class energy split bit
/// for bit, per-class counts exact, means to summation order, p95 inside the
/// sketch's ε rank bracket. The soak keeps one lifetime book per class in
/// `totals.per_class`, and its energy split is lossless. Returns the closed
/// run's report.
pub fn soak_matches_closed(s: &Scenario) -> Result<MultiJobReport, String> {
    let exact = s.multi().run().map_err(|e| e.to_string())?;
    let soak = s.clone().with(|s| s.batch = 1).soak().run();
    let soak = soak.map_err(|e| e.to_string())?;
    prop_assert_eq!(engine_side(&soak.totals), engine_side(&exact));
    prop_assert_eq!(soak.totals.per_class.len(), exact.per_class.len());
    prop_assert_eq!(
        energy_split(&soak.per_class),
        energy_split(&exact.per_class)
    );
    energy_split_is_lossless(&soak.totals)?;
    let measured: u64 = exact.per_class.iter().map(|c| c.completed).sum();
    prop_assert_eq!(soak.measured_jobs, measured);
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    for (k, (sc, e)) in soak.per_class.iter().zip(&exact.per_class).enumerate() {
        prop_assert_eq!(counts(sc), counts(e));
        for (a, b) in means(sc).into_iter().zip(means(e)) {
            prop_assert!(
                a.is_some() == b.is_some() && close(a.unwrap_or(0.0), b.unwrap_or(0.0)),
                "class {} mean {:?} vs {:?}",
                k,
                a,
                b
            );
        }
        if e.completed == 0 {
            continue;
        }
        prop_assert_eq!(sc.response.max(), e.response.max());
        // The sketch returns an order statistic within ε·n ranks of p95.
        let mut sorted = e.response.samples().to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len() as f64;
        let (rank, eps) = ((0.95 * n).ceil().max(1.0), s.epsilon * n);
        let lo = sorted[((rank - eps).ceil().max(1.0) as usize) - 1];
        let hi = sorted[((rank + eps).floor().min(n).max(1.0) as usize) - 1];
        let p95 = sc.response.p95();
        prop_assert!(
            lo <= p95 && p95 <= hi,
            "p95[{}] {} not in [{}, {}]",
            k,
            p95,
            lo,
            hi
        );
    }
    Ok(exact)
}

/// The bits of a report's engine-side totals and its counts.
fn engine_side<B: SampleStats>(r: &MultiJobReport<B>) -> ([u64; 11], [u64; 4]) {
    let totals = [
        r.horizon_secs,
        r.energy_joules,
        r.idle_energy_joules,
        r.wasted_work_secs,
        r.total_work_secs,
        r.busy_slot_secs,
        r.utilization,
        r.sprint_budget_spent_j,
        r.sprint_budget_replenished_j,
        r.sprint_budget_remaining_j,
        r.failure_lost_work_secs,
    ];
    let slots = r.slots as u64;
    let counts = [r.evictions, r.failure_evictions, r.capacity_changes, slots];
    (totals.map(f64::to_bits), counts)
}

/// `idle + Σ per-class active == energy_joules` to 1e-9 relative: the
/// per-class energy split loses nothing.
fn energy_split_is_lossless<B: SampleStats>(r: &MultiJobReport<B>) -> Result<(), String> {
    let active: f64 = r.per_class.iter().map(|c| c.active_energy_joules).sum();
    let rel = (r.idle_energy_joules + active - r.energy_joules).abs() / r.energy_joules;
    prop_assert!(rel < 1e-9, "energy split off by {}", rel);
    Ok(())
}

/// A class's means of `response` and of every optional series, `None` for a
/// series not recorded.
fn means<B: SampleStats>(c: &MultiClassStats<B>) -> [Option<f64>; 6] {
    let mean = |b: &Option<B>| b.as_ref().map(SampleStats::mean);
    [
        Some(c.response.mean()),
        mean(&c.queueing),
        mean(&c.dispatch_wait),
        mean(&c.reexec_loss),
        mean(&c.execution),
        mean(&c.drop_fraction),
    ]
}

/// The bits of each class's active energy, busy and sprint slot-seconds.
fn energy_split<B: SampleStats>(classes: &[MultiClassStats<B>]) -> Vec<u64> {
    classes
        .iter()
        .flat_map(|c| [c.active_energy_joules, c.busy_slot_secs, c.sprint_slot_secs])
        .map(f64::to_bits)
        .collect()
}

/// A class's completion counts, which every driver books exactly, and its
/// SLO count, `None` when the run set no targets.
fn counts<B: SampleStats>(c: &MultiClassStats<B>) -> ([u64; 4], Option<u64>) {
    let (n, evicted) = (c.response.count(), c.evictions);
    let counts = [n, c.completed, evicted, c.failure_evictions];
    (counts, c.slo_attained)
}

/// Two soak runs under MSER warm-up are the same simulation at release
/// batches 1, 3 and 16.
pub fn soak_reruns_are_deterministic(s: &Scenario) -> Result<(), String> {
    for batch in [1, 3, 16] {
        let batched = s.clone().with(|s| s.batch = batch);
        let mser = WarmupRule::Mser {
            calibration: s.warmup + 10,
        };
        let rerun = || batched.soak().warmup(mser).run();
        let (a, b) = (rerun().map_err(|e| e.to_string())?, rerun().expect("rerun"));
        prop_assert!(a.same_simulation(&b), "soak reruns at batch {}", batch);
    }
    Ok(())
}

/// A one-shard federation whose window reaches the end of the source is the
/// closed run, bit for bit, in its shard report and in its merged totals.
pub fn single_shard_matches_closed(s: &Scenario) -> Result<(), String> {
    let whole = s
        .clone()
        .with(|w| (w.warmup, w.jobs, w.power_cap_w) = (0, w.arrivals as usize, None));
    let mono = whole.multi().run().map_err(|e| e.to_string())?;
    let fed = whole.fleet(&[whole.cluster.workers]).run(2);
    let fed = fed.map_err(|e| e.to_string())?;
    prop_assert_eq!(&fed.routed_jobs, &vec![s.arrivals]);
    // Without faults every job completes inside the unbounded window.
    let drained = matches!(s.faults, Faults::None);
    prop_assert!(
        !drained || fed.completed() == s.arrivals,
        "window lost jobs"
    );
    prop_assert!(
        fed.shards[0] == mono,
        "1-shard fleet diverged from the closed run"
    );
    prop_assert!(fed.totals == mono, "1-shard fleet totals differ");
    let fleet = [fed.horizon_secs, fed.energy_joules, fed.utilization].map(f64::to_bits);
    let closed = [mono.horizon_secs, mono.energy_joules, mono.utilization].map(f64::to_bits);
    prop_assert_eq!(fleet, closed);
    Ok(())
}

/// A 4-shard fleet of `s` at epoch length `epoch`.
fn fleet_at(s: &Scenario, epoch: f64) -> FederationExperiment<Source> {
    s.clone().with(|s| s.epoch_secs = epoch).fleet(&FLEET)
}

/// A 4-shard fleet reports `==` at any thread count and epoch length, and
/// the same epoch log at equal epoch length. Returns the 1-thread report
/// and log at 12 s epochs.
pub fn fleet_is_deterministic(
    s: &Scenario,
) -> Result<(FederationReport, FederationRunLog), String> {
    let at = |epoch: f64| fleet_at(s, epoch);
    let (reference, ref_log) = fleet_reference(s)?;
    for threads in [2, 4, 8] {
        let (report, log) = at(12.0).run_with_log(threads).map_err(|e| e.to_string())?;
        prop_assert!(report == reference, "fleet report at {} threads", threads);
        prop_assert!(log == ref_log, "epoch log at {} threads", threads);
    }
    for epoch in [3.0, 65.0, 1000.0] {
        let report = at(epoch).run(4).map_err(|e| e.to_string())?;
        prop_assert!(report == reference, "fleet report at epoch {}", epoch);
    }
    Ok((reference, ref_log))
}

/// A fleet's books balance: every arrival is routed and delivered, the
/// shards' sprint spend sums to the fleet's bit for bit, a limited budget
/// is never overspent, the fleet's energy split is lossless, its
/// utilization is its busy slot-seconds over the latest horizon times every
/// shard's slots, and the epoch log never runs backwards.
pub fn fleet_books_balance(
    s: &Scenario,
    report: &FederationReport,
    log: &FederationRunLog,
) -> Result<(), String> {
    prop_assert_eq!(report.routed_jobs.iter().sum::<u64>(), s.arrivals);
    let shard_spent: f64 = report.shards.iter().map(|r| r.sprint_budget_spent_j).sum();
    prop_assert_eq!(
        shard_spent.to_bits(),
        report.sprint_budget_spent_j.to_bits()
    );
    energy_split_is_lossless(&report.totals)?;
    let slots: usize = FLEET.iter().map(|&w| w * s.cluster.cores_per_worker).sum();
    let capacity = report.horizon_secs * slots as f64;
    prop_assert_eq!(
        report.utilization.to_bits(),
        (report.busy_slot_secs / capacity).to_bits()
    );
    if let Some(SprintBudget::Limited { initial_j, .. }) = s.sprint.as_ref().map(|p| p.budget) {
        let books = initial_j + report.sprint_budget_replenished_j + 1e-6;
        prop_assert!(report.sprint_budget_spent_j <= books, "fleet overspent");
    }
    for pair in log.epochs.windows(2) {
        prop_assert!(pair[1].delivered >= pair[0].delivered);
        prop_assert!(pair[1].completions >= pair[0].completions);
        prop_assert!(pair[1].events >= pair[0].events);
    }
    prop_assert_eq!(
        log.epochs.last().map(|e| e.delivered),
        Some(s.arrivals as usize)
    );
    Ok(())
}

/// The 1-thread report and epoch log of `s`'s 4-shard fleet at 12 s epochs.
pub fn fleet_reference(s: &Scenario) -> Result<(FederationReport, FederationRunLog), String> {
    fleet_at(s, 12.0).run_with_log(1).map_err(|e| e.to_string())
}

/// Branch replay of a θ grid equals full replay of every cell at strides
/// 1–5 and threads 1 and 3; a scenario that is not branchable falls back to
/// full replay with default stats.
pub fn branch_grid_matches_full_replay(s: &Scenario) -> Result<(), String> {
    let t = s.thetas.clone().unwrap_or_else(|| vec![0.0; 2]);
    let low = |d: f64| vec![t[0] + d, t[1]];
    // Reference, a late-diverging twin, an identical point, an early one.
    let grid = [t.clone(), low(0.05), t.clone(), low(0.25)];
    let base = s.clone().with(|s| s.thetas = None);
    let base = |r: usize| base.clone().with(|s| s.seed += r as u64).multi();
    let full = run_differential(grid.len(), 2, 2, |p, r| base(r).drops(&grid[p]).run())
        .map_err(|e| e.to_string())?;
    for threads in [1, 3] {
        let (branched, stats) = run_multi_experiments_branch(&grid, 2, threads, s.stride, base)
            .map_err(|e| e.to_string())?;
        for p in 0..grid.len() {
            prop_assert!(
                branched.point(p) == full.point(p),
                "point {} at {} threads",
                p,
                threads
            );
        }
        if s.multi().branchable() {
            prop_assert_eq!(stats.suffix_cells, (grid.len() - 1) * 2);
            prop_assert!(stats.events_skipped <= stats.events_full);
        } else {
            prop_assert_eq!(stats, BranchStats::default());
        }
    }
    Ok(())
}

/// On every driver path, a run that records the default series equals the
/// `Series::ALL` run of the same scenario with the optional series taken
/// out: `response`, `completed` and every energy, eviction and work total,
/// bit for bit. The default run holds no optional series and the
/// `Series::ALL` run holds every one. The paths: closed, `Experiment`, soak
/// at batches 1 and 16, fleets of 1 and 4 shards, and a branch grid. The
/// soak's live-object mark counts sketch nodes, so it may only fall.
pub fn series_are_recorded_on_request(s: &Scenario) -> Result<(), String> {
    let all = s.clone().with(|s| s.series = Series::ALL);
    let default = s.clone().with(|s| s.series = Series::default());
    let err = |e: ExperimentError| e.to_string();

    let (d, a) = (
        default.multi().run().map_err(err)?,
        all.multi().run().map_err(err)?,
    );
    recorded_on_request(&d, &a)?;

    let (d, a) = (default.experiment().run(), all.experiment().run());
    let (d, a) = (d.map_err(err)?, a.map_err(err)?);
    presence(&d.per_class, false)?;
    presence(&a.per_class, true)?;
    let bare_paper = ExperimentReport {
        per_class: a.per_class.iter().map(bare).collect(),
        ..a.clone()
    };
    prop_assert!(bare_paper == d, "paper: recording a series changed the run");

    for batch in [1, 16] {
        let soak = |s: &Scenario| s.clone().with(|s| s.batch = batch).soak().run();
        let (d, a) = (soak(&default).map_err(err)?, soak(&all).map_err(err)?);
        recorded_on_request(&d.totals, &a.totals)?;
        let rest = SoakReport {
            totals: d.totals.clone(),
            live_high_water: d.live_high_water,
            ..a.clone()
        };
        prop_assert!(rest.same_simulation(&d), "soak at batch {}", batch);
        prop_assert!(d.live_high_water <= a.live_high_water);
    }

    let single = s
        .clone()
        .with(|w| (w.warmup, w.jobs, w.power_cap_w) = (0, w.arrivals as usize, None));
    for (scenario, workers) in [(s, &FLEET[..]), (&single, &[s.cluster.workers][..])] {
        let fleet = |series| {
            let s = scenario.clone().with(|s| s.series = series);
            s.fleet(workers).run(2).map_err(err)
        };
        let (d, a) = (fleet(Series::default())?, fleet(Series::ALL)?);
        prop_assert_eq!(d.shards.len(), workers.len());
        prop_assert_eq!(&d.routed_jobs, &a.routed_jobs);
        recorded_on_request(&d.totals, &a.totals)?;
        for (d, a) in d.shards.iter().zip(&a.shards) {
            recorded_on_request(d, a)?;
        }
    }

    let t = s.thetas.clone().unwrap_or_else(|| vec![0.0; 2]);
    let grid = [t.clone(), vec![t[0] + 0.25, t[1]]];
    let branch = |s: &Scenario| {
        run_multi_experiments_branch(&grid, 1, 1, s.stride, |_| s.multi()).map_err(err)
    };
    let ((d, _), (a, _)) = (branch(&default)?, branch(&all)?);
    for p in 0..grid.len() {
        prop_assert_eq!(d.point(p).len(), a.point(p).len());
        for (d, a) in d.point(p).iter().zip(a.point(p)) {
            recorded_on_request(d, a)?;
        }
    }
    Ok(())
}

/// `c` without its optional series.
fn bare<B: SampleStats>(c: &MultiClassStats<B>) -> MultiClassStats<B> {
    MultiClassStats {
        queueing: None,
        dispatch_wait: None,
        reexec_loss: None,
        execution: None,
        drop_fraction: None,
        ..c.clone()
    }
}

/// Every class holds every optional series (`all`) or none of them.
fn presence<B: SampleStats>(classes: &[MultiClassStats<B>], all: bool) -> Result<(), String> {
    for c in classes {
        let held = means(c)[1..]
            .iter()
            .map(Option::is_some)
            .collect::<Vec<_>>();
        prop_assert_eq!(held, vec![all; 5]);
    }
    Ok(())
}

/// The default-series report `d` holds no optional series, the
/// `Series::ALL` report `a` holds all of them, and `a` without them is `d`.
fn recorded_on_request<B: SampleStats>(
    d: &MultiJobReport<B>,
    a: &MultiJobReport<B>,
) -> Result<(), String> {
    presence(&d.per_class, false)?;
    presence(&a.per_class, true)?;
    let bare_a = MultiJobReport {
        per_class: a.per_class.iter().map(bare).collect(),
        ..a.clone()
    };
    prop_assert!(bare_a == *d, "recording a series changed the run");
    Ok(())
}

/// `s` without a degradation policy, which the soak and the fleet lack.
pub fn without_degradation(s: &Scenario) -> Scenario {
    s.clone().with(|s| s.degrade = None)
}

/// The sprint policies of the generated scenarios; 0 is none.
pub const SPRINTS: usize = 5;

/// Sprint policy `k` of [`SPRINTS`]: none, unlimited for the top class, or
/// budgeted from dispatch or after a timeout.
pub fn sprint(k: usize) -> Option<SprintPolicy> {
    [
        None,
        Some(SprintPolicy::unlimited_for_top(2)),
        top_sprint(0.0, 30_000.0, 90.0),
        top_sprint(5.0, 30_000.0, 90.0),
        top_sprint(10.0, 60_000.0, 40.0),
    ][k]
        .clone()
}

/// The renewal fault schedule of a generated scenario: MTBF 150 s, MTTR
/// 40 s, over ten seconds per arrival.
pub fn renewal(s: &Scenario) -> Faults {
    Faults::Renewal(150.0, 40.0, 10.0 * s.arrivals as f64, s.seed ^ 0x5eed)
}

/// Scenarios in the shapes of the driver suites: stream shape, scheduler,
/// θ, sprint, faults, SLOs or degradation, window, stride and fleet knobs.
pub fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        (0u64..1000, 0usize..4, 30u64..50, 0usize..4),
        (
            any::<bool>(),
            0usize..4,
            0usize..SPRINTS,
            any::<bool>(),
            0usize..3,
        ),
        (0usize..12, 0usize..20, 1usize..6, 0usize..3, any::<bool>()),
    )
        .prop_map(|(stream, run, knobs)| {
            let (seed, shape, arrivals, gap) = stream;
            let (preempt, theta, sprint_k, faults, scored) = run;
            let (warmup, tail, stride, epoch, least_loaded) = knobs;
            let mut s = Scenario {
                arrivals,
                gap: [2.5, 3.0, 6.0, 7.0][gap],
                preempt,
                thetas: [None, Some(0.05), Some(0.2), Some(0.3)][theta].map(|t| vec![t, 0.0]),
                sprint: sprint(sprint_k),
                slos: (scored == 1).then(|| vec![400.0, 120.0]),
                degrade: (scored == 2).then(|| DegradationPolicy::new(&[0.2, 0.0], &[0.8, 0.0])),
                warmup,
                jobs: (arrivals as usize - warmup).saturating_sub(tail).max(1),
                window_jobs: 7,
                stride,
                epoch_secs: [4.0, 30.0, 500.0][epoch],
                router: [Router::Hash, Router::LeastLoaded][usize::from(least_loaded)],
                power_cap_w: (sprint_k > 0 && least_loaded).then_some(2_000.0),
                ..Scenario::new(seed)
            };
            if faults {
                s.faults = renewal(&s);
            }
            // The stream shapes of the suites this oracle replaced.
            match shape {
                0 => {}
                1 => s.widths = Widths::WideAt(seed % 40),
                2 => {
                    (s.high_every, s.setup, s.shuffle) = (6, 0.5, 0.25);
                    s.widths = Widths::Cycle(&[4, 8, 16, 24]);
                    s.reduce = Some((4, Dist::constant(1.0)));
                }
                _ => {
                    (s.high_every, s.setup, s.shuffle) = (6, 0.5, 0.25);
                    s.widths = Widths::WideEvery(11);
                    s.reduce = Some((4, Dist::exponential(1.0)));
                }
            }
            s
        })
}

/// `PROPTEST_CASES`, or `default` when it is unset.
pub fn cases(default: u32) -> u32 {
    let var = std::env::var("PROPTEST_CASES");
    var.map_or(default, |v| v.parse().unwrap_or(default))
}
