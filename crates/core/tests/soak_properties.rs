//! Pins and properties of the open-system soak driver.
//!
//! `conformance.rs` asserts over generated scenarios that a batch-1 soak
//! runs the closed run's operation sequence. This suite checks that reruns
//! agree at any release batch, pins three batch-1 runs against the closed
//! run, and checks what only the soak has: release batching, windows that
//! concatenate to the lifetime books, and a flat live-object high-water
//! mark.

use proptest::prelude::*;

use dias_core::{JobSource, SoakExperiment, WarmupRule};
use dias_des::stats::SampleStats;
use dias_engine::{GangBinPack, JobInstance, JobSpec, StageKind, StageSpec};
use dias_stochastic::Dist;
use rand::rngs::StdRng;
use rand::SeedableRng;

mod common;
use common::oracle::{
    arb_scenario, cases, soak_matches_closed, soak_reruns_are_deterministic, without_degradation,
};
use common::{top_sprint, Faults, Scenario, Widths};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(16)))]

    /// Two soak runs under MSER warm-up are the same simulation at release
    /// batches 1, 3 and 16.
    #[test]
    fn soak_reruns_are_bitwise_deterministic_at_any_batch(s in arb_scenario()) {
        let s = without_degradation(&s);
        soak_reruns_are_deterministic(&s).map_err(|e| format!("{e}\n{s:?}"))?;
    }
}

/// The soak suite's stream: every 6th job high, 8-task maps except every
/// 11th job's 24, and an exponential 4-task reduce, under `GangBinPack`.
fn stream(seed: u64, arrivals: u64, gap: f64) -> Scenario {
    Scenario {
        arrivals,
        gap,
        high_every: 6,
        setup: 0.5,
        shuffle: 0.25,
        widths: Widths::WideEvery(11),
        reduce: Some((4, Dist::exponential(1.0))),
        ..Scenario::new(seed)
    }
}

/// Drops, sprinting, faults and SLOs at once: the batch-1 soak runs the
/// closed run's operation sequence (see `soak_matches_closed`), and the
/// fault schedule changes the slot pool a pinned number of times.
#[test]
fn batch_one_soak_is_bit_identical_to_closed_driver_on_shared_metrics() -> Result<(), String> {
    for (seed, preempt, changes) in [(11u64, false, 100), (12, true, 94), (13, false, 87)] {
        let s = Scenario {
            preempt,
            jobs: 220,
            warmup: 40,
            thetas: Some(vec![0.3, 0.0]),
            sprint: top_sprint(10.0, 60_000.0, 40.0),
            faults: Faults::Renewal(180.0, 50.0, 600.0, seed ^ 0xfa17),
            slos: Some(vec![400.0, 150.0]),
            ..stream(seed, 400, 6.0)
        };
        let exact = soak_matches_closed(&s).map_err(|e| format!("seed {seed}: {e}"))?;
        assert_eq!(exact.capacity_changes, changes, "seed {seed}");
        let measured: u64 = exact.per_class.iter().map(|c| c.completed).sum();
        assert!(measured > 0, "no measured completions (seed {seed})");
    }
    Ok(())
}

#[test]
fn batching_charges_latency_but_preserves_throughput_accounting() {
    let run = |batch: usize| {
        let s = stream(55, 600, 4.0).with(|s| (s.batch, s.jobs, s.warmup) = (batch, 300, 30));
        s.soak().run().expect("soak run")
    };
    let fine = run(1);
    let coarse = run(32);
    assert_eq!(fine.measured_jobs, coarse.measured_jobs);
    // Waiting for a 32-batch boundary delays admission; jobs keep their true
    // arrival stamps, so the delay must surface as added mean response.
    let fine_mean: f64 = (0..2).map(|k| fine.mean_response(k)).sum();
    let coarse_mean: f64 = (0..2).map(|k| coarse.mean_response(k)).sum();
    assert!(
        coarse_mean > fine_mean,
        "batching hid its latency cost: {coarse_mean} <= {fine_mean}"
    );
}

#[test]
fn windows_concatenate_exactly_to_lifetime_books() {
    let report = Scenario {
        jobs: 260,
        batch: 4,
        window_jobs: 37, // deliberately not a divisor: last window partial
        slos: Some(vec![500.0, 200.0]),
        ..stream(21, 500, 5.0)
    }
    .soak()
    .warmup(WarmupRule::Mser { calibration: 80 })
    .run()
    .expect("soak run");

    assert!(report.windows.len() >= 3, "want several windows");
    for k in 0..2 {
        let lifetime = &report.per_class[k];
        let rows = || report.windows.iter().map(|w| &w.per_class[k]);
        let count: u64 = rows().map(|c| c.completed).sum();
        assert_eq!(count, lifetime.completed, "window counts[{k}]");
        let slo: u64 = rows().map(|c| c.slo_attained).sum();
        assert_eq!(Some(slo), lifetime.slo_attained, "window slo counts[{k}]");
        let weighted: f64 = rows().map(|c| c.mean_response * c.completed as f64).sum();
        let (a, b) = (weighted / count as f64, lifetime.response.mean());
        assert!(
            (a - b).abs() <= 1e-9 * a.abs().max(1.0),
            "window mean {a} vs {b}"
        );
    }
    // Window timestamps tile the measured horizon monotonically.
    for pair in report.windows.windows(2) {
        assert!(pair[0].end_secs <= pair[1].start_secs + 1e-12);
        assert_eq!(pair[1].index, pair[0].index + 1);
    }
}

/// Unbounded constant-work source: two classes, fixed interarrival gap, no
/// RNG — the cheapest possible stream for long-horizon memory tests.
#[derive(Debug)]
struct TickSource {
    next_id: u64,
    gap: f64,
    rng: StdRng,
}

impl TickSource {
    fn new(gap: f64) -> Self {
        TickSource {
            next_id: 0,
            gap,
            rng: StdRng::seed_from_u64(4242),
        }
    }
}

impl JobSource for TickSource {
    fn classes(&self) -> usize {
        2
    }

    fn next_job(&mut self) -> Option<JobInstance> {
        let i = self.next_id;
        self.next_id += 1;
        let spec = JobSpec::builder(i, usize::from(i.is_multiple_of(5)))
            .stage(StageSpec::new(StageKind::Map, 4, Dist::constant(2.0)))
            .build();
        let mut inst = JobInstance::sample(&spec, &mut self.rng);
        inst.arrival_secs = i as f64 * self.gap;
        Some(inst)
    }
}

#[test]
fn live_object_high_water_mark_is_flat_in_run_length() {
    let run = |jobs: usize| {
        SoakExperiment::new(TickSource::new(1.0), Box::new(GangBinPack))
            .jobs(jobs)
            .warmup(WarmupRule::Mser { calibration: 200 })
            .window_jobs(jobs / 20)
            .run()
            .expect("soak run")
    };
    let short = run(20_000);
    let long = run(200_000);
    assert_eq!(long.measured_jobs, 200_000);
    // 10× the jobs may not even double the peak live-object count: per-job
    // state must die with the job, and sketches stay logarithmic.
    assert!(
        long.live_high_water < 2 * short.live_high_water,
        "high-water mark grew with run length: {} (200k) vs {} (20k)",
        long.live_high_water,
        short.live_high_water
    );
}
