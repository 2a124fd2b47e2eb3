//! Determinism and bit-identity of fault-stream experiments.
//!
//! Two pins from the elastic-capacity tentpole:
//!
//! 1. **Replay determinism** — a [`FaultTrace`] is generated once and
//!    replayed by every sweep point: fanning fault-injected experiments
//!    across [`run_parallel`] threads must reproduce the sequential
//!    loop bit for bit at any thread count (property-tested over trace
//!    seeds).
//! 2. **Zero-fault bit-identity** — an *empty* trace, SLO targets and a
//!    degradation controller that never escalates must leave the run
//!    bit-identical to the plain fixed-θ experiment: fault support may not
//!    perturb a single float on the fault-free path.

use proptest::prelude::*;

use dias_core::sweep::run_parallel;
use dias_core::{DegradationPolicy, MultiJobExperiment, MultiJobReport, VecJobSource};
use dias_des::SeedSequence;
use dias_engine::{
    FaultTrace, GangBinPack, JobInstance, JobSpec, PriorityPreempt, StageKind, StageSpec,
};
use dias_stochastic::{Dist, Ph};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Two-class workload with exponential task times; every 8th job is high
/// priority.
fn workload(seed: u64, n: u64, gap: f64) -> VecJobSource {
    let mut rng = StdRng::seed_from_u64(seed);
    let jobs = (0..n)
        .map(|i| {
            let class = usize::from(i % 8 == 0);
            let spec = JobSpec::builder(i, class)
                .setup(Dist::constant(1.0))
                .shuffle(Dist::constant(0.5))
                .stage(StageSpec::new(StageKind::Map, 30, Dist::exponential(2.0)))
                .stage(StageSpec::new(StageKind::Reduce, 6, Dist::constant(1.0)))
                .build();
            let mut inst = JobInstance::sample(&spec, &mut rng);
            inst.arrival_secs = i as f64 * gap;
            inst
        })
        .collect();
    VecJobSource::new(jobs, 2)
}

/// A PH up/down renewal failure schedule over the paper cluster's 20 slots:
/// MTBF 150 s, MTTR 40 s per slot.
fn renewal_trace(seed: u64) -> FaultTrace {
    let up = Ph::exponential(1.0 / 150.0).expect("valid rate");
    let down = Ph::exponential(1.0 / 40.0).expect("valid rate");
    FaultTrace::renewal(20, 500.0, &up, &down, SeedSequence::new(seed))
}

/// The chaos sweep points: plain gang packing under failures, preemption
/// under failures with SLOs, and the degradation controller on top.
fn experiments(trace_seed: u64) -> Vec<MultiJobExperiment<VecJobSource>> {
    let trace = renewal_trace(trace_seed);
    vec![
        MultiJobExperiment::new(workload(5, 80, 7.0), Box::new(GangBinPack))
            .faults(trace.clone())
            .jobs(60),
        MultiJobExperiment::new(workload(5, 80, 7.0), Box::new(PriorityPreempt))
            .faults(trace.clone())
            .slos(&[400.0, 120.0])
            .drops(&[0.2, 0.0])
            .jobs(60),
        MultiJobExperiment::new(workload(5, 80, 7.0), Box::new(PriorityPreempt))
            .faults(trace)
            .slos(&[400.0, 120.0])
            .degrade(DegradationPolicy::new(&[0.2, 0.0], &[0.8, 0.0]))
            .jobs(60),
    ]
}

/// Bitwise comparison of the measurement surface of two reports, fault
/// telemetry included.
fn assert_identical(a: &MultiJobReport, b: &MultiJobReport) {
    assert_eq!(a.scheduler, b.scheduler);
    assert_eq!(a.horizon_secs, b.horizon_secs);
    assert_eq!(a.energy_joules, b.energy_joules);
    assert_eq!(a.wasted_work_secs, b.wasted_work_secs);
    assert_eq!(a.evictions, b.evictions);
    assert_eq!(a.failure_evictions, b.failure_evictions);
    assert_eq!(a.failure_lost_work_secs, b.failure_lost_work_secs);
    assert_eq!(a.capacity_changes, b.capacity_changes);
    for (ca, cb) in a.per_class.iter().zip(&b.per_class) {
        assert_eq!(ca.completed, cb.completed);
        assert_eq!(ca.response.samples(), cb.response.samples());
        assert_eq!(ca.queueing.samples(), cb.queueing.samples());
        assert_eq!(ca.drop_fraction.samples(), cb.drop_fraction.samples());
        assert_eq!(ca.evictions, cb.evictions);
        assert_eq!(ca.failure_evictions, cb.failure_evictions);
        assert_eq!(ca.active_energy_joules, cb.active_energy_joules);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn chaos_sweep_is_bitwise_deterministic_across_thread_counts(seed in 0u64..1000) {
        let sequential: Vec<MultiJobReport> = experiments(seed)
            .into_iter()
            .map(|e| e.run().expect("valid experiment"))
            .collect();
        // Failures happened somewhere in the sweep, or the pin is vacuous.
        prop_assert!(sequential.iter().any(|r| r.failure_evictions > 0 ||
            r.capacity_changes > 0));
        for threads in [1, 4] {
            let swept = run_parallel(experiments(seed), threads, |_, e| e.run());
            prop_assert_eq!(swept.len(), sequential.len());
            for (got, want) in swept.iter().zip(&sequential) {
                let got = got.as_ref().expect("valid experiment");
                assert_identical(got, want);
                // Same SLO config on both sides: attainment counts match too.
                for (cg, cw) in got.per_class.iter().zip(&want.per_class) {
                    prop_assert_eq!(cg.slo_attained, cw.slo_attained);
                }
            }
        }
    }
}

#[test]
fn empty_trace_slos_and_idle_degradation_are_bit_identical_to_plain_run() {
    let plain = MultiJobExperiment::new(workload(9, 80, 7.0), Box::new(PriorityPreempt))
        .drops(&[0.2, 0.0])
        .jobs(60)
        .run()
        .expect("valid experiment");
    // Same fixed θ, plus every fault-path knob that must not fire: an empty
    // trace, SLO counting, and a degradation controller whose base vector is
    // the same θ (it only escalates on capacity loss, which never happens).
    let guarded = MultiJobExperiment::new(workload(9, 80, 7.0), Box::new(PriorityPreempt))
        .faults(FaultTrace::empty())
        .slos(&[1e9, 1e9])
        .degrade(DegradationPolicy::new(&[0.2, 0.0], &[0.9, 0.5]))
        .jobs(60)
        .run()
        .expect("valid experiment");
    assert_identical(&plain, &guarded);
    assert_eq!(guarded.capacity_changes, 0);
    assert_eq!(guarded.failure_evictions, 0);
    // The giant SLO targets are met by every completion.
    for c in &guarded.per_class {
        assert_eq!(c.slo_attained, c.completed);
        assert_eq!(c.slo_attainment(), 1.0);
    }
}

#[test]
fn failures_surface_in_telemetry_and_degradation_escalates_drops() {
    let trace = renewal_trace(42);
    let fixed = MultiJobExperiment::new(workload(5, 80, 7.0), Box::new(PriorityPreempt))
        .faults(trace.clone())
        .drops(&[0.2, 0.0])
        .jobs(60)
        .warmup(0)
        .run()
        .expect("valid experiment");
    let degraded = MultiJobExperiment::new(workload(5, 80, 7.0), Box::new(PriorityPreempt))
        .faults(trace)
        .degrade(DegradationPolicy::new(&[0.2, 0.0], &[0.8, 0.0]))
        .jobs(60)
        .warmup(0)
        .run()
        .expect("valid experiment");
    // Failure counters are consistent subsets of the totals.
    assert!(fixed.failure_evictions <= fixed.evictions);
    assert!(fixed.failure_lost_work_secs <= fixed.wasted_work_secs + 1e-9);
    assert!(fixed.capacity_changes > 0, "faults must be visible");
    // Literal pins: the number of batches that changed the pool.
    assert_eq!(fixed.capacity_changes, 86);
    assert_eq!(degraded.capacity_changes, 86);
    // The controller only ever raises the low class's drop fraction above
    // its base, and never touches the exact high class.
    assert!(
        degraded.per_class[0].mean_drop_fraction()
            >= fixed.per_class[0].mean_drop_fraction() - 1e-12,
        "degradation must not drop below the fixed-θ base"
    );
    assert_eq!(degraded.per_class[1].mean_drop_fraction(), 0.0);
}
