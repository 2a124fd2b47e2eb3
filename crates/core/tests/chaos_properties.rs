//! Fault-path tests of the multi-job driver.
//!
//! A fault-injected sweep reproduces the sequential loop bit for bit at any
//! thread count. Two pins about faults themselves: an empty trace, SLO
//! counting and an idle degradation controller leave the fault-free run
//! bit-identical, and a fixed failure schedule changes the slot pool a
//! pinned number of times.

use proptest::prelude::*;

use dias_core::{DegradationPolicy, MultiJobReport, Series};

mod common;
use common::oracle::{arb_scenario, cases, multi_sweep_matches_sequential, renewal};
use common::{Faults, Scenario};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(16)))]

    /// Closed multi-job runs under a renewal failure schedule, swept at 1,
    /// 2 and 4 threads, equal the sequential loop, and the schedule changes
    /// the slot pool.
    #[test]
    fn chaos_sweep_is_bitwise_deterministic_across_thread_counts(s in arb_scenario()) {
        let faults = renewal(&s);
        let s = s.with(|s| s.faults = faults);
        multi_sweep_matches_sequential(&s).map_err(|e| format!("{e}\n{s:?}"))?;
    }
}

#[test]
fn empty_trace_slos_and_idle_degradation_are_bit_identical_to_plain_run() {
    let plain = Scenario {
        preempt: true,
        thetas: Some(vec![0.2, 0.0]),
        ..Scenario::new(9)
    };
    // Same fixed θ, plus every fault-path knob that must not fire: an empty
    // fixed trace, SLO counting, and a degradation controller whose base
    // vector is the same θ (it only escalates on capacity loss, which never
    // happens).
    let guarded = Scenario {
        faults: Faults::Fixed(Vec::new()),
        slos: Some(vec![1e9, 1e9]),
        degrade: Some(DegradationPolicy::new(&[0.2, 0.0], &[0.9, 0.5])),
        ..plain.clone()
    };
    let plain = plain.multi().run().expect("valid experiment");
    let mut guarded = guarded.multi().run().expect("valid experiment");
    // The giant SLO targets are met by every completion, and a run without
    // targets counts none; nothing else may differ by a bit.
    for c in &mut guarded.per_class {
        assert_eq!(c.slo_attained, Some(c.completed));
        assert_eq!(c.slo_attainment(), Some(1.0));
        c.slo_attained = None;
    }
    assert!(plain.per_class.iter().all(|c| c.slo_attainment().is_none()));
    assert_eq!(guarded, plain);
    assert_eq!(guarded.capacity_changes, 0);
}

#[test]
fn failures_surface_in_telemetry_and_degradation_escalates_drops() {
    let fixed = Scenario {
        preempt: true,
        thetas: Some(vec![0.2, 0.0]),
        faults: Faults::Renewal(150.0, 40.0, 500.0, 42),
        warmup: 0,
        series: Series::DROP_FRACTION,
        ..Scenario::new(5)
    };
    let degraded = Scenario {
        degrade: Some(DegradationPolicy::new(&[0.2, 0.0], &[0.8, 0.0])),
        ..fixed.clone()
    };
    let fixed = fixed.multi().run().expect("valid experiment");
    let degraded = degraded.multi().run().expect("valid experiment");
    // Failure counters are consistent subsets of the totals.
    assert!(fixed.failure_evictions <= fixed.evictions);
    assert!(fixed.failure_lost_work_secs <= fixed.wasted_work_secs + 1e-9);
    // Literal pins: the number of batches that changed the pool.
    assert_eq!(fixed.capacity_changes, 86);
    assert_eq!(degraded.capacity_changes, 86);
    // The controller only ever raises the low class's drop fraction above
    // its base, and never touches the exact high class.
    let drop = |r: &MultiJobReport, k: usize| r.per_class[k].mean_drop_fraction().unwrap();
    assert!(
        drop(&degraded, 0) >= drop(&fixed, 0) - 1e-12,
        "degradation must not drop below the fixed-θ base"
    );
    assert_eq!(drop(&degraded, 1), 0.0);
}
