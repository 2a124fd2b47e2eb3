//! Invalid run settings come back as `ExperimentError::InvalidConfig`.
//!
//! Every setter of the four builders stores its value unchecked; the run
//! method checks it and names the setter in the error. The branch runners
//! name their own arguments the same way. Each case below sends one invalid
//! value through every builder or runner that accepts it (`common::rejects`)
//! and runs it under `catch_unwind`, so a panic anywhere fails the test.
//! `conformance.rs` generates such settings too; these are the named cases.

use dias_core::sweep::run_multi_experiments_branch;
use dias_core::{DegradationPolicy, Series};
use dias_engine::FaultTrace;
use dias_stochastic::Dist;

mod common;
use common::{assert_invalid, hand_sprint, rejects, Scenario, Widths};

/// Twenty small two-class jobs two seconds apart, ten measured from the
/// first, on one paper cluster per shard.
fn small() -> Scenario {
    Scenario {
        arrivals: 20,
        gap: 2.0,
        high_every: 4,
        setup: 0.0,
        shuffle: 0.0,
        widths: Widths::Cycle(&[8]),
        map: Dist::constant(1.0),
        reduce: None,
        warmup: 0,
        jobs: 10,
        ..Scenario::new(1)
    }
}

#[test]
fn drop_ratio_outside_unit_interval() {
    // The `Policy` constructors check θ themselves; a hand-built policy
    // reaches the paper's run unchecked.
    for theta in [f64::NAN, -0.1, 1.5] {
        rejects(
            &small().with(|s| s.thetas = Some(vec![theta, 0.0])),
            "drops",
        );
    }
}

#[test]
fn slo_target_not_positive() {
    for target in [0.0, f64::NAN] {
        rejects(
            &small().with(|s| s.slos = Some(vec![100.0, target])),
            "slos",
        );
    }
}

/// A hand-built policy skips the checks of `SprintPolicy::top_class` and
/// `SprintBudget::limited`; the run repeats them instead of panicking at the
/// first dispatch of the sprinting class.
#[test]
fn sprint_policy_negative_or_nan() {
    let nan = f64::NAN;
    for (timeout, initial_j, replenish_w) in [
        (nan, 30_000.0, 90.0),
        (-5.0, 30_000.0, 90.0),
        (0.0, nan, 90.0),
        (0.0, -1.0, 90.0),
        (0.0, 30_000.0, nan),
        (0.0, 30_000.0, -1.0),
    ] {
        let policy = hand_sprint(timeout, initial_j, replenish_w);
        rejects(&small().with(|s| s.sprint = Some(policy)), "sprint");
    }
}

#[test]
fn job_class_outside_the_source() {
    rejects(&small().with(|s| s.high_class = 2), "source");
}

#[test]
fn soak_arrival_batch_and_epsilon() {
    rejects(&small().with(|s| s.batch = 0), "arrival_batch");
    for epsilon in [0.0, 0.5] {
        rejects(&small().with(|s| s.epsilon = epsilon), "epsilon");
    }
}

#[test]
fn federation_shape() {
    for epoch_secs in [0.0, f64::NAN, f64::INFINITY] {
        rejects(&small().with(|s| s.epoch_secs = epoch_secs), "epoch_secs");
    }
    for cap in [f64::NAN, -1.0] {
        rejects(&small().with(|s| s.power_cap_w = Some(cap)), "power_cap_w");
    }
    assert_invalid("shards", "no shards", || small().fleet(&[]).run(1));
    assert_invalid("shard_faults", "one trace for two shards", || {
        let fleet = small().fleet(&[10, 10]);
        fleet.shard_faults(vec![FaultTrace::empty()]).run(1)
    });
}

#[test]
fn branch_runner_settings() {
    let s = small();
    assert_invalid("stride", "recording stride 0", || {
        s.multi().run_recording(0)
    });
    assert_invalid("point_thetas", "branch sweep without points", || {
        run_multi_experiments_branch(&[], 1, 1, 4, |_| s.multi())
    });
    assert_invalid("stride", "branch sweep stride 0", || {
        run_multi_experiments_branch(&[vec![0.0, 0.0]], 1, 1, 0, |_| s.multi())
    });
    // Degradation and SLO scoring disable branching; the runners that need a
    // branchable configuration name the setting that disabled it.
    let (_, trace) = s.multi().run_recording(4).expect("branchable reference");
    let degrade =
        small().with(|s| s.degrade = Some(DegradationPolicy::new(&[0.2, 0.0], &[0.8, 0.0])));
    assert_invalid("degrade", "recording a degrading run", || {
        degrade.multi().run_recording(4)
    });
    assert_invalid("degrade", "resuming a degrading run", || {
        degrade.multi().run_from(&trace)
    });
    let slos = small().with(|s| s.slos = Some(vec![100.0, 100.0]));
    assert_invalid("slos", "recording an SLO run", || {
        slos.multi().run_recording(4)
    });
    assert_invalid("slos", "resuming an SLO run", || {
        slos.multi().run_from(&trace)
    });
    // The resumed books are the reference's, so a point must record the
    // series its reference recorded.
    let fewer = small().with(|s| s.series = Series::EXECUTION);
    assert_invalid("record", "resuming with other series", || {
        fewer.multi().run_from(&trace)
    });
}

#[test]
fn boundary_values_run() {
    for theta in [0.0, 1.0] {
        let s = small().with(|s| s.thetas = Some(vec![theta, 0.0]));
        assert!(s.multi().run().is_ok(), "θ={theta}");
    }
    let s = small().with(|s| (s.batch, s.epsilon) = (1, 0.49));
    assert!(s.soak().run().is_ok());
    let (_, trace) = small().multi().run_recording(1).expect("stride 1 records");
    let half = small().with(|s| s.thetas = Some(vec![0.5, 0.0]));
    assert!(half.multi().run_from(&trace).is_ok());
    let fleet = small().with(|s| (s.epoch_secs, s.power_cap_w) = (1e-3, Some(0.0)));
    assert!(fleet.fleet(&[10, 10]).run(1).is_ok());
}
