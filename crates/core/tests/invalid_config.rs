//! Invalid run settings come back as `ExperimentError::InvalidConfig`.
//!
//! Every setter of the four builders stores its value unchecked; the run
//! method checks it and names the setter in the error. The branch runners
//! name their own arguments the same way. Each case below sends one invalid
//! value through every builder or runner that accepts it and runs it under
//! `catch_unwind`, so a panic anywhere fails the test.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dias_core::federation::FederationExperiment;
use dias_core::sweep::run_multi_experiments_branch;
use dias_core::{
    ClassPolicy, DegradationPolicy, Experiment, ExperimentError, MultiJobExperiment, Policy,
    Scheduling, SoakExperiment, VecJobSource, WarmupRule,
};
use dias_engine::{
    ClusterSpec, FaultTrace, GangBinPack, JobInstance, JobSpec, StageKind, StageSpec,
};
use dias_stochastic::Dist;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Twenty small two-class jobs, two seconds apart.
fn source() -> VecJobSource {
    let mut rng = StdRng::seed_from_u64(1);
    let jobs = (0..20u64)
        .map(|i| {
            let spec = JobSpec::builder(i, usize::from(i % 4 == 0))
                .stage(StageSpec::new(StageKind::Map, 8, Dist::constant(1.0)))
                .build();
            let mut inst = JobInstance::sample(&spec, &mut rng);
            inst.arrival_secs = i as f64 * 2.0;
            inst
        })
        .collect();
    VecJobSource::new(jobs, 2)
}

fn multi() -> MultiJobExperiment<VecJobSource> {
    MultiJobExperiment::new(source(), Box::new(GangBinPack)).jobs(10)
}

fn soak() -> SoakExperiment<VecJobSource> {
    SoakExperiment::new(source(), Box::new(GangBinPack))
        .jobs(10)
        .warmup(WarmupRule::Arrivals(0))
}

fn fleet(shards: usize) -> FederationExperiment<VecJobSource> {
    FederationExperiment::new(
        source(),
        vec![ClusterSpec::paper_reference(); shards],
        |_| Box::new(GangBinPack),
    )
}

/// Runs `case` and asserts it returns `InvalidConfig` naming `field`.
#[track_caller]
fn assert_invalid<T>(field: &str, what: &str, case: impl FnOnce() -> Result<T, ExperimentError>) {
    let Ok(result) = catch_unwind(AssertUnwindSafe(case)) else {
        panic!("{what}: panicked instead of returning an error");
    };
    match result {
        Err(ExperimentError::InvalidConfig { field: named, .. }) => {
            assert_eq!(named, field, "{what}: wrong field");
        }
        Err(e) => panic!("{what}: expected InvalidConfig on `{field}`, got {e}"),
        Ok(_) => panic!("{what}: expected InvalidConfig on `{field}`, got a report"),
    }
}

#[test]
fn drop_ratio_outside_unit_interval() {
    for theta in [f64::NAN, -0.1, 1.5] {
        let thetas = [theta, 0.0];
        assert_invalid("drops", &format!("multi θ={theta}"), || {
            multi().drops(&thetas).run()
        });
        assert_invalid("drops", &format!("soak θ={theta}"), || {
            soak().drops(&thetas).run()
        });
        assert_invalid("drops", &format!("fleet θ={theta}"), || {
            fleet(2).drops(&thetas).run(1)
        });
        // The `Policy` constructors check θ themselves; a hand-built policy
        // reaches the run unchecked.
        let policy = Policy {
            scheduling: Scheduling::NonPreemptive,
            classes: thetas
                .iter()
                .map(|&t| ClassPolicy { theta_droppable: t })
                .collect(),
            sprint: None,
            label: "bad".into(),
        };
        assert_invalid("drops", &format!("paper θ={theta}"), || {
            Experiment::new(source(), policy).jobs(10).run()
        });
    }
}

#[test]
fn slo_target_not_positive() {
    for target in [0.0, f64::NAN] {
        let targets = [100.0, target];
        assert_invalid("slos", &format!("multi SLO={target}"), || {
            multi().slos(&targets).run()
        });
        assert_invalid("slos", &format!("soak SLO={target}"), || {
            soak().slos(&targets).run()
        });
        assert_invalid("slos", &format!("fleet SLO={target}"), || {
            fleet(2).slos(&targets).run(1)
        });
    }
}

#[test]
fn soak_arrival_batch_and_epsilon() {
    assert_invalid("arrival_batch", "batch 0", || soak().arrival_batch(0).run());
    for eps in [0.0, 0.5] {
        assert_invalid("epsilon", &format!("ε={eps}"), || {
            soak().epsilon(eps).run()
        });
    }
}

#[test]
fn federation_shape() {
    for secs in [0.0, f64::NAN, f64::INFINITY] {
        assert_invalid("epoch_secs", &format!("epoch {secs}"), || {
            fleet(2).epoch_secs(secs).run(1)
        });
    }
    assert_invalid("shards", "no shards", || fleet(0).run(1));
    assert_invalid("shard_faults", "one trace for two shards", || {
        fleet(2).shard_faults(vec![FaultTrace::empty()]).run(1)
    });
}

#[test]
fn branch_runner_settings() {
    assert_invalid("stride", "recording stride 0", || multi().run_recording(0));
    assert_invalid("point_thetas", "branch sweep without points", || {
        run_multi_experiments_branch(&[], 1, 1, 4, |_| multi())
    });
    assert_invalid("stride", "branch sweep stride 0", || {
        run_multi_experiments_branch(&[vec![0.0, 0.0]], 1, 1, 0, |_| multi())
    });
    // Degradation and SLO scoring disable branching; the runners that need a
    // branchable configuration name the setting that disabled it.
    let (_, trace) = multi().run_recording(4).expect("branchable reference");
    let degrade = || DegradationPolicy::new(&[0.2, 0.0], &[0.8, 0.0]);
    assert_invalid("degrade", "recording a degrading run", || {
        multi().degrade(degrade()).run_recording(4)
    });
    assert_invalid("degrade", "resuming a degrading run", || {
        multi().degrade(degrade()).run_from(&trace)
    });
    let targets = [100.0, 100.0];
    assert_invalid("slos", "recording an SLO run", || {
        multi().slos(&targets).run_recording(4)
    });
    assert_invalid("slos", "resuming an SLO run", || {
        multi().slos(&targets).run_from(&trace)
    });
}

#[test]
fn boundary_values_run() {
    for theta in [0.0, 1.0] {
        assert!(multi().drops(&[theta, 0.0]).run().is_ok(), "θ={theta}");
    }
    assert!(soak().arrival_batch(1).epsilon(0.49).run().is_ok());
    let (_, trace) = multi().run_recording(1).expect("stride 1 records");
    assert!(multi().drops(&[0.5, 0.0]).run_from(&trace).is_ok());
    assert!(fleet(2)
        .shard_faults(vec![FaultTrace::empty(); 2])
        .epoch_secs(1e-3)
        .run(1)
        .is_ok());
}
