//! Property-based tests of the cluster simulator's accounting invariants.

use proptest::prelude::*;

use dias_engine::{
    ClusterSim, ClusterSpec, EngineEvent, FreqLevel, JobInstance, JobSpec, StageKind, StageSpec,
};
use dias_stochastic::Dist;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run_job(sim: &mut ClusterSim) -> dias_engine::JobRunMetrics {
    loop {
        if let EngineEvent::JobFinished { metrics, .. } = sim.advance().expect("running job") {
            return metrics;
        }
    }
}

fn arb_job() -> impl Strategy<Value = (JobInstance, usize)> {
    (
        1usize..80,   // map tasks
        1usize..20,   // reduce tasks
        0.1f64..30.0, // map task mean
        0.1f64..10.0, // reduce task mean
        0.0f64..20.0, // setup
        0.0f64..10.0, // shuffle
        any::<u64>(), // sample seed
    )
        .prop_map(|(m, r, mm, rm, setup, shuffle, seed)| {
            let spec = JobSpec::builder(seed, 0)
                .setup(Dist::constant(setup))
                .shuffle(Dist::constant(shuffle))
                .stage(StageSpec::new(StageKind::Map, m, Dist::lognormal(mm, 0.2)))
                .stage(StageSpec::new(
                    StageKind::Reduce,
                    r,
                    Dist::lognormal(rm, 0.2),
                ))
                .build();
            let mut rng = StdRng::seed_from_u64(seed);
            (JobInstance::sample(&spec, &mut rng), m)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn work_is_conserved_without_drops((instance, _) in arb_job()) {
        let mut sim = ClusterSim::new(ClusterSpec::paper_reference());
        sim.submit_job(&instance, &[0.0, 0.0]).expect("idle engine");
        let metrics = run_job(&mut sim);
        prop_assert!((metrics.work_secs - instance.total_work_secs()).abs() < 1e-6);
        prop_assert_eq!(metrics.tasks_dropped, 0);
    }

    #[test]
    fn execution_time_bounds((instance, map_tasks) in arb_job()) {
        // Makespan is at least the critical path (setup + longest task per stage +
        // shuffles) and at most the fully serial execution.
        let mut sim = ClusterSim::new(ClusterSpec::paper_reference());
        sim.submit_job(&instance, &[0.0, 0.0]).expect("idle engine");
        let metrics = run_job(&mut sim);
        let serial = instance.total_work_secs();
        let longest_map = instance.task_secs[0].iter().cloned().fold(0.0, f64::max);
        let longest_red = instance.task_secs[1].iter().cloned().fold(0.0, f64::max);
        let critical = instance.setup_secs
            + instance.shuffle_secs.iter().sum::<f64>()
            + longest_map
            + longest_red;
        prop_assert!(metrics.execution_secs <= serial + 1e-9);
        prop_assert!(metrics.execution_secs >= critical - 1e-9);
        let _ = map_tasks;
    }

    #[test]
    fn dropping_never_lengthens_execution((instance, _) in arb_job(), theta in 0.0f64..1.0) {
        let mut full = ClusterSim::new(ClusterSpec::paper_reference());
        full.submit_job(&instance, &[0.0, 0.0]).expect("idle engine");
        let base = run_job(&mut full);

        let mut dropped = ClusterSim::new(ClusterSpec::paper_reference());
        dropped.submit_job(&instance, &[theta, 0.0]).expect("idle engine");
        let with_drop = run_job(&mut dropped);

        prop_assert!(with_drop.execution_secs <= base.execution_secs + 1e-9);
        prop_assert!(with_drop.work_secs <= base.work_secs + 1e-9);
    }

    #[test]
    fn sprinting_scales_execution_exactly((instance, _) in arb_job()) {
        let mut base = ClusterSim::new(ClusterSpec::paper_reference());
        base.submit_job(&instance, &[0.0, 0.0]).expect("idle engine");
        let slow = run_job(&mut base);

        let mut fast_sim = ClusterSim::new(ClusterSpec::paper_reference());
        fast_sim.submit_job(&instance, &[0.0, 0.0]).expect("idle engine");
        fast_sim.set_job_frequency(instance.spec.id, FreqLevel::Sprint).expect("dispatched");
        let fast = run_job(&mut fast_sim);

        let speedup = ClusterSpec::paper_reference().sprint_speedup;
        prop_assert!((fast.execution_secs - slow.execution_secs / speedup).abs() < 1e-6);
        // Work is counted in base-equivalents either way.
        prop_assert!((fast.work_secs - slow.work_secs).abs() < 1e-6);
    }

    #[test]
    fn eviction_accounts_partial_work((instance, _) in arb_job(), frac in 0.05f64..0.95) {
        let mut sim = ClusterSim::new(ClusterSpec::paper_reference());
        sim.submit_job(&instance, &[0.0, 0.0]).expect("idle engine");
        // Advance part-way through the job, then evict between events.
        let mut full = ClusterSim::new(ClusterSpec::paper_reference());
        full.submit_job(&instance, &[0.0, 0.0]).expect("idle engine");
        let total = run_job(&mut full).execution_secs;
        let stop_at = dias_des::SimTime::from_secs(total * frac);
        while let Some(t) = sim.next_event_time() {
            if t > stop_at {
                break;
            }
            sim.advance().expect("running job");
        }
        if sim.is_idle() {
            //

            return Ok(()); // job finished before the cut (rounding); nothing to evict
        }
        sim.idle_until(stop_at);
        let evicted = sim.evict_job(instance.spec.id).expect("job was running");
        prop_assert!((evicted.wall_secs - total * frac).abs() < 1e-6);
        // Lost work can never exceed wall time × slots, nor the job's total work.
        let slots = ClusterSpec::paper_reference().slots() as f64;
        prop_assert!(evicted.work_secs <= evicted.wall_secs * slots + 1e-6);
        prop_assert!(evicted.work_secs <= instance.total_work_secs() + 1e-6);
        prop_assert!(sim.is_idle());
    }

    #[test]
    fn energy_grows_monotonically((instance, _) in arb_job()) {
        let mut sim = ClusterSim::new(ClusterSpec::paper_reference());
        sim.submit_job(&instance, &[0.0, 0.0]).expect("idle engine");
        let mut last = 0.0;
        loop {
            match sim.advance().expect("running job") {
                EngineEvent::JobFinished { .. } => break,
                _ => {
                    let e = sim.energy_joules();
                    prop_assert!(e + 1e-9 >= last);
                    last = e;
                }
            }
        }
    }
}
