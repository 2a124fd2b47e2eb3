//! Determinism tests of the parallel sweep runner: fanning experiments across
//! threads must reproduce the sequential loop bit for bit, in input order.

use dias_core::sweep::{replica_seeds, run_parallel};
use dias_core::{Experiment, Policy, VecJobSource};
use dias_engine::{JobInstance, JobSpec, StageKind, StageSpec};
use dias_stochastic::Dist;
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

fn specs() -> Vec<Experiment<VecJobSource>> {
    let seeds = replica_seeds(7, 3);
    let mut specs: Vec<Experiment<VecJobSource>> = seeds
        .iter()
        .map(|&s| Experiment::new(workload(s, 120, 7.0), Policy::non_preemptive(2)).jobs(90))
        .collect();
    specs.push(Experiment::new(workload(seeds[0], 120, 7.0), Policy::preemptive(2)).jobs(90));
    specs.push(
        Experiment::new(
            workload(seeds[0], 120, 7.0),
            Policy::da_percent_high_to_low(&[0.0, 20.0]),
        )
        .jobs(90),
    );
    specs
}

#[test]
fn parallel_sweep_is_bitwise_identical_to_sequential() {
    let sequential: Vec<_> = specs()
        .into_iter()
        .map(|s| s.run().expect("valid spec"))
        .collect();
    for threads in [1, 2, 4] {
        let swept = run_parallel(specs(), threads, |_, e| e.run());
        assert_eq!(swept.len(), sequential.len());
        for (i, (got, want)) in swept.iter().zip(&sequential).enumerate() {
            let got = got.as_ref().expect("valid spec");
            assert_eq!(
                got, want,
                "spec {i} diverged from the sequential run at {threads} threads"
            );
        }
    }
}

mod multi_sweep {
    use super::workload;
    use dias_core::sweep::run_parallel;
    use dias_core::{MultiJobExperiment, MultiJobReport, SprintBudget, SprintPolicy, VecJobSource};
    use dias_engine::{GangBinPack, PriorityPreempt};

    /// The per-gang sprint frontier points the `multi_job` harness sweeps:
    /// no sprint, unlimited, budgeted-from-dispatch, budgeted-after-timeout.
    fn experiments() -> Vec<MultiJobExperiment<VecJobSource>> {
        let budget = || SprintBudget::limited(30_000.0, 90.0);
        vec![
            MultiJobExperiment::new(workload(5, 100, 6.0), Box::new(GangBinPack)).jobs(70),
            MultiJobExperiment::new(workload(5, 100, 6.0), Box::new(GangBinPack))
                .sprint(SprintPolicy::unlimited_for_top(2))
                .jobs(70),
            MultiJobExperiment::new(workload(5, 100, 6.0), Box::new(GangBinPack))
                .sprint(SprintPolicy::top_class(2, 0.0, budget()))
                .jobs(70),
            MultiJobExperiment::new(workload(5, 100, 6.0), Box::new(PriorityPreempt))
                .sprint(SprintPolicy::top_class(2, 30.0, budget()))
                .jobs(70),
        ]
    }

    /// Bitwise comparison of the measurement surface of two reports.
    fn assert_identical(a: &MultiJobReport, b: &MultiJobReport) {
        assert_eq!(a.scheduler, b.scheduler);
        assert_eq!(a.horizon_secs, b.horizon_secs);
        assert_eq!(a.energy_joules, b.energy_joules);
        assert_eq!(a.sprint_budget_spent_j, b.sprint_budget_spent_j);
        assert_eq!(a.sprint_budget_remaining_j, b.sprint_budget_remaining_j);
        for (ca, cb) in a.per_class.iter().zip(&b.per_class) {
            assert_eq!(ca.response.samples(), cb.response.samples());
            assert_eq!(ca.queueing.samples(), cb.queueing.samples());
            assert_eq!(ca.dispatch_wait.samples(), cb.dispatch_wait.samples());
            assert_eq!(ca.reexec_loss.samples(), cb.reexec_loss.samples());
            assert_eq!(ca.active_energy_joules, cb.active_energy_joules);
            assert_eq!(ca.sprint_slot_secs, cb.sprint_slot_secs);
        }
    }

    #[test]
    fn multi_sweep_with_sprint_policies_is_bitwise_deterministic() {
        let sequential: Vec<MultiJobReport> = experiments()
            .into_iter()
            .map(|e| e.run().expect("valid experiment"))
            .collect();
        for threads in [1, 2, 4] {
            let swept = run_parallel(experiments(), threads, |_, e| e.run());
            assert_eq!(swept.len(), sequential.len());
            for (got, want) in swept.iter().zip(&sequential) {
                assert_identical(got.as_ref().expect("valid experiment"), want);
            }
        }
    }
}

#[test]
fn sweep_preserves_input_order_even_with_errors() {
    // The middle spec fails (policy classes ≠ source classes); its error must
    // land at its own index, leaving the neighbors intact.
    let mk = |policy| Experiment::new(workload(3, 60, 8.0), policy).jobs(40);
    let specs = vec![
        mk(Policy::non_preemptive(2)),
        mk(Policy::non_preemptive(3)),
        mk(Policy::preemptive(2)),
    ];
    let results = run_parallel(specs, 2, |_, e| e.run());
    assert!(results[0].is_ok());
    assert!(results[1].is_err());
    assert!(results[2].is_ok());
    assert_eq!(results[0].as_ref().unwrap().policy, "NP");
}

mod mc_replication {
    use dias_core::sweep::{replica_seeds, run_mc_replicated};
    use dias_models::mc::{Discipline, McQueue};
    use dias_stochastic::{MarkedPoisson, Ph};

    fn point(servers: usize) -> McQueue {
        McQueue {
            arrivals: MarkedPoisson::new(vec![0.0045 * servers as f64, 0.0005 * servers as f64])
                .unwrap(),
            service: vec![
                Ph::erlang(3, 3.0 / 147.0).unwrap(),
                Ph::erlang(3, 3.0 / 126.0).unwrap(),
            ],
            sprint: vec![None, None],
            discipline: Discipline::PreemptiveRepeatIdentical,
            servers,
            jobs: 4_000,
            warmup: 400,
            seed: 99,
        }
    }

    #[test]
    fn replica_seeds_agree_with_mcqueue_replicas() {
        let q = point(1);
        let seeds: Vec<u64> = q.replicas(6).unwrap().iter().map(|s| s.seed).collect();
        assert_eq!(seeds, replica_seeds(q.seed, 6));
    }

    #[test]
    fn replicated_mc_is_bitwise_deterministic_for_any_thread_count() {
        for servers in [1usize, 2] {
            let q = point(servers);
            let reference = run_mc_replicated(&q, 4, 1).unwrap();
            for threads in [2, 3, 8] {
                let got = run_mc_replicated(&q, 4, threads).unwrap();
                for k in 0..2 {
                    // Sample buffers merge in replica order, so the raw
                    // sample sequences — not just summaries — must be
                    // identical bit for bit.
                    assert_eq!(
                        got.response[k].samples(),
                        reference.response[k].samples(),
                        "servers {servers}, class {k}, {threads} threads"
                    );
                    assert_eq!(got.waiting[k].samples(), reference.waiting[k].samples());
                    assert_eq!(got.execution[k].samples(), reference.execution[k].samples());
                }
                assert_eq!(got.waste_fraction, reference.waste_fraction);
                assert_eq!(got.utilization, reference.utilization);
            }
        }
    }

    #[test]
    fn one_replication_reproduces_its_single_sub_run() {
        // Merging a lone replica into the empty result must be the identity:
        // the fan-out machinery adds nothing beyond the sub-run itself.
        let q = point(1);
        let sub = q.replicas(1).unwrap().remove(0);
        assert_eq!(sub.seed, replica_seeds(q.seed, 1)[0]);
        let plain = sub.run().unwrap();
        let replicated = run_mc_replicated(&q, 1, 4).unwrap();
        for k in 0..2 {
            assert_eq!(
                replicated.response[k].samples(),
                plain.response[k].samples()
            );
        }
        assert_eq!(replicated.utilization, plain.utilization);
        assert_eq!(replicated.waste_fraction, plain.waste_fraction);
    }
}

#[test]
fn run_parallel_matches_sequential_for_heavier_closures() {
    // A non-experiment workload with uneven item costs: results must still be
    // ordered and identical at every thread count.
    let items: Vec<u64> = (0..24).collect();
    let work = |_: usize, x: u64| -> u64 {
        let mut acc = x;
        for i in 0..(x % 7) * 1000 {
            acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        }
        acc
    };
    let expect: Vec<u64> = items.iter().map(|&x| work(0, x)).collect();
    for threads in [2, 3, 8] {
        assert_eq!(run_parallel(items.clone(), threads, work), expect);
    }
}
