//! Determinism tests of the parallel sweep runner: fanning work across
//! threads must reproduce the sequential loop bit for bit, in input order.

use proptest::prelude::*;

use dias_core::sweep::run_parallel;
use dias_core::{Experiment, Policy};

mod common;
use common::oracle::{arb_scenario, cases, paper_sweep_matches_sequential};
use common::Scenario;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(16)))]

    /// The paper's one-job `Experiment`, preemptive or not and with or
    /// without drops, swept at 1, 2 and 4 threads equals the sequential
    /// loop.
    #[test]
    fn parallel_sweep_is_bitwise_identical_to_sequential(s in arb_scenario()) {
        paper_sweep_matches_sequential(&s).map_err(|e| format!("{e}\n{s:?}"))?;
    }
}

mod multi_sweep {
    use proptest::prelude::*;

    use super::common::oracle::{
        arb_scenario, cases, multi_sweep_matches_sequential, sprint, SPRINTS,
    };

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases(16)))]

        /// Closed multi-job runs under an unlimited or a budgeted sprint
        /// policy, swept at 1, 2 and 4 threads, equal the sequential loop.
        #[test]
        fn multi_sweep_with_sprint_policies_is_bitwise_deterministic(
            (s, k) in (arb_scenario(), 1usize..SPRINTS),
        ) {
            let s = s.with(|s| s.sprint = sprint(k));
            multi_sweep_matches_sequential(&s).map_err(|e| format!("{e}\n{s:?}"))?;
        }
    }
}

#[test]
fn sweep_preserves_input_order_even_with_errors() {
    // The middle spec fails (policy classes ≠ source classes); its error must
    // land at its own index, leaving the neighbors intact.
    let source = Scenario::new(3).with(|s| (s.arrivals, s.gap) = (60, 8.0));
    let source = source.source();
    let mk = |policy| Experiment::new(source.clone(), policy).jobs(40);
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
