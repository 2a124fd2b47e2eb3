//! Properties of the sharded federation.
//!
//! A fleet reports `==` across thread counts and epoch lengths, a one-shard
//! fleet is the closed run, and the partitioned sprint books balance. The
//! router is also checked on its own, without a simulation.

use proptest::prelude::*;

use dias_core::federation::{Router, RouterCursor};

mod common;
use common::oracle::{
    arb_scenario, cases, fleet_books_balance, fleet_is_deterministic, fleet_reference,
    single_shard_matches_closed, sprint, without_degradation, SPRINTS,
};
use common::{Faults, Scenario, Widths};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(16)))]

    /// A 4-shard fleet reports `==` at 1, 2, 4 and 8 threads and at epoch
    /// lengths 3 s to 1000 s, and logs the same epochs at equal length.
    #[test]
    fn federation_is_bitwise_identical_across_threads_and_epochs(s in arb_scenario()) {
        let s = without_degradation(&s);
        fleet_is_deterministic(&s).map_err(|e| format!("{e}\n{s:?}"))?;
    }

    /// A one-shard fleet whose window reaches the end of the source is the
    /// closed run, bit for bit.
    #[test]
    fn single_shard_federation_matches_the_monolithic_experiment(s in arb_scenario()) {
        let s = without_degradation(&s);
        single_shard_matches_closed(&s).map_err(|e| format!("{e}\n{s:?}"))?;
    }

    /// The partitioned sprint budget, limited and under a power cap, keeps
    /// honest books, and without faults a window that spans the whole
    /// source measures every delivered job.
    #[test]
    fn budget_books_and_measurement_window_are_conserved(
        (s, k) in (arb_scenario(), 2usize..SPRINTS),
    ) {
        let s = without_degradation(&s).with(|s| {
            (s.sprint, s.power_cap_w) = (sprint(k), Some(2_000.0));
            (s.warmup, s.jobs, s.faults) = (0, s.arrivals as usize, Faults::None);
        });
        let (report, log) = fleet_reference(&s).map_err(|e| format!("{e}\n{s:?}"))?;
        fleet_books_balance(&s, &report, &log).map_err(|e| format!("{e}\n{s:?}"))?;
        prop_assert_eq!(report.completed(), s.arrivals);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Routers are pure functions of the arrival stream: two cursors fed the
    /// same jobs agree decision for decision, every pick is in range, and
    /// decisions over a prefix do not depend on the suffix.
    #[test]
    fn routers_are_replay_identical_and_prefix_stable(
        seed in 0u64..1000,
        least_loaded in any::<bool>(),
        cut in 1usize..30,
    ) {
        let router = if least_loaded { Router::LeastLoaded } else { Router::Hash };
        let slots = [20usize, 12, 28, 20];
        let jobs = Scenario {
            arrivals: 30,
            gap: 3.0,
            widths: Widths::Cycle(&[4, 8, 16, 24]),
            ..Scenario::new(seed)
        }
        .instances();
        let mut a = RouterCursor::new(router, &slots);
        let mut b = RouterCursor::new(router, &slots);
        let picks_a: Vec<usize> = jobs.iter().map(|j| a.route(j)).collect();
        let picks_b: Vec<usize> = jobs.iter().map(|j| b.route(j)).collect();
        prop_assert_eq!(&picks_a, &picks_b);
        prop_assert!(picks_a.iter().all(|&s| s < slots.len()));
        // Prefix stability: a cursor that only ever sees the first `cut`
        // jobs makes the same decisions the full replay made for them.
        let mut c = RouterCursor::new(router, &slots);
        let prefix: Vec<usize> = jobs[..cut].iter().map(|j| c.route(j)).collect();
        prop_assert_eq!(&picks_a[..cut], &prefix[..]);
    }
}
