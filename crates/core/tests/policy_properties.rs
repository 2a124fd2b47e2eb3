//! Property-based tests of the policy constructors and the deflator's drop
//! vectors. The dispatch order of the one-job engine is a property in
//! `experiment.rs` (its scheduler is private); the sprint budget's bounds
//! are checked in `multi_sprint_properties.rs`.

use proptest::prelude::*;

use dias_core::Policy;
use dias_engine::{JobSpec, StageKind, StageSpec};
use dias_stochastic::Dist;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn da_thetas_round_trip_through_label(percents in prop::collection::vec(0.0f64..100.0, 1..4)) {
        let policy = Policy::da_percent_high_to_low(&percents);
        // Class k's droppable ratio equals the (K-1-k)-th percentage.
        let k = percents.len();
        for (i, &pct) in percents.iter().enumerate() {
            let class = k - 1 - i;
            prop_assert!((policy.classes[class].theta_droppable - pct / 100.0).abs() < 1e-12);
        }
        prop_assert!(!policy.is_preemptive());
    }

    #[test]
    fn drops_for_covers_every_stage(theta in 0.0f64..1.0, stages in 1usize..8) {
        let policy = Policy::differential_approximation(&[theta]);
        let mut builder = JobSpec::builder(0, 0);
        for i in 0..stages {
            let kind = if i % 2 == 0 { StageKind::ShuffleMap } else { StageKind::Reduce };
            builder = builder.stage(StageSpec::new(kind, 3, Dist::constant(1.0)));
        }
        let spec = builder.build();
        let drops = policy.drops_for(&spec);
        prop_assert_eq!(drops.len(), stages);
        for (i, d) in drops.iter().enumerate() {
            if i % 2 == 0 {
                prop_assert!((d - theta).abs() < 1e-12);
            } else {
                prop_assert_eq!(*d, 0.0);
            }
        }
    }
}
