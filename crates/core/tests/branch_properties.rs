//! Checkpoint-and-branch replay of θ grids.
//!
//! A branch grid equals full replay at any stride and thread count, and
//! falls back to full replay when the scenario is not branchable. A literal
//! pin places the divergence of each θ point in one recorded trace.

use proptest::prelude::*;

use dias_core::DegradationPolicy;
use dias_stochastic::Dist;

mod common;
use common::oracle::{arb_scenario, branch_grid_matches_full_replay, cases};
use common::{Scenario, Widths};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(16)))]

    /// Without SLOs or degradation a scenario branches, and its grid equals
    /// full replay at strides 1–5 and threads 1 and 3.
    #[test]
    fn branch_sweep_is_bitwise_identical_to_full_replay(s in arb_scenario()) {
        let s = s.with(|s| (s.slos, s.degrade) = (None, None));
        prop_assert!(s.multi().branchable());
        branch_grid_matches_full_replay(&s).map_err(|e| format!("{e}\n{s:?}"))?;
    }

    /// SLO counting or a degradation controller disables branching: the
    /// grid falls back to full replay with default stats.
    #[test]
    fn non_branchable_configs_fall_back_to_full_replay(
        (s, slos) in (arb_scenario(), any::<bool>()),
    ) {
        let s = s.with(|s| {
            if slos {
                (s.slos, s.degrade) = (Some(vec![400.0, 120.0]), None);
            } else {
                let degrade = DegradationPolicy::new(&[0.2, 0.0], &[0.8, 0.0]);
                (s.slos, s.degrade) = (None, Some(degrade));
            }
        });
        prop_assert!(!s.multi().branchable());
        branch_grid_matches_full_replay(&s).map_err(|e| format!("{e}\n{s:?}"))?;
    }
}

/// Work-avoidance telemetry: an identical sweep point skips its whole
/// prefix, and with stride-1 checkpoints the skipped-arrival count reaches
/// the divergence index exactly.
#[test]
fn trace_reports_divergence_and_skip_telemetry() {
    // 8-task maps, except the 24-task job 12. On 8 tasks θ = 0.05 and 0.10
    // keep the same ⌈n(1−θ)⌉ = 8 tasks; only the 24-task job tells them
    // apart (23 vs 22 kept).
    let s = Scenario {
        arrivals: 50,
        gap: 6.0,
        widths: Widths::WideAt(12),
        reduce: Some((4, Dist::constant(1.0))),
        warmup: 3,
        jobs: 30,
        thetas: Some(vec![0.05, 0.0]),
        ..Scenario::new(3)
    };
    let (_, trace) = s.multi().run_recording(1).expect("valid experiment");
    // 30 measured + 3 warmup jobs arrive before the window closes.
    assert!(trace.arrivals() >= 33);
    assert_eq!(trace.checkpoints(), trace.arrivals());
    // Identical thetas: never diverges.
    assert_eq!(trace.divergence_index(Some(&[0.05, 0.0])), trace.arrivals());
    // 0.10 keeps the same 8 of 8 map tasks everywhere except the 24-task job
    // at arrival 12 (23 vs 22 kept).
    assert_eq!(trace.divergence_index(Some(&[0.10, 0.0])), 12);
    // 0.30 drops map tasks of the first class-0 arrival — job 1 (job 0 is
    // class 1, whose theta is 0.0 at every point).
    assert_eq!(trace.divergence_index(Some(&[0.30, 0.0])), 1);
    // Dropping nothing at all matches 0.05 on every 8-task stage (both keep
    // ⌈8(1−θ)⌉ = 8 tasks) — behaviour-exact detection sees through the
    // different theta and diverges only at the 24-task job (24 vs 23 kept).
    assert_eq!(trace.divergence_index(None), 12);
    let (arrivals, events) = trace.resume_point(12).expect("stride-1 checkpoints");
    assert_eq!(arrivals, 12);
    assert!(events > 0, "a mid-run resume skips real engine events");
}
