//! The conformance oracle, run over generated scenarios.
//!
//! The closed multi-job run, the soak, a federation shard, branch replay and
//! the paper's one-job `Experiment` share one arbiter loop and differ only
//! in what they record. `common::oracle` holds one check per identity
//! between two paths and [`conform`], which runs a [`Scenario`] down every
//! path; this suite runs it over [`arb_scenario`]. Generated malformed
//! scenarios must come back as `InvalidConfig` naming their field from every
//! path that reads it (`common::rejects`), never as a panic.
//!
//! Cross-path identities cannot see the tie order of the arbiter, because
//! every path shares it; `tie_order_is_pinned` pins one scenario in which
//! each adjacent pair of arms ties.

use proptest::prelude::*;

use dias_engine::{ClusterSpec, FaultEvent, FaultKind};
use dias_stochastic::Dist;

mod common;
use common::oracle::{arb_scenario, cases, conform};
use common::{hand_sprint, rejects, top_sprint, Faults, Scenario, Widths};

/// A valid scenario without SLOs or degradation with one malformed
/// setting, and the field the run must name.
fn arb_malformed() -> impl Strategy<Value = (Scenario, &'static str)> {
    (arb_scenario(), 0usize..9, 0usize..4).prop_map(|(s, which, v)| {
        let nan = f64::NAN;
        let mut s = s.with(|s| (s.slos, s.degrade) = (None, None));
        let (timeout, initial_j, replenish_w) = [
            (nan, 1e4, 90.0),
            (-5.0, 1e4, 90.0),
            (5.0, nan, 90.0),
            (5.0, 1e4, -1.0),
        ][v];
        let field = [
            "drops",
            "slos",
            "arrival_batch",
            "epsilon",
            "epoch_secs",
            "stride",
            "sprint",
            "power_cap_w",
            "source",
        ][which];
        match field {
            "drops" => s.thetas = Some(vec![[nan, -0.1, 1.5, nan][v], 0.0]),
            "slos" => s.slos = Some(vec![100.0, [0.0, nan, -5.0, nan][v]]),
            "arrival_batch" => s.batch = 0,
            "epsilon" => s.epsilon = [0.0, 0.5, nan, -0.1][v],
            "epoch_secs" => s.epoch_secs = [0.0, nan, f64::INFINITY, -1.0][v],
            "stride" => s.stride = 0,
            "sprint" => s.sprint = Some(hand_sprint(timeout, initial_j, replenish_w)),
            "power_cap_w" => s.power_cap_w = Some([nan, -1.0][v % 2]),
            _ => s.high_class = 2,
        }
        (s, field)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(16)))]

    #[test]
    fn every_driver_path_runs_the_same_simulation(s in arb_scenario()) {
        conform(&s).map_err(|e| format!("{e}\n{s:?}"))?;
    }

    #[test]
    fn malformed_settings_return_invalid_config(case in arb_malformed()) {
        rejects(&case.0, case.1);
    }
}

/// The arbiter's tie order (engine event, budget depletion, sprint timers,
/// faults, release), pinned on whole-second inputs where each adjacent pair
/// ties: thirteen 2-task high-class jobs on 4 slots sprint at 2× from a 90 J
/// budget while slots fail, straggle and are repaired. All five arms tie at
/// 4 s, timers and faults at 4 and 6 s, the engine and depletion at 4, 8, 33
/// and 43 s, depletion and a timer at 35 s. A release before the fault batch
/// at 4 s puts job 2 on the failing slot (an eviction); timers after faults
/// reorder the first completions. The other two pairs are told apart only by
/// rounding. A depletion stops sprints whose budget is spent, and neither an
/// engine event nor a timer at the same instant can spend budget or start a
/// sprint on an empty one, so in exact arithmetic either order runs the same
/// simulation. Depletion before engine events moves the horizon to one step
/// past 43 s and reorders the first completions. A timer before depletion
/// moves the last bits of the budget spent and of job 10's response: the
/// timer brings the budget to 35 s first, the depletion is then recomputed
/// from the float residue left there and falls one step past 35 s. The
/// residue (1.6e-13 J) is below `MultiSprinter::try_start`'s empty
/// threshold, so no sprint starts on it. Jobs 10 and 12 both end at 43 s;
/// job 10's completion was queued first, so it is recorded first.
#[test]
fn tie_order_is_pinned() {
    let slow = FaultKind::Slow { factor: 2.0 };
    let (fail, repair) = (FaultKind::Fail, FaultKind::Repair);
    let ev = |at_secs, slot, kind| FaultEvent {
        at_secs,
        slot,
        kind,
    };
    let s = Scenario {
        arrivals: 13,
        gap: 2.0,
        high_every: 1,
        setup: 0.0,
        shuffle: 0.0,
        widths: Widths::Cycle(&[2]),
        map: Dist::constant(6.0),
        reduce: None,
        cluster: ClusterSpec {
            workers: 2,
            sprint_speedup: 2.0,
            ..ClusterSpec::paper_reference()
        },
        sprint: top_sprint(2.0, 90.0, 45.0),
        faults: Faults::Fixed(vec![
            ev(4.0, 1, fail),
            ev(4.0, 1, repair),
            ev(6.0, 3, slow),
            ev(6.0, 3, repair),
            ev(11.0, 0, slow),
            ev(15.0, 3, slow),
            ev(19.0, 0, repair),
        ]),
        warmup: 0,
        jobs: 13,
        ..Scenario::new(0)
    };
    let r = s.multi().run().expect("valid scenario");
    let books = (r.horizon_secs, r.energy_joules, r.sprint_budget_spent_j);
    assert_eq!(books, (43.0, 16605.0, 1304.9999999999993));
    assert_eq!(r.evictions, 0);
    let responses = "[4.0, 4.0, 6.0, 5.333333333333334, 9.666666666666668, 11.666666666666664, \
                     11.166666666666668, 13.000000000000004, 17.999999999999996, 15.0, 17.0, \
                     23.0, 19.0]";
    assert_eq!(
        format!("{:?}", r.per_class[1].response.samples()),
        responses
    );
}
