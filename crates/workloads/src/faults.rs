//! Failure, straggler and autoscaling schedules for chaos experiments.
//!
//! Thin, parameterized front-ends over [`FaultTrace`]'s generators, shaped
//! like the paper-adjacent scenarios the chaos harness sweeps:
//!
//! * [`slot_failure_trace`] — per-slot crash/repair renewal at a given MTBF
//!   and MTTR (exponential up/down periods);
//! * [`straggler_trace`] — per-slot slowdown episodes at a given inter-onset
//!   gap, duration and factor;
//! * [`autoscaling_trace`] — a deterministic square wave draining the top of
//!   the cluster each period and repairing it after the down window — the
//!   "elastic capacity" shape of a scale-down/scale-up loop, with drains (not
//!   kills) so in-flight work finishes first.
//!
//! All three return [`FaultTrace`]s: `Arc`-shared, time-sorted, and
//! replayed bit-identically by every sweep point and thread count. The two
//! random ones are generated traces, which draw their events as a
//! [`FaultTrace::cursor`] reads them and store nothing; the square wave is
//! stored.

use dias_des::SeedSequence;
use dias_engine::{FaultEvent, FaultKind, FaultTrace};
use dias_stochastic::Ph;

/// Exponential crash/repair renewal per slot: each of the `slots` fails on
/// average every `mtbf_secs` of uptime and returns after an average
/// `mttr_secs`, over `[0, horizon_secs)`.
///
/// # Panics
///
/// Panics if `mtbf_secs` or `mttr_secs` is not a positive finite number, or
/// `horizon_secs` is negative or not finite.
#[must_use]
pub fn slot_failure_trace(
    slots: usize,
    horizon_secs: f64,
    mtbf_secs: f64,
    mttr_secs: f64,
    seed: u64,
) -> FaultTrace {
    assert!(
        mtbf_secs.is_finite() && mtbf_secs > 0.0,
        "MTBF must be positive"
    );
    assert!(
        mttr_secs.is_finite() && mttr_secs > 0.0,
        "MTTR must be positive"
    );
    let up = Ph::exponential(1.0 / mtbf_secs).expect("positive rate");
    let down = Ph::exponential(1.0 / mttr_secs).expect("positive rate");
    FaultTrace::renewal(slots, horizon_secs, &up, &down, SeedSequence::new(seed))
}

/// Exponential straggler episodes per slot: after an average `gap_secs` of
/// full speed, a slot runs `factor`× slower for an average `duration_secs`,
/// then recovers.
///
/// # Panics
///
/// Panics if `gap_secs` or `duration_secs` is not positive finite,
/// `factor` is below 1.0 or not finite, or `horizon_secs` is negative or not
/// finite.
#[must_use]
pub fn straggler_trace(
    slots: usize,
    horizon_secs: f64,
    gap_secs: f64,
    duration_secs: f64,
    factor: f64,
    seed: u64,
) -> FaultTrace {
    assert!(
        gap_secs.is_finite() && gap_secs > 0.0,
        "straggler gap must be positive"
    );
    assert!(
        duration_secs.is_finite() && duration_secs > 0.0,
        "straggler duration must be positive"
    );
    let gap = Ph::exponential(1.0 / gap_secs).expect("positive rate");
    let duration = Ph::exponential(1.0 / duration_secs).expect("positive rate");
    FaultTrace::stragglers(
        slots,
        horizon_secs,
        &gap,
        &duration,
        factor,
        SeedSequence::new(seed),
    )
}

/// A deterministic autoscaling square wave: every `period_secs`, the top
/// `removed` slots of a `total_slots` cluster are drained (in-flight work
/// finishes, no new placements) and repaired `down_secs` later, over
/// `[0, horizon_secs)`. The *highest* slot indices are cycled so the stable
/// bottom of the cluster keeps its schedule regardless of the wave.
///
/// # Panics
///
/// Panics if `removed > total_slots`, any duration is not positive finite,
/// `down_secs >= period_secs`, or `horizon_secs` is negative or not finite.
#[must_use]
pub fn autoscaling_trace(
    total_slots: usize,
    removed: usize,
    period_secs: f64,
    down_secs: f64,
    horizon_secs: f64,
) -> FaultTrace {
    assert!(
        removed <= total_slots,
        "cannot remove more slots than exist"
    );
    assert!(
        period_secs.is_finite() && period_secs > 0.0,
        "period must be positive"
    );
    assert!(
        down_secs.is_finite() && down_secs > 0.0 && down_secs < period_secs,
        "down window must be positive and shorter than the period"
    );
    assert!(
        horizon_secs.is_finite() && horizon_secs >= 0.0,
        "fault horizon must be finite and non-negative"
    );
    let mut events = Vec::new();
    let mut start = period_secs;
    while start < horizon_secs {
        for slot in total_slots - removed..total_slots {
            events.push(FaultEvent {
                at_secs: start,
                slot,
                kind: FaultKind::Drain,
            });
            let back = start + down_secs;
            if back < horizon_secs {
                events.push(FaultEvent {
                    at_secs: back,
                    slot,
                    kind: FaultKind::Repair,
                });
            }
        }
        start += period_secs;
    }
    FaultTrace::new(events).expect("generated times are finite and non-negative")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_trace_is_reproducible_and_scaled_by_mtbf() {
        let a = slot_failure_trace(20, 2_000.0, 200.0, 50.0, 7);
        let b = slot_failure_trace(20, 2_000.0, 200.0, 50.0, 7);
        assert_eq!(a.events(), b.events());
        let rare = slot_failure_trace(20, 2_000.0, 20_000.0, 50.0, 7);
        assert!(
            rare.len() < a.len(),
            "a 100× MTBF must produce fewer failures ({} vs {})",
            rare.len(),
            a.len()
        );
    }

    #[test]
    fn straggler_trace_only_slows() {
        let t = straggler_trace(8, 1_000.0, 100.0, 30.0, 2.5, 3);
        assert!(!t.is_empty());
        assert!(t
            .events()
            .iter()
            .all(|e| matches!(e.kind, FaultKind::Slow { .. })));
    }

    #[test]
    fn autoscaling_wave_drains_then_repairs_the_top() {
        let t = autoscaling_trace(20, 4, 300.0, 100.0, 1_000.0);
        // Cycles at 300, 600, 900 (repair of the last lands past 1000): the
        // 4 top slots each drain 3 times and repair twice.
        let drains = t
            .events()
            .iter()
            .filter(|e| e.kind == FaultKind::Drain)
            .count();
        let repairs = t
            .events()
            .iter()
            .filter(|e| e.kind == FaultKind::Repair)
            .count();
        assert_eq!(drains, 12);
        assert_eq!(repairs, 8);
        assert!(t.events().iter().all(|e| e.slot >= 16));
        // Events interleave in time order: drain at 300 precedes repair 400.
        assert!(t.events().windows(2).all(|w| w[0].at_secs <= w[1].at_secs));
    }

    #[test]
    #[should_panic(expected = "fault horizon")]
    fn autoscaling_rejects_an_infinite_horizon() {
        let _ = autoscaling_trace(20, 2, 100.0, 50.0, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "fault horizon")]
    fn autoscaling_rejects_a_nan_horizon() {
        let _ = autoscaling_trace(20, 2, 100.0, 50.0, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "fault horizon")]
    fn failure_trace_rejects_an_infinite_horizon() {
        let _ = slot_failure_trace(4, f64::INFINITY, 100.0, 10.0, 1);
    }

    #[test]
    #[should_panic(expected = "fault horizon")]
    fn straggler_trace_rejects_a_nan_horizon() {
        let _ = straggler_trace(4, f64::NAN, 100.0, 10.0, 2.0, 1);
    }

    #[test]
    #[should_panic(expected = "down window")]
    fn autoscaling_rejects_down_longer_than_period() {
        let _ = autoscaling_trace(20, 2, 100.0, 100.0, 500.0);
    }
}
