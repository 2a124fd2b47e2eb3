//! Fault injection and elastic capacity: deterministic per-slot
//! failure/repair/drain/straggler schedules.
//!
//! The paper's harnesses assume a fixed, perfectly reliable slot pool; real
//! clusters lose slots (crashes, maintenance drains, autoscaling) and grow
//! stragglers. This module makes capacity a *scheduled* quantity:
//!
//! * A [`FaultTrace`] is an immutable, time-sorted list of [`FaultEvent`]s —
//!   the fault analogue of the PR 6 `DrawTrace`: generated (or recorded)
//!   once, cheap to clone (the events are `Arc`-shared), and replayed
//!   bit-identically by every sweep point and at any thread count. All
//!   randomness happens at *generation* time, through per-slot
//!   [`SeedSequence`] streams; application is pure replay.
//! * [`FaultTrace::renewal`] samples an alternating PH up/down renewal
//!   process per slot (fail at the end of each up period, repair after the
//!   down period), [`FaultTrace::stragglers`] an alternating normal/slowed
//!   process. Both run one generator: each slot's run is drawn in time
//!   order and the runs are merged by `(time, slot)` through a heap over the
//!   slot heads, straight into the trace's buffer — O(log slots) per event,
//!   no sort and no copy. The order equals a stable `(time, slot)` sort of
//!   the runs concatenated in slot order.
//! * The engine applies events through
//!   [`ClusterSim::apply_fault`](crate::ClusterSim::apply_fault) (or the
//!   individual `fail_slot`/`repair_slot`/`drain_slot`/`slow_slot` calls):
//!   a failed slot kills the run occupying it (the victim re-queues at the
//!   head of the pending queue and re-executes from scratch, exactly like a
//!   preemption victim), a draining slot finishes its in-flight work first,
//!   and a slowed slot retimes its run's in-flight completions through the
//!   PR 5 frequency-domain machinery — a dead slot is just a domain at
//!   speed 0, a straggler one at speed `1/factor`.
//!
//! Determinism rules: events are ordered by `(time, slot)`; per-slot
//! generator streams are keyed by slot index so adding a slot never perturbs
//! the others; an *empty* trace leaves the engine bit-identical to today's —
//! the zero-failure configuration is pinned by the golden traces.

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use dias_des::SeedSequence;
use dias_stochastic::Ph;
use rand::rngs::StdRng;

use crate::sim::EngineError;

/// Health of one cluster slot under fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SlotHealth {
    /// In service: schedulable and (if assigned) executing.
    Up,
    /// Leaving service: blocked from new placements, but the run currently
    /// holding it keeps executing; becomes [`SlotHealth::Down`] when that run
    /// departs.
    Draining,
    /// Out of service: blocked from placements, holds no work.
    Down,
}

/// What happens to a slot at a fault event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The slot dies immediately: the run occupying it (if any) is killed and
    /// re-queued at the head of the pending queue.
    Fail,
    /// The slot returns to service at full speed (clears any straggler
    /// factor) and freed capacity is offered to the pending queue.
    Repair,
    /// The slot stops accepting new work; in-flight work completes first.
    Drain,
    /// The slot becomes a straggler: work on it executes `factor`× slower.
    /// `factor = 1.0` restores full speed without a repair.
    Slow {
        /// Slowdown factor, finite and ≥ 1.0.
        factor: f64,
    },
}

/// One timestamped fault action against one slot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// When the event takes effect, in seconds of simulated time.
    pub at_secs: f64,
    /// The affected slot index.
    pub slot: usize,
    /// The action applied to the slot.
    pub kind: FaultKind,
}

/// An immutable, time-sorted fault schedule.
///
/// Cheap to clone — the events are `Arc`-shared, so one trace fans out to
/// many concurrent sweep points, each replaying the identical failure
/// history (the fault analogue of common random numbers).
#[derive(Debug, Clone, Default)]
pub struct FaultTrace {
    events: Arc<Vec<FaultEvent>>,
}

impl FaultTrace {
    /// The empty schedule: no faults, engine behaviour bit-identical to a
    /// cluster without fault injection.
    #[must_use]
    pub fn empty() -> Self {
        FaultTrace::default()
    }

    /// Builds a trace from explicit events, sorting them stably by
    /// `(time, slot)`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BadFault`] when a timestamp is negative or not
    /// finite, or a [`FaultKind::Slow`] factor is below 1.0 or not finite.
    pub fn new(mut events: Vec<FaultEvent>) -> Result<Self, EngineError> {
        for ev in &events {
            if !ev.at_secs.is_finite() || ev.at_secs < 0.0 {
                return Err(EngineError::BadFault(format!(
                    "event time {} is not a finite non-negative second count",
                    ev.at_secs
                )));
            }
            if let FaultKind::Slow { factor } = ev.kind {
                if !factor.is_finite() || factor < 1.0 {
                    return Err(EngineError::BadFault(format!(
                        "straggler factor {factor} must be finite and >= 1.0"
                    )));
                }
            }
        }
        events.sort_by(schedule_order);
        Ok(FaultTrace {
            events: Arc::new(events),
        })
    }

    /// Samples an alternating PH up/down renewal process per slot over
    /// `[0, horizon_secs)`: each slot fails at the end of each up period and
    /// repairs after the following down period.
    ///
    /// Each slot draws from its own [`SeedSequence`] child streams
    /// (`faults/up` and `faults/down` under `seeds.child(slot)`), so the
    /// schedule is independent of slot iteration order and adding slots
    /// never perturbs existing ones — replica-pure in the PR 6 sense.
    ///
    /// # Panics
    ///
    /// Panics if `horizon_secs` is negative or not finite.
    #[must_use]
    pub fn renewal(
        slots: usize,
        horizon_secs: f64,
        up: &Ph,
        down: &Ph,
        seeds: SeedSequence,
    ) -> Self {
        Self::alternating(
            slots,
            horizon_secs,
            [up, down],
            ["faults/up", "faults/down"],
            [FaultKind::Fail, FaultKind::Repair],
            seeds,
        )
    }

    /// Samples an alternating normal/slowed process per slot: after each PH
    /// `gap`, the slot runs `factor`× slower for a PH `duration`, then
    /// recovers (`Slow { factor: 1.0 }`).
    ///
    /// Seeding follows [`FaultTrace::renewal`] (per-slot `faults/gap` and
    /// `faults/duration` streams).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is below 1.0 or not finite, or `horizon_secs` is
    /// negative or not finite.
    #[must_use]
    pub fn stragglers(
        slots: usize,
        horizon_secs: f64,
        gap: &Ph,
        duration: &Ph,
        factor: f64,
        seeds: SeedSequence,
    ) -> Self {
        assert!(
            factor.is_finite() && factor >= 1.0,
            "straggler factor must be finite and >= 1.0"
        );
        Self::alternating(
            slots,
            horizon_secs,
            [gap, duration],
            ["faults/gap", "faults/duration"],
            [FaultKind::Slow { factor }, FaultKind::Slow { factor: 1.0 }],
            seeds,
        )
    }

    /// The generator behind [`FaultTrace::renewal`] and
    /// [`FaultTrace::stragglers`]: per slot, an event of `kinds[0]` after
    /// each `dists[0]` period and one of `kinds[1]` after each following
    /// `dists[1]` period, over `[0, horizon_secs)`. Period `i` is drawn from
    /// the slot's `labels[i]` stream under `seeds.child(slot)`.
    ///
    /// Each slot's run is non-decreasing in time (PH draws are
    /// non-negative), so a min-heap over the slot heads keyed by
    /// `(time, slot)` emits the stable `(time, slot)` order of all runs: at
    /// equal times the lower slot goes first, and a slot's own events keep
    /// their generation order because only its head is in the heap.
    fn alternating(
        slots: usize,
        horizon_secs: f64,
        dists: [&Ph; 2],
        labels: [&str; 2],
        kinds: [FaultKind; 2],
        seeds: SeedSequence,
    ) -> Self {
        assert!(
            horizon_secs.is_finite() && horizon_secs >= 0.0,
            "fault horizon must be finite and non-negative"
        );
        let samplers = dists.map(Ph::sampler);
        let mut heads: BinaryHeap<SlotRun> = (0..slots)
            .filter_map(|slot| {
                let child = seeds.child(slot as u64);
                let mut rngs = labels.map(|label| child.stream(label));
                let at_secs = samplers[0].sample(&mut rngs[0]);
                (at_secs < horizon_secs).then_some(SlotRun {
                    event: FaultEvent {
                        at_secs,
                        slot,
                        kind: kinds[0],
                    },
                    phase: 0,
                    rngs,
                })
            })
            .collect();
        let mut events = Vec::new();
        while let Some(mut head) = heads.peek_mut() {
            let at_secs = head.event.at_secs;
            assert!(
                at_secs.is_finite() && at_secs >= 0.0,
                "sampled times are finite and non-negative"
            );
            events.push(head.event);
            let phase = 1 - head.phase;
            head.event.at_secs += samplers[phase].sample(&mut head.rngs[phase]);
            head.event.kind = kinds[phase];
            head.phase = phase;
            if head.event.at_secs < horizon_secs {
                continue; // dropping `head` sifts it into place
            }
            PeekMut::pop(head); // the slot's run ends past the horizon
        }
        FaultTrace {
            events: Arc::new(events),
        }
    }

    /// Merges two schedules into one, sorted by `(time, slot)`; at equal
    /// `(time, slot)` this schedule's events come first.
    #[must_use]
    pub fn merge(&self, other: &FaultTrace) -> FaultTrace {
        let (mut a, mut b) = (
            self.events.iter().peekable(),
            other.events.iter().peekable(),
        );
        let mut events = Vec::with_capacity(self.len() + other.len());
        while let (Some(x), Some(y)) = (a.peek(), b.peek()) {
            let next = if schedule_order(y, x).is_lt() {
                b.next()
            } else {
                a.next()
            };
            events.extend(next);
        }
        events.extend(a.chain(b));
        FaultTrace {
            events: Arc::new(events),
        }
    }

    /// The schedule's events, sorted by `(time, slot)`.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        self.events.as_slice()
    }

    /// Number of scheduled events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The fault cursor at time `secs`: the index of the first event firing
    /// at or after that timestamp.
    ///
    /// This is the cursor a checkpointing driver stores alongside its engine
    /// [`Checkpoint`](crate::Checkpoint) — a branch that resumes a run at
    /// `secs` picks up the trace at exactly this index, so the replayed fault
    /// schedule is bit-identical to an uninterrupted run's.
    #[must_use]
    pub fn index_at(&self, secs: f64) -> usize {
        self.events.partition_point(|e| e.at_secs < secs)
    }

    /// Whether the schedule is empty (engine behaviour is then bit-identical
    /// to a cluster without fault injection).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// The schedule order: by time, then by slot. Times compare as numbers, so
/// `-0.0` and `0.0` tie and the slot decides.
fn schedule_order(a: &FaultEvent, b: &FaultEvent) -> Ordering {
    a.at_secs
        .partial_cmp(&b.at_secs)
        .expect("event times are finite")
        .then(a.slot.cmp(&b.slot))
}

/// One slot's place in an alternating run: its next event, that event's
/// phase (the index into the generator's kinds and period streams), and
/// the two period streams it draws from.
struct SlotRun {
    event: FaultEvent,
    phase: usize,
    rngs: [StdRng; 2],
}

// `BinaryHeap` is a max-heap: order heads by *reversed* `(time, slot)` so
// the earliest, then lowest slot, sits on top.
impl Ord for SlotRun {
    fn cmp(&self, other: &Self) -> Ordering {
        schedule_order(&other.event, &self.event)
    }
}

impl PartialOrd for SlotRun {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for SlotRun {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for SlotRun {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sorts_and_validates() {
        let trace = FaultTrace::new(vec![
            FaultEvent {
                at_secs: 5.0,
                slot: 1,
                kind: FaultKind::Repair,
            },
            FaultEvent {
                at_secs: 2.0,
                slot: 3,
                kind: FaultKind::Fail,
            },
            FaultEvent {
                at_secs: 2.0,
                slot: 0,
                kind: FaultKind::Drain,
            },
        ])
        .unwrap();
        let order: Vec<(f64, usize)> = trace.events().iter().map(|e| (e.at_secs, e.slot)).collect();
        assert_eq!(order, vec![(2.0, 0), (2.0, 3), (5.0, 1)]);
        assert_eq!(trace.len(), 3);
        assert!(!trace.is_empty());
        assert!(FaultTrace::empty().is_empty());
    }

    #[test]
    fn index_at_is_the_resume_cursor() {
        let trace = FaultTrace::new(
            [2.0, 2.0, 5.0, 9.0]
                .iter()
                .enumerate()
                .map(|(slot, &at_secs)| FaultEvent {
                    at_secs,
                    slot,
                    kind: FaultKind::Fail,
                })
                .collect(),
        )
        .unwrap();
        assert_eq!(trace.index_at(0.0), 0);
        assert_eq!(trace.index_at(2.0), 0, "events at the timestamp replay");
        assert_eq!(trace.index_at(2.5), 2);
        assert_eq!(trace.index_at(5.0), 2);
        assert_eq!(trace.index_at(100.0), 4);
        assert_eq!(FaultTrace::empty().index_at(3.0), 0);
    }

    #[test]
    fn invalid_events_rejected() {
        let bad_time = FaultTrace::new(vec![FaultEvent {
            at_secs: -1.0,
            slot: 0,
            kind: FaultKind::Fail,
        }]);
        assert!(matches!(bad_time, Err(EngineError::BadFault(_))));
        let bad_factor = FaultTrace::new(vec![FaultEvent {
            at_secs: 1.0,
            slot: 0,
            kind: FaultKind::Slow { factor: 0.5 },
        }]);
        assert!(matches!(bad_factor, Err(EngineError::BadFault(_))));
    }

    #[test]
    fn renewal_alternates_fail_repair_per_slot() {
        let up = Ph::exponential(1.0 / 100.0).unwrap();
        let down = Ph::exponential(1.0 / 10.0).unwrap();
        let trace = FaultTrace::renewal(4, 2_000.0, &up, &down, SeedSequence::new(7));
        assert!(
            !trace.is_empty(),
            "2000 s at MTBF 100 s must fail sometimes"
        );
        for slot in 0..4 {
            let mut expect_fail = true;
            for ev in trace.events().iter().filter(|e| e.slot == slot) {
                match ev.kind {
                    FaultKind::Fail => {
                        assert!(expect_fail, "slot {slot} failed while down");
                        expect_fail = false;
                    }
                    FaultKind::Repair => {
                        assert!(!expect_fail, "slot {slot} repaired while up");
                        expect_fail = true;
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        // Sorted by time.
        let times: Vec<f64> = trace.events().iter().map(|e| e.at_secs).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn renewal_is_reproducible_and_slot_pure() {
        let up = Ph::exponential(0.01).unwrap();
        let down = Ph::exponential(0.1).unwrap();
        let a = FaultTrace::renewal(3, 1_000.0, &up, &down, SeedSequence::new(11));
        let b = FaultTrace::renewal(3, 1_000.0, &up, &down, SeedSequence::new(11));
        assert_eq!(a.events(), b.events());
        // Growing the cluster must not perturb the existing slots' schedules.
        let wider = FaultTrace::renewal(5, 1_000.0, &up, &down, SeedSequence::new(11));
        for slot in 0..3 {
            let narrow: Vec<_> = a.events().iter().filter(|e| e.slot == slot).collect();
            let wide: Vec<_> = wider.events().iter().filter(|e| e.slot == slot).collect();
            assert_eq!(narrow, wide, "slot {slot} schedule changed");
        }
    }

    #[test]
    fn stragglers_alternate_slow_and_recover() {
        let gap = Ph::exponential(1.0 / 50.0).unwrap();
        let dur = Ph::exponential(1.0 / 20.0).unwrap();
        let trace = FaultTrace::stragglers(2, 1_000.0, &gap, &dur, 2.0, SeedSequence::new(3));
        assert!(!trace.is_empty());
        for slot in 0..2 {
            let mut slowed = false;
            for ev in trace.events().iter().filter(|e| e.slot == slot) {
                match ev.kind {
                    FaultKind::Slow { factor } if factor > 1.0 => {
                        assert!(!slowed);
                        slowed = true;
                    }
                    FaultKind::Slow { factor } => {
                        assert_eq!(factor, 1.0);
                        assert!(slowed);
                        slowed = false;
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "fault horizon")]
    fn renewal_rejects_an_infinite_horizon() {
        let ph = Ph::exponential(1.0).unwrap();
        let _ = FaultTrace::renewal(2, f64::INFINITY, &ph, &ph, SeedSequence::new(1));
    }

    #[test]
    #[should_panic(expected = "fault horizon")]
    fn renewal_rejects_a_nan_horizon() {
        let ph = Ph::exponential(1.0).unwrap();
        let _ = FaultTrace::renewal(2, f64::NAN, &ph, &ph, SeedSequence::new(1));
    }

    #[test]
    #[should_panic(expected = "fault horizon")]
    fn stragglers_reject_a_negative_horizon() {
        let ph = Ph::exponential(1.0).unwrap();
        let _ = FaultTrace::stragglers(2, -1.0, &ph, &ph, 2.0, SeedSequence::new(1));
    }

    #[test]
    #[should_panic(expected = "fault horizon")]
    fn stragglers_reject_an_infinite_horizon() {
        let ph = Ph::exponential(1.0).unwrap();
        let _ = FaultTrace::stragglers(2, f64::INFINITY, &ph, &ph, 2.0, SeedSequence::new(1));
    }

    #[test]
    fn zero_horizon_or_no_slots_is_empty() {
        let ph = Ph::exponential(1.0).unwrap();
        assert!(FaultTrace::renewal(3, 0.0, &ph, &ph, SeedSequence::new(1)).is_empty());
        assert!(FaultTrace::renewal(0, 10.0, &ph, &ph, SeedSequence::new(1)).is_empty());
    }

    #[test]
    fn merge_interleaves_by_time() {
        let a = FaultTrace::new(vec![FaultEvent {
            at_secs: 10.0,
            slot: 0,
            kind: FaultKind::Fail,
        }])
        .unwrap();
        let b = FaultTrace::new(vec![FaultEvent {
            at_secs: 5.0,
            slot: 1,
            kind: FaultKind::Drain,
        }])
        .unwrap();
        let m = a.merge(&b);
        assert_eq!(m.len(), 2);
        assert_eq!(m.events()[0].slot, 1);
        assert_eq!(m.events()[1].slot, 0);
    }

    #[test]
    fn merge_keeps_self_first_on_ties() {
        let at = |at_secs: f64, kind| {
            FaultTrace::new(vec![FaultEvent {
                at_secs,
                slot: 2,
                kind,
            }])
            .unwrap()
        };
        let m = at(0.0, FaultKind::Fail).merge(&at(-0.0, FaultKind::Repair));
        assert_eq!(m.events()[0].kind, FaultKind::Fail);
        assert_eq!(m.events()[1].at_secs.to_bits(), (-0.0f64).to_bits());
        let m = at(-0.0, FaultKind::Repair).merge(&at(0.0, FaultKind::Fail));
        assert_eq!(m.events()[0].kind, FaultKind::Repair);
    }
}
