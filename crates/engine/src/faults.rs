//! Fault injection and elastic capacity: deterministic per-slot
//! failure/repair/drain/straggler schedules.
//!
//! The paper's harnesses assume a fixed, perfectly reliable slot pool; real
//! clusters lose slots (crashes, maintenance drains, autoscaling) and grow
//! stragglers. This module makes capacity a *scheduled* quantity:
//!
//! * A [`FaultTrace`] is an immutable, time-sorted schedule of
//!   [`FaultEvent`]s, cheap to clone (the schedule is `Arc`-shared) and
//!   replayed bit-identically by every sweep point and at any thread count,
//!   as a cloned job stream is. All randomness happens at
//!   *generation* time, through per-slot [`SeedSequence`] streams;
//!   application is pure replay. A trace is read through a [`FaultCursor`].
//! * [`FaultTrace::renewal`] samples an alternating PH up/down renewal
//!   process per slot (fail at the end of each up period, repair after the
//!   down period), [`FaultTrace::stragglers`] an alternating normal/slowed
//!   process. Both return a *generated* trace that stores its description,
//!   not its events: a cursor draws each slot's run in time order and merges
//!   the runs by `(time, slot)` through a heap over the slot heads —
//!   O(log slots) per event and O(slots) state, however long the horizon.
//!   The order equals a stable `(time, slot)` sort of the runs concatenated
//!   in slot order. [`FaultTrace::events`] materializes the same events
//!   once, for readers that want a slice.
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
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use dias_des::SeedSequence;
use dias_stochastic::{Ph, PhSampler};
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

/// How many events a streaming [`FaultCursor`] generates per refill of its
/// buffer. Refilling in chunks keeps the driver's per-arm peek a slice index
/// instead of a heap operation.
const CHUNK: usize = 512;

/// An immutable, time-sorted fault schedule.
///
/// A trace is either *stored* or *generated*. A stored trace holds its
/// events: [`FaultTrace::new`], [`FaultTrace::merge`] and explicit
/// schedules such as the autoscaling square wave. A generated trace
/// ([`FaultTrace::renewal`], [`FaultTrace::stragglers`]) holds only its
/// description: two compiled PH samplers, their stream labels and event
/// kinds, the horizon, the slot count and the seeds. Its
/// [`cursor`](FaultTrace::cursor) draws the events in order on demand, with
/// O(slots) state, and [`events`](FaultTrace::events) materializes them
/// once, on first call, by draining the same generator.
///
/// Cheap to clone — clones share the description and any materialized
/// events through an `Arc`, so one trace fans out to many concurrent sweep
/// points, each replaying the identical failure history (the fault analogue
/// of common random numbers).
#[derive(Debug, Clone, Default)]
pub struct FaultTrace {
    schedule: Arc<Schedule>,
}

/// What a [`FaultTrace`] shares with its clones and cursors.
#[derive(Debug, Default)]
struct Schedule {
    /// The events in schedule order: set at construction for a stored
    /// trace, and by the first [`FaultTrace::events`] call for a generated
    /// one.
    events: OnceLock<Vec<FaultEvent>>,
    /// The description of a generated trace; `None` for a stored one.
    generator: Option<Alternating>,
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
        Ok(FaultTrace::stored(events))
    }

    /// A stored trace over `events`, already in schedule order.
    fn stored(events: Vec<FaultEvent>) -> Self {
        FaultTrace {
            schedule: Arc::new(Schedule {
                events: OnceLock::from(events),
                generator: None,
            }),
        }
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
    /// The trace is generated: nothing is drawn until it is read.
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
    /// `faults/duration` streams), and so does the generation on demand.
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

    /// The generated trace behind [`FaultTrace::renewal`] and
    /// [`FaultTrace::stragglers`] (see [`Alternating`]).
    fn alternating(
        slots: usize,
        horizon_secs: f64,
        dists: [&Ph; 2],
        labels: [&'static str; 2],
        kinds: [FaultKind; 2],
        seeds: SeedSequence,
    ) -> Self {
        assert!(
            horizon_secs.is_finite() && horizon_secs >= 0.0,
            "fault horizon must be finite and non-negative"
        );
        FaultTrace {
            schedule: Arc::new(Schedule {
                events: OnceLock::new(),
                generator: Some(Alternating {
                    samplers: dists.map(|d| d.sampler().clone()),
                    labels,
                    kinds,
                    horizon_secs,
                    slots,
                    seeds,
                }),
            }),
        }
    }

    /// Merges two schedules into one stored trace, sorted by `(time, slot)`;
    /// at equal `(time, slot)` this schedule's events come first.
    /// Materializes both inputs.
    #[must_use]
    pub fn merge(&self, other: &FaultTrace) -> FaultTrace {
        let (a, b) = (self.events(), other.events());
        let mut events = Vec::with_capacity(a.len() + b.len());
        let (mut a, mut b) = (a.iter().peekable(), b.iter().peekable());
        while let (Some(x), Some(y)) = (a.peek(), b.peek()) {
            let next = if schedule_order(y, x).is_lt() {
                b.next()
            } else {
                a.next()
            };
            events.extend(next);
        }
        events.extend(a.chain(b));
        FaultTrace::stored(events)
    }

    /// The schedule's events, sorted by `(time, slot)`.
    ///
    /// A generated trace is materialized by the first call, and its clones
    /// share the result. A driver reads through [`FaultTrace::cursor`]
    /// instead, which holds O(slots) state rather than O(events).
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        self.schedule.events.get_or_init(|| {
            let mut events = Vec::new();
            if let Some(generator) = &self.schedule.generator {
                generator.fill(&mut generator.heads(), &mut events, usize::MAX);
            }
            events
        })
    }

    /// Number of scheduled events. Materializes a generated trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events().len()
    }

    /// Whether the schedule is empty (engine behaviour is then bit-identical
    /// to a cluster without fault injection). A generated trace answers from
    /// its slots' first events, without materializing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        match (self.schedule.events.get(), &self.schedule.generator) {
            (Some(events), _) => events.is_empty(),
            (None, Some(generator)) => generator.heads().is_empty(),
            (None, None) => true,
        }
    }

    /// A cursor at the start of the schedule. It reads the stored events in
    /// place when the trace is stored or already materialized; otherwise it
    /// generates the events as it goes.
    #[must_use]
    pub fn cursor(&self) -> FaultCursor {
        let stream = match (self.schedule.events.get(), &self.schedule.generator) {
            (None, Some(generator)) => {
                let mut stream = Stream {
                    heads: generator.heads(),
                    chunk: Vec::with_capacity(CHUNK),
                };
                stream.refill(generator);
                Some(stream)
            }
            _ => None,
        };
        FaultCursor {
            schedule: Arc::clone(&self.schedule),
            pos: 0,
            stream,
        }
    }
}

/// A reading position in a [`FaultTrace`], moving forward in schedule
/// order.
///
/// On a stored or materialized trace it is an index into the shared
/// events. On a generated one it streams: it holds each slot's next event
/// in a heap (O(slots)) and a buffer of up to 512 generated events, refilled
/// from the heap when read to its end. A clone continues bit for bit like
/// the original, so a checkpoint that clones the cursor resumes the fault
/// schedule exactly where the run left it.
#[derive(Debug, Clone)]
pub struct FaultCursor {
    schedule: Arc<Schedule>,
    /// Index of the next event: into the stored events, or, while
    /// streaming, into the stream's buffer.
    pos: usize,
    /// The generator state of a streaming cursor.
    stream: Option<Stream>,
}

impl FaultCursor {
    /// The next event, or `None` past the end of the schedule.
    #[must_use]
    pub fn peek(&self) -> Option<&FaultEvent> {
        let events = match &self.stream {
            Some(stream) => &stream.chunk,
            None => self.schedule.events.get().map_or(&[][..], Vec::as_slice),
        };
        events.get(self.pos)
    }

    /// Moves past the next event; does nothing at the end of the schedule.
    pub fn advance(&mut self) {
        match (&mut self.stream, &self.schedule.generator) {
            (Some(stream), Some(generator)) if self.pos + 1 >= stream.chunk.len() => {
                stream.refill(generator);
                self.pos = 0;
            }
            _ => self.pos += 1,
        }
    }
}

impl Iterator for FaultCursor {
    type Item = FaultEvent;

    fn next(&mut self) -> Option<FaultEvent> {
        let event = self.peek().copied();
        self.advance();
        event
    }
}

/// A streaming cursor's generator state.
#[derive(Debug, Clone)]
struct Stream {
    /// Each unfinished slot's next event, earliest `(time, slot)` on top.
    heads: BinaryHeap<SlotRun>,
    /// The events generated ahead of the cursor, in schedule order.
    chunk: Vec<FaultEvent>,
}

impl Stream {
    /// Replaces the buffer with the next [`CHUNK`] events (fewer at the end
    /// of the schedule).
    fn refill(&mut self, generator: &Alternating) {
        self.chunk.clear();
        generator.fill(&mut self.heads, &mut self.chunk, CHUNK);
    }
}

/// The description of a generated trace: per slot, an event of `kinds[0]`
/// after each `samplers[0]` period and one of `kinds[1]` after each
/// following `samplers[1]` period, over `[0, horizon_secs)`. Period `i` is
/// drawn from the slot's `labels[i]` stream under `seeds.child(slot)`.
///
/// Each slot's run is non-decreasing in time (PH draws are non-negative),
/// so a min-heap over the slot heads keyed by `(time, slot)` emits the
/// stable `(time, slot)` order of all runs: at equal times the lower slot
/// goes first, and a slot's own events keep their generation order because
/// only its head is in the heap.
#[derive(Debug)]
struct Alternating {
    samplers: [PhSampler; 2],
    labels: [&'static str; 2],
    kinds: [FaultKind; 2],
    horizon_secs: f64,
    slots: usize,
    seeds: SeedSequence,
}

impl Alternating {
    /// Every slot's first event that falls inside the horizon, heaped.
    fn heads(&self) -> BinaryHeap<SlotRun> {
        (0..self.slots)
            .filter_map(|slot| {
                let child = self.seeds.child(slot as u64);
                let mut rngs = self.labels.map(|label| child.stream(label));
                let at_secs = self.samplers[0].sample(&mut rngs[0]);
                (at_secs < self.horizon_secs).then_some(SlotRun {
                    event: FaultEvent {
                        at_secs,
                        slot,
                        kind: self.kinds[0],
                    },
                    phase: 0,
                    rngs,
                })
            })
            .collect()
    }

    /// Appends the next `max` events of the schedule (fewer at its end) to
    /// `out`, advancing `heads` past them: O(log slots) per event.
    fn fill(&self, heads: &mut BinaryHeap<SlotRun>, out: &mut Vec<FaultEvent>, max: usize) {
        for _ in 0..max {
            let Some(mut head) = heads.peek_mut() else {
                break;
            };
            let at_secs = head.event.at_secs;
            assert!(
                at_secs.is_finite() && at_secs >= 0.0,
                "sampled times are finite and non-negative"
            );
            out.push(head.event);
            let phase = 1 - head.phase;
            head.event.at_secs += self.samplers[phase].sample(&mut head.rngs[phase]);
            head.event.kind = self.kinds[phase];
            head.phase = phase;
            if head.event.at_secs < self.horizon_secs {
                continue; // dropping `head` sifts it into place
            }
            PeekMut::pop(head); // the slot's run ends past the horizon
        }
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
#[derive(Debug, Clone)]
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
    fn generated_traces_stream_until_events_is_called() {
        let ph = Ph::exponential(1.0).unwrap();
        let trace = FaultTrace::renewal(4, 1_000.0, &ph, &ph, SeedSequence::new(2));
        let clone = trace.clone();
        assert!(!trace.is_empty());
        let streamed: Vec<FaultEvent> = trace.cursor().collect();
        assert!(streamed.len() > 2 * CHUNK, "the stream crosses refills");
        assert!(
            trace.schedule.events.get().is_none(),
            "reading through a cursor stores nothing"
        );
        assert_eq!(clone.events(), streamed.as_slice());
        assert!(
            trace.schedule.events.get().is_some(),
            "clones share the materialized events"
        );
        assert!(
            trace.cursor().stream.is_none(),
            "later cursors read them in place"
        );
    }

    #[test]
    fn cursors_stop_at_the_end() {
        fn shareable<T: Clone + std::fmt::Debug + Send + Sync>() {}
        shareable::<FaultTrace>();
        shareable::<FaultCursor>();
        let ph = Ph::exponential(1.0).unwrap();
        for trace in [
            FaultTrace::default(),
            FaultTrace::renewal(3, 0.0, &ph, &ph, SeedSequence::new(1)),
            FaultTrace::renewal(3, 2.0, &ph, &ph, SeedSequence::new(1)),
        ] {
            let mut cursor = trace.cursor();
            cursor.by_ref().for_each(drop);
            cursor.advance();
            assert_eq!(cursor.peek(), None);
        }
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
