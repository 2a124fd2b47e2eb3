//! Model-based property test: [`EventQueue`] against a naive sorted-`Vec`
//! reference under random push / cancel / reschedule / pop / replace-top
//! interleavings.
//!
//! The reference model keeps every live event in a flat `Vec` and re-derives
//! the pop order by a full scan, so it is obviously correct (if slow). The
//! indexed heap must agree with it on every observable: pop order (including
//! equal-timestamp FIFO ties and reschedule's pushed-afresh tie semantics),
//! the success/failure of every cancel and reschedule (stale handles must be
//! rejected), the earliest event and its handle as [`EventQueue::peek`]
//! reports it, and the live-event count after every operation.
//!
//! A twin queue runs the same operations with every
//! [`EventQueue::replace_top`] spelled as a pop followed by a push; the two
//! must return the same handle from every push and replace, and pop the same
//! events under the same handles.

use proptest::prelude::*;

use dias_des::{EventHandle, EventQueue, SimTime};

/// One randomly generated operation; indices select among issued handles.
#[derive(Debug, Clone)]
enum Op {
    Push { time_units: u32 },
    Cancel { handle_idx: usize },
    Reschedule { handle_idx: usize, time_units: u32 },
    Pop,
    ReplaceTop { time_units: u32 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Coarse timestamps force plenty of equal-time ties.
        (0u32..50).prop_map(|time_units| Op::Push { time_units }),
        (0usize..200).prop_map(|handle_idx| Op::Cancel { handle_idx }),
        (0usize..200, 0u32..50).prop_map(|(handle_idx, time_units)| Op::Reschedule {
            handle_idx,
            time_units
        }),
        Just(Op::Pop),
        (0u32..50).prop_map(|time_units| Op::ReplaceTop { time_units }),
    ]
}

/// The naive reference: a `Vec` of live `(time, seq, id)` events.
#[derive(Debug, Default)]
struct NaiveModel {
    live: Vec<(SimTime, u64, u64)>,
    next_seq: u64,
}

impl NaiveModel {
    fn push(&mut self, time: SimTime, id: u64) {
        self.live.push((time, self.next_seq, id));
        self.next_seq += 1;
    }

    fn contains(&self, id: u64) -> bool {
        self.live.iter().any(|&(_, _, i)| i == id)
    }

    fn cancel(&mut self, id: u64) -> bool {
        match self.live.iter().position(|&(_, _, i)| i == id) {
            Some(pos) => {
                self.live.remove(pos);
                true
            }
            None => false,
        }
    }

    /// Mirrors [`EventQueue::reschedule`]: the event keeps its identity but
    /// takes a fresh sequence number, as if newly pushed.
    fn reschedule(&mut self, id: u64, time: SimTime) -> bool {
        if !self.cancel(id) {
            return false;
        }
        self.push(time, id);
        true
    }

    fn earliest(&self) -> Option<usize> {
        self.live
            .iter()
            .enumerate()
            .min_by_key(|(_, &(t, s, _))| (t, s))
            .map(|(pos, _)| pos)
    }

    fn peek(&self) -> Option<(SimTime, u64)> {
        self.earliest()
            .map(|pos| (self.live[pos].0, self.live[pos].2))
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let (t, _, id) = self.live.remove(self.earliest()?);
        Some((t, id))
    }
}

fn run_scenario(ops: &[Op]) {
    let mut queue: EventQueue<u64> = EventQueue::new();
    // Runs `queue`'s operations with replace-top spelled pop + push.
    let mut twin: EventQueue<u64> = EventQueue::new();
    let mut model = NaiveModel::default();
    // Every handle ever issued, including fired/cancelled ones, so the
    // generated indices regularly hit stale handles. Event `id` was issued
    // `handles[id]`.
    let mut handles: Vec<(EventHandle, u64)> = Vec::new();

    for op in ops {
        let id = handles.len() as u64;
        match *op {
            Op::Push { time_units } => {
                let t = SimTime::from_secs(f64::from(time_units));
                let h = queue.push(t, id);
                assert_eq!(twin.push(t, id), h, "push handles diverged");
                model.push(t, id);
                handles.push((h, id));
            }
            Op::Cancel { handle_idx } => {
                if handles.is_empty() {
                    continue;
                }
                let (h, id) = handles[handle_idx % handles.len()];
                let expect = model.cancel(id);
                assert_eq!(
                    queue.cancel(h),
                    expect,
                    "cancel of event {id} disagrees with the model"
                );
                assert_eq!(twin.cancel(h), expect);
            }
            Op::Reschedule {
                handle_idx,
                time_units,
            } => {
                if handles.is_empty() {
                    continue;
                }
                let (h, id) = handles[handle_idx % handles.len()];
                let t = SimTime::from_secs(f64::from(time_units));
                let expect = model.reschedule(id, t);
                assert_eq!(
                    queue.reschedule(h, t),
                    expect,
                    "reschedule of event {id} disagrees with the model"
                );
                assert_eq!(twin.reschedule(h, t), expect);
            }
            Op::Pop => {
                let got = queue.pop_with_handle();
                assert_eq!(twin.pop_with_handle(), got, "twin pop diverged");
                let want = model.pop().map(|(t, id)| (t, handles[id as usize].0, id));
                assert_eq!(got, want, "pop order diverged from the model");
            }
            Op::ReplaceTop { time_units } => {
                let Some((_, fired)) = model.pop() else {
                    continue;
                };
                let t = SimTime::from_secs(f64::from(time_units));
                let h = queue.replace_top(t, id);
                let (_, twin_fired, twin_payload) = twin.pop_with_handle().expect("twin holds it");
                assert_eq!(
                    (twin_fired, twin_payload),
                    (handles[fired as usize].0, fired),
                    "replace-top removed another event than the model's earliest"
                );
                assert_eq!(
                    twin.push(t, id),
                    h,
                    "replace-top handle != pop + push handle"
                );
                model.push(t, id);
                handles.push((h, id));
            }
        }
        assert_eq!(queue.len(), model.live.len(), "live counts diverged");
        let want = model.peek().map(|(t, id)| (t, handles[id as usize].0, id));
        assert_eq!(
            queue.peek().map(|(t, h, &id)| (t, h, id)),
            want,
            "peek disagrees with the model"
        );
        assert_eq!(queue.peek_time(), want.map(|(t, _, _)| t));
    }

    // Drain: the remaining pop order must match exactly, and every issued
    // handle must be stale afterwards.
    while let Some(want) = model.pop() {
        assert_eq!(twin.pop(), Some(want), "twin drain order diverged");
        assert_eq!(queue.pop(), Some(want), "drain order diverged");
    }
    assert!(queue.is_empty() && twin.is_empty());
    assert_eq!(queue.pop(), None);
    for &(h, id) in &handles {
        assert!(
            !queue.cancel(h),
            "handle of event {id} must be stale after the drain"
        );
        assert!(!queue.reschedule(h, SimTime::ZERO));
        assert!(!model.contains(id));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn indexed_heap_matches_naive_model(ops in prop::collection::vec(arb_op(), 1..250)) {
        run_scenario(&ops);
    }
}

/// A deterministic dense-tie scenario: many pushes at one timestamp, mixed
/// with reschedules and replace-tops onto the same timestamp, must interleave
/// exactly like the model (both = pushed afresh).
#[test]
fn equal_timestamp_fifo_with_reschedules() {
    let t = 7u32;
    let mut ops = Vec::new();
    for i in 0..40 {
        ops.push(Op::Push { time_units: t });
        if i % 3 == 0 {
            ops.push(Op::Reschedule {
                handle_idx: i,
                time_units: t,
            });
        }
        if i % 5 == 0 {
            ops.push(Op::Pop);
        }
        if i % 7 == 0 {
            ops.push(Op::ReplaceTop { time_units: t });
        }
    }
    run_scenario(&ops);
}
