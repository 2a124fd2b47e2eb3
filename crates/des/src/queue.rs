//! An indexed, truly-cancellable event calendar with deterministic FIFO
//! tie-breaking.
//!
//! The queue is a hand-rolled binary min-heap over `(time, seq)` stored in a
//! `Vec`, plus a handle → heap-slot index, so [`EventQueue::cancel`] and
//! [`EventQueue::reschedule`] remove or move the *actual* entry in O(log n)
//! instead of tombstoning it for a later pop to skip. There are never stale
//! entries in the heap, which is what makes [`EventQueue::peek_time`] a plain
//! `&self` read.
//!
//! The heap holds only `Copy` keys (`time`, `seq`, slot index); payloads are
//! parked in the slot table and never move during sifts. That makes the sifts
//! safe *hole* loops — the moving key is lifted out once and each displaced
//! key is written down one level with a single copy — instead of a
//! `Vec::swap` (three moves of a larger entry) per level.

use crate::SimTime;

/// Identifies an event scheduled in an [`EventQueue`] so it can be cancelled
/// or rescheduled later.
///
/// Handles are cheap to copy and remain valid (as "already fired / already
/// cancelled", rejected by [`EventQueue::cancel`] and
/// [`EventQueue::reschedule`]) after the event leaves the queue. Internally a
/// handle packs a reusable slot key with a per-slot generation counter; a
/// stale handle aliases a live event only after its slot's generation wraps
/// around `u32`, i.e. after ~4 billion reuses of one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle(u64);

impl EventHandle {
    fn new(key: u32, generation: u32) -> Self {
        EventHandle((u64::from(generation) << 32) | u64::from(key))
    }

    fn key(self) -> u32 {
        (self.0 & 0xffff_ffff) as u32
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// A heap entry: just the ordering key plus the slot index of its payload.
/// `Copy`, so the hole sifts move 24 bytes per level whatever the payload is.
#[derive(Debug, Clone, Copy)]
struct Entry {
    time: SimTime,
    seq: u64,
    key: u32,
}

impl Entry {
    /// Min-heap priority: earlier time first, insertion order among ties.
    ///
    /// Hand-rolled on the raw seconds (`SimTime` construction already rejects
    /// NaN) so the per-level comparison in the sifts is two branch-predictable
    /// float/int compares, not an `Ordering` chain.
    #[inline]
    fn before(&self, other: &Self) -> bool {
        let (a, b) = (self.time.as_secs(), other.time.as_secs());
        a < b || (a == b && self.seq < other.seq)
    }
}

/// Slot `pos` value marking a handle whose event is no longer queued.
const VACANT: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Slot<E> {
    /// Index of the slot's entry in the heap, or [`VACANT`].
    pos: u32,
    /// Bumped every time the slot's event leaves the queue, so old handles
    /// never alias a later event reusing the slot.
    generation: u32,
    /// The queued event's payload, parked here so sifts never move it;
    /// `None` while the slot is vacant.
    payload: Option<E>,
}

/// A priority queue of timed events.
///
/// Events with equal timestamps pop in insertion order, which keeps
/// simulations deterministic. [`EventQueue::cancel`] removes the entry from
/// the heap immediately (O(log n)) and [`EventQueue::reschedule`] moves a
/// pending event to a new timestamp in place — the operations the engine's
/// eviction and DVFS paths hammer.
///
/// A clone is the branch primitive of checkpoint/restore simulation: it
/// copies the handle table with its generations and the FIFO sequence
/// counter, so every [`EventHandle`] issued before the clone resolves to the
/// same event in both queues, and identical operation sequences on the two
/// then pop bit-identical streams.
///
/// # Examples
///
/// ```
/// use dias_des::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// let h = q.push(SimTime::from_secs(2.0), "late");
/// q.push(SimTime::from_secs(1.0), "early");
/// q.cancel(h);
/// assert_eq!(q.peek_time(), Some(SimTime::from_secs(1.0)));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), "early")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: Vec<Entry>,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty queue with room for `n` concurrent events.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        EventQueue {
            heap: Vec::with_capacity(n),
            slots: Vec::with_capacity(n),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at `time` and returns a handle for later
    /// cancellation or rescheduling.
    #[inline]
    pub fn push(&mut self, time: SimTime, payload: E) -> EventHandle {
        let key = match self.free.pop() {
            Some(key) => key,
            None => {
                let key = u32::try_from(self.slots.len()).expect("fewer than 2^32 live events");
                self.slots.push(Slot {
                    pos: VACANT,
                    generation: 0,
                    payload: None,
                });
                key
            }
        };
        self.slots[key as usize].payload = Some(payload);
        let seq = self.next_seq;
        self.next_seq += 1;
        let pos = self.heap.len();
        self.heap.push(Entry { time, seq, key });
        self.sift_up(pos);
        EventHandle::new(key, self.slots[key as usize].generation)
    }

    /// Cancels a scheduled event, removing its entry from the calendar in
    /// O(log n).
    ///
    /// Returns `true` if the event was still pending; `false` if it had
    /// already fired or been cancelled (stale handles are always rejected).
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        match self.resolve(handle) {
            Some(pos) => {
                self.remove_at(pos);
                true
            }
            None => false,
        }
    }

    /// Moves a pending event to `new_time` in place (decrease- or
    /// increase-key, O(log n)); the handle stays valid.
    ///
    /// For FIFO tie-breaking the rescheduled event behaves as if it had been
    /// newly pushed — among events with equal timestamps it fires *after*
    /// every event already scheduled — so `reschedule(h, t)` is a drop-in,
    /// single-sift replacement for `cancel(h)` + `push(t, payload)`.
    ///
    /// Returns `true` if the event was still pending; `false` (no-op) if it
    /// had already fired or been cancelled.
    ///
    /// # Examples
    ///
    /// The engine's DVFS switch is the canonical caller: every in-flight
    /// completion moves to its rescaled timestamp without losing its handle.
    ///
    /// ```
    /// use dias_des::{EventQueue, SimTime};
    ///
    /// let mut q = EventQueue::new();
    /// let slow = q.push(SimTime::from_secs(10.0), "task");
    /// q.push(SimTime::from_secs(4.0), "timer");
    /// // Sprinting halves the remaining work: 10 s becomes 5 s.
    /// assert!(q.reschedule(slow, SimTime::from_secs(5.0)));
    /// assert_eq!(q.pop(), Some((SimTime::from_secs(4.0), "timer")));
    /// assert_eq!(q.pop(), Some((SimTime::from_secs(5.0), "task")));
    /// // Once fired, the handle is stale and reschedule is a no-op.
    /// assert!(!q.reschedule(slow, SimTime::from_secs(9.0)));
    /// ```
    pub fn reschedule(&mut self, handle: EventHandle, new_time: SimTime) -> bool {
        let Some(pos) = self.resolve(handle) else {
            return false;
        };
        let entry = &mut self.heap[pos];
        entry.time = new_time;
        entry.seq = self.next_seq;
        self.next_seq += 1;
        // A fresh seq can only move the entry down among equal times, but the
        // new time itself may move it either way.
        let settled = self.sift_down(pos);
        self.sift_up(settled);
        true
    }

    /// Cancels every event of a group of handles — the per-job event-group
    /// operation behind the engine's multi-job eviction, where *one* job's
    /// pending completions must leave the calendar while every other job's
    /// events stay put.
    ///
    /// Returns how many events were actually cancelled; stale handles are
    /// skipped exactly as in [`EventQueue::cancel`].
    pub fn cancel_many<I>(&mut self, handles: I) -> usize
    where
        I: IntoIterator<Item = EventHandle>,
    {
        handles.into_iter().filter(|&h| self.cancel(h)).count()
    }

    /// Removes and returns the earliest event.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_with_handle().map(|(t, _, payload)| (t, payload))
    }

    /// Removes and returns the earliest event along with the (now fired)
    /// handle it was scheduled under, so callers tracking handles can match
    /// the event back to their own records.
    #[inline]
    pub fn pop_with_handle(&mut self) -> Option<(SimTime, EventHandle, E)> {
        if self.heap.is_empty() {
            return None;
        }
        let (entry, payload) = self.remove_at(0);
        // `remove_at` bumped the slot's generation; the fired event was
        // scheduled under the previous one.
        let fired_generation = self.slots[entry.key as usize].generation.wrapping_sub(1);
        let handle = EventHandle::new(entry.key, fired_generation);
        Some((entry.time, handle, payload))
    }

    /// Returns the earliest event, with the handle it is scheduled under,
    /// without removing it.
    ///
    /// A caller that learns from the payload that it will schedule a
    /// follow-up at once (a finished task handing its slot to the next one)
    /// then calls [`EventQueue::replace_top`]; any other caller pops.
    #[must_use]
    #[inline]
    pub fn peek(&self) -> Option<(SimTime, EventHandle, &E)> {
        let entry = self.heap.first()?;
        let slot = &self.slots[entry.key as usize];
        let payload = slot.payload.as_ref().expect("queued entry parks a payload");
        Some((
            entry.time,
            EventHandle::new(entry.key, slot.generation),
            payload,
        ))
    }

    /// Removes the earliest event and schedules `payload` at `time`, in one
    /// sift instead of a pop's and a push's.
    ///
    /// Equal to [`EventQueue::pop`] followed by [`EventQueue::push`]: the new
    /// event takes the next FIFO sequence number and reuses the fired
    /// event's slot under its next generation, which is the slot the push
    /// would have taken from the free list, so the returned handle and the
    /// free list are the same too. Only the heap's layout may differ, and
    /// pop order is fixed by the unique `(time, seq)` keys, so no caller can
    /// tell the two apart.
    ///
    /// # Panics
    ///
    /// Panics if the queue is empty.
    ///
    /// # Examples
    ///
    /// ```
    /// use dias_des::{EventQueue, SimTime};
    ///
    /// let mut q = EventQueue::new();
    /// q.push(SimTime::from_secs(1.0), "task 1");
    /// q.push(SimTime::from_secs(3.0), "timer");
    /// let (now, _, _) = q.peek().unwrap();
    /// // Task 1 is done; task 2 takes its slot for 1.5 s.
    /// q.replace_top(now + 1.5, "task 2");
    /// assert_eq!(q.pop(), Some((SimTime::from_secs(2.5), "task 2")));
    /// assert_eq!(q.pop(), Some((SimTime::from_secs(3.0), "timer")));
    /// ```
    #[inline]
    pub fn replace_top(&mut self, time: SimTime, payload: E) -> EventHandle {
        let key = self.heap.first().expect("replace_top needs an event").key;
        let slot = &mut self.slots[key as usize];
        slot.generation = slot.generation.wrapping_add(1);
        slot.payload = Some(payload);
        let handle = EventHandle::new(key, slot.generation);
        self.heap[0] = Entry {
            time,
            seq: self.next_seq,
            key,
        };
        self.next_seq += 1;
        self.sift_down(0);
        handle
    }

    /// Returns the timestamp of the earliest event without removing it.
    ///
    /// Cancelled events are gone from the calendar, so this is a plain
    /// borrow — no `&mut self` lazy cleanup.
    #[must_use]
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| e.time)
    }

    /// Number of pending events in the queue.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no pending events remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Heap position of `handle`'s entry, or `None` for fired/cancelled/stale
    /// handles.
    #[inline]
    fn resolve(&self, handle: EventHandle) -> Option<usize> {
        let slot = self.slots.get(handle.key() as usize)?;
        if slot.generation != handle.generation() || slot.pos == VACANT {
            return None;
        }
        Some(slot.pos as usize)
    }

    /// Removes and returns the entry at heap position `pos` with its payload,
    /// freeing its slot and restoring the heap invariant.
    #[inline]
    fn remove_at(&mut self, pos: usize) -> (Entry, E) {
        let entry = self.heap[pos];
        let tail = self.heap.pop().expect("pos < len implies non-empty");
        if pos < self.heap.len() {
            // The displaced tail entry may belong above or below `pos`; seed
            // the hole at `pos` with it and let the sifts settle it.
            self.heap[pos] = tail;
            self.slots[tail.key as usize].pos = pos as u32;
            let settled = self.sift_down(pos);
            self.sift_up(settled);
        }
        let slot = &mut self.slots[entry.key as usize];
        slot.pos = VACANT;
        slot.generation = slot.generation.wrapping_add(1);
        let payload = slot.payload.take().expect("queued entry parks a payload");
        self.free.push(entry.key);
        (entry, payload)
    }

    /// Moves the entry at `pos` up until its parent is not after it; returns
    /// its final position. Requires `pos < self.heap.len()`.
    ///
    /// Hole technique: the moving key is lifted out once, each displaced
    /// parent is copied down one level (one copy, not a three-move swap), and
    /// the moving key is written back at its final position.
    fn sift_up(&mut self, mut pos: usize) -> usize {
        let moving = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            let p = self.heap[parent];
            if !moving.before(&p) {
                break;
            }
            self.heap[pos] = p;
            self.slots[p.key as usize].pos = pos as u32;
            pos = parent;
        }
        self.heap[pos] = moving;
        self.slots[moving.key as usize].pos = pos as u32;
        pos
    }

    /// Moves the entry at `pos` down below any earlier child; returns its
    /// final position. Requires `pos < self.heap.len()`. Same hole technique
    /// as [`EventQueue::sift_up`].
    fn sift_down(&mut self, mut pos: usize) -> usize {
        let moving = self.heap[pos];
        let len = self.heap.len();
        loop {
            let left = 2 * pos + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && self.heap[right].before(&self.heap[left]) {
                right
            } else {
                left
            };
            let c = self.heap[child];
            if !c.before(&moving) {
                break;
            }
            self.heap[pos] = c;
            self.slots[c.key as usize].pos = pos as u32;
            pos = child;
        }
        self.heap[pos] = moving;
        self.slots[moving.key as usize].pos = pos as u32;
        pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3.0), 'c');
        q.push(SimTime::from_secs(1.0), 'a');
        q.push(SimTime::from_secs(2.0), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5.0);
        for i in 0..10 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let h = q.push(SimTime::from_secs(1.0), "x");
        q.push(SimTime::from_secs(2.0), "y");
        assert!(q.cancel(h));
        assert!(!q.cancel(h), "double cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some("y"));
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let h = q.push(SimTime::from_secs(1.0), "x");
        assert!(q.pop().is_some());
        assert!(!q.cancel(h));
        // A later event must not be affected by the stale handle.
        q.push(SimTime::from_secs(2.0), "y");
        assert_eq!(q.pop().map(|(_, e)| e), Some("y"));
    }

    #[test]
    fn peek_time_is_borrow_only_and_live() {
        let mut q = EventQueue::new();
        let h = q.push(SimTime::from_secs(1.0), "x");
        q.push(SimTime::from_secs(4.0), "y");
        q.cancel(h);
        let shared: &EventQueue<&str> = &q;
        assert_eq!(shared.peek_time(), Some(SimTime::from_secs(4.0)));
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        let h1 = q.push(SimTime::ZERO, 1);
        q.push(SimTime::ZERO, 2);
        assert_eq!(q.len(), 2);
        q.cancel(h1);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn bogus_handle_rejected() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(!q.cancel(EventHandle::new(99, 0)));
    }

    #[test]
    fn slot_reuse_rejects_stale_handles() {
        let mut q = EventQueue::new();
        let h1 = q.push(SimTime::from_secs(1.0), "a");
        q.pop();
        // The slot is reused by the next push with a bumped generation.
        let h2 = q.push(SimTime::from_secs(2.0), "b");
        assert_ne!(h1, h2);
        assert!(!q.cancel(h1), "stale handle must not cancel the new event");
        assert_eq!(q.len(), 1);
        assert!(q.cancel(h2));
    }

    #[test]
    fn reschedule_moves_event_both_directions() {
        let mut q = EventQueue::new();
        let h = q.push(SimTime::from_secs(5.0), "move");
        q.push(SimTime::from_secs(3.0), "fixed");
        // Decrease-key: now earliest.
        assert!(q.reschedule(h, SimTime::from_secs(1.0)));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1.0)));
        // Increase-key: now latest.
        assert!(q.reschedule(h, SimTime::from_secs(9.0)));
        assert_eq!(q.pop().map(|(_, e)| e), Some("fixed"));
        assert_eq!(q.pop(), Some((SimTime::from_secs(9.0), "move")));
    }

    #[test]
    fn reschedule_ties_fire_after_existing_events() {
        let mut q = EventQueue::new();
        let h = q.push(SimTime::from_secs(1.0), "rescheduled");
        q.push(SimTime::from_secs(5.0), "earlier-pushed");
        // Same timestamp: the rescheduled event behaves as freshly pushed.
        assert!(q.reschedule(h, SimTime::from_secs(5.0)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["earlier-pushed", "rescheduled"]);
    }

    #[test]
    fn reschedule_after_fire_or_cancel_is_noop() {
        let mut q = EventQueue::new();
        let h = q.push(SimTime::from_secs(1.0), 1);
        q.pop();
        assert!(!q.reschedule(h, SimTime::from_secs(2.0)));
        let h2 = q.push(SimTime::from_secs(1.0), 2);
        q.cancel(h2);
        assert!(!q.reschedule(h2, SimTime::from_secs(2.0)));
        assert!(q.is_empty());
    }

    #[test]
    fn pop_with_handle_matches_push_handle() {
        let mut q = EventQueue::new();
        let h1 = q.push(SimTime::from_secs(2.0), "b");
        let h2 = q.push(SimTime::from_secs(1.0), "a");
        let (t, h, payload) = q.pop_with_handle().unwrap();
        assert_eq!((t, h, payload), (SimTime::from_secs(1.0), h2, "a"));
        let (_, h, _) = q.pop_with_handle().unwrap();
        assert_eq!(h, h1);
    }

    #[test]
    fn snapshot_pops_bit_identically_and_keeps_handles_valid() {
        let mut q = EventQueue::new();
        let handles: Vec<_> = (0..50)
            .map(|i| q.push(SimTime::from_secs(f64::from((i * 13) % 20)), i))
            .collect();
        // Fire the three time-0 events and cancel a few others so the
        // clone sees reused slots and a non-trivial free list.
        q.pop();
        q.pop();
        q.pop();
        q.cancel(handles[10]);
        q.cancel(handles[11]);
        q.push(SimTime::from_secs(0.5), 99);

        let mut branch = q.clone();
        // Pre-snapshot handles resolve to the same events in the branch...
        assert!(branch.reschedule(handles[3], SimTime::from_secs(0.25)));
        assert_eq!(branch.pop(), Some((SimTime::from_secs(0.25), 3)));
        // ...stale handles stay stale (generations were preserved)...
        assert!(!branch.cancel(handles[10]));
        // ...and the original is untouched by branch operations.
        assert!(q.cancel(handles[3]));

        // With the one divergent event removed from both, the remaining pop
        // streams are bit-identical, including FIFO tie order.
        let a: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| branch.pop()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn snapshot_and_original_diverge_independently() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1.0), "shared");
        let mut branch = q.clone();
        // New pushes after the snapshot get distinct slots per queue; FIFO
        // sequence numbers continue from the same counter in both.
        let hq = q.push(SimTime::from_secs(1.0), "orig");
        let hb = branch.push(SimTime::from_secs(1.0), "branch");
        assert_eq!(hq, hb, "branched counters start identical");
        assert_eq!(q.pop().map(|(_, e)| e), Some("shared"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("orig"));
        assert_eq!(branch.pop().map(|(_, e)| e), Some("shared"));
        assert_eq!(branch.pop().map(|(_, e)| e), Some("branch"));
    }

    #[test]
    fn interleaved_cancel_keeps_heap_order() {
        let mut q = EventQueue::new();
        let handles: Vec<_> = (0..100)
            .map(|i| q.push(SimTime::from_secs(f64::from((i * 37) % 100)), i))
            .collect();
        for (i, h) in handles.iter().enumerate() {
            if i % 3 == 0 {
                assert!(q.cancel(*h));
            }
        }
        let mut last = SimTime::ZERO;
        let mut n = 0;
        while let Some((t, i)) = q.pop() {
            assert!(t >= last);
            assert!(i % 3 != 0, "cancelled event {i} must not fire");
            last = t;
            n += 1;
        }
        assert_eq!(n, 66);
    }
}
