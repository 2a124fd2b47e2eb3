//! Scheduler policies: how [`ClusterSim`](crate::ClusterSim) places concurrent
//! jobs onto disjoint slot subsets.
//!
//! The paper's analysis assumes one job at a time over `C` slots; its *system*
//! story — low-priority jobs absorbing approximation error while high-priority
//! jobs sprint past them — only becomes interesting when jobs of different
//! classes coexist on the machine. A [`Scheduler`] decides three things for the
//! engine:
//!
//! 1. **placement** — which contiguous [`SlotRange`] an arriving job runs on
//!    (or `None` to hold it);
//! 2. **backfill** — which pending job to dispatch when capacity frees up;
//! 3. **preemption** — which running job, if any, to evict so a higher-class
//!    arrival fits.
//!
//! Three policies ship with the engine:
//!
//! * [`Fifo`] — one job at a time over the full cluster, exactly the paper's
//!   model and the pre-multi-job engine's behaviour (pinned bit-for-bit by
//!   `crates/engine/tests/golden_trace.rs`);
//! * [`GangBinPack`] — jobs get disjoint slot subsets sized by their widest
//!   stage, best-fit bin-packed into the free gaps, with FCFS backfill;
//! * [`PriorityPreempt`] — gang placement plus class-ordered backfill and
//!   eviction of lower-class jobs (through their calendar handles) when a
//!   higher-class arrival does not fit — the preemptive baseline made
//!   concurrent.

use std::fmt;

use serde::{Deserialize, Serialize};

use dias_des::SimTime;

use crate::JobId;

/// A contiguous subset `[start, start + count)` of the cluster's slots.
///
/// The engine assigns every running job one such range; a scheduler must keep
/// the ranges of concurrently running jobs disjoint (property-tested in
/// `crates/engine/tests/gang_properties.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SlotRange {
    /// First slot index of the range.
    pub start: usize,
    /// Number of slots in the range.
    pub count: usize,
}

impl SlotRange {
    /// Creates the range `[start, start + count)`.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`; a running job always owns at least one slot.
    #[must_use]
    pub fn new(start: usize, count: usize) -> Self {
        assert!(count > 0, "a slot range cannot be empty");
        SlotRange { start, count }
    }

    /// One past the last slot index of the range.
    #[must_use]
    pub fn end(&self) -> usize {
        self.start + self.count
    }

    /// Whether two ranges share any slot.
    #[must_use]
    pub fn overlaps(&self, other: &SlotRange) -> bool {
        self.start < other.end() && other.start < self.end()
    }
}

impl fmt::Display for SlotRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end())
    }
}

/// Read-only view of one running job, handed to schedulers for decisions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningView {
    /// The running job's id.
    pub job: JobId,
    /// Its priority class (higher = more important).
    pub class: usize,
    /// The slot subset it occupies.
    pub slots: SlotRange,
    /// When its current attempt was dispatched.
    pub started: SimTime,
}

/// Read-only view of one job waiting in the engine's pending queue, in queue
/// order (index 0 = head).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PendingView {
    /// The waiting job's id.
    pub job: JobId,
    /// Its priority class.
    pub class: usize,
    /// Slots the job wants: its widest stage after drops, at least 1.
    pub width: usize,
}

/// A slot-subset scheduling policy driving [`ClusterSim`](crate::ClusterSim)'s
/// admission, backfill and preemption decisions.
///
/// Implementations must be deterministic pure functions of their arguments:
/// the engine's bitwise reproducibility (and the golden traces pinning it)
/// depends on placement never consulting wall clocks, RNGs or iteration
/// order of unordered containers.
///
/// The engine keeps the `running` views it hands over sorted by slot start
/// (phantom blocked ranges included), updated in place as jobs come and go,
/// so a policy that walks the cluster in slot order needs no sort of its
/// own. The shipped policies decide the same way under any order.
pub trait Scheduler: fmt::Debug + Send {
    /// Short human-readable policy name used in reports and benches.
    fn label(&self) -> &'static str;

    /// Chooses a slot range for an arriving job of `class` wanting `width`
    /// slots, or `None` when the job cannot be placed right now.
    fn place(
        &mut self,
        class: usize,
        width: usize,
        total_slots: usize,
        running: &[RunningView],
    ) -> Option<SlotRange>;

    /// After capacity frees up, chooses the next pending job to dispatch:
    /// an index into `pending` plus the range to run it on. `None` leaves the
    /// queue untouched until the next departure.
    fn pick_next(
        &mut self,
        pending: &[PendingView],
        total_slots: usize,
        running: &[RunningView],
    ) -> Option<(usize, SlotRange)>;

    /// Names one running job to evict so an arriving job of `class` wanting
    /// `width` slots can fit. The engine evicts it and asks again until
    /// [`Scheduler::place`] succeeds or this returns `None` (then the arrival
    /// queues). The default never preempts.
    fn victim(
        &mut self,
        class: usize,
        width: usize,
        total_slots: usize,
        running: &[RunningView],
    ) -> Option<JobId> {
        let _ = (class, width, total_slots, running);
        None
    }
}

/// Visits the free contiguous gaps between the slot ranges of the views
/// `keep` selects, in slot order.
///
/// The engine hands schedulers its running views sorted by slot start, so
/// the walk is one pass with no allocation; any other order is sorted into a
/// scratch copy first. Overlapping ranges (a phantom blocked range over a
/// draining slot and the run still holding it) merge into one busy span.
fn for_each_gap(
    total_slots: usize,
    running: &[RunningView],
    keep: impl Fn(&RunningView) -> bool,
    mut visit: impl FnMut(SlotRange),
) {
    let mut walk = |ranges: &mut dyn Iterator<Item = SlotRange>| {
        let mut cursor = 0usize;
        for r in ranges {
            if r.start > cursor {
                visit(SlotRange::new(cursor, r.start - cursor));
            }
            cursor = cursor.max(r.end());
        }
        if cursor < total_slots {
            visit(SlotRange::new(cursor, total_slots - cursor));
        }
    };
    if running.is_sorted_by_key(|r| r.slots.start) {
        walk(&mut running.iter().filter(|r| keep(r)).map(|r| r.slots));
    } else {
        let mut ranges: Vec<SlotRange> = running
            .iter()
            .filter(|r| keep(r))
            .map(|r| r.slots)
            .collect();
        ranges.sort_by_key(|r| r.start);
        walk(&mut ranges.into_iter());
    }
}

/// Best-fit placement among the views `keep` selects: the smallest free gap
/// that still holds `width` slots (ties broken by lowest start), truncated to
/// exactly `width`.
fn best_fit_among(
    width: usize,
    total_slots: usize,
    running: &[RunningView],
    keep: impl Fn(&RunningView) -> bool,
) -> Option<SlotRange> {
    let w = width.clamp(1, total_slots);
    let mut best: Option<SlotRange> = None;
    for_each_gap(total_slots, running, keep, |g| {
        if g.count >= w && best.is_none_or(|b| (g.count, g.start) < (b.count, b.start)) {
            best = Some(g);
        }
    });
    best.map(|g| SlotRange::new(g.start, w))
}

/// Best-fit placement over every running view (see [`best_fit_among`]).
fn best_fit(width: usize, total_slots: usize, running: &[RunningView]) -> Option<SlotRange> {
    best_fit_among(width, total_slots, running, |_| true)
}

/// Size of the largest free gap: a job fits somewhere exactly when its
/// clamped width is at most this, so backfill can skip the jobs that fit
/// nowhere without searching for their gap.
fn largest_gap(total_slots: usize, running: &[RunningView]) -> usize {
    let mut largest = 0;
    for_each_gap(
        total_slots,
        running,
        |_| true,
        |g| largest = largest.max(g.count),
    );
    largest
}

/// One job at a time over the full cluster — the paper's model and the
/// engine's historical behaviour.
///
/// A job is placed only on an idle cluster and always receives every slot
/// (even a one-task stage holds the whole machine, exactly as before). A job
/// submitted while another runs waits in the engine's pending queue, and
/// backfill dispatches the queue strictly in FCFS order. `Fifo` is the
/// default policy of [`ClusterSim::new`](crate::ClusterSim::new) and is
/// pinned bit-for-bit to the pre-multi-job engine by the golden trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fifo;

impl Scheduler for Fifo {
    fn label(&self) -> &'static str {
        "FIFO"
    }

    fn place(
        &mut self,
        _class: usize,
        _width: usize,
        total_slots: usize,
        running: &[RunningView],
    ) -> Option<SlotRange> {
        running.is_empty().then(|| SlotRange::new(0, total_slots))
    }

    fn pick_next(
        &mut self,
        pending: &[PendingView],
        total_slots: usize,
        running: &[RunningView],
    ) -> Option<(usize, SlotRange)> {
        (running.is_empty() && !pending.is_empty()).then(|| (0, SlotRange::new(0, total_slots)))
    }
}

/// Gang scheduling with best-fit bin-packing by stage width.
///
/// An arriving job asks for `min(widest stage, C)` slots and is placed into
/// the smallest free gap that fits (lowest start among ties); narrow jobs
/// therefore coexist instead of serializing. Backfill walks the pending
/// queue in FCFS order and dispatches the **first job that fits**, so a wide
/// job at the head does not block narrow jobs behind it. No preemption.
#[derive(Debug, Clone, Copy, Default)]
pub struct GangBinPack;

impl Scheduler for GangBinPack {
    fn label(&self) -> &'static str {
        "GangBinPack"
    }

    fn place(
        &mut self,
        _class: usize,
        width: usize,
        total_slots: usize,
        running: &[RunningView],
    ) -> Option<SlotRange> {
        best_fit(width, total_slots, running)
    }

    fn pick_next(
        &mut self,
        pending: &[PendingView],
        total_slots: usize,
        running: &[RunningView],
    ) -> Option<(usize, SlotRange)> {
        // The first job whose width fits the largest gap is the first job
        // best fit can place.
        let largest = largest_gap(total_slots, running);
        let i = pending
            .iter()
            .position(|p| p.width.clamp(1, total_slots) <= largest)?;
        best_fit(pending[i].width, total_slots, running).map(|r| (i, r))
    }
}

/// Gang placement plus class-ordered backfill and lower-class eviction — the
/// paper's preemptive baseline made concurrent.
///
/// Placement is [`GangBinPack`]'s best fit. When a higher-class arrival does
/// not fit, [`Scheduler::victim`] repeatedly names a running job of a strictly
/// lower class — lowest class first, then the most recently dispatched
/// attempt (least sunk work), then the highest [`JobId`] — until the arrival
/// fits or no lower-class job remains (then the arrival queues). Backfill
/// prefers the highest waiting class, FCFS within a class, and lets narrower
/// lower-class jobs fill slots a blocked higher-class job cannot use (they
/// run at their own risk: a later high arrival evicts them again).
#[derive(Debug, Clone, Copy, Default)]
pub struct PriorityPreempt;

impl Scheduler for PriorityPreempt {
    fn label(&self) -> &'static str {
        "PriorityPreempt"
    }

    fn place(
        &mut self,
        _class: usize,
        width: usize,
        total_slots: usize,
        running: &[RunningView],
    ) -> Option<SlotRange> {
        best_fit(width, total_slots, running)
    }

    fn pick_next(
        &mut self,
        pending: &[PendingView],
        total_slots: usize,
        running: &[RunningView],
    ) -> Option<(usize, SlotRange)> {
        // Highest class first, FCFS within a class: among the jobs that fit
        // the largest gap, the earliest one of the highest class.
        let largest = largest_gap(total_slots, running);
        let mut pick: Option<usize> = None;
        for (i, p) in pending.iter().enumerate() {
            if p.width.clamp(1, total_slots) <= largest
                && pick.is_none_or(|j| p.class > pending[j].class)
            {
                pick = Some(i);
            }
        }
        let i = pick?;
        best_fit(pending[i].width, total_slots, running).map(|r| (i, r))
    }

    fn victim(
        &mut self,
        class: usize,
        width: usize,
        total_slots: usize,
        running: &[RunningView],
    ) -> Option<JobId> {
        // Feasibility first: would the arrival fit even after evicting every
        // strictly-lower-class job? If not (same-or-higher-class jobs
        // fragment the cluster too much), evicting anything destroys work
        // for zero benefit — decline and let the arrival queue.
        best_fit_among(width, total_slots, running, |r| r.class >= class)?;
        running
            .iter()
            .filter(|r| r.class < class)
            .min_by(|a, b| {
                a.class
                    .cmp(&b.class)
                    .then(
                        b.started
                            .partial_cmp(&a.started)
                            .expect("dispatch times are finite"),
                    )
                    .then(b.job.cmp(&a.job))
            })
            .map(|r| r.job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(job: u64, class: usize, start: usize, count: usize, started: f64) -> RunningView {
        RunningView {
            job: JobId(job),
            class,
            slots: SlotRange::new(start, count),
            started: SimTime::from_secs(started),
        }
    }

    #[test]
    fn slot_range_overlap_geometry() {
        let a = SlotRange::new(0, 10);
        let b = SlotRange::new(10, 5);
        let c = SlotRange::new(9, 2);
        assert!(!a.overlaps(&b), "adjacent ranges do not overlap");
        assert!(a.overlaps(&c) && c.overlaps(&b));
        assert_eq!(a.end(), 10);
        assert_eq!(format!("{c}"), "[9, 11)");
    }

    #[test]
    #[should_panic(expected = "cannot be empty")]
    fn empty_range_rejected() {
        let _ = SlotRange::new(3, 0);
    }

    #[test]
    fn fifo_places_only_on_idle_cluster() {
        let mut f = Fifo;
        assert_eq!(f.place(0, 3, 20, &[]), Some(SlotRange::new(0, 20)));
        let running = [view(1, 0, 0, 20, 0.0)];
        assert_eq!(f.place(1, 3, 20, &running), None);
        assert_eq!(f.victim(1, 3, 20, &running), None);
    }

    #[test]
    fn gang_best_fit_prefers_tightest_gap() {
        let mut g = GangBinPack;
        // Free gaps: [4,8) of 4 slots and [12,20) of 8 slots.
        let running = [view(1, 0, 0, 4, 0.0), view(2, 0, 8, 4, 0.0)];
        assert_eq!(g.place(0, 3, 20, &running), Some(SlotRange::new(4, 3)));
        // Width 6 only fits the tail gap.
        assert_eq!(g.place(0, 6, 20, &running), Some(SlotRange::new(12, 6)));
        // Width 9 fits nowhere.
        assert_eq!(g.place(0, 9, 20, &running), None);
        // Width is clamped to the cluster.
        assert_eq!(g.place(0, 50, 8, &[]), Some(SlotRange::new(0, 8)));
    }

    #[test]
    fn gang_backfill_skips_jobs_that_do_not_fit() {
        let mut g = GangBinPack;
        let running = [view(1, 0, 0, 16, 0.0)];
        let pending = [
            PendingView {
                job: JobId(2),
                class: 0,
                width: 10,
            },
            PendingView {
                job: JobId(3),
                class: 0,
                width: 4,
            },
        ];
        assert_eq!(
            g.pick_next(&pending, 20, &running),
            Some((1, SlotRange::new(16, 4)))
        );
    }

    #[test]
    fn priority_backfill_prefers_high_class() {
        let mut p = PriorityPreempt;
        let pending = [
            PendingView {
                job: JobId(2),
                class: 0,
                width: 4,
            },
            PendingView {
                job: JobId(3),
                class: 1,
                width: 4,
            },
        ];
        assert_eq!(
            p.pick_next(&pending, 20, &[]),
            Some((1, SlotRange::new(0, 4)))
        );
    }

    #[test]
    fn preempt_picks_lowest_class_youngest_attempt() {
        let mut p = PriorityPreempt;
        let running = [
            view(1, 0, 0, 8, 5.0),
            view(2, 0, 8, 8, 9.0),
            view(3, 1, 16, 4, 1.0),
        ];
        // Class-1 arrival of width 16: feasible once the class-0 jobs go —
        // the youngest class-0 attempt is named first.
        assert_eq!(p.victim(1, 16, 20, &running), Some(JobId(2)));
        // Class-1 jobs are never victims of a class-1 arrival.
        let only_high = [view(3, 1, 16, 4, 1.0)];
        assert_eq!(p.victim(1, 16, 20, &only_high), None);
    }

    #[test]
    fn preempt_declines_infeasible_evictions() {
        let mut p = PriorityPreempt;
        // A class-1 job pins [16, 20): even evicting every class-0 job
        // leaves only a 16-slot gap, so a width-20 class-1 arrival can
        // never fit — no victim may be named (evicting would destroy work
        // for zero benefit).
        let running = [
            view(1, 0, 0, 8, 5.0),
            view(2, 0, 8, 8, 9.0),
            view(3, 1, 16, 4, 1.0),
        ];
        assert_eq!(p.victim(1, 20, 20, &running), None);
    }
}
