//! Timing seams the benchmark wraps around the program's public interfaces.
//!
//! Nothing here reaches inside the simulator: [`TimedSource`] wraps a
//! [`JobSource`] (the workloads layer), [`TimedScheduler`] wraps a
//! [`Scheduler`] (the engine's placement policy), and [`Spans`] times calls
//! the engine replay makes into `ClusterSim`. Counters are aggregates — a
//! call count and busy nanoseconds per seam — kept in memory and printed when
//! the run ends.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dias_core::JobSource;
use dias_engine::{JobId, JobInstance, PendingView, RunningView, Scheduler, SlotRange};

/// Call count and busy time of one seam, shareable with the boxed wrapper the
/// program owns. Relaxed atomics: the values are statistics that publish no
/// other data.
#[derive(Debug, Default)]
pub struct Counter {
    calls: AtomicU64,
    busy_ns: AtomicU64,
    /// Calls that produced something (placed, picked, drew a job).
    hits: AtomicU64,
}

impl Counter {
    fn record(&self, start: Instant, hit: bool) {
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        self.hits.fetch_add(u64::from(hit), Ordering::Relaxed);
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn busy_s(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    pub fn ns_per_call(&self) -> f64 {
        per(self.busy_ns.load(Ordering::Relaxed) as f64, self.calls())
    }

    pub fn hit_ratio(&self) -> f64 {
        per(self.hits.load(Ordering::Relaxed) as f64, self.calls())
    }
}

/// `total / count`, 0 when nothing was counted.
pub fn per(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// A [`JobSource`] that times every draw of the source it wraps.
#[derive(Debug, Clone)]
pub struct TimedSource<S> {
    inner: S,
    counter: Arc<Counter>,
}

impl<S> TimedSource<S> {
    pub fn new(inner: S, counter: Arc<Counter>) -> Self {
        TimedSource { inner, counter }
    }
}

impl<S: JobSource> JobSource for TimedSource<S> {
    fn classes(&self) -> usize {
        self.inner.classes()
    }

    fn next_job(&mut self) -> Option<JobInstance> {
        let start = Instant::now();
        let job = self.inner.next_job();
        self.counter.record(start, job.is_some());
        job
    }
}

/// Scheduler-side counters: one [`Counter`] per decision kind, plus the
/// running gangs each decision scanned.
#[derive(Debug, Default)]
pub struct SchedCounters {
    pub place: Counter,
    pub pick_next: Counter,
    pub victim: Counter,
    running_scanned: AtomicU64,
}

impl SchedCounters {
    pub fn calls(&self) -> u64 {
        self.place.calls() + self.pick_next.calls() + self.victim.calls()
    }

    pub fn busy_s(&self) -> f64 {
        self.place.busy_s() + self.pick_next.busy_s() + self.victim.busy_s()
    }

    pub fn ns_per_call(&self) -> f64 {
        per(self.busy_s() * 1e9, self.calls())
    }

    /// Mean number of running gangs (blocked-slot views included) a decision
    /// was handed.
    pub fn running_scanned_mean(&self) -> f64 {
        per(
            self.running_scanned.load(Ordering::Relaxed) as f64,
            self.calls(),
        )
    }

    fn scanned(&self, running: &[RunningView]) {
        self.running_scanned
            .fetch_add(running.len() as u64, Ordering::Relaxed);
    }
}

/// A [`Scheduler`] that times every decision of the policy it wraps and
/// passes the answer through unchanged.
#[derive(Debug)]
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    counters: Arc<SchedCounters>,
}

impl TimedScheduler {
    pub fn new(inner: Box<dyn Scheduler>, counters: Arc<SchedCounters>) -> Self {
        TimedScheduler { inner, counters }
    }
}

impl Scheduler for TimedScheduler {
    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn place(
        &mut self,
        class: usize,
        width: usize,
        total_slots: usize,
        running: &[RunningView],
    ) -> Option<SlotRange> {
        let start = Instant::now();
        let out = self.inner.place(class, width, total_slots, running);
        self.counters.place.record(start, out.is_some());
        self.counters.scanned(running);
        out
    }

    fn pick_next(
        &mut self,
        pending: &[PendingView],
        total_slots: usize,
        running: &[RunningView],
    ) -> Option<(usize, SlotRange)> {
        let start = Instant::now();
        let out = self.inner.pick_next(pending, total_slots, running);
        self.counters.pick_next.record(start, out.is_some());
        self.counters.scanned(running);
        out
    }

    fn victim(
        &mut self,
        class: usize,
        width: usize,
        total_slots: usize,
        running: &[RunningView],
    ) -> Option<JobId> {
        let start = Instant::now();
        let out = self.inner.victim(class, width, total_slots, running);
        self.counters.victim.record(start, out.is_some());
        self.counters.scanned(running);
        out
    }
}

/// The calls the engine replay times, one span kind each. Spans never nest:
/// their busy times add up to the part of the replay they cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `JobSource::next_job` on the workload's stream.
    NextJob,
    /// `ClusterSim::advance`: one calendar event.
    Advance,
    /// `ClusterSim::submit_job`.
    Submit,
    /// `ClusterSim::apply_fault`.
    ApplyFault,
    /// Sprint budget calls and per-attempt timer bookkeeping.
    Sprint,
    /// Pushes of one completion into the per-class statistics backends.
    StatsPush,
}

impl Span {
    pub const ALL: [Span; 6] = [
        Span::NextJob,
        Span::Advance,
        Span::Submit,
        Span::ApplyFault,
        Span::Sprint,
        Span::StatsPush,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Span::NextJob => "workloads.next_job",
            Span::Advance => "engine.advance",
            Span::Submit => "engine.submit_job",
            Span::ApplyFault => "engine.apply_fault",
            Span::Sprint => "core.sprint",
            Span::StatsPush => "des.stats.push",
        }
    }
}

/// How the replay runs a call: straight through, or timed.
pub trait Spans {
    fn span<R>(&mut self, span: Span, f: impl FnOnce() -> R) -> R;
}

/// No timers: the replay compiles to the bare call sequence.
#[derive(Debug, Default)]
pub struct Untimed;

impl Spans for Untimed {
    #[inline(always)]
    fn span<R>(&mut self, _: Span, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// A sampling span timer: every call is counted, every `SAMPLE_EVERY`-th
/// call of each span kind is timed, and busy time is the sampled mean times
/// the call count.
///
/// Timing every call would cost two clock reads (~30 ns each on a typical
/// x86-64 VM) around calls that take ~100 ns, and the half of that cost that
/// lands between spans would read as unexplained replay time. Sampling cuts
/// the clock's share of the wall by the sampling factor; the part of a clock
/// read that lands inside a span is measured once on empty spans and
/// subtracted from every sample.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    calls: [u64; Span::ALL.len()],
    sampled: [u64; Span::ALL.len()],
    sampled_ns: [u64; Span::ALL.len()],
    /// Nanoseconds an empty span reads: the clock's own cost inside a span.
    clock_ns: f64,
}

/// Sampling period; prime, so it cannot lock onto a periodic call pattern.
const SAMPLE_EVERY: u64 = 7;

impl Timed {
    /// A timer with its in-span clock cost calibrated on empty spans: the
    /// lowest mean of five batches, as the least disturbed reading.
    pub fn calibrated() -> Timed {
        const BATCH: u32 = 100_000;
        let clock_ns = (0..5)
            .map(|_| {
                let mut total = std::time::Duration::ZERO;
                for _ in 0..BATCH {
                    let start = Instant::now();
                    std::hint::black_box(());
                    total += start.elapsed();
                }
                total.as_nanos() as f64 / f64::from(BATCH)
            })
            .fold(f64::INFINITY, f64::min);
        Timed {
            calls: [0; Span::ALL.len()],
            sampled: [0; Span::ALL.len()],
            sampled_ns: [0; Span::ALL.len()],
            clock_ns,
        }
    }

    /// The calibrated in-span clock cost, nanoseconds.
    pub fn clock_ns(&self) -> f64 {
        self.clock_ns
    }

    pub fn calls(&self, span: Span) -> u64 {
        self.calls[span as usize]
    }

    /// Estimated nanoseconds per call, clock cost removed.
    pub fn ns_per_call(&self, span: Span) -> f64 {
        let i = span as usize;
        (per(self.sampled_ns[i] as f64, self.sampled[i]) - self.clock_ns).max(0.0)
    }

    /// Estimated busy seconds over every call of `span`.
    pub fn busy_s(&self, span: Span) -> f64 {
        self.ns_per_call(span) * self.calls(span) as f64 * 1e-9
    }

    /// Estimated busy seconds summed over every span.
    pub fn total_busy_s(&self) -> f64 {
        Span::ALL.iter().map(|&s| self.busy_s(s)).sum()
    }
}

impl Spans for Timed {
    #[inline(always)]
    fn span<R>(&mut self, span: Span, f: impl FnOnce() -> R) -> R {
        let i = span as usize;
        self.calls[i] += 1;
        if !self.calls[i].is_multiple_of(SAMPLE_EVERY) {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.sampled[i] += 1;
        self.sampled_ns[i] += ns;
        out
    }
}
