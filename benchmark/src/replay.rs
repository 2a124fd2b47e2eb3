//! Engine replay: the drivers' event loops rebuilt from `ClusterSim`'s public
//! calls, so the benchmark can split a run's host time between the engine and
//! the driver around it without a probe inside the program.
//!
//! [`MultiEngine`] repeats `MultiDriver`'s arbiter — engine event, budget
//! depletion, sprint timers, faults, arrival, in that tie order — over
//! `idle_until`, `submit_job`, `advance`, `apply_fault` and `take_dispatched`.
//! It replays the open-system soak (one engine) and the federation (one
//! engine per shard, arrivals routed in global order by the public
//! `RouterCursor`). The paper's one-job `Experiment` loop has no replay: it is
//! the loop the driver merge deletes, and a copy here would tie the benchmark
//! to it.
//!
//! Spans time the calls that do real work: job draws, engine events,
//! admissions, faults, sprint bookkeeping and statistics pushes.
//! The arbitration glue between them — calendar peeks, the clock, the
//! dispatch log, job records — stays untimed, so the spans' share of the
//! replay's wall shows how much of it they explain.
//!
//! A replay is only worth its timings if it makes the program's engine calls:
//! the caller checks that it ends on the same event count, completions,
//! horizon and energy as the run it replays, bit for bit.

use std::collections::HashMap;

use dias_core::federation::RouterCursor;
use dias_core::{JobSource, MultiSprinter, SprintPolicy};
use dias_des::stats::SampleStats;
use dias_des::SimTime;
use dias_engine::{
    ClusterSim, ClusterSpec, EngineError, EngineEvent, FaultTrace, FreqLevel, JobId, JobInstance,
    Scheduler, Submission,
};

use crate::probe::{Span, Spans};

/// Per-class series the drivers record per completion, in this order:
/// response, queueing, dispatch wait, re-execution loss, execution, drop
/// fraction.
const SERIES: usize = 6;

/// What a replayed engine did, besides taking time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineTally {
    /// Calendar events processed (`advance` calls).
    pub events: u64,
    /// Jobs that finished.
    pub completions: u64,
    /// Highest count of live engine and driver objects seen after a step:
    /// calendar entries, pending and running jobs, job records, timers.
    pub live_hwm: usize,
    /// Deepest the calendar got.
    pub depth_max: usize,
    depth_sum: u64,
    steps: u64,
}

impl EngineTally {
    fn sample(&mut self, depth: usize, live: usize) {
        self.depth_max = self.depth_max.max(depth);
        self.depth_sum += depth as u64;
        self.steps += 1;
        self.live_hwm = self.live_hwm.max(live);
    }

    /// Mean calendar depth over the arbiter's steps.
    pub fn depth_mean(&self) -> f64 {
        crate::probe::per(self.depth_sum as f64, self.steps)
    }

    /// Folds another engine's tally in (high-water marks add: each shard
    /// holds its own memory).
    pub fn add(&mut self, other: &EngineTally) {
        self.events += other.events;
        self.completions += other.completions;
        self.live_hwm += other.live_hwm;
        self.depth_max = self.depth_max.max(other.depth_max);
        self.depth_sum += other.depth_sum;
        self.steps += other.steps;
    }
}

/// Per-class statistics the replay pushes completions into, on the same
/// backend the replayed driver uses. With a window, every series is also
/// pushed into a tumbling window reset every `window_jobs` completions, as
/// the soak does.
#[derive(Debug)]
pub struct Recorder<B> {
    lifetime: Vec<[B; SERIES]>,
    window: Option<(Vec<[B; SERIES]>, usize, usize)>,
}

impl<B: SampleStats> Recorder<B> {
    pub fn new(classes: usize, make: impl Fn() -> B) -> Self {
        Recorder {
            lifetime: fresh(classes, &make),
            window: None,
        }
    }

    pub fn with_window(mut self, window_jobs: usize, make: impl Fn() -> B) -> Self {
        let classes = self.lifetime.len();
        self.window = Some((fresh(classes, &make), window_jobs.max(1), 0));
        self
    }

    fn record(&mut self, class: usize, xs: &[f64; SERIES]) {
        for (b, &x) in self.lifetime[class].iter_mut().zip(xs) {
            b.push(x);
        }
        if let Some((window, size, count)) = &mut self.window {
            for (b, &x) in window[class].iter_mut().zip(xs) {
                b.push(x);
            }
            *count += 1;
            if *count == *size {
                for b in window.iter_mut().flatten() {
                    *b = B::default();
                }
                *count = 0;
            }
        }
    }
}

fn fresh<B>(classes: usize, make: &impl Fn() -> B) -> Vec<[B; SERIES]> {
    (0..classes)
        .map(|_| std::array::from_fn(|_| make()))
        .collect()
}

/// Driver-side record of a submitted job (`MultiDriver`'s `JobMeta`).
#[derive(Debug, Clone, Copy)]
struct Meta {
    class: usize,
    arrival_secs: f64,
    attempt: u32,
    first_dispatch: Option<f64>,
    last_dispatch: f64,
    width: usize,
}

/// A per-attempt sprint timer.
#[derive(Debug, Clone, Copy)]
struct Timer {
    at: SimTime,
    job: JobId,
    attempt: u32,
}

/// The arbiter's arms, in tie order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arm {
    Engine,
    Depletion,
    Timer,
    Fault,
    Arrival,
}

/// One engine under a `MultiDriver`-style arbiter.
#[derive(Debug)]
pub struct MultiEngine<B> {
    engine: ClusterSim,
    thetas: Vec<f64>,
    faults: FaultTrace,
    fault_idx: usize,
    sprinter: Option<MultiSprinter>,
    timers: Vec<Timer>,
    meta: HashMap<JobId, Meta>,
    drops: Vec<f64>,
    recorder: Recorder<B>,
    pub tally: EngineTally,
}

impl<B: SampleStats> MultiEngine<B> {
    /// An idle engine over `spec` with per-class drop ratios `thetas`, a
    /// fault trace and an optional sprint policy (budget already scaled to
    /// this engine's share).
    pub fn new(
        spec: ClusterSpec,
        scheduler: Box<dyn Scheduler>,
        thetas: &[f64],
        faults: FaultTrace,
        sprint: Option<SprintPolicy>,
        recorder: Recorder<B>,
    ) -> Result<Self, EngineError> {
        let sprinter = sprint.map(|p| MultiSprinter::new(p, spec.sprint_extra_slot_power_w()));
        Ok(MultiEngine {
            engine: ClusterSim::with_scheduler(spec, scheduler)?,
            thetas: thetas.to_vec(),
            faults,
            fault_idx: 0,
            sprinter,
            timers: Vec::new(),
            meta: HashMap::new(),
            drops: Vec::new(),
            recorder,
            tally: EngineTally::default(),
        })
    }

    /// Simulated time the engine has reached.
    pub fn horizon_secs(&self) -> f64 {
        self.engine.now().as_secs()
    }

    /// Energy the engine has used so far.
    pub fn energy_joules(&self) -> f64 {
        self.engine.energy_joules()
    }

    /// Which event source fires next, given the next arrival's time.
    fn next_arm(
        &mut self,
        arrival_t: Option<SimTime>,
        spans: &mut impl Spans,
    ) -> Option<(SimTime, Arm)> {
        let engine_t = self.engine.next_event_time();
        let depletion_t = match &self.sprinter {
            // Without a sprinter no timer is ever armed.
            None => None,
            Some(_) => spans.span(Span::Sprint, || {
                // Stale timers (attempt evicted or finished) must not hold
                // the clock, exactly as the driver purges them.
                let (meta, engine) = (&self.meta, &self.engine);
                self.timers.retain(|t| {
                    meta.get(&t.job).is_some_and(|m| m.attempt == t.attempt)
                        && engine.job_frequency(t.job).is_some()
                });
                self.sprinter
                    .as_ref()
                    .and_then(MultiSprinter::depletion_time)
            }),
        };
        let timer_t = self.timers.iter().map(|t| t.at).min();
        let fault_t = if arrival_t.is_some() || !self.engine.is_idle() {
            self.faults
                .events()
                .get(self.fault_idx)
                .map(|e| SimTime::from_secs(e.at_secs))
        } else {
            None
        };
        let next_t = [engine_t, depletion_t, timer_t, fault_t, arrival_t]
            .into_iter()
            .flatten()
            .min()?;
        let arm = if engine_t == Some(next_t) {
            Arm::Engine
        } else if depletion_t == Some(next_t) {
            Arm::Depletion
        } else if timer_t == Some(next_t) {
            Arm::Timer
        } else if fault_t == Some(next_t) {
            Arm::Fault
        } else {
            Arm::Arrival
        };
        Some((next_t, arm))
    }

    /// Executes one machine-side arm (anything but an arrival).
    fn machine(&mut self, t: SimTime, arm: Arm, spans: &mut impl Spans) -> Result<(), EngineError> {
        match arm {
            Arm::Engine => self.engine_event(t, spans)?,
            Arm::Depletion => {
                self.engine.idle_until(t);
                let sprinter = self
                    .sprinter
                    .as_mut()
                    .expect("depletion implies a sprinter");
                for job in spans.span(Span::Sprint, || sprinter.stop_all(t)) {
                    self.engine.set_job_frequency(job, FreqLevel::Base)?;
                }
            }
            Arm::Timer => {
                self.engine.idle_until(t);
                let sprinter = self.sprinter.as_mut().expect("timers imply a sprinter");
                let (timers, meta, engine) = (&mut self.timers, &self.meta, &self.engine);
                let started = spans.span(Span::Sprint, || {
                    let mut due = Vec::new();
                    timers.retain(|timer| {
                        let fire = timer.at == t;
                        if fire {
                            due.push(*timer);
                        }
                        !fire
                    });
                    let mut started = Vec::new();
                    for timer in due {
                        let Some(m) = meta.get(&timer.job) else {
                            continue;
                        };
                        // Skip attempts that ended, or already sprint.
                        if m.attempt == timer.attempt
                            && engine.job_frequency(timer.job) == Some(FreqLevel::Base)
                            && sprinter.try_start(t, timer.job, m.width)
                        {
                            started.push(timer.job);
                        }
                    }
                    started
                });
                for job in started {
                    self.engine.set_job_frequency(job, FreqLevel::Sprint)?;
                }
            }
            Arm::Fault => {
                self.engine.idle_until(t);
                while let Some(e) = self.faults.events().get(self.fault_idx).copied() {
                    if SimTime::from_secs(e.at_secs) != t {
                        break;
                    }
                    self.fault_idx += 1;
                    let victims = spans.span(Span::ApplyFault, || self.engine.apply_fault(&e))?;
                    for (victim, _) in victims {
                        self.evicted(t, victim, spans);
                    }
                }
            }
            Arm::Arrival => unreachable!("arrivals go through admit"),
        }
        Ok(())
    }

    /// The engine arm: one calendar event, and the completion's books.
    fn engine_event(&mut self, t: SimTime, spans: &mut impl Spans) -> Result<(), EngineError> {
        let event = spans.span(Span::Advance, || self.engine.advance())?;
        self.tally.events += 1;
        let EngineEvent::JobFinished { job, metrics } = event else {
            return Ok(());
        };
        if let Some(s) = self.sprinter.as_mut() {
            spans.span(Span::Sprint, || s.stop(t, job));
        }
        self.tally.completions += 1;
        let m = self.meta.remove(&job).expect("finished job was submitted");
        let first = m.first_dispatch.unwrap_or(m.arrival_secs);
        let total_tasks = metrics.tasks_run + metrics.tasks_dropped;
        let drop_fraction = if total_tasks == 0 {
            0.0
        } else {
            metrics.tasks_dropped as f64 / total_tasks as f64
        };
        let xs = [
            self.engine.now().as_secs() - m.arrival_secs,
            m.last_dispatch - m.arrival_secs,
            first - m.arrival_secs,
            m.last_dispatch - first,
            metrics.execution_secs,
            drop_fraction,
        ];
        spans.span(Span::StatsPush, || self.recorder.record(m.class, &xs));
        self.engine.meter_mut().take_finished();
        Ok(())
    }

    /// Books one eviction victim (preemption or slot failure).
    fn evicted(&mut self, t: SimTime, victim: JobId, spans: &mut impl Spans) {
        if let Some(s) = self.sprinter.as_mut() {
            spans.span(Span::Sprint, || s.stop(t, victim));
        }
        self.engine.meter_mut().take_finished();
    }

    /// Submits an arrival at `t` with its class's drop ratio on every
    /// droppable stage.
    fn admit(
        &mut self,
        instance: JobInstance,
        t: SimTime,
        spans: &mut impl Spans,
    ) -> Result<(), EngineError> {
        let class = instance.class();
        let theta = self.thetas[class];
        self.drops.clear();
        self.drops.extend(instance.spec.stages.iter().map(|s| {
            if s.kind.droppable() {
                theta
            } else {
                0.0
            }
        }));
        self.engine.idle_until(t);
        let submission = spans.span(Span::Submit, || {
            self.engine.submit_job(&instance, &self.drops)
        })?;
        self.meta.insert(
            instance.spec.id,
            Meta {
                class,
                arrival_secs: instance.arrival_secs,
                attempt: 0,
                first_dispatch: None,
                last_dispatch: instance.arrival_secs,
                width: 0,
            },
        );
        if let Submission::Preempted { evicted, .. } | Submission::Queued { evicted } = submission {
            for (victim, _) in evicted {
                self.evicted(t, victim, spans);
            }
        }
        Ok(())
    }

    /// Drains the dispatch log: stamps each attempt and arms its sprint
    /// timer.
    fn drain_dispatches(&mut self) {
        for d in self.engine.take_dispatched() {
            let m = self
                .meta
                .get_mut(&d.job)
                .expect("dispatched job was submitted");
            m.attempt += 1;
            let secs = d.time.as_secs();
            m.first_dispatch.get_or_insert(secs);
            m.last_dispatch = secs;
            m.width = d.slots.count;
            if let Some(timeout) = self.sprinter.as_ref().and_then(|s| s.timeout_for(m.class)) {
                self.timers.push(Timer {
                    at: d.time + timeout,
                    job: d.job,
                    attempt: m.attempt,
                });
            }
        }
        let depth = self.engine.pending_events();
        let live = depth
            + self.engine.pending_jobs()
            + self.engine.running_count()
            + self.meta.len()
            + self.timers.len();
        self.tally.sample(depth, live);
    }

    /// Runs machine events until the arrival due at `arrival_t` is next (ties
    /// go to the machine), or until nothing is left when there is none.
    fn run_until(
        &mut self,
        arrival_t: Option<SimTime>,
        spans: &mut impl Spans,
    ) -> Result<(), EngineError> {
        while let Some((t, arm)) = self.next_arm(arrival_t, spans) {
            if arm == Arm::Arrival {
                break;
            }
            self.machine(t, arm, spans)?;
            self.drain_dispatches();
        }
        Ok(())
    }
}

/// Replays the open-system soak: one arrival released at a time, until
/// `completions` jobs have finished.
pub fn replay_soak<B: SampleStats>(
    mut source: impl JobSource,
    engine: &mut MultiEngine<B>,
    completions: u64,
    spans: &mut impl Spans,
) -> Result<(), EngineError> {
    let mut next = spans.span(Span::NextJob, || source.next_job());
    while engine.tally.completions < completions {
        let arrival_t = next.as_ref().map(|j| SimTime::from_secs(j.arrival_secs));
        let Some((t, arm)) = engine.next_arm(arrival_t, spans) else {
            break;
        };
        if arm == Arm::Arrival {
            let job = next.take().expect("arrival arm implies a drawn job");
            engine.admit(job, t, spans)?;
            next = spans.span(Span::NextJob, || source.next_job());
        } else {
            engine.machine(t, arm, spans)?;
        }
        engine.drain_dispatches();
    }
    Ok(())
}

/// Replays a federation: the first `arrivals` jobs routed in global arrival
/// order, each shard advanced up to the arrival it receives, then every
/// shard drained. Shards share nothing, so this per-arrival interleaving
/// makes the same per-shard call sequence as the epoch-synchronised run.
pub fn replay_fleet<B: SampleStats>(
    mut source: impl JobSource,
    shards: &mut [MultiEngine<B>],
    mut cursor: RouterCursor,
    arrivals: usize,
    spans: &mut impl Spans,
) -> Result<(), EngineError> {
    for _ in 0..arrivals {
        let Some(job) = spans.span(Span::NextJob, || source.next_job()) else {
            break;
        };
        let shard = &mut shards[cursor.route(&job)];
        let t = SimTime::from_secs(job.arrival_secs);
        shard.run_until(Some(t), spans)?;
        shard.admit(job, t, spans)?;
        shard.drain_dispatches();
    }
    for shard in shards {
        shard.run_until(None, spans)?;
    }
    Ok(())
}
