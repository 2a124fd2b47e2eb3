//! Open-system soak experiments: an unbounded arrival stream driven through
//! the multi-job engine loop at O(1) memory per class.
//!
//! Every closed experiment in this workspace ([`MultiJobExperiment`],
//! [`Experiment`](crate::Experiment)) buffers one observation per measured
//! job in exact [`SampleSet`](dias_des::stats::SampleSet)s — fine for a few
//! hundred thousand jobs, fatal for the ROADMAP's "heavy traffic from
//! millions of users". [`SoakExperiment`] is the open-system counterpart: it
//! runs the one `MultiDriver::run_until` arbiter loop over a continuous
//! marked-Poisson [`JobSource`] (e.g.
//! `dias_workloads::heterogeneous_width_two_priority`) under its own
//! recorder, which folds completions into [`StreamingSummary`] backends —
//! exact count/mean/M2 plus a Greenwald–Khanna quantile sketch with rank
//! error ≤ εn — so per-class state stays bounded however long the run.
//!
//! Three knobs shape a soak:
//!
//! * **Warm-up** ([`WarmupRule`]): either a fixed arrival count (exactly
//!   [`MultiJobExperiment::warmup`]'s semantics) or MSER-style detection —
//!   buffer a calibration prefix of completions, pick the truncation point
//!   `d` minimizing `MSER(d) = s²_d / (n − d)` over the pooled response
//!   series, and discard the first `d` completions as initialization bias.
//! * **Arrival batching** (`arrival_batch`): admit `k` drawn arrivals per
//!   release, at the *latest* arrival time in the batch. The batching delay
//!   is charged to response time (jobs keep their true arrival timestamps),
//!   making the latency cost of coarser admission visible while the driver
//!   loop amortizes its per-release work — the logical/physical batching
//!   trade the tpchlike streaming evaluation exposes.
//! * **Windows** (`window_jobs`): tumbling windows of measured completions,
//!   each closed into a scalar [`SoakWindow`] row (per-class p50/p95/p99,
//!   drop fraction, SLO attainment, energy) and then *reset*, so telemetry
//!   over an arbitrarily long run costs one row per window, not per job.
//!
//! The [`SoakReport`] carries throughput figures (simulated jobs per
//! wall-clock second) and a peak-RSS proxy: the high-water mark of live
//! driver/engine objects (calendar entries, pending and running jobs, job
//! metadata, sprint timers, the arrival batch) plus sketch nodes. A soak
//! whose memory grows with run length shows up as a rising high-water mark
//! long before the process OOMs.

use std::ops::Deref;
use std::time::Instant;

use dias_des::stats::{SampleStats, StreamingMoments, StreamingSummary, DEFAULT_SKETCH_EPSILON};
use dias_des::SimTime;
use dias_engine::{FaultTrace, Scheduler};

use crate::multi::{CompletionObs, MultiDriver, Recorder};
use crate::{ExperimentError, JobSource, MultiJobExperiment, MultiJobReport, Series, SprintPolicy};

/// How a soak decides where measurement starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmupRule {
    /// The first `n` *arrivals* are processed but not measured — identical to
    /// [`MultiJobExperiment::warmup`], which is what makes an
    /// `arrival_batch = 1` soak bit-comparable to the closed driver.
    Arrivals(usize),
    /// MSER-style detection: buffer the first `calibration` completions,
    /// truncate the `d` minimizing `MSER(d) = s²_d / (n − d)` over the
    /// pooled response series (searched over `d ≤ n/2`), and measure from
    /// completion `d` on. `calibration = 0` self-sizes to
    /// `(jobs / 10).clamp(64, 2000)`.
    Mser {
        /// Completions buffered before the truncation point is chosen.
        calibration: usize,
    },
}

/// Per-class scalar telemetry of one closed window.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakWindowClass {
    /// Measured completions of the class in the window.
    pub completed: u64,
    /// Mean response time over the window, seconds.
    pub mean_response: f64,
    /// Median response time (sketch, rank error ≤ εn within the window).
    pub p50_response: f64,
    /// 95th-percentile response time.
    pub p95_response: f64,
    /// 99th-percentile response time.
    pub p99_response: f64,
    /// Largest response time in the window (exact).
    pub max_response: f64,
    /// Mean fraction of tasks dropped by the deflator.
    pub mean_drop_fraction: f64,
    /// Completions that met the class's SLO target (0 without SLOs).
    pub slo_attained: u64,
}

/// One tumbling window of an open-system soak, reduced to scalars.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakWindow {
    /// Window index, 0-based in measurement order.
    pub index: usize,
    /// Engine time of the window's first measured completion, seconds.
    pub start_secs: f64,
    /// Engine time of the window's last measured completion, seconds.
    pub end_secs: f64,
    /// Total cluster energy (idle included) accrued since the previous
    /// window closed, joules.
    pub energy_joules: f64,
    /// Per-class telemetry, indexed by class.
    pub per_class: Vec<SoakWindowClass>,
}

/// The outcome of one [`SoakExperiment::run`].
///
/// Dereferences to [`SoakReport::totals`], so the run's numbers read as on
/// any run: `report.energy_joules`, `report.per_class[k].response`,
/// `report.mean_response(k)`.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// The lifetime books, kept exactly as the closed driver keeps its
    /// [`MultiJobReport`] but on the O(1)-memory streaming backend: the
    /// engine-side totals (horizon, energy, waste, utilization, sprint
    /// budget books, capacity changes) and, per class, the statistics of
    /// every measured completion (`response` and the series asked for with
    /// [`SoakExperiment::record`]) with the class's split of the run's
    /// active energy, busy and sprint slot-seconds.
    pub totals: MultiJobReport<StreamingSummary>,
    /// Tumbling windows in measurement order (the last one may be partial).
    pub windows: Vec<SoakWindow>,
    /// Measured completions.
    pub measured_jobs: u64,
    /// Completions excluded from measurement: the MSER truncation prefix
    /// under [`WarmupRule::Mser`], or out-of-window completions under
    /// [`WarmupRule::Arrivals`].
    pub warmup_jobs: u64,
    /// Arrivals admitted per release (the batching knob).
    pub arrival_batch: usize,
    /// High-water mark of live objects: engine calendar entries + pending +
    /// running jobs + driver metadata + sprint timers + arrival batch +
    /// sketch nodes of the recorded series + window rows. The
    /// run-length-independent peak-RSS proxy. It counts those objects, not bytes, and nothing else: a
    /// buffer in a report field or in the caller's inputs (the fault trace,
    /// the job source) is invisible to it, so a run whose memory grows that
    /// way keeps a flat mark. The process's peak RSS shows those.
    pub live_high_water: usize,
    /// Engine events processed over the whole run.
    pub events: u64,
    /// Wall-clock duration of the run, seconds.
    pub wall_clock_secs: f64,
    /// Simulated job completions (warm-up included) per wall-clock second.
    pub sim_jobs_per_sec: f64,
}

impl SoakReport {
    /// Whether two reports describe the same *simulation* — every field
    /// except the wall-clock-derived pair (`wall_clock_secs`,
    /// `sim_jobs_per_sec`), compared exactly. This is the determinism
    /// contract: re-running an identically configured soak must produce a
    /// `same_simulation` report however the host machine was loaded.
    #[must_use]
    pub fn same_simulation(&self, other: &SoakReport) -> bool {
        self.totals == other.totals
            && self.windows == other.windows
            && self.measured_jobs == other.measured_jobs
            && self.warmup_jobs == other.warmup_jobs
            && self.arrival_batch == other.arrival_batch
            && self.live_high_water == other.live_high_water
            && self.events == other.events
    }
}

impl Deref for SoakReport {
    type Target = MultiJobReport<StreamingSummary>;

    fn deref(&self) -> &MultiJobReport<StreamingSummary> {
        &self.totals
    }
}

/// An open-system soak over the multi-job engine loop.
///
/// Its lifetime books ([`SoakReport::totals`]) keep a sketch of each
/// class's `response` times and of the series asked for with
/// [`SoakExperiment::record`] (none by default); the windows keep what
/// their rows read.
///
/// # Examples
///
/// A short soak (real runs use `dias_workloads::heterogeneous_width_two_priority`
/// as the unbounded source and only change `.jobs(..)` to scale up):
///
/// ```
/// use dias_core::{SoakExperiment, VecJobSource, WarmupRule};
/// use dias_engine::{JobInstance, JobSpec, StageKind, StageSpec};
/// use dias_stochastic::Dist;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(9);
/// let jobs: Vec<JobInstance> = (0..600u64)
///     .map(|i| {
///         let spec = JobSpec::builder(i, usize::from(i % 5 == 0))
///             .stage(StageSpec::new(StageKind::Map, 20, Dist::exponential(2.0)))
///             .build();
///         let mut inst = JobInstance::sample(&spec, &mut rng);
///         inst.arrival_secs = i as f64 * 4.0;
///         inst
///     })
///     .collect();
///
/// let report = SoakExperiment::new(VecJobSource::new(jobs, 2), Box::new(dias_engine::GangBinPack))
///     .jobs(400)
///     .warmup(WarmupRule::Mser { calibration: 0 })
///     .arrival_batch(4)
///     .run()
///     .unwrap();
/// assert_eq!(report.measured_jobs, 400);
/// assert!(report.p95_response(1) > 0.0);
/// assert!(!report.windows.is_empty());
/// ```
#[derive(Debug)]
pub struct SoakExperiment<S> {
    inner: MultiJobExperiment<S>,
    jobs: usize,
    warmup: WarmupRule,
    window_jobs: usize,
    epsilon: f64,
}

impl<S: JobSource> SoakExperiment<S> {
    /// Creates a soak on the paper's reference cluster: 100k measured jobs,
    /// MSER warm-up, one arrival per release, self-sized windows
    /// (`jobs / 50`), sketches at the default ε = 1%.
    #[must_use]
    pub fn new(source: S, scheduler: Box<dyn Scheduler>) -> Self {
        SoakExperiment {
            inner: MultiJobExperiment::new(source, scheduler),
            jobs: 100_000,
            warmup: WarmupRule::Mser { calibration: 0 },
            window_jobs: 0,
            epsilon: DEFAULT_SKETCH_EPSILON,
        }
    }

    /// Sets the number of measured completions the soak runs for.
    #[must_use]
    pub fn jobs(mut self, n: usize) -> Self {
        self.jobs = n;
        self
    }

    /// Sets the warm-up rule (default: self-sized [`WarmupRule::Mser`]).
    #[must_use]
    pub fn warmup(mut self, rule: WarmupRule) -> Self {
        self.warmup = rule;
        self
    }

    /// Sets the batching knob: `k` arrivals are drawn ahead and admitted
    /// together at the latest of their arrival times. `k` must be at least
    /// 1; the run checks it.
    #[must_use]
    pub fn arrival_batch(mut self, k: usize) -> Self {
        self.inner.arrival_batch = k;
        self
    }

    /// Sets the tumbling-window size in measured completions (0, the
    /// default, self-sizes to `jobs / 50`, at least 1).
    #[must_use]
    pub fn window_jobs(mut self, n: usize) -> Self {
        self.window_jobs = n;
        self
    }

    /// Sets the quantile sketches' rank-error bound ε, which must lie in
    /// `(0, 0.5)`; the run checks it.
    #[must_use]
    pub fn epsilon(mut self, eps: f64) -> Self {
        self.epsilon = eps;
        self
    }

    /// Sets the optional series the lifetime books record besides
    /// `completed` and `response` (see [`MultiJobExperiment::record`]). Each
    /// one costs a sketch per class, counted in
    /// [`SoakReport::live_high_water`].
    #[must_use]
    pub fn record(mut self, series: Series) -> Self {
        self.inner = self.inner.record(series);
        self
    }

    /// Sets per-class drop ratios (see [`MultiJobExperiment::drops`]).
    #[must_use]
    pub fn drops(mut self, thetas: &[f64]) -> Self {
        self.inner = self.inner.drops(thetas);
        self
    }

    /// Runs a sprint policy over the stream
    /// (see [`MultiJobExperiment::sprint`]).
    #[must_use]
    pub fn sprint(mut self, policy: SprintPolicy) -> Self {
        self.inner = self.inner.sprint(policy);
        self
    }

    /// Injects a deterministic fault stream
    /// (see [`MultiJobExperiment::faults`]).
    #[must_use]
    pub fn faults(mut self, trace: FaultTrace) -> Self {
        self.inner = self.inner.faults(trace);
        self
    }

    /// Sets per-class response-time SLO targets
    /// (see [`MultiJobExperiment::slos`]).
    #[must_use]
    pub fn slos(mut self, targets: &[f64]) -> Self {
        self.inner = self.inner.slos(targets);
        self
    }

    /// Drives the open loop until `jobs` measured completions (or the source
    /// drains) and reports streaming statistics, windows, throughput and the
    /// live-object high-water mark.
    ///
    /// With `arrival_batch = 1` and [`WarmupRule::Arrivals`] over a finite
    /// source, the operation sequence this executes is the closed driver's
    /// loop exactly — same draw order, same tie order (engine event → budget
    /// depletion → sprint timers → faults → release), same books — so the
    /// engine-side totals are bit-identical to [`MultiJobExperiment::run`]'s
    /// (asserted by `crates/core/tests/conformance.rs`).
    ///
    /// # Errors
    ///
    /// Exactly as [`MultiJobExperiment::run`]: class-count mismatches, bad
    /// drop ratios or SLO targets, wrapped engine errors, or
    /// [`ExperimentError::Starved`] when the completion budget (64× the
    /// measured target) is exhausted before the window fills. Also
    /// [`ExperimentError::InvalidConfig`] naming `arrival_batch` when it is
    /// zero, or `epsilon` when ε is not in `(0, 0.5)`.
    pub fn run(self) -> Result<SoakReport, ExperimentError> {
        if self.inner.arrival_batch == 0 {
            return Err(ExperimentError::invalid(
                "arrival_batch",
                "a release must admit at least one job",
            ));
        }
        let eps = self.epsilon;
        if !(eps > 0.0 && eps < 0.5) {
            let reason = format!("sketch rank error {eps} is outside (0, 0.5)");
            return Err(ExperimentError::invalid("epsilon", reason));
        }
        let jobs = self.jobs;
        let window_jobs = if self.window_jobs == 0 {
            (jobs / 50).max(1)
        } else {
            self.window_jobs
        };
        let (driver_warmup, driver_jobs, calibration) = match self.warmup {
            WarmupRule::Arrivals(w) => (w, jobs, 0),
            WarmupRule::Mser { calibration } => {
                let c = if calibration == 0 {
                    (jobs / 10).clamp(64, 2000)
                } else {
                    calibration
                };
                // Measurement is decided here, not by the driver's arrival
                // window: every completion is observed (`usize::MAX` target)
                // and the truncation point picked from the calibration
                // buffer.
                (0, usize::MAX, c)
            }
        };
        let arrival_batch = self.inner.arrival_batch;
        let exp = self.inner.jobs(driver_jobs).warmup(driver_warmup);
        let mut driver = MultiDriver::build(exp, || StreamingSummary::with_epsilon(eps))?;
        driver.completion_cap = calibration
            .saturating_add(driver_warmup)
            .saturating_add(jobs)
            .saturating_mul(64)
            .saturating_add(1024);
        let mut books = SoakBooks {
            epsilon: eps,
            jobs,
            window_jobs,
            calibrating: (calibration > 0).then(|| (calibration, Vec::with_capacity(calibration))),
            window: window_classes(driver.classes, eps),
            ..SoakBooks::default()
        };

        let wall_start = Instant::now();
        driver.run_until(SimTime::FAR_FUTURE, &mut books)?;
        // A finite source can drain mid-calibration: measure what the buffer
        // holds rather than discarding it wholesale.
        books.resolve_calibration(&mut driver);
        books.close_window_if_open(driver.engine.energy_joules());

        let wall_clock_secs = wall_start.elapsed().as_secs_f64();
        let events = driver.run.events_done;
        let simulated = driver.run.total_completions as f64;
        let measured_jobs = driver.run.measured_done as u64;
        Ok(SoakReport {
            totals: driver.finalize(),
            windows: books.windows,
            measured_jobs,
            warmup_jobs: books.warmup_jobs,
            arrival_batch,
            live_high_water: books.live_high_water,
            events,
            wall_clock_secs,
            sim_jobs_per_sec: if wall_clock_secs > 0.0 {
                simulated / wall_clock_secs
            } else {
                0.0
            },
        })
    }
}

/// The soak's recorder: warm-up machinery, the currently open window and
/// the live-object high-water mark. The lifetime statistics are the
/// driver's own per-class books.
#[derive(Default)]
struct SoakBooks {
    epsilon: f64,
    /// Measured completions the soak runs for.
    jobs: usize,
    window_jobs: usize,
    /// `Some(buffer)` while MSER calibration is still collecting; `None`
    /// under [`WarmupRule::Arrivals`] or once the truncation resolved.
    calibrating: Option<(usize, Vec<CompletionObs>)>,
    window: Vec<WindowClass>,
    windows: Vec<SoakWindow>,
    window_count: usize,
    window_start_secs: f64,
    window_end_secs: f64,
    energy_mark: f64,
    warmup_jobs: u64,
    live_high_water: usize,
}

/// One class's accumulators in the open window: only what closing it reads.
struct WindowClass {
    response: StreamingSummary,
    drop_fraction: StreamingMoments,
    slo_attained: u64,
}

/// The driver of a soak: its per-class books are lifetime sketches.
type SoakDriver<S> = MultiDriver<S, StreamingSummary>;

impl<S: JobSource> Recorder<S, StreamingSummary> for SoakBooks {
    fn progress(&self, driver: &SoakDriver<S>) -> (usize, usize) {
        (driver.run.measured_done, self.jobs)
    }

    /// Routes one completion: warm-up discard, calibration buffering, or
    /// measurement. The engine's cumulative energy at the completion is
    /// consumed when this observation closes a window.
    fn record(&mut self, driver: &mut SoakDriver<S>, obs: &CompletionObs) {
        let energy_now = driver.engine.energy_joules();
        if !obs.measured {
            // Outside the driver's arrival window (fixed warm-up mode).
            self.warmup_jobs += 1;
            return;
        }
        if let Some((target, buffer)) = self.calibrating.as_mut() {
            buffer.push(*obs);
            if buffer.len() >= *target {
                self.resolve_calibration(driver);
                self.close_windows_if_full(energy_now);
            }
            return;
        }
        self.measure(driver, obs);
        self.close_windows_if_full(energy_now);
    }

    fn after_step(&mut self, driver: &SoakDriver<S>) {
        self.live_high_water = self
            .live_high_water
            .max(driver.live_objects() + self.live_nodes());
    }
}

impl SoakBooks {
    /// Ends MSER calibration: picks the truncation over the pooled response
    /// series and retro-records the kept suffix in completion order.
    fn resolve_calibration<S>(&mut self, driver: &mut SoakDriver<S>) {
        let Some((_, buffer)) = self.calibrating.take() else {
            return;
        };
        let responses: Vec<f64> = buffer.iter().map(|o| o.response).collect();
        let truncate = mser_truncation(&responses);
        self.warmup_jobs += truncate as u64;
        for obs in &buffer[truncate..] {
            self.measure(driver, obs);
        }
    }

    /// Folds one measured completion into the driver's lifetime books and
    /// the open window.
    fn measure<S>(&mut self, driver: &mut SoakDriver<S>, obs: &CompletionObs) {
        driver.record(obs);
        let slos = driver.slos.as_deref();
        let w = &mut self.window[obs.class];
        w.response.push(obs.response);
        w.drop_fraction.push(obs.drop_fraction);
        w.slo_attained += u64::from(obs.meets_slo(slos));
        if self.window_count == 0 {
            self.window_start_secs = obs.completed_at_secs;
        }
        self.window_end_secs = obs.completed_at_secs;
        self.window_count += 1;
    }

    /// Closes as many full windows as the measured count warrants. The
    /// retroactive calibration flush can span several window boundaries at
    /// once; the resulting rows share the flush's timestamps/energy (their
    /// per-class statistics still partition the stream exactly).
    fn close_windows_if_full(&mut self, energy_now: f64) {
        while self.window_count >= self.window_jobs {
            self.close_window(energy_now, self.window_jobs);
        }
    }

    /// Closes the current window early (end of run) if it holds anything.
    fn close_window_if_open(&mut self, energy_now: f64) {
        if self.window_count > 0 {
            let len = self.window_count.min(self.window_jobs);
            self.close_window(energy_now, len);
        }
    }

    fn close_window(&mut self, energy_now: f64, take: usize) {
        let per_class = self
            .window
            .iter()
            .map(|c| SoakWindowClass {
                completed: c.response.count(),
                mean_response: c.response.mean(),
                p50_response: c.response.quantile(0.5),
                p95_response: c.response.quantile(0.95),
                p99_response: c.response.quantile(0.99),
                max_response: c.response.max(),
                mean_drop_fraction: c.drop_fraction.mean(),
                slo_attained: c.slo_attained,
            })
            .collect();
        self.windows.push(SoakWindow {
            index: self.windows.len(),
            start_secs: self.window_start_secs,
            end_secs: self.window_end_secs,
            energy_joules: energy_now - self.energy_mark,
            per_class,
        });
        self.energy_mark = energy_now;
        self.window_count -= take;
        self.window = window_classes(self.window.len(), self.epsilon);
        self.window_start_secs = self.window_end_secs;
    }

    /// Live window-side objects: the open window's sketch nodes, the
    /// calibration buffer, and the closed windows' scalar rows.
    fn live_nodes(&self) -> usize {
        let window: usize = self.window.iter().map(|c| c.response.live_nodes()).sum();
        window
            + self.calibrating.as_ref().map_or(0, |(_, b)| b.len())
            + self.windows.len() * (1 + self.window.len())
    }
}

/// Fresh open-window accumulators at rank-error bound `eps`.
fn window_classes(classes: usize, eps: f64) -> Vec<WindowClass> {
    (0..classes)
        .map(|_| WindowClass {
            response: StreamingSummary::with_epsilon(eps),
            drop_fraction: StreamingMoments::new(),
            slo_attained: 0,
        })
        .collect()
}

/// MSER truncation point of a completion-ordered series: the `d ≤ n/2`
/// minimizing `MSER(d) = [Σ_{i≥d}(x_i − x̄_d)²] / (n − d)²` — the classic
/// marginal-standard-error rule, computed in O(n) via suffix sums. Series
/// shorter than 8 observations are kept whole.
fn mser_truncation(xs: &[f64]) -> usize {
    let n = xs.len();
    if n < 8 {
        return 0;
    }
    let mut suffix_sum = vec![0.0f64; n + 1];
    let mut suffix_sq = vec![0.0f64; n + 1];
    for i in (0..n).rev() {
        suffix_sum[i] = suffix_sum[i + 1] + xs[i];
        suffix_sq[i] = suffix_sq[i + 1] + xs[i] * xs[i];
    }
    let mut best_d = 0;
    let mut best = f64::INFINITY;
    for d in 0..=n / 2 {
        let m = (n - d) as f64;
        let centered_ss = (suffix_sq[d] - suffix_sum[d] * suffix_sum[d] / m).max(0.0);
        let stat = centered_ss / (m * m);
        if stat < best {
            best = stat;
            best_d = d;
        }
    }
    best_d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VecJobSource;
    use dias_engine::{GangBinPack, JobInstance, JobSpec, StageKind, StageSpec};
    use dias_stochastic::Dist;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn unbounded_soak_after_an_arrival_warmup_measures_until_the_source_drains() {
        let mut rng = StdRng::seed_from_u64(5);
        let jobs = (0..30u64)
            .map(|i| {
                let spec = JobSpec::builder(i, usize::from(i % 5 == 0))
                    .setup(Dist::constant(1.0))
                    .stage(StageSpec::new(StageKind::Map, 8, Dist::constant(2.0)))
                    .build();
                let mut inst = JobInstance::sample(&spec, &mut rng);
                inst.arrival_secs = i as f64 * 3.0;
                inst
            })
            .collect();
        let report = SoakExperiment::new(VecJobSource::new(jobs, 2), Box::new(GangBinPack))
            .jobs(usize::MAX)
            .warmup(WarmupRule::Arrivals(5))
            .run()
            .unwrap();
        assert_eq!(report.measured_jobs, 25);
        assert_eq!(report.warmup_jobs, 5);
    }

    #[test]
    fn mser_truncates_a_biased_prefix() {
        // A noisy high-mean prefix followed by a tight stationary tail: the
        // rule must cut at (or just past) the regime change.
        let mut xs = Vec::new();
        for i in 0..40 {
            xs.push(100.0 - f64::from(i));
        }
        for i in 0..160 {
            xs.push(10.0 + f64::from(i % 3));
        }
        let d = mser_truncation(&xs);
        assert!((38..=60).contains(&d), "truncation {d}");
    }

    #[test]
    fn mser_keeps_a_stationary_series() {
        let xs: Vec<f64> = (0..200).map(|i| 5.0 + f64::from(i % 7) * 0.1).collect();
        let d = mser_truncation(&xs);
        // No initialization bias: nothing (or almost nothing) to cut.
        assert!(d <= 10, "truncation {d}");
    }

    #[test]
    fn mser_keeps_short_series_whole() {
        assert_eq!(mser_truncation(&[9.0, 1.0, 1.0]), 0);
        assert_eq!(mser_truncation(&[]), 0);
    }
}
