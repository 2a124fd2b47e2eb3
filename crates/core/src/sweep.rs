//! Parallel experiment sweeps: fan independent scenario points across cores.
//!
//! Every evaluation figure runs the *same* closed loop over a handful of
//! independent configurations — one per policy, drop ratio, or load point.
//! Those runs share nothing (each owns its job source, seeded up front), so
//! they parallelize embarrassingly. This module provides:
//!
//! * [`run_parallel`] — the generic primitive: a work-stealing map over a
//!   `Vec` of items on the persistent [`dias_pool`] worker pool (no external
//!   dependencies), with results collected **in input order**. Each item's
//!   computation depends only on the item and its index, never on which
//!   thread ran it or when, so results are bitwise-deterministic regardless
//!   of the thread count.
//! * [`run_differential`] — a `points × replicas` grid of experiment runs
//!   under common random numbers, with paired contrasts between points;
//!   [`run_multi_experiments_branch`] serves theta-only grids by suffix
//!   replay from checkpoints.
//! * [`replica_seeds`] — deterministic per-replication master seeds derived
//!   with [`SeedSequence::child`], so replicated experiments stay reproducible
//!   under any parallelism.
//! * [`run_mc_replicated`] — one Monte-Carlo queue point split into
//!   independently seeded sub-runs and merged exactly, so a single
//!   `McQueue` evaluation scales across cores without losing bitwise
//!   determinism.
//!
//! # Examples
//!
//! ```
//! use dias_core::sweep::run_parallel;
//!
//! let squares = run_parallel((0..8u64).collect(), 4, |i, x| (i as u64) + x * x);
//! assert_eq!(squares[3], 3 + 9);
//! ```

use dias_des::SeedSequence;
use dias_models::mc::{McQueue, McResult};
use dias_models::ModelError;

use crate::{ExperimentError, JobSource, MultiJobExperiment, MultiJobReport};

/// Number of worker threads to use by default: the machine's available
/// parallelism (1 when it cannot be determined).
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Maps `f` over `items` on up to `threads` worker lanes, returning the
/// results in input order.
///
/// Work is pulled from a shared queue, so long and short items mix freely;
/// `f(i, item)` receives the item's input index. Because every result is keyed
/// by that index and each computation is independent, the output is
/// bitwise-identical whatever `threads` is — `1` reproduces the sequential
/// loop exactly.
///
/// Since PR 10 the lanes come from a persistent [`dias_pool::WorkerPool`]
/// shared across all sweep cells (and the federation's epoch fan-out) instead
/// of freshly spawned scoped threads: the per-call spawn/join cost — measured
/// at ±30% wall-clock jitter on the 1-CPU CI container back in PR 5 — is paid
/// once per process and pool size, not once per batch. The calling thread
/// participates as one of the `threads` lanes.
///
/// # Panics
///
/// Propagates a panic from any worker once the whole batch has finished.
pub fn run_parallel<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let lanes = threads.max(1).min(n);
    if lanes <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, x)| f(i, x))
            .collect();
    }
    // The caller is one lane; the pool provides the other `lanes - 1`.
    dias_pool::shared_pool(lanes - 1).run(items, f)
}

/// Deterministic master seeds for `n` replications of a seeded experiment:
/// child `i` of [`SeedSequence::new(master)`](SeedSequence::new).
///
/// The derivation depends only on `(master, i)`, so replication `i` sees the
/// same seed whether the sweep runs on one thread or many, and adding
/// replications never perturbs existing ones.
#[must_use]
pub fn replica_seeds(master: u64, n: usize) -> Vec<u64> {
    let seq = SeedSequence::new(master);
    (0..n).map(|i| seq.child(i as u64).master()).collect()
}

/// Evaluates one Monte-Carlo queue point as `replications` independently
/// seeded sub-runs fanned across up to `threads` cores, merging their
/// [`McResult`]s exactly in replica order.
///
/// The sub-runs come from [`McQueue::replicas`], whose seeds equal
/// [`replica_seeds`]`(queue.seed, replications)`, and the merge
/// ([`dias_models::mc::McResult::merge`]) concatenates sample buffers and
/// re-weights ratio metrics — so for a fixed `replications` the result is
/// **bitwise identical for any `threads`**. Note that every replica (even
/// with `replications == 1`) draws from its replica-indexed child seed, so
/// changing `replications` changes the streams — deliberately, as replica
/// `i`'s seed must not depend on how many replicas run beside it.
///
/// # Examples
///
/// ```
/// use dias_core::sweep::run_mc_replicated;
/// use dias_models::mc::{Discipline, McQueue};
/// use dias_stochastic::{MarkedPoisson, Ph};
///
/// let queue = McQueue {
///     arrivals: MarkedPoisson::new(vec![0.004, 0.001]).unwrap(),
///     service: vec![
///         Ph::erlang(3, 3.0 / 147.0).unwrap(),
///         Ph::erlang(3, 3.0 / 126.0).unwrap(),
///     ],
///     sprint: vec![None, None],
///     discipline: Discipline::NonPreemptive,
///     servers: 1,
///     jobs: 400,
///     warmup: 40,
///     seed: 7,
/// };
/// // Four replicas; the merged result is bitwise identical at any thread count.
/// let a = run_mc_replicated(&queue, 4, 1).unwrap();
/// let b = run_mc_replicated(&queue, 4, 4).unwrap();
/// assert_eq!(a.response[0].mean(), b.response[0].mean());
/// assert_eq!(a.response[0].len() + a.response[1].len(), 400);
/// ```
///
/// # Errors
///
/// Propagates [`ModelError`] from validation or any sub-run.
pub fn run_mc_replicated(
    queue: &McQueue,
    replications: usize,
    threads: usize,
) -> Result<McResult, ModelError> {
    let subs = queue.replicas(replications)?;
    let results = run_parallel(subs, threads, |_, sub| sub.run());
    let mut merged = McResult::default();
    for result in results {
        merged.merge(&result?);
    }
    Ok(merged)
}

/// A paired or independent contrast between two sweep points: the mean metric
/// delta and its 95% confidence half-width over the replicas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Contrast {
    /// Mean of `metric(point a) − metric(point b)` across replicas.
    pub mean_delta: f64,
    /// 95% confidence half-width of the mean delta (normal approximation).
    pub half_width: f64,
    /// Number of replicas the contrast was computed over.
    pub replicas: usize,
}

/// The replica grid of a differential sweep: `reports[point][replica]`.
///
/// Produced by [`run_differential`] and [`run_multi_experiments_branch`].
/// When every point's replica `r`
/// consumed the *same* draw stream (common random numbers — e.g. replays of
/// one recorded trace, or same-seeded streams whose draws are
/// policy-independent), [`DifferentialReport::paired_contrast`] cancels the
/// shared sampling noise and its half-widths shrink well below the
/// independent-seed half-widths of
/// [`DifferentialReport::independent_contrast`].
#[derive(Debug, Clone)]
pub struct DifferentialReport<R> {
    reports: Vec<Vec<R>>,
}

impl<R> DifferentialReport<R> {
    /// Number of sweep points.
    #[must_use]
    pub fn points(&self) -> usize {
        self.reports.len()
    }

    /// Number of replicas per point.
    #[must_use]
    pub fn replicas(&self) -> usize {
        self.reports.first().map_or(0, Vec::len)
    }

    /// The replica reports of sweep point `i`, in replica order.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn point(&self, i: usize) -> &[R] {
        &self.reports[i]
    }

    fn metric_columns(
        &self,
        a: usize,
        b: usize,
        metric: impl Fn(&R) -> f64,
    ) -> (Vec<f64>, Vec<f64>) {
        let xa: Vec<f64> = self.reports[a].iter().map(&metric).collect();
        let xb: Vec<f64> = self.reports[b].iter().map(&metric).collect();
        (xa, xb)
    }

    /// Paired contrast of `metric` between points `a` and `b`: replica `r` of
    /// `a` is differenced against replica `r` of `b`, so noise shared through
    /// common random numbers cancels. Half-width is `1.96·s_d/√R` over the
    /// per-replica deltas.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds or there are fewer than 2
    /// replicas (the delta variance would be undefined).
    #[must_use]
    pub fn paired_contrast(&self, a: usize, b: usize, metric: impl Fn(&R) -> f64) -> Contrast {
        let (xa, xb) = self.metric_columns(a, b, metric);
        let deltas: Vec<f64> = xa.iter().zip(&xb).map(|(x, y)| x - y).collect();
        let (mean, var) = mean_and_variance(&deltas);
        Contrast {
            mean_delta: mean,
            half_width: 1.96 * (var / deltas.len() as f64).sqrt(),
            replicas: deltas.len(),
        }
    }

    /// Independent-seed contrast of `metric` between points `a` and `b`:
    /// treats the two replica columns as unpaired samples (Welch-style),
    /// `1.96·√(s_a²/R + s_b²/R)` — the half-width the same replica budget
    /// would buy *without* common random numbers. The ratio
    /// `independent.half_width / paired.half_width` is the variance-reduction
    /// factor of the pairing.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds or there are fewer than 2
    /// replicas.
    #[must_use]
    pub fn independent_contrast(&self, a: usize, b: usize, metric: impl Fn(&R) -> f64) -> Contrast {
        let (xa, xb) = self.metric_columns(a, b, metric);
        let n = xa.len() as f64;
        let (ma, va) = mean_and_variance(&xa);
        let (mb, vb) = mean_and_variance(&xb);
        Contrast {
            mean_delta: ma - mb,
            half_width: 1.96 * (va / n + vb / n).sqrt(),
            replicas: xa.len(),
        }
    }
}

/// Sample mean and unbiased variance; panics on fewer than 2 values.
fn mean_and_variance(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "contrasts need at least 2 replicas");
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
    (mean, var)
}

/// Differential sweep: evaluates `cell(point, replica)` over a
/// `points × replicas` grid on up to `threads` cores and reassembles the
/// cells into rows. A cell builds and runs one experiment, e.g.
/// `|p, r| make(p, r).run()` for an [`Experiment`](crate::Experiment) or a
/// [`MultiJobExperiment`].
///
/// Common random numbers are the *caller's* contract: for a fixed `replica`,
/// every point's source must produce the identical draw stream — clones of
/// one seeded source, or same-seeded sources whose draw sequence does not
/// depend on the point. Under that contract,
/// [`DifferentialReport::paired_contrast`] gives much tighter confidence
/// intervals than independent seeding at the same replica budget.
///
/// # Errors
///
/// Propagates the first [`ExperimentError`] any cell reports (in grid order).
pub fn run_differential<R: Send>(
    points: usize,
    replicas: usize,
    threads: usize,
    cell: impl Fn(usize, usize) -> Result<R, ExperimentError> + Sync,
) -> Result<DifferentialReport<R>, ExperimentError> {
    let grid: Vec<(usize, usize)> = (0..points)
        .flat_map(|p| (0..replicas).map(move |r| (p, r)))
        .collect();
    let cells = run_parallel(grid, threads, |_, (p, r)| cell(p, r));
    let mut rows: Vec<Vec<R>> = (0..points).map(|_| Vec::with_capacity(replicas)).collect();
    for (i, cell) in cells.into_iter().enumerate() {
        rows[i / replicas].push(cell?);
    }
    Ok(DifferentialReport { reports: rows })
}

/// Work-avoidance accounting of one [`run_multi_experiments_branch`] sweep:
/// how much of the grid was served by suffix replay instead of simulated
/// from scratch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BranchStats {
    /// Grid cells (point ≥ 1 × replica) evaluated as suffix replays.
    pub suffix_cells: usize,
    /// Engine events the suffix replays skipped re-simulating (Σ over cells
    /// of the restored checkpoint's event count).
    pub events_skipped: u64,
    /// Engine events a full replay of those cells would have processed
    /// (Σ over cells of the reference run's event total).
    pub events_full: u64,
    /// Arrivals the suffix replays resumed past (Σ of restored checkpoint
    /// arrival indices).
    pub arrivals_skipped: usize,
    /// Arrivals a full replay of those cells would have submitted.
    pub arrivals_total: usize,
}

impl BranchStats {
    /// Fraction of the non-reference grid's engine events skipped by
    /// branching (0 when branching never engaged).
    #[must_use]
    pub fn skip_fraction(&self) -> f64 {
        if self.events_full == 0 {
            0.0
        } else {
            self.events_skipped as f64 / self.events_full as f64
        }
    }
}

/// Checkpoint-and-branch mode of [`run_differential`] over
/// [`MultiJobExperiment`] cells for **theta-only** sweeps: point 0 runs in full once per replica, recording a
/// [`MultiRunTrace`](crate::MultiRunTrace) (a resume checkpoint every `stride` arrivals plus
/// per-arrival drop signatures); every other point restores the latest
/// checkpoint at or before its divergence index — the first arrival its drop
/// vector deflates differently from the reference — and replays only the
/// suffix.
///
/// `make(replica)` builds the replica's **base** experiment *without* a drop
/// vector; the runner applies `point_thetas[p]` itself, so the
/// identical-except-thetas contract that makes prefix sharing sound holds by
/// construction. The reports are bit-identical to [`run_differential`]
/// running every cell in full (the conformance oracle in
/// `crates/core/tests/conformance.rs` asserts `==` on the grids).
///
/// Configurations that are not [`MultiJobExperiment::branchable`]
/// (degradation or SLO scoring) conservatively fall back to full replay for
/// every cell, reported as a default [`BranchStats`].
///
/// # Errors
///
/// Returns [`ExperimentError::InvalidConfig`] naming `point_thetas` when it
/// is empty or `stride` when it is zero. Otherwise propagates the first
/// [`ExperimentError`] any cell reports (reference replicas first, then
/// suffix cells in grid order).
pub fn run_multi_experiments_branch<S, F>(
    point_thetas: &[Vec<f64>],
    replicas: usize,
    threads: usize,
    stride: usize,
    make: F,
) -> Result<(DifferentialReport<MultiJobReport>, BranchStats), ExperimentError>
where
    S: JobSource + Clone + Send + Sync,
    F: Fn(usize) -> MultiJobExperiment<S> + Sync,
{
    if point_thetas.is_empty() {
        return Err(ExperimentError::invalid(
            "point_thetas",
            "a branch sweep needs a reference point",
        ));
    }
    if stride == 0 {
        return Err(ExperimentError::invalid(
            "stride",
            "checkpoint stride must be positive",
        ));
    }
    let points = point_thetas.len();
    if !make(0).drops(&point_thetas[0]).branchable() {
        let report = run_differential(points, replicas, threads, |p, r| {
            make(r).drops(&point_thetas[p]).run()
        })?;
        return Ok((report, BranchStats::default()));
    }

    // Phase A: the reference point in full, once per replica, recording the
    // branchable trace.
    let refs = {
        let cells = run_parallel((0..replicas).collect(), threads, |_, r| {
            make(r).drops(&point_thetas[0]).run_recording(stride)
        });
        let mut refs = Vec::with_capacity(replicas);
        for cell in cells {
            refs.push(cell?);
        }
        refs
    };

    // Phase B: every other cell resumes its replica's trace at the latest
    // checkpoint before divergence.
    let grid: Vec<(usize, usize)> = (1..points)
        .flat_map(|p| (0..replicas).map(move |r| (p, r)))
        .collect();
    let mut stats = BranchStats::default();
    for &(p, r) in &grid {
        let trace = &refs[r].1;
        let divergence = trace.divergence_index(Some(&point_thetas[p]));
        let (arrivals, events) = trace.resume_point(divergence).unwrap_or((0, 0));
        stats.suffix_cells += 1;
        stats.events_skipped += events;
        stats.events_full += trace.events_total();
        stats.arrivals_skipped += arrivals;
        stats.arrivals_total += trace.arrivals();
    }
    let cells = run_parallel(grid, threads, |_, (p, r)| {
        make(r).drops(&point_thetas[p]).run_from(&refs[r].1)
    });

    let mut rows: Vec<Vec<MultiJobReport>> =
        (0..points).map(|_| Vec::with_capacity(replicas)).collect();
    rows[0] = refs.into_iter().map(|(report, _)| report).collect();
    for (i, cell) in cells.into_iter().enumerate() {
        rows[1 + i / replicas].push(cell?);
    }
    Ok((DifferentialReport { reports: rows }, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Experiment, Policy};

    #[test]
    fn ordered_results_at_any_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 4, 16] {
            let got = run_parallel(items.clone(), threads, |_, x| x * x + 1);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn index_reaches_the_callback() {
        let got = run_parallel(vec!["a", "b", "c"], 2, |i, s| format!("{i}{s}"));
        assert_eq!(got, vec!["0a", "1b", "2c"]);
    }

    #[test]
    fn empty_input_is_fine() {
        let got: Vec<u64> = run_parallel(Vec::<u64>::new(), 8, |_, x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn replica_seeds_are_stable_and_distinct() {
        let a = replica_seeds(42, 8);
        let b = replica_seeds(42, 8);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8, "seeds must be distinct");
        // Prefix-stability: growing the replication count keeps old seeds.
        assert_eq!(&replica_seeds(42, 12)[..8], &a[..]);
    }

    #[test]
    fn mean_and_variance_basics() {
        let (m, v) = mean_and_variance(&[1.0, 3.0]);
        assert_eq!(m, 2.0);
        assert_eq!(v, 2.0);
    }

    /// Seeded two-class workload with lognormal map-task noise: the same seed
    /// yields the identical job vector (the CRN contract), different seeds
    /// yield different draws (the across-replica variance).
    fn noisy_workload(seed: u64) -> crate::VecJobSource {
        use dias_engine::{JobInstance, JobSpec, StageKind, StageSpec};
        use dias_stochastic::Dist;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(seed);
        let jobs = (0..40u64)
            .map(|i| {
                let class = usize::from(i % 8 == 0);
                let spec = JobSpec::builder(i, class)
                    .setup(Dist::constant(0.5))
                    .shuffle(Dist::constant(0.2))
                    .stage(StageSpec::new(StageKind::Map, 8, Dist::lognormal(2.0, 1.0)))
                    .stage(StageSpec::new(StageKind::Reduce, 2, Dist::constant(0.5)))
                    .build();
                let mut inst = JobInstance::sample(&spec, &mut rng);
                inst.arrival_secs = i as f64 * 1.5;
                inst
            })
            .collect();
        crate::VecJobSource::new(jobs, 2)
    }

    #[test]
    fn differential_grid_shape_and_zero_self_contrast() {
        // Two points with the *same* policy and CRN sources: every cell of a
        // replica is the identical run, so the paired contrast is exactly 0.
        let report = run_differential(2, 3, 2, |_, r| {
            Experiment::new(noisy_workload(100 + r as u64), Policy::preemptive(2))
                .jobs(30)
                .warmup(4)
                .run()
        })
        .expect("runs complete");
        assert_eq!(report.points(), 2);
        assert_eq!(report.replicas(), 3);
        let paired = report.paired_contrast(0, 1, |r| r.mean_response(0));
        assert_eq!(paired.mean_delta, 0.0);
        assert_eq!(paired.half_width, 0.0);
        assert_eq!(paired.replicas, 3);
    }

    #[test]
    fn paired_contrast_is_tighter_than_independent_under_crn() {
        // Two genuinely different policies on common random numbers: the
        // shared workload noise cancels in the pairing.
        let policies = [
            Policy::preemptive(2),
            Policy::differential_approximation(&[0.5, 0.0]),
        ];
        let report = run_differential(2, 6, 2, |p, r| {
            Experiment::new(noisy_workload(7 * r as u64 + 1), policies[p].clone())
                .jobs(30)
                .warmup(4)
                .run()
        })
        .expect("runs complete");
        let paired = report.paired_contrast(0, 1, |r| r.mean_response(0));
        let indep = report.independent_contrast(0, 1, |r| r.mean_response(0));
        // Mean-of-deltas equals delta-of-means up to summation-order rounding.
        assert!((paired.mean_delta - indep.mean_delta).abs() < 1e-9);
        assert!(
            paired.half_width < indep.half_width,
            "paired {} vs independent {}",
            paired.half_width,
            indep.half_width
        );
    }

    #[test]
    fn differential_grid_is_thread_count_invariant() {
        let run = |threads| {
            run_differential(2, 2, threads, |p, r| {
                let policy = if p == 0 {
                    Policy::preemptive(2)
                } else {
                    Policy::non_preemptive(2)
                };
                Experiment::new(noisy_workload(r as u64), policy)
                    .jobs(20)
                    .warmup(2)
                    .run()
            })
            .expect("runs complete")
        };
        let a = run(1);
        let b = run(4);
        for p in 0..2 {
            for r in 0..2 {
                assert_eq!(
                    a.point(p)[r].mean_response(0),
                    b.point(p)[r].mean_response(0),
                    "point {p} replica {r}"
                );
            }
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            run_parallel(vec![1, 2, 3], 2, |_, x| {
                assert!(x != 2, "boom");
                x
            })
        });
        assert!(result.is_err());
    }
}
