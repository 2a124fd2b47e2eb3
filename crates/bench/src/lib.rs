//! Shared harness utilities for the per-figure benchmark binaries.
//!
//! Every bench target regenerates one table or figure of the paper: it runs the
//! relevant experiment(s), prints the same rows/series the paper reports, and — where
//! the paper states concrete numbers — prints the paper's value next to the measured
//! one. Absolute values are not expected to match (our substrate is a simulator, not
//! the authors' testbed); the *shape* (who wins, by roughly what factor) is.

use dias_core::{ExperimentReport, JobSource, Series};

/// Number of measured completions per experiment; override with the
/// `DIAS_BENCH_JOBS` environment variable.
#[must_use]
pub fn bench_jobs() -> usize {
    std::env::var("DIAS_BENCH_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6000)
}

/// Scales a harness-specific default effort knob (engine replications, corpus
/// size, ...) proportionally to the `DIAS_BENCH_JOBS` override, relative to
/// the 6000-job default of [`bench_jobs`]. Keeps a floor of 3 so smoke runs
/// (e.g. `DIAS_BENCH_JOBS=50` in CI) still exercise the full code path.
#[must_use]
pub fn scaled(default: usize) -> usize {
    (default * bench_jobs() / 6000).max(3)
}

/// Worker-lane count for every parallel bench harness; override with the
/// `DIAS_THREADS` environment variable (minimum 1), defaulting to the
/// machine's available parallelism ([`dias_core::sweep::default_threads`]).
#[must_use]
pub fn threads() -> usize {
    std::env::var("DIAS_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .map_or_else(dias_core::sweep::default_threads, |n: usize| n.max(1))
}

/// Prints the standard figure banner.
pub fn banner(figure: &str, title: &str) {
    println!("==============================================================");
    println!("{figure}: {title}");
    println!("==============================================================");
}

/// Formats a relative difference with sign, e.g. `-63.2%`.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{x:+.1}%")
}

/// Relative difference of `ours` vs `baseline`, in percent.
#[must_use]
pub fn rel(ours: f64, baseline: f64) -> f64 {
    ExperimentReport::relative_difference_pct(ours, baseline)
}

/// Prints the paper's Fig. 7/8/9/10-style table: the preemptive baseline in
/// absolute seconds, every other policy as a relative difference, for mean (solid
/// bars) and p95 (shaded bars) latency of every class.
///
/// `class_names` is ordered by class index (low priority first).
pub fn print_relative_table(
    baseline: &ExperimentReport,
    others: &[ExperimentReport],
    class_names: &[&str],
) {
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>10}",
        "policy", "class", "mean", "p95", "note"
    );
    for (k, name) in class_names.iter().enumerate().rev() {
        println!(
            "{:<14} {:>10} {:>9.1}s {:>9.1}s {:>10}",
            baseline.policy,
            name,
            baseline.mean_response(k),
            baseline.p95_response(k),
            "absolute"
        );
    }
    println!(
        "{:<14} waste {:>5.1}%  evictions {}",
        "",
        baseline.waste_fraction() * 100.0,
        baseline.evictions
    );
    for report in others {
        for (k, name) in class_names.iter().enumerate().rev() {
            println!(
                "{:<14} {:>10} {:>10} {:>10} {:>10}",
                report.policy,
                name,
                pct(rel(report.mean_response(k), baseline.mean_response(k))),
                pct(rel(report.p95_response(k), baseline.p95_response(k))),
                "vs P"
            );
        }
        println!(
            "{:<14} waste {:>5.1}%  evictions {}",
            "",
            report.waste_fraction() * 100.0,
            report.evictions
        );
    }
}

/// Runs one experiment per policy — each over its own clone of `stream`,
/// so every policy sees the same jobs — fanned across cores by
/// [`dias_core::sweep`], each recording the optional `series` the harness
/// reads besides response times. The stream is built (and calibrated) once
/// by the caller. Reports come back in policy order and are
/// bitwise-identical to running each experiment sequentially.
pub fn run_policies<S>(
    stream: S,
    policies: Vec<dias_core::Policy>,
    jobs: usize,
    series: Series,
) -> Vec<ExperimentReport>
where
    S: JobSource + Send + Clone,
{
    let experiments = policies
        .into_iter()
        .map(|p| {
            dias_core::Experiment::new(stream.clone(), p)
                .jobs(jobs)
                .record(series)
        })
        .collect();
    dias_core::run_parallel(experiments, threads(), |_, e| e.run())
        .into_iter()
        .map(|r| r.expect("experiment configuration is valid"))
        .collect()
}

/// A series the harness asked its runs to record.
///
/// # Panics
///
/// Panics when the series was not recorded, naming the harness's mistake:
/// it reads a series it did not request.
pub fn recorded<B>(series: &Option<B>) -> &B {
    series
        .as_ref()
        .expect("the harness reads a series it did not ask its runs to record")
}

/// Prints a `paper vs measured` comparison line.
pub fn compare(label: &str, paper: &str, measured: &str) {
    println!("  {label:<44} paper: {paper:<18} measured: {measured}");
}

/// Translates an engine-facing profile + cluster into the plain parameters the
/// promoted [`dias_models::wave_fit`] fit consumes.
#[must_use]
pub fn wave_fit_spec(
    profile: &dias_workloads::JobProfile,
    cluster: &dias_engine::ClusterSpec,
) -> dias_models::WaveFitSpec {
    let map_stage = &profile.stages[0];
    let reduce_stage = &profile.stages[1];
    dias_models::WaveFitSpec {
        name: profile.name.clone(),
        slots: cluster.slots(),
        setup_mean: profile.setup.mean(),
        setup_data_fraction: profile.setup_data_fraction,
        shuffle_mean: profile.shuffle.mean(),
        map_tasks: map_stage.tasks,
        map_task_work: map_stage.task_work.clone(),
        reduce_tasks: reduce_stage.tasks,
        reduce_task_work: reduce_stage.task_work.clone(),
    }
}

/// The process-wide [`dias_models::ModelCache`] behind [`wave_model_for`]:
/// every figure harness in one bench process shares fitted wave models.
#[must_use]
pub fn model_cache() -> &'static dias_models::ModelCache {
    static CACHE: std::sync::OnceLock<dias_models::ModelCache> = std::sync::OnceLock::new();
    CACHE.get_or_init(dias_models::ModelCache::new)
}

/// Builds the paper's §4.2 wave-level model for a word-count profile at drop ratio
/// `theta` on the map stage, parameterized the way §4.3 prescribes.
///
/// Thin adapter over the promoted [`dias_models::wave_fit::wave_model_for`]
/// (see there for the fitting procedure), routed through the process-wide
/// [`model_cache`]: a figure sweep pays for each distinct `(profile, cluster,
/// theta, seed)` fit once and gets bitwise-identical models from the memo
/// afterwards.
pub fn wave_model_for(
    profile: &dias_workloads::JobProfile,
    cluster: &dias_engine::ClusterSpec,
    theta: f64,
    seed: u64,
) -> dias_models::WaveLevelModel {
    model_cache().wave_model_for(&wave_fit_spec(profile, cluster), theta, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_and_pct_format() {
        assert_eq!(pct(rel(40.0, 100.0)), "-60.0%");
        assert_eq!(pct(rel(118.0, 100.0)), "+18.0%");
    }

    #[test]
    fn bench_jobs_default() {
        // Unless the variable is set in the test environment, the default holds.
        if std::env::var("DIAS_BENCH_JOBS").is_err() {
            assert_eq!(bench_jobs(), 6000);
        }
    }
}
