//! Concrete job profiles and the paper's workload scenarios.
//!
//! A [`JobProfile`] is a class's [`JobSpec`] template; a job stream compiles
//! it once into a [`dias_engine::JobSampler`] that draws every arrival. Task
//! times are lognormal with a small squared coefficient of variation (0.08 by
//! default): "tasks tend to have fairly similar execution times, leading to an
//! execution in waves" (§4.2) — similar, not identical, which is also what
//! makes task dropping shave execution time smoothly rather than only at
//! whole-wave boundaries.

use serde::{Deserialize, Serialize};

use dias_engine::{ClusterSpec, JobSpec, StageKind, StageSpec};
use dias_stochastic::Dist;

use crate::stream::JobStream;

/// Default squared coefficient of variation of task execution times.
pub const TASK_SCV: f64 = 0.08;

/// A reusable job template for one priority class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobProfile {
    /// Human-readable name (dataset id).
    pub name: String,
    /// Input size in MB.
    pub input_mb: f64,
    /// Setup (overhead) distribution.
    pub setup: Dist,
    /// Inter-stage shuffle distribution.
    pub shuffle: Dist,
    /// Data-dependent fraction of the setup (see
    /// [`dias_engine::JobSpec::setup_data_fraction`]).
    pub setup_data_fraction: f64,
    /// Stage templates.
    pub stages: Vec<StageSpec>,
}

impl JobProfile {
    /// A classic two-stage word-count job: `map_tasks` map tasks over the input
    /// partitions, then `reduce_tasks` reduce tasks.
    #[must_use]
    #[allow(clippy::too_many_arguments)] // mirrors the profile's natural parameter list
    pub fn word_count(
        name: &str,
        input_mb: f64,
        map_tasks: usize,
        map_task_mean: f64,
        reduce_tasks: usize,
        reduce_task_mean: f64,
        setup_mean: f64,
        shuffle_mean: f64,
    ) -> Self {
        JobProfile {
            name: name.to_string(),
            input_mb,
            setup: Dist::lognormal(setup_mean, 0.05),
            shuffle: Dist::lognormal(shuffle_mean, 0.05),
            setup_data_fraction: 0.5,
            stages: vec![
                StageSpec::new(
                    StageKind::Map,
                    map_tasks,
                    Dist::lognormal(map_task_mean, TASK_SCV),
                ),
                StageSpec::new(
                    StageKind::Reduce,
                    reduce_tasks,
                    Dist::lognormal(reduce_task_mean, TASK_SCV),
                ),
            ],
        }
    }

    /// A GraphX-style triangle-count job: six ShuffleMap stages and one Result
    /// stage (§5.1: "six ShuffleMap stages and one Result stage").
    #[must_use]
    pub fn triangle_count(
        name: &str,
        input_mb: f64,
        stage_tasks: usize,
        stage_task_mean: f64,
        result_tasks: usize,
        result_task_mean: f64,
    ) -> Self {
        let mut stages: Vec<StageSpec> = (0..6)
            .map(|_| {
                StageSpec::new(
                    StageKind::ShuffleMap,
                    stage_tasks,
                    Dist::lognormal(stage_task_mean, TASK_SCV),
                )
            })
            .collect();
        stages.push(StageSpec::new(
            StageKind::Result,
            result_tasks,
            Dist::lognormal(result_task_mean, TASK_SCV),
        ));
        JobProfile {
            name: name.to_string(),
            input_mb,
            setup: Dist::lognormal(8.0, 0.05),
            shuffle: Dist::lognormal(3.0, 0.05),
            setup_data_fraction: 0.5,
            stages,
        }
    }

    /// Instantiates a [`JobSpec`] for this profile.
    #[must_use]
    pub fn spec(&self, id: u64, class: usize) -> JobSpec {
        let mut b = JobSpec::builder(id, class)
            .input_mb(self.input_mb)
            .setup(self.setup.clone())
            .shuffle(self.shuffle.clone())
            .setup_data_fraction(self.setup_data_fraction);
        for s in &self.stages {
            b = b.stage(s.clone());
        }
        b.build()
    }
}

/// Fig. 4's dataset "147": the 1117 MB StackExchange dump used for low-priority
/// jobs, 50 partitions, ≈ 147 s mean processing time at θ = 0.
#[must_use]
pub fn dataset_147() -> JobProfile {
    JobProfile::word_count("147", 1117.0, 50, 33.4, 10, 12.0, 12.0, 8.0)
}

/// Fig. 4's dataset "126": the 473 MB dump processed by high-priority jobs,
/// ≈ 126 s mean processing time at θ = 0.
///
/// Processing time is strongly sub-linear in data size (fixed per-task and
/// per-stage overheads dominate), which is why the 2.36×-smaller dataset takes
/// 126 s against the 1117 MB dataset's 147 s — exactly the two curves the paper
/// validates in Fig. 4 and then reuses as the high/low classes in Fig. 5.
#[must_use]
pub fn dataset_126() -> JobProfile {
    JobProfile::word_count("126", 473.0, 50, 27.9, 10, 11.0, 11.0, 7.0)
}

/// The 473 MB dataset processed by high-priority jobs in the reference setup —
/// an alias of [`dataset_126`].
#[must_use]
pub fn profile_473() -> JobProfile {
    dataset_126()
}

/// The paper's two-priority reference workload (§5.2.1): low:high arrival ratio
/// 9:1, job sizes 1117 MB / 473 MB, arrival rate calibrated (by engine profiling)
/// to the requested utilization (0.8 in the reference, 0.5 in Fig. 8c).
#[must_use]
pub fn reference_two_priority(utilization: f64, seed: u64) -> JobStream {
    JobStream::with_target_utilization(
        vec![dataset_147(), profile_473()],
        vec![0.9, 0.1],
        &ClusterSpec::paper_reference(),
        utilization,
        seed,
    )
}

/// Sharded variant of the reference workload for the multi-job engine: the
/// same two datasets arrive as *narrow* jobs — the 1117 MB input split into
/// six ≈ 186 MB shards (8 map / 4 reduce tasks each) and the 473 MB input
/// into four ≈ 118 MB shards (4 map / 2 reduce tasks) — so a job's gang
/// occupies well under the cluster's 20 slots and scheduler policies
/// ([`dias_engine::GangBinPack`], [`dias_engine::PriorityPreempt`]) can pack
/// several jobs side by side. Total offered bytes and the 9:1 class ratio
/// match [`reference_two_priority`]; per-task work is unchanged.
#[must_use]
pub fn sharded_two_priority(utilization: f64, seed: u64) -> JobStream {
    let low = JobProfile::word_count("147-shard", 1117.0 / 6.0, 8, 33.4, 4, 12.0, 12.0, 8.0);
    let high = JobProfile::word_count("126-shard", 473.0 / 4.0, 4, 27.9, 2, 11.0, 11.0, 7.0);
    JobStream::with_target_utilization(
        vec![low, high],
        vec![0.9, 0.1],
        &ClusterSpec::paper_reference(),
        utilization,
        seed,
    )
}

/// Heterogeneous-width variant of the sharded workload: the 1117 MB input
/// arrives as four ≈ 279 MB shards of **12** map / 6 reduce tasks (a 12-wide
/// gang) while the 473 MB input keeps its four narrow ≈ 118 MB shards of
/// **4** map / 2 tasks. A 12-wide low gang plus two 4-wide high gangs fill
/// the 20-slot cluster, so per-gang frequency domains genuinely diverge: a
/// sprinting high job accelerates its 4 slots while the wide low neighbour
/// stays at base — and is charged a third of what the wide gang would cost
/// the sprint budget. Total offered bytes, per-task work and the 9:1 class
/// ratio match [`reference_two_priority`].
#[must_use]
pub fn heterogeneous_width_two_priority(utilization: f64, seed: u64) -> JobStream {
    heterogeneous_width_fleet(&ClusterSpec::paper_reference(), utilization, seed)
}

/// [`heterogeneous_width_two_priority`] scaled to an arbitrary `cluster`:
/// the same two job shapes (12-wide low gangs, 4-wide high gangs, 9:1
/// ratio), with the per-class arrival rates calibrated on the paper's
/// 20-slot testbed and then multiplied by the slot ratio, so a 10k-slot
/// federation fleet sees proportionally more traffic at the same per-slot
/// load. On [`ClusterSpec::paper_reference`] the slot ratio is exactly 1 and
/// the stream is bit-identical to the unscaled helper.
#[must_use]
pub fn heterogeneous_width_fleet(cluster: &ClusterSpec, utilization: f64, seed: u64) -> JobStream {
    let profiles = || {
        vec![
            JobProfile::word_count("147-wide", 1117.0 / 4.0, 12, 33.4, 6, 12.0, 12.0, 8.0),
            JobProfile::word_count("126-shard", 473.0 / 4.0, 4, 27.9, 2, 11.0, 11.0, 7.0),
        ]
    };
    let paper = ClusterSpec::paper_reference();
    let reference =
        JobStream::with_target_utilization(profiles(), vec![0.9, 0.1], &paper, utilization, seed);
    let scale = cluster.slots() as f64 / paper.slots() as f64;
    let rates: Vec<f64> = reference.rates().iter().map(|r| r * scale).collect();
    JobStream::with_rates(profiles(), rates, seed).expect("validated inputs")
}

/// Fig. 8a's variant: both priorities process the same (473 MB) dataset.
#[must_use]
pub fn equal_size_two_priority(utilization: f64, seed: u64) -> JobStream {
    JobStream::with_target_utilization(
        vec![profile_473(), profile_473()],
        vec![0.9, 0.1],
        &ClusterSpec::paper_reference(),
        utilization,
        seed,
    )
}

/// Fig. 8b's variant: the arrival ratio between low- and high-priority jobs is
/// inverted to 1:9 (high-priority jobs dominate).
#[must_use]
pub fn inverted_ratio_two_priority(utilization: f64, seed: u64) -> JobStream {
    JobStream::with_target_utilization(
        vec![dataset_147(), profile_473()],
        vec![0.1, 0.9],
        &ClusterSpec::paper_reference(),
        utilization,
        seed,
    )
}

/// The three-priority workload (§5.2.3): total arrival rate 2.3 jobs/min with
/// high-medium-low ratio 1-4-5, small jobs sized so the load is ≈ 80%.
///
/// Job sizes are chosen so the base load is just under 80% *including* the
/// re-execution inflation the preemptive baseline suffers: with half the traffic
/// able to evict the low class, repeat-from-scratch eviction adds ≈ 20% effective
/// load, and the paper's `P` baseline — while badly degraded — is still stable.
#[must_use]
pub fn three_priority_stream(seed: u64) -> JobStream {
    // Weighted mean execution ≈ 18.8 s measured at 2.3 jobs/min ≈ 72% base load,
    // ≈ 87% effective under the preemptive baseline's re-execution waste.
    let low = JobProfile::word_count("3p-low", 200.0, 40, 5.9, 5, 1.8, 2.0, 1.0);
    let mid = JobProfile::word_count("3p-mid", 150.0, 40, 4.8, 5, 1.6, 2.0, 1.0);
    let high = JobProfile::word_count("3p-high", 80.0, 20, 4.4, 5, 1.3, 1.5, 1.0);
    JobStream::with_rates(
        vec![low, mid, high],
        vec![
            2.3 / 60.0 * 0.5, // low: 5 of 10
            2.3 / 60.0 * 0.4, // medium: 4 of 10
            2.3 / 60.0 * 0.1, // high: 1 of 10
        ],
        seed,
    )
    .expect("static rates are valid")
}

/// The graph-analytics workload of §5.3: triangle-count jobs of equal size in both
/// classes, high:low arrival ratio 3:7.
#[must_use]
pub fn triangle_two_priority(utilization: f64, seed: u64) -> JobStream {
    let profile = JobProfile::triangle_count("google-web", 1100.0, 50, 8.0, 20, 4.0);
    JobStream::with_target_utilization(
        vec![profile.clone(), profile],
        vec![0.7, 0.3],
        &ClusterSpec::paper_reference(),
        utilization,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::profile_execution;

    #[test]
    fn profiles_build_specs() {
        let p = dataset_147();
        let spec = p.spec(5, 0);
        assert_eq!(spec.stages.len(), 2);
        assert_eq!(spec.stages[0].tasks, 50);
        assert!((spec.input_mb - 1117.0).abs() < 1e-9);
    }

    #[test]
    fn triangle_profile_has_seven_stages() {
        let p = JobProfile::triangle_count("t", 100.0, 50, 8.0, 20, 4.0);
        let spec = p.spec(0, 1);
        assert_eq!(spec.stages.len(), 7);
        assert!(spec.stages[..6]
            .iter()
            .all(|s| s.kind == StageKind::ShuffleMap));
        assert_eq!(spec.stages[6].kind, StageKind::Result);
    }

    #[test]
    fn dataset_147_mean_processing_near_label() {
        let stats = profile_execution(
            &dataset_147(),
            &ClusterSpec::paper_reference(),
            &[0.0, 0.0],
            60,
            3,
        );
        let mean = stats.mean();
        assert!(
            (mean - 147.0).abs() < 15.0,
            "dataset 147 should process in ≈147 s, got {mean}"
        );
    }

    #[test]
    fn dataset_126_mean_processing_near_label() {
        let stats = profile_execution(
            &dataset_126(),
            &ClusterSpec::paper_reference(),
            &[0.0, 0.0],
            60,
            4,
        );
        let mean = stats.mean();
        assert!(
            (mean - 126.0).abs() < 13.0,
            "dataset 126 should process in ≈126 s, got {mean}"
        );
    }

    #[test]
    fn heterogeneous_width_profiles_diverge() {
        use dias_core::JobSource;
        let mut stream = heterogeneous_width_two_priority(0.8, 7);
        // Widths come from the stage with the most tasks: 12 vs 4.
        let mut widths = [0usize; 2];
        for _ in 0..200 {
            let job = stream.next_job().expect("stream is endless");
            let w = job.task_secs.iter().map(Vec::len).max().unwrap();
            widths[job.class()] = widths[job.class()].max(w);
        }
        assert_eq!(widths, [12, 4]);
    }

    #[test]
    fn fleet_stream_scales_arrival_rate_with_cluster_size() {
        use dias_core::JobSource;
        let paper = ClusterSpec::paper_reference();
        let fleet = ClusterSpec {
            workers: paper.workers * 16,
            ..paper.clone()
        };
        let horizon = |mut s: JobStream| {
            (0..400)
                .map(|_| s.next_job().expect("stream is endless").arrival_secs)
                .fold(0.0f64, f64::max)
        };
        let small = horizon(heterogeneous_width_fleet(&paper, 0.8, 7));
        let big = horizon(heterogeneous_width_fleet(&fleet, 0.8, 7));
        // 16× the slots at the same utilization → ≈16× the arrival rate, so
        // the same number of jobs spans a far shorter horizon.
        assert!(
            big < small / 8.0,
            "fleet stream should arrive much faster: {big} vs {small}"
        );
    }

    #[test]
    fn high_priority_profile_is_smaller() {
        let low = profile_execution(
            &dataset_147(),
            &ClusterSpec::paper_reference(),
            &[0.0, 0.0],
            40,
            5,
        );
        let high = profile_execution(
            &profile_473(),
            &ClusterSpec::paper_reference(),
            &[0.0, 0.0],
            40,
            5,
        );
        let ratio = low.mean() / high.mean();
        // 2.36x the data but only ~1.17x the time: fixed overheads dominate.
        assert!(
            ratio > 1.05 && ratio < 1.4,
            "147 s vs 126 s processing-time ratio expected, got {ratio}"
        );
    }
}
