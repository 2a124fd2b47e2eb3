//! Job specifications and sampled job instances.
//!
//! A [`JobSpec`] is a template: a DAG of stages with task-work *distributions*. At
//! arrival the controller samples it once into a [`JobInstance`] with concrete task
//! durations. Pre-sampling is what gives the preemptive baseline its
//! *repeat-identical* eviction semantics — a job evicted and re-dispatched re-runs
//! the very same work, as a real re-execution would.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use rand::Rng;
use serde::{Deserialize, Serialize};

use dias_stochastic::{CompiledDist, Dist};

/// Unique job identifier within an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// A hash map keyed by [`JobId`], hashed with [`IdHasher`].
///
/// The engine and the drivers look jobs up on every event; SipHash, the
/// standard map's default, costs more than the lookup it serves. Nothing may
/// depend on an `IdMap`'s iteration order (sort first, as the drivers do).
pub type IdMap<V> = HashMap<JobId, V, BuildHasherDefault<IdHasher>>;

/// The multiplicative (Fx-style) hasher behind [`IdMap`]: one rotate, xor
/// and multiply per word. Job ids are trusted, dense integers, so there is no
/// adversary to defend against.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The role of a stage in the DAG, mirroring Spark's stage types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StageKind {
    /// A map stage reading input partitions.
    Map,
    /// A reduce stage aggregating shuffled intermediate data.
    Reduce,
    /// A GraphX-style shuffle-map stage (intermediate stage of an iterative job).
    ShuffleMap,
    /// The final result stage of a GraphX-style job.
    Result,
}

impl StageKind {
    /// Whether the DiAS dropper applies the map drop ratio to this stage.
    ///
    /// The paper drops map tasks for MapReduce jobs and every ShuffleMap stage for
    /// the triangle-count job (§5.2.4); Result and Reduce stages execute in full
    /// unless an explicit reduce drop ratio is configured.
    #[must_use]
    pub fn droppable(self) -> bool {
        matches!(self, StageKind::Map | StageKind::ShuffleMap)
    }
}

/// One stage of a job: a number of parallel tasks drawn from a work distribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSpec {
    /// Stage role.
    pub kind: StageKind,
    /// Number of tasks (= RDD partitions of the stage).
    pub tasks: usize,
    /// Distribution of one task's work, in seconds at base frequency.
    pub task_work: Dist,
}

impl StageSpec {
    /// Creates a stage.
    ///
    /// # Panics
    ///
    /// Panics if `tasks == 0`.
    #[must_use]
    pub fn new(kind: StageKind, tasks: usize, task_work: Dist) -> Self {
        assert!(tasks > 0, "a stage needs at least one task");
        StageSpec {
            kind,
            tasks,
            task_work,
        }
    }
}

/// A job template: priority class, input size and stage DAG.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Unique id.
    pub id: JobId,
    /// Priority class (higher = more important).
    pub class: usize,
    /// Input dataset size in MB (for reporting; the simulation does not read it).
    pub input_mb: f64,
    /// Setup (overhead) duration distribution — the paper's `O` stage.
    pub setup: Dist,
    /// Shuffle duration distribution, applied between consecutive stages — the
    /// paper's `S` stage.
    pub shuffle: Dist,
    /// Fraction of the setup time that scales with the data actually read: with
    /// kept-task fraction `p`, the effective setup is `setup × (1 − f + f·p)`.
    /// The paper observes overheads "dependent on the data size" and interpolates
    /// them between θ = 0 and θ = 0.9 profiles (§4.3); this knob gives the engine
    /// that dependence. 0 = drop-independent setup.
    pub setup_data_fraction: f64,
    /// Stages in execution order.
    pub stages: Vec<StageSpec>,
}

impl JobSpec {
    /// Starts building a job for `class` with the given id.
    #[must_use]
    pub fn builder(id: u64, class: usize) -> JobSpecBuilder {
        JobSpecBuilder {
            id: JobId(id),
            class,
            input_mb: 0.0,
            setup: Dist::constant(0.0),
            shuffle: Dist::constant(0.0),
            setup_data_fraction: 0.0,
            stages: Vec::new(),
        }
    }
}

/// Builder for [`JobSpec`].
#[derive(Debug, Clone)]
pub struct JobSpecBuilder {
    id: JobId,
    class: usize,
    input_mb: f64,
    setup: Dist,
    shuffle: Dist,
    setup_data_fraction: f64,
    stages: Vec<StageSpec>,
}

impl JobSpecBuilder {
    /// Sets the input dataset size in MB.
    #[must_use]
    pub fn input_mb(mut self, mb: f64) -> Self {
        self.input_mb = mb;
        self
    }

    /// Sets the setup (overhead) distribution.
    #[must_use]
    pub fn setup(mut self, d: Dist) -> Self {
        self.setup = d;
        self
    }

    /// Sets the shuffle distribution.
    #[must_use]
    pub fn shuffle(mut self, d: Dist) -> Self {
        self.shuffle = d;
        self
    }

    /// Sets the data-dependent fraction of the setup time.
    ///
    /// # Panics
    ///
    /// Panics if `f` is outside `[0, 1]`.
    #[must_use]
    pub fn setup_data_fraction(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f), "fraction must be in [0,1]");
        self.setup_data_fraction = f;
        self
    }

    /// Appends a stage.
    #[must_use]
    pub fn stage(mut self, s: StageSpec) -> Self {
        self.stages.push(s);
        self
    }

    /// Finalizes the spec.
    ///
    /// # Panics
    ///
    /// Panics if no stages were added.
    #[must_use]
    pub fn build(self) -> JobSpec {
        assert!(!self.stages.is_empty(), "a job needs at least one stage");
        JobSpec {
            id: self.id,
            class: self.class,
            input_mb: self.input_mb,
            setup: self.setup,
            shuffle: self.shuffle,
            setup_data_fraction: self.setup_data_fraction,
            stages: self.stages,
        }
    }
}

/// A job with concrete sampled durations, ready for (repeated) execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobInstance {
    /// The template this instance was sampled from.
    pub spec: JobSpec,
    /// Sampled setup duration (seconds at base frequency).
    pub setup_secs: f64,
    /// Sampled shuffle durations, one per stage gap.
    pub shuffle_secs: Vec<f64>,
    /// Sampled task durations per stage (seconds at base frequency).
    pub task_secs: Vec<Vec<f64>>,
    /// Arrival time in seconds (set by the workload generator; 0 if standalone).
    pub arrival_secs: f64,
}

impl JobInstance {
    /// Samples every duration of `spec` once. Same as
    /// [`JobSampler::new`] followed by [`JobSampler::sample`] under
    /// `spec.id`, which repeated draws from one template should use instead.
    pub fn sample<R: Rng + ?Sized>(spec: &JobSpec, rng: &mut R) -> Self {
        JobSampler::new(spec).sample(spec.id, rng)
    }

    /// Priority class shortcut.
    #[must_use]
    pub fn class(&self) -> usize {
        self.spec.class
    }

    /// Total sampled work (setup + shuffles + all tasks), in base machine-seconds.
    #[must_use]
    pub fn total_work_secs(&self) -> f64 {
        self.setup_secs
            + self.shuffle_secs.iter().sum::<f64>()
            + self
                .task_secs
                .iter()
                .map(|ts| ts.iter().sum::<f64>())
                .sum::<f64>()
    }
}

/// A [`JobSpec`] with every distribution compiled once, for drawing many
/// instances of one template (one priority class of a job stream).
///
/// [`JobSampler::sample`] draws the setup, then each shuffle, then each
/// stage's tasks in stage order: the one draw order every seeded stream in
/// the workspace is pinned to.
#[derive(Debug, Clone)]
pub struct JobSampler {
    template: JobSpec,
    setup: CompiledDist,
    shuffle: CompiledDist,
    /// Per stage: task count and compiled task-work distribution.
    stages: Vec<(usize, CompiledDist)>,
}

impl JobSampler {
    /// Compiles `template`'s distributions.
    #[must_use]
    pub fn new(template: &JobSpec) -> Self {
        JobSampler {
            template: template.clone(),
            setup: template.setup.compile(),
            shuffle: template.shuffle.compile(),
            stages: template
                .stages
                .iter()
                .map(|s| (s.tasks, s.task_work.compile()))
                .collect(),
        }
    }

    /// Samples every duration of the template once, as job `id`.
    pub fn sample<R: Rng + ?Sized>(&self, id: JobId, rng: &mut R) -> JobInstance {
        let setup_secs = self.setup.sample(rng);
        let shuffle_secs = (0..self.stages.len().saturating_sub(1))
            .map(|_| self.shuffle.sample(rng))
            .collect();
        let task_secs = self
            .stages
            .iter()
            .map(|&(tasks, work)| (0..tasks).map(|_| work.sample(rng)).collect())
            .collect();
        JobInstance {
            spec: JobSpec {
                id,
                ..self.template.clone()
            },
            setup_secs,
            shuffle_secs,
            task_secs,
            arrival_secs: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn word_count_spec() -> JobSpec {
        JobSpec::builder(7, 0)
            .input_mb(1117.0)
            .setup(Dist::constant(12.0))
            .shuffle(Dist::constant(8.0))
            .stage(StageSpec::new(StageKind::Map, 50, Dist::constant(35.0)))
            .stage(StageSpec::new(StageKind::Reduce, 10, Dist::constant(12.0)))
            .build()
    }

    #[test]
    fn builder_assembles_spec() {
        let s = word_count_spec();
        assert_eq!(s.id, JobId(7));
        assert_eq!(s.stages.len(), 2);
        assert_eq!(s.stages[0].tasks, 50);
        assert!((s.input_mb - 1117.0).abs() < 1e-12);
    }

    #[test]
    fn instance_sampling_shapes() {
        let s = word_count_spec();
        let mut rng = StdRng::seed_from_u64(3);
        let inst = JobInstance::sample(&s, &mut rng);
        assert_eq!(inst.task_secs.len(), 2);
        assert_eq!(inst.task_secs[0].len(), 50);
        assert_eq!(inst.shuffle_secs.len(), 1);
        let expected = 12.0 + 8.0 + 50.0 * 35.0 + 10.0 * 12.0;
        assert!((inst.total_work_secs() - expected).abs() < 1e-9);
    }

    #[test]
    fn droppable_stage_kinds() {
        assert!(StageKind::Map.droppable());
        assert!(StageKind::ShuffleMap.droppable());
        assert!(!StageKind::Reduce.droppable());
        assert!(!StageKind::Result.droppable());
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_job_rejected() {
        let _ = JobSpec::builder(0, 0).build();
    }

    #[test]
    fn display_of_job_id() {
        assert_eq!(JobId(42).to_string(), "job-42");
    }
}
