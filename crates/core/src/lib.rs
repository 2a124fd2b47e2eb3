//! DiAS: Differential Approximation and Sprinting for multi-priority big-data
//! engines.
//!
//! This crate is the system of the paper (§3): a controller that sits in front of a
//! processing engine and replaces preemptive eviction with two differential knobs:
//!
//! * **approximation** — the [`Policy`] assigns each priority class a task-drop
//!   ratio `θ_k`, applied by the engine's dropper when the job is dispatched;
//! * **sprinting** — after a class-dependent timeout `T_k`, the
//!   [`MultiSprinter`] raises the running job's frequency under a replenishing
//!   energy budget.
//!
//! Architecture, mirroring the paper's Figure 3: one job at a time runs on the
//! engine ([`dias_engine::ClusterSim`]) as a gang as wide as the cluster. Jobs
//! waiting for it sit in the engine's pending queue, which stands in for the
//! per-priority buffers: the dispatcher takes the earliest job of the highest
//! waiting class and hands it to the engine with the deflator-chosen drop
//! ratios, and the sprinter arms a timer for it. The scheduling across classes
//! is **non-preemptive** under DiAS; the preemptive baseline `P` (evict +
//! re-execute from scratch, the victim returning to the head of its class) is
//! implemented for comparison, exactly as the prototype does for its baseline
//! results. The same loop, [`MultiJobExperiment`], runs concurrent jobs when
//! given a gang scheduler instead.
//!
//! [`Experiment`] wires a job source, a policy and a cluster into a closed loop and
//! produces an [`ExperimentReport`] with per-class mean/p95 latencies, resource
//! waste and energy — the measurements behind every figure of the paper's
//! evaluation — plus the queueing and execution decomposition when asked for.
//!
//! [`MultiJobExperiment`] is the one description of a run: source,
//! scheduler, cluster, per-class θ, sprint policy, faults, SLOs, degradation
//! and measurement window. The other three builders wrap it: [`Experiment`]
//! under a whole-cluster scheduler, [`SoakExperiment`] with streaming
//! measurement, and [`FederationExperiment`] with one per shard. Setters
//! only store values; a run checks them before it starts and reports a bad
//! one as [`ExperimentError::InvalidConfig`], naming the setter. Each
//! builder's `record` setter names the optional per-class [`Series`] its
//! report keeps besides `completed` and `response`; by default it keeps
//! none.
//!
//! # Examples
//!
//! ```
//! use dias_core::{Experiment, Policy, VecJobSource};
//! use dias_engine::{ClusterSpec, JobInstance, JobSpec, StageKind, StageSpec};
//! use dias_stochastic::Dist;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // Two tiny classes: class 1 (high) and class 0 (low).
//! let mut rng = StdRng::seed_from_u64(5);
//! let mut jobs = Vec::new();
//! for i in 0..50u64 {
//!     let class = usize::from(i % 10 == 0);
//!     let spec = JobSpec::builder(i, class)
//!         .setup(Dist::constant(1.0))
//!         .shuffle(Dist::constant(0.5))
//!         .stage(StageSpec::new(StageKind::Map, 40, Dist::exponential(2.0)))
//!         .stage(StageSpec::new(StageKind::Reduce, 8, Dist::exponential(1.0)))
//!         .build();
//!     let mut inst = JobInstance::sample(&spec, &mut rng);
//!     inst.arrival_secs = i as f64 * 9.0;
//!     jobs.push(inst);
//! }
//! let report = Experiment::new(VecJobSource::new(jobs, 2), Policy::preemptive(2))
//!     .jobs(40)
//!     .run()
//!     .unwrap();
//! assert!(report.class_stats(0).response.mean() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod degrade;
mod experiment;
pub mod federation;
mod metrics;
pub mod multi;
mod multi_sprint;
mod policy;
mod sprinter;
pub mod stream;
pub mod sweep;

pub use degrade::DegradationPolicy;
pub use experiment::{Experiment, ExperimentError, JobSource, VecJobSource};
pub use federation::{
    EpochRecord, FederationExperiment, FederationReport, FederationRunLog, Router, RouterCursor,
};
pub use metrics::ExperimentReport;
pub use multi::{MultiClassStats, MultiJobExperiment, MultiJobReport, MultiRunTrace, Series};
pub use multi_sprint::MultiSprinter;
pub use policy::{ClassPolicy, Policy, Scheduling};
pub use sprinter::{SprintBudget, SprintPolicy};
pub use stream::{SoakExperiment, SoakReport, SoakWindow, SoakWindowClass, WarmupRule};
pub use sweep::{
    run_differential, run_multi_experiments_branch, run_parallel, BranchStats, Contrast,
    DifferentialReport,
};
