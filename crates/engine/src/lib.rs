//! A discrete-event Spark-like big-data engine simulator.
//!
//! This crate is the substrate the DiAS reproduction runs on, standing in for the
//! paper's physical Spark v2.1 + HDFS deployment (10 workers × 2 cores). It models
//! the abstraction the paper's own analysis uses (§4) — a cluster of `C` computing
//! slots executing multi-stage MapReduce DAGs in waves — and generalizes it from
//! the paper's one-job-at-a-time assumption to **concurrent jobs on disjoint slot
//! subsets**, chosen by a pluggable [`Scheduler`] policy:
//!
//! * [`Fifo`] — one job over all `C` slots, the paper's model (and the default),
//! * [`GangBinPack`] — disjoint gangs bin-packed by stage width,
//! * [`PriorityPreempt`] — gang placement plus eviction of lower-class jobs when
//!   a higher-class arrival needs their slots.
//!
//! The engine's knobs mirror the paper's system:
//!
//! * **task dropping** at stage start — the `findMissingPartitions()` hook the paper
//!   patches in Spark: a stage with `n` tasks runs only `⌈n(1−θ)⌉` of them,
//! * **DVFS sprinting** — per-gang frequency domains: each running job's slots
//!   can sprint individually ([`ClusterSim::set_job_frequency`]), rescaling only
//!   that job's in-flight tasks; every dispatch starts at base frequency, and
//!   the paper's cluster-wide sprint is the same call on every running job,
//! * **eviction** — killing a running job through its calendar handles and
//!   accounting every machine-second it had consumed as waste (the preemptive
//!   baseline's behaviour), and
//! * **energy metering** — integrating a busy-slot power model over simulated
//!   time, with the active share attributed per job ([`JobEnergy`]), and
//! * **fault injection & elastic capacity** ([`faults`]) — deterministic
//!   per-slot failure/repair/drain/straggler streams ([`FaultTrace`]) applied
//!   through [`ClusterSim::fail_slot`] and friends; non-up slots surface to
//!   schedulers as phantom blocked ranges so placement routes around them.
//!
//! The controller in `dias-core` drives [`ClusterSim`] one event at a time and
//! interleaves it with job arrivals and sprint timers.
//!
//! # Examples
//!
//! ```
//! use dias_engine::{ClusterSim, ClusterSpec, EngineEvent, JobInstance, JobSpec, StageSpec, StageKind,
//!                   Submission};
//! use dias_stochastic::Dist;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let spec = JobSpec::builder(0, 1)
//!     .input_mb(473.0)
//!     .setup(Dist::constant(10.0))
//!     .shuffle(Dist::constant(5.0))
//!     .stage(StageSpec::new(StageKind::Map, 50, Dist::constant(15.0)))
//!     .stage(StageSpec::new(StageKind::Reduce, 10, Dist::constant(8.0)))
//!     .build();
//! let mut rng = StdRng::seed_from_u64(1);
//! let instance = JobInstance::sample(&spec, &mut rng);
//!
//! // Under the default Fifo scheduler an idle cluster gives the job all 20 slots.
//! let mut sim = ClusterSim::new(ClusterSpec::paper_reference());
//! let sub = sim.submit_job(&instance, &[0.0, 0.0]).unwrap();
//! assert!(matches!(sub, Submission::Dispatched { .. }));
//! loop {
//!     if let EngineEvent::JobFinished { metrics, .. } = sim.advance().unwrap() {
//!         // 50 tasks of 15 s on 20 slots: 3 waves; plus setup, shuffle, reduce.
//!         assert!((metrics.execution_secs - (10.0 + 45.0 + 5.0 + 8.0)).abs() < 1e-9);
//!         break;
//!     }
//! }
//! ```
//!
//! Concurrent jobs under a gang scheduler, with per-job energy attribution:
//!
//! ```
//! use dias_engine::{ClusterSim, ClusterSpec, GangBinPack, JobId, JobInstance,
//!                   JobSpec, StageKind, StageSpec, Submission};
//! use dias_stochastic::Dist;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut sim = ClusterSim::with_scheduler(
//!     ClusterSpec::paper_reference(),
//!     Box::new(GangBinPack),
//! ).unwrap();
//! let mut rng = StdRng::seed_from_u64(7);
//! for id in 0..2u64 {
//!     let spec = JobSpec::builder(id, 0)
//!         .setup(Dist::constant(2.0))
//!         .stage(StageSpec::new(StageKind::Map, 8, Dist::constant(16.0)))
//!         .build();
//!     let inst = JobInstance::sample(&spec, &mut rng);
//!     // Two 8-wide gangs coexist on the 20-slot cluster.
//!     assert!(matches!(
//!         sim.submit_job(&inst, &[0.0]).unwrap(),
//!         Submission::Dispatched { .. }
//!     ));
//! }
//! while !sim.is_idle() {
//!     sim.advance().unwrap();
//! }
//! // Concurrency: both 18-second jobs are done at t = 18.
//! assert!((sim.now().as_secs() - 18.0).abs() < 1e-9);
//! let e = sim.job_energy(JobId(0)).unwrap();
//! assert!(e.active_joules > 0.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod cluster;
mod energy;
pub mod faults;
mod job;
pub mod sched;
mod sim;

pub use cluster::{ClusterSpec, FreqLevel, PowerModel};
pub use energy::{EnergyMeter, JobEnergy};
pub use faults::{FaultCursor, FaultEvent, FaultKind, FaultTrace, SlotHealth};
pub use job::{
    IdHasher, IdMap, JobId, JobInstance, JobSampler, JobSpec, JobSpecBuilder, StageKind, StageSpec,
};
pub use sched::{
    Fifo, GangBinPack, PendingView, PriorityPreempt, RunningView, Scheduler, SlotRange,
};
pub use sim::{
    Checkpoint, ClusterSim, DispatchRecord, EngineError, EngineEvent, EvictedWork, JobRunMetrics,
    Submission, BLOCKED_SLOT_CLASS, BLOCKED_SLOT_JOB,
};
