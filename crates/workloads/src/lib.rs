//! Workloads for the DiAS reproduction.
//!
//! The paper evaluates on two application families plus trace-shaped job streams;
//! this crate provides all three, with *real computations* where accuracy is
//! measured and engine-simulator profiles where latency is measured:
//!
//! * [`text`] — a synthetic StackExchange-like corpus (topics, pseudo-XML posts,
//!   Zipf vocabulary) and a **real word-count MapReduce job** over its partitions.
//!   Dropping partitions and Horvitz–Thompson-scaling the counts reproduces the
//!   accuracy-vs-drop curve of Fig. 6.
//! * [`graph`] — a synthetic R-MAT web graph with the Google-web-graph's shape and a
//!   **real triangle-count** whose edge sampling mirrors per-stage task dropping
//!   (§5.2.4).
//! * [`profiles`] and [`stream`] — engine job profiles (the Fig. 4 datasets "126"
//!   and "147", the 1117 MB / 473 MB two-priority reference, the three-priority mix,
//!   the GraphX-style triangle job) and Poisson [`JobStream`]s over them, with
//!   profiling-based calibration of arrival rates to a target utilization.
//! * [`faults`] — failure/straggler/autoscaling schedules
//!   ([`dias_engine::FaultTrace`]s) for the chaos harness: crash/repair
//!   renewal at a given MTBF/MTTR, straggler episodes, and a deterministic
//!   scale-down/scale-up square wave.
//!
//! # Examples
//!
//! ```
//! use dias_workloads::reference_two_priority;
//! use dias_core::{Experiment, Policy};
//!
//! let stream = reference_two_priority(0.8, 42);
//! let report = Experiment::new(stream, Policy::non_preemptive(2))
//!     .jobs(60)
//!     .run()
//!     .unwrap();
//! assert!(report.mean_response(1) > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod graph;
pub mod profiles;
pub mod stream;
pub mod text;

pub use faults::{autoscaling_trace, slot_failure_trace, straggler_trace};
pub use profiles::{
    dataset_126, dataset_147, equal_size_two_priority, heterogeneous_width_fleet,
    heterogeneous_width_two_priority, inverted_ratio_two_priority, profile_473,
    reference_two_priority, sharded_two_priority, three_priority_stream, triangle_two_priority,
    JobProfile,
};
pub use stream::{profile_execution, JobStream};
