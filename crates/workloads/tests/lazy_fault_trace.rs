//! A generated fault trace is read without being stored.
//!
//! The slot-failure schedule below spans a horizon that holds about 10^10
//! events: materializing it would take 320 GB and hours. Asking whether it
//! is empty, reading its first events through a cursor and running a short
//! experiment against it must therefore finish in moments. A later change
//! that calls `FaultTrace::events()` on one of these paths turns this test
//! into a timeout.

use std::panic;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::Duration;

use dias_core::{MultiJobExperiment, MultiJobReport, VecJobSource};
use dias_engine::{FaultTrace, JobInstance, JobSpec, PriorityPreempt, StageKind, StageSpec};
use dias_stochastic::Dist;
use dias_workloads::slot_failure_trace;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SLOTS: usize = 20;
const MTBF_SECS: f64 = 1_000.0;
const MTTR_SECS: f64 = 100.0;
const SEED: u64 = 3;
/// Each slot fails and repairs about once per `MTBF + MTTR` = 1100 s, so 20
/// slots emit 1/27.5 events per second: about 10^10 events over this
/// horizon.
const HUGE_HORIZON_SECS: f64 = 2.75e11;
/// Well past the short run's end (80 arrivals 7 s apart).
const SHORT_HORIZON_SECS: f64 = 1.0e5;
/// How long the checks may take before the test fails instead of waiting
/// for a materialization that would never finish.
const DEADLINE: Duration = Duration::from_secs(20);

/// Two-class workload with exponential task times; every 8th job is high
/// priority.
fn workload() -> VecJobSource {
    let mut rng = StdRng::seed_from_u64(5);
    let jobs = (0..80u64)
        .map(|i| {
            let class = usize::from(i % 8 == 0);
            let spec = JobSpec::builder(i, class)
                .setup(Dist::constant(1.0))
                .shuffle(Dist::constant(0.5))
                .stage(StageSpec::new(StageKind::Map, 30, Dist::exponential(2.0)))
                .stage(StageSpec::new(StageKind::Reduce, 6, Dist::constant(1.0)))
                .build();
            let mut inst = JobInstance::sample(&spec, &mut rng);
            inst.arrival_secs = i as f64 * 7.0;
            inst
        })
        .collect();
    VecJobSource::new(jobs, 2)
}

fn run(trace: FaultTrace) -> MultiJobReport {
    MultiJobExperiment::new(workload(), Box::new(PriorityPreempt))
        .jobs(70)
        .warmup(10)
        .faults(trace)
        .run()
        .expect("valid experiment")
}

#[test]
fn a_huge_generated_trace_is_never_materialized() {
    let (done, finished) = mpsc::channel();
    // The checks run on a worker so that a regression fails at the deadline
    // instead of hanging.
    let worker = thread::spawn(move || {
        let huge = slot_failure_trace(SLOTS, HUGE_HORIZON_SECS, MTBF_SECS, MTTR_SECS, SEED);
        assert!(!huge.is_empty());

        let head: Vec<_> = huge.cursor().take(10_000).collect();
        assert_eq!(head.len(), 10_000);
        assert!(
            head.windows(2)
                .all(|w| (w[0].at_secs, w[0].slot) <= (w[1].at_secs, w[1].slot)),
            "the cursor yields events in (time, slot) order"
        );

        let report = run(huge.clone());
        assert!(report.capacity_changes > 0, "the run applied faults");
        // Truncating the horizon only drops events past it, so a stored
        // trace over a horizon past the run's end replays the same faults.
        assert!(report.horizon_secs < SHORT_HORIZON_SECS);
        let short = slot_failure_trace(SLOTS, SHORT_HORIZON_SECS, MTBF_SECS, MTTR_SECS, SEED);
        assert!(!short.events().is_empty());
        assert_eq!(report, run(short), "streamed and stored traces diverged");
        done.send(()).expect("the test thread waits");
    });
    match finished.recv_timeout(DEADLINE) {
        Ok(()) => worker.join().expect("the worker finished its checks"),
        Err(RecvTimeoutError::Disconnected) => {
            panic::resume_unwind(worker.join().expect_err("the worker exited early"))
        }
        // The worker cannot be joined: it is stuck materializing.
        Err(RecvTimeoutError::Timeout) => {
            panic!("still running after {DEADLINE:?}: something materializes the trace")
        }
    }
}
