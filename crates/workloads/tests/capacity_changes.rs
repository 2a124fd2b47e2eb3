//! The driver's capacity-change count is a pure function of the fault trace.
//!
//! [`MultiJobReport::capacity_changes`] counts the fault batches after which
//! the schedulable pool (`effective_slots`) differs from the pool after the
//! previous change. Only fault events move that pool: `Fail` and `Drain` take
//! an up slot out of it, `Repair` puts a slot back, `Slow` leaves it alone,
//! and a drain that completes when its occupant departs moves the slot from
//! one out-of-pool state to another. So a reference fold over the trace alone
//! must reproduce the count under any scheduler and any drop controller, as
//! long as the run applies the whole trace.

use std::collections::HashSet;

use dias_core::{DegradationPolicy, MultiJobExperiment, VecJobSource};
use dias_engine::{
    FaultKind, FaultTrace, GangBinPack, JobInstance, JobSpec, PriorityPreempt, Scheduler,
    StageKind, StageSpec,
};
use dias_stochastic::Dist;
use dias_workloads::{autoscaling_trace, slot_failure_trace, straggler_trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SLOTS: usize = 20;
const JOBS: u64 = 80;
const GAP_SECS: f64 = 7.0;
/// Last fault time bound: well before the last arrival at 553 s, so every
/// event fires while work remains.
const FAULT_HORIZON_SECS: f64 = 400.0;

/// Two-class workload with exponential task times; every 8th job is high
/// priority.
fn workload() -> VecJobSource {
    let mut rng = StdRng::seed_from_u64(5);
    let jobs = (0..JOBS)
        .map(|i| {
            let class = usize::from(i % 8 == 0);
            let spec = JobSpec::builder(i, class)
                .setup(Dist::constant(1.0))
                .shuffle(Dist::constant(0.5))
                .stage(StageSpec::new(StageKind::Map, 30, Dist::exponential(2.0)))
                .stage(StageSpec::new(StageKind::Reduce, 6, Dist::constant(1.0)))
                .build();
            let mut inst = JobInstance::sample(&spec, &mut rng);
            inst.arrival_secs = i as f64 * GAP_SECS;
            inst
        })
        .collect();
    VecJobSource::new(jobs, 2)
}

/// Autoscaling drains and repairs, crash/repair renewal and straggler
/// episodes over the same slots, merged into one schedule.
fn mixed_trace() -> FaultTrace {
    autoscaling_trace(SLOTS, 4, 90.0, 40.0, FAULT_HORIZON_SECS)
        .merge(&slot_failure_trace(
            SLOTS,
            FAULT_HORIZON_SECS,
            200.0,
            50.0,
            7,
        ))
        .merge(&straggler_trace(
            SLOTS,
            FAULT_HORIZON_SECS,
            150.0,
            30.0,
            2.0,
            11,
        ))
}

/// Reference fold: walk the trace in batches of equal timestamps, track which
/// slots are out of the pool, and count the batches that change how many are.
fn reference_changes(trace: &FaultTrace) -> u64 {
    let mut out_of_pool = [false; SLOTS];
    let mut unavailable = 0usize;
    let mut changes = 0;
    for batch in trace.events().chunk_by(|a, b| a.at_secs == b.at_secs) {
        let before = unavailable;
        for e in batch {
            let out = match e.kind {
                FaultKind::Fail | FaultKind::Drain => true,
                FaultKind::Repair => false,
                FaultKind::Slow { .. } => continue,
            };
            match (out_of_pool[e.slot], out) {
                (false, true) => unavailable += 1,
                (true, false) => unavailable -= 1,
                _ => {}
            }
            out_of_pool[e.slot] = out;
        }
        if unavailable != before {
            changes += 1;
        }
    }
    changes
}

#[test]
fn capacity_changes_equal_a_fold_over_the_trace() {
    let trace = mixed_trace();
    let events = trace.events();
    let kinds: HashSet<_> = events
        .iter()
        .map(|e| std::mem::discriminant(&e.kind))
        .collect();
    assert_eq!(
        kinds.len(),
        4,
        "trace must mix Fail, Repair, Drain and Slow"
    );
    assert!(events.last().expect("non-empty trace").at_secs < (JOBS - 1) as f64 * GAP_SECS);
    let want = reference_changes(&trace);
    assert!(want > 10, "too few capacity changes to test: {want}");

    let schedulers: [fn() -> Box<dyn Scheduler>; 2] =
        [|| Box::new(GangBinPack), || Box::new(PriorityPreempt)];
    for make in schedulers {
        for degrade in [false, true] {
            let mut exp = MultiJobExperiment::new(workload(), make())
                .faults(trace.clone())
                .drops(&[0.2, 0.0])
                .warmup(0)
                .jobs(JOBS as usize);
            if degrade {
                exp = exp.degrade(DegradationPolicy::new(&[0.2, 0.0], &[0.8, 0.0]));
            }
            let r = exp.run().expect("valid experiment");
            assert_eq!(
                r.capacity_changes, want,
                "{} (degrade: {degrade})",
                r.scheduler
            );
        }
    }
}
