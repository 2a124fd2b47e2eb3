//! Property-based tests of the fault-injection invariants.
//!
//! Two invariants from the elastic-capacity tentpole, mirroring
//! `gang_properties.rs`:
//!
//! 1. **Disjointness across re-dispatches** — through any interleaving of
//!    arrivals, completions and `fail`/`repair`/`drain`/`slow` events,
//!    concurrently running jobs keep pairwise-disjoint slot subsets, and no
//!    run ever occupies a [`SlotHealth::Down`] slot (a *draining* slot may
//!    stay occupied by its current run — that is the point of draining).
//! 2. **Lossless energy attribution under faults** — with dyadic durations
//!    (eighths of a second), dyadic powers and power-of-two speed factors
//!    (sprint speedup 2, straggler factor 2), the per-job [`EnergyMeter`]
//!    ledgers — one entry per attempt, evicted attempts included — sum to the
//!    cluster total **exactly** (`==`, not an epsilon) through any
//!    failure/repair/drain interleaving.
//!
//! [`EnergyMeter`]: dias_engine::EnergyMeter
//! [`SlotHealth::Down`]: dias_engine::SlotHealth

use proptest::prelude::*;

use dias_des::SimTime;
use dias_engine::{
    ClusterSim, ClusterSpec, EngineEvent, FreqLevel, GangBinPack, JobInstance, JobSpec, PowerModel,
    PriorityPreempt, Scheduler, SlotHealth, StageKind, StageSpec,
};
use dias_stochastic::Dist;

/// Dyadic cluster: 5 workers × 4 cores = 20 slots, 16 W/slot active delta at
/// base and 32 W/slot sprinting, speedup 2 — every meter operation is exact.
fn dyadic_cluster() -> ClusterSpec {
    ClusterSpec {
        workers: 5,
        cores_per_worker: 4,
        base_freq_ghz: 1.0,
        sprint_freq_ghz: 2.0,
        sprint_speedup: 2.0,
        power: PowerModel {
            idle_w: 96.0,
            active_w: 160.0,
            sprint_w: 224.0,
        },
    }
}

const SLOTS: usize = 20;

/// One generated job: class, arrival gap (eighths of a second) and per-stage
/// dyadic task durations.
#[derive(Debug, Clone)]
struct GenJob {
    class: usize,
    gap_eighths: u32,
    setup_eighths: u32,
    stages: Vec<Vec<u32>>, // task durations in eighths
}

fn arb_job() -> impl Strategy<Value = GenJob> {
    (
        0usize..2,
        0u32..=256,
        1u32..=64,
        prop::collection::vec(prop::collection::vec(8u32..=96, 1..=30), 1..=2),
    )
        .prop_map(|(class, gap_eighths, setup_eighths, stages)| GenJob {
            class,
            gap_eighths,
            setup_eighths,
            stages,
        })
}

/// One fault action against a slot, applied mid-drive. The straggler factor
/// is the dyadic 2.0 (`false` restores full speed), keeping retimed event
/// times exactly representable.
#[derive(Debug, Clone, Copy)]
enum FaultAction {
    Fail(usize),
    Repair(usize),
    Drain(usize),
    Slow(usize, bool),
}

fn arb_fault() -> impl Strategy<Value = FaultAction> {
    prop_oneof![
        (0..SLOTS).prop_map(FaultAction::Fail),
        (0..SLOTS).prop_map(FaultAction::Repair),
        (0..SLOTS).prop_map(FaultAction::Drain),
        ((0..SLOTS), any::<bool>()).prop_map(|(s, on)| FaultAction::Slow(s, on)),
    ]
}

fn apply(sim: &mut ClusterSim, action: FaultAction) {
    match action {
        FaultAction::Fail(s) => {
            sim.fail_slot(s).expect("valid slot");
        }
        FaultAction::Repair(s) => sim.repair_slot(s).expect("valid slot"),
        FaultAction::Drain(s) => {
            sim.drain_slot(s).expect("valid slot");
        }
        FaultAction::Slow(s, on) => sim
            .slow_slot(s, if on { 2.0 } else { 1.0 })
            .expect("valid slot"),
    }
}

/// Materializes a [`JobInstance`] with the generated dyadic durations (the
/// spec's distributions are placeholders; execution reads the sampled fields).
fn instance_of(id: u64, job: &GenJob) -> JobInstance {
    let mut builder = JobSpec::builder(id, job.class).setup(Dist::constant(1.0));
    for tasks in &job.stages {
        builder = builder.stage(StageSpec::new(
            StageKind::Map,
            tasks.len(),
            Dist::constant(1.0),
        ));
    }
    let spec = builder.build();
    JobInstance {
        spec,
        setup_secs: f64::from(job.setup_eighths) / 8.0,
        shuffle_secs: vec![0.5; job.stages.len().saturating_sub(1)],
        task_secs: job
            .stages
            .iter()
            .map(|ts| ts.iter().map(|&k| f64::from(k) / 8.0).collect())
            .collect(),
        arrival_secs: 0.0,
    }
}

/// Asserts the current assignments are pairwise disjoint, inside the cluster,
/// and clear of every [`SlotHealth::Down`] slot.
fn assert_disjoint_and_clear_of_down(sim: &ClusterSim) -> Result<(), String> {
    let ranges = sim.assignments();
    for (i, (job_a, a)) in ranges.iter().enumerate() {
        prop_assert!(
            a.end() <= sim.spec().slots(),
            "{job_a} assigned {a} beyond the {}-slot cluster",
            sim.spec().slots()
        );
        for slot in a.start..a.end() {
            prop_assert!(
                sim.slot_health(slot).expect("slot in range") != SlotHealth::Down,
                "{job_a} runs on down slot {slot}"
            );
        }
        for (job_b, b) in &ranges[i + 1..] {
            prop_assert!(!a.overlaps(b), "overlap: {job_a} on {a} vs {job_b} on {b}");
        }
    }
    Ok(())
}

/// Drives `jobs` through a scheduler while injecting one fault action every
/// `cadence` steps, checking the disjointness/health invariant at every state
/// change. When dead capacity blocks all progress (calendar empty, jobs
/// pending), every slot is repaired — the elastic-recovery path — and the
/// drive continues to idle.
fn drive_with_faults(
    jobs: &[GenJob],
    faults: &[FaultAction],
    scheduler: Box<dyn Scheduler>,
    cadence: usize,
) -> Result<ClusterSim, String> {
    let mut sim = ClusterSim::with_scheduler(dyadic_cluster(), scheduler).unwrap();
    let mut fault_iter = faults.iter().copied();
    let mut arrival = 0.0f64;
    let mut steps = 0usize;
    for (id, job) in jobs.iter().enumerate() {
        arrival += f64::from(job.gap_eighths) / 8.0;
        while let Some(t) = sim.next_event_time() {
            if t.as_secs() > arrival {
                break;
            }
            sim.advance().expect("running events");
            steps += 1;
            if cadence > 0 && steps.is_multiple_of(cadence) {
                if let Some(f) = fault_iter.next() {
                    apply(&mut sim, f);
                }
            }
            assert_disjoint_and_clear_of_down(&sim)?;
        }
        sim.idle_until(SimTime::from_secs(arrival));
        let inst = instance_of(id as u64, job);
        sim.submit_job(&inst, &vec![0.0; job.stages.len()])
            .expect("valid submission");
        steps += 1;
        if cadence > 0 && steps.is_multiple_of(cadence) {
            if let Some(f) = fault_iter.next() {
                apply(&mut sim, f);
            }
        }
        assert_disjoint_and_clear_of_down(&sim)?;
    }
    while !sim.is_idle() {
        if sim.next_event_time().is_none() {
            // Dead/draining slots starve the pending queue: repair the whole
            // cluster (the autoscale-up path) so every victim re-dispatches.
            for slot in 0..SLOTS {
                sim.repair_slot(slot).expect("valid slot");
            }
            assert_disjoint_and_clear_of_down(&sim)?;
            prop_assert!(
                sim.next_event_time().is_some() || sim.is_idle(),
                "full repair must unblock the pending queue"
            );
            continue;
        }
        sim.advance().expect("pending events while jobs run");
        steps += 1;
        if cadence > 0 && steps.is_multiple_of(cadence) {
            if let Some(f) = fault_iter.next() {
                apply(&mut sim, f);
            }
        }
        assert_disjoint_and_clear_of_down(&sim)?;
    }
    Ok(sim)
}

/// Exact-sum check: cluster total == idle floor + Σ per-attempt active energy
/// (evicted attempts' retired ledgers included).
fn assert_exact_split(sim: &ClusterSim) -> Result<(), String> {
    let horizon = sim.now().as_secs();
    let idle = sim.spec().cluster_power_w(0, FreqLevel::Base) * horizon;
    let attributed: f64 = sim
        .meter()
        .finished_jobs()
        .iter()
        .map(|(_, e)| e.active_joules)
        .sum();
    // Dyadic inputs: the linear power model distributes exactly, so the
    // identity holds with `==`, not within an epsilon.
    prop_assert_eq!(sim.energy_joules(), idle + attributed);
    Ok(())
}

/// The arrival loop of [`drive_with_faults`] without the final drain:
/// returns the mid-flight simulator, its step counter and the fault cursor —
/// the index into `faults` of the next action, the position a checkpointing
/// driver stores (cf. [`dias_engine::FaultCursor`]).
fn drive_to_final_drain(
    jobs: &[GenJob],
    faults: &[FaultAction],
    scheduler: Box<dyn Scheduler>,
    cadence: usize,
) -> (ClusterSim, usize, usize) {
    let mut sim = ClusterSim::with_scheduler(dyadic_cluster(), scheduler).unwrap();
    let mut fi = 0usize;
    let mut arrival = 0.0f64;
    let mut steps = 0usize;
    for (id, job) in jobs.iter().enumerate() {
        arrival += f64::from(job.gap_eighths) / 8.0;
        while let Some(t) = sim.next_event_time() {
            if t.as_secs() > arrival {
                break;
            }
            sim.advance().expect("running events");
            steps += 1;
            if cadence > 0 && steps.is_multiple_of(cadence) {
                if let Some(f) = faults.get(fi) {
                    fi += 1;
                    apply(&mut sim, *f);
                }
            }
        }
        sim.idle_until(SimTime::from_secs(arrival));
        let inst = instance_of(id as u64, job);
        sim.submit_job(&inst, &vec![0.0; job.stages.len()])
            .expect("valid submission");
        steps += 1;
        if cadence > 0 && steps.is_multiple_of(cadence) {
            if let Some(f) = faults.get(fi) {
                fi += 1;
                apply(&mut sim, *f);
            }
        }
    }
    (sim, steps, fi)
}

/// Drains the simulator to idle (or `stop_after` events), recording every
/// `(time, event)` pair while replaying the fault schedule from cursor `fi`
/// — the full-repair unblock path included. The recorded stream is the
/// replay oracle.
fn drain_recording(
    sim: &mut ClusterSim,
    mut steps: usize,
    faults: &[FaultAction],
    mut fi: usize,
    cadence: usize,
    stop_after: Option<usize>,
) -> Vec<(f64, EngineEvent)> {
    let mut stream = Vec::new();
    while !sim.is_idle() {
        if stop_after.is_some_and(|k| stream.len() >= k) {
            break;
        }
        if sim.next_event_time().is_none() {
            // Dead/draining slots starve the pending queue: repair the whole
            // cluster (the autoscale-up path) so every victim re-dispatches.
            for slot in 0..SLOTS {
                sim.repair_slot(slot).expect("valid slot");
            }
            if sim.is_idle() {
                break;
            }
            continue;
        }
        let ev = sim.advance().expect("pending events while jobs run");
        steps += 1;
        stream.push((sim.now().as_secs(), ev));
        if cadence > 0 && steps.is_multiple_of(cadence) {
            if let Some(f) = faults.get(fi) {
                fi += 1;
                apply(sim, *f);
            }
        }
    }
    stream
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn gang_bin_pack_survives_fault_interleavings(
        jobs in prop::collection::vec(arb_job(), 1..=6),
        faults in prop::collection::vec(arb_fault(), 0..=24),
        cadence in 1usize..=4,
    ) {
        let sim = drive_with_faults(&jobs, &faults, Box::new(GangBinPack), cadence)?;
        assert_exact_split(&sim)?;
    }

    #[test]
    fn priority_preempt_survives_fault_interleavings(
        jobs in prop::collection::vec(arb_job(), 2..=6),
        faults in prop::collection::vec(arb_fault(), 0..=24),
        cadence in 1usize..=4,
    ) {
        // Failure victims and preemption victims share the re-queue path;
        // their retired attempts must all land in the exact energy split.
        let sim = drive_with_faults(&jobs, &faults, Box::new(PriorityPreempt), cadence)?;
        assert_exact_split(&sim)?;
    }

    #[test]
    fn stragglers_alone_keep_energy_exact(
        jobs in prop::collection::vec(arb_job(), 1..=6),
        slots in prop::collection::vec((0..SLOTS, any::<bool>()), 0..=12),
        cadence in 1usize..=4,
    ) {
        // Slow-only schedules never evict: the same jobs run longer on the
        // same slots at unchanged power rates, and with the dyadic factor 2
        // the stretched busy intervals still sum exactly.
        let faults: Vec<FaultAction> = slots
            .into_iter()
            .map(|(s, on)| FaultAction::Slow(s, on))
            .collect();
        let sim = drive_with_faults(&jobs, &faults, Box::new(GangBinPack), cadence)?;
        assert_exact_split(&sim)?;
        prop_assert_eq!(sim.meter().finished_jobs().len(), jobs.len());
    }

    #[test]
    fn checkpoint_restore_readvances_bit_identically_under_faults(
        jobs in prop::collection::vec(arb_job(), 2..=6),
        faults in prop::collection::vec(arb_fault(), 0..=24),
        cadence in 1usize..=4,
        k in 0usize..=48,
        preempt in any::<bool>(),
    ) {
        // PR 8 checkpoint pin, fault edition: the checkpoint captures slot
        // health, straggler slowdowns and the blocked-capacity bookkeeping;
        // the test driver stores the fault cursor beside it. Snapshot
        // mid-flight, advance k events (replaying faults from the cursor),
        // restore, re-advance — the replay must reproduce the reference
        // stream, clock and dyadic energy books float for float.
        let scheduler: Box<dyn Scheduler> = if preempt {
            Box::new(PriorityPreempt)
        } else {
            Box::new(GangBinPack)
        };
        let (mut sim, steps, fi) = drive_to_final_drain(&jobs, &faults, scheduler, cadence);
        let cp = sim.checkpoint();
        let reference = drain_recording(&mut sim, steps, &faults, fi, cadence, None);
        let now_ref = sim.now();
        let energy_ref = sim.energy_joules();
        let meter_ref = sim.meter().clone();

        sim.restore(&cp);
        drain_recording(&mut sim, steps, &faults, fi, cadence, Some(k));
        sim.restore(&cp);
        let replay = drain_recording(&mut sim, steps, &faults, fi, cadence, None);
        prop_assert_eq!(replay, reference);
        prop_assert_eq!(sim.now(), now_ref);
        prop_assert_eq!(sim.energy_joules(), energy_ref);
        prop_assert!(
            sim.meter() == &meter_ref,
            "per-job energy books diverged after restore"
        );
    }
}
