//! Property-based tests of the multi-job scheduler invariants.
//!
//! Two invariants from the gang-scheduling tentpole:
//!
//! 1. **Disjointness** — `GangBinPack` (and `PriorityPreempt`) never assign
//!    overlapping slot subsets to concurrently running jobs, at any point of
//!    any interleaving of arrivals, completions and frequency switches.
//! 2. **Lossless energy attribution** — the per-job [`EnergyMeter`] totals
//!    sum to the cluster total **exactly** (`==`, not an epsilon): the
//!    generator draws every duration and arrival gap as a dyadic rational
//!    (a multiple of 1/8) and the cluster spec below uses dyadic powers and
//!    a speedup of 2, so every product and sum the meter computes is exact
//!    in `f64` and the linear power model distributes without rounding.
//!
//! Frequency switches come in two flavours, matching the per-gang-domain
//! engine: the *global* toggle (every domain flips together, the paper's
//! hardware) and *per-job* toggles that flip one running job's domain at a
//! time, leaving concurrent jobs at heterogeneous levels — the exact-sum
//! invariant must survive both, with sprint extra power charged only over
//! the sprinting domains' busy slots.
//!
//! A third property pins the shipped policies' decisions to the original
//! allocate-sort-scan reference under any order of the running views, which
//! is what lets the engine hand them its slot-ordered views in place.
//!
//! [`EnergyMeter`]: dias_engine::EnergyMeter

use proptest::prelude::*;

use dias_des::SimTime;
use dias_engine::{
    ClusterSim, ClusterSpec, EngineEvent, Fifo, FreqLevel, GangBinPack, JobId, JobInstance,
    JobSpec, PendingView, PowerModel, PriorityPreempt, RunningView, Scheduler, SlotRange,
    StageKind, StageSpec, BLOCKED_SLOT_CLASS, BLOCKED_SLOT_JOB,
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

/// Asserts the current assignments are pairwise disjoint and inside the
/// cluster.
fn assert_disjoint(sim: &ClusterSim) -> Result<(), String> {
    let ranges = sim.assignments();
    for (i, (job_a, a)) in ranges.iter().enumerate() {
        prop_assert!(
            a.end() <= sim.spec().slots(),
            "{job_a} assigned {a} beyond the {}-slot cluster",
            sim.spec().slots()
        );
        for (job_b, b) in &ranges[i + 1..] {
            prop_assert!(!a.overlaps(b), "overlap: {job_a} on {a} vs {job_b} on {b}");
        }
    }
    Ok(())
}

/// How the drive loop toggles frequency at event times.
#[derive(Debug, Clone, Copy)]
enum Toggle {
    /// Flip every running domain together (the paper's whole-cluster
    /// switch); jobs dispatched later start at base.
    Global,
    /// Flip one running job's own domain, rotating through the running set —
    /// concurrent jobs end up at heterogeneous levels.
    PerJob,
}

/// Applies one deterministic frequency toggle: a pure function of the event
/// counter and the simulator state, so replays flip identically.
fn flip(sim: &mut ClusterSim, toggle: Toggle, events: usize) {
    match toggle {
        Toggle::Global => {
            let running = sim.running_jobs();
            let next = match running.first().and_then(|&job| sim.job_frequency(job)) {
                Some(FreqLevel::Base) => FreqLevel::Sprint,
                _ => FreqLevel::Base,
            };
            for job in running {
                sim.set_job_frequency(job, next)
                    .expect("toggled job is running");
            }
        }
        Toggle::PerJob => {
            let running = sim.running_jobs();
            if running.is_empty() {
                return;
            }
            let job = running[events % running.len()];
            let next = match sim.job_frequency(job) {
                Some(FreqLevel::Base) => FreqLevel::Sprint,
                _ => FreqLevel::Base,
            };
            sim.set_job_frequency(job, next)
                .expect("toggled job is running");
        }
    }
}

/// Drives `jobs` through a scheduler, checking disjointness at every state
/// change and toggling frequencies at (dyadic) event times; returns the
/// driven simulator after all jobs completed.
fn drive(
    jobs: &[GenJob],
    scheduler: Box<dyn Scheduler>,
    toggle_every: usize,
    toggle: Toggle,
) -> Result<ClusterSim, String> {
    let (mut sim, mut events) =
        drive_arrivals(jobs, scheduler, toggle_every, toggle, assert_disjoint)?;
    while !sim.is_idle() {
        sim.advance().expect("pending events while jobs run");
        events += 1;
        if toggle_every > 0 && events.is_multiple_of(toggle_every) {
            flip(&mut sim, toggle, events);
        }
        assert_disjoint(&sim)?;
    }
    Ok(sim)
}

/// Exact-sum check: cluster total == idle floor + Σ per-job active energy.
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

/// The arrival loop of [`drive`]: submits every job at its arrival time,
/// advancing and toggling through the engine events before it and running
/// `check` after every state change. Returns the mid-flight simulator (jobs
/// running, pending, possibly mid-sprint) and its event counter — the state
/// the checkpoint property snapshots.
fn drive_arrivals(
    jobs: &[GenJob],
    scheduler: Box<dyn Scheduler>,
    toggle_every: usize,
    toggle: Toggle,
    check: fn(&ClusterSim) -> Result<(), String>,
) -> Result<(ClusterSim, usize), String> {
    let mut sim = ClusterSim::with_scheduler(dyadic_cluster(), scheduler).unwrap();
    let mut arrival = 0.0f64;
    let mut events = 0usize;
    for (id, job) in jobs.iter().enumerate() {
        arrival += f64::from(job.gap_eighths) / 8.0;
        // Process engine events that precede the arrival.
        while let Some(t) = sim.next_event_time() {
            if t.as_secs() > arrival {
                break;
            }
            sim.advance().expect("running events");
            events += 1;
            if toggle_every > 0 && events.is_multiple_of(toggle_every) {
                flip(&mut sim, toggle, events);
            }
            check(&sim)?;
        }
        sim.idle_until(SimTime::from_secs(arrival));
        let inst = instance_of(id as u64, job);
        sim.submit_job(&inst, &vec![0.0; job.stages.len()])
            .expect("valid submission");
        check(&sim)?;
    }
    Ok((sim, events))
}

/// Drains the simulator to idle (or `stop_after` events), recording every
/// `(time, event)` pair and applying the deterministic toggles; the recorded
/// stream is the replay oracle.
fn drain_recording(
    sim: &mut ClusterSim,
    mut events: usize,
    toggle_every: usize,
    toggle: Toggle,
    stop_after: Option<usize>,
) -> Vec<(f64, EngineEvent)> {
    let mut stream = Vec::new();
    while !sim.is_idle() {
        if stop_after.is_some_and(|k| stream.len() >= k) {
            break;
        }
        let ev = sim.advance().expect("pending events while jobs run");
        events += 1;
        stream.push((sim.now().as_secs(), ev));
        if toggle_every > 0 && events.is_multiple_of(toggle_every) {
            flip(sim, toggle, events);
        }
    }
    stream
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gang_bin_pack_keeps_slot_subsets_disjoint(
        jobs in prop::collection::vec(arb_job(), 1..=8),
        toggle in 0usize..=5,
    ) {
        drive(&jobs, Box::new(GangBinPack), toggle, Toggle::Global)?;
    }

    #[test]
    fn priority_preempt_keeps_slot_subsets_disjoint(
        jobs in prop::collection::vec(arb_job(), 1..=8),
        toggle in 0usize..=5,
    ) {
        drive(&jobs, Box::new(PriorityPreempt), toggle, Toggle::PerJob)?;
    }

    #[test]
    fn per_job_energy_sums_exactly_to_cluster_total(
        jobs in prop::collection::vec(arb_job(), 1..=8),
        toggle in 0usize..=5,
    ) {
        let sim = drive(&jobs, Box::new(GangBinPack), toggle, Toggle::Global)?;
        assert_exact_split(&sim)?;
        prop_assert_eq!(sim.meter().finished_jobs().len(), jobs.len());
    }

    #[test]
    fn per_job_energy_stays_exact_with_heterogeneous_domains(
        jobs in prop::collection::vec(arb_job(), 1..=8),
        toggle in 1usize..=4,
    ) {
        // Per-gang DVFS: individual domains flip one at a time, so jobs run
        // concurrently at *different* levels, each charged its own rate (the
        // sprint extra power lands only on sprinting domains' busy slots).
        // The attribution must still be exact.
        let sim = drive(&jobs, Box::new(GangBinPack), toggle, Toggle::PerJob)?;
        assert_exact_split(&sim)?;
        prop_assert_eq!(sim.meter().finished_jobs().len(), jobs.len());
    }

    #[test]
    fn per_job_energy_stays_exact_under_preemption(
        jobs in prop::collection::vec(arb_job(), 2..=8),
        toggle in 0usize..=5,
    ) {
        // Preemption retires partial attempts; their ledgers must still sum
        // exactly (a job id retires once per evicted attempt plus once at
        // completion).
        let sim = drive(&jobs, Box::new(PriorityPreempt), toggle, Toggle::Global)?;
        assert_exact_split(&sim)?;
    }

    #[test]
    fn per_job_energy_stays_exact_under_preemption_with_domains(
        jobs in prop::collection::vec(arb_job(), 2..=8),
        toggle in 1usize..=4,
    ) {
        // Eviction of a sprinting job must retire its ledger at its own rate
        // while its base-frequency neighbours keep accruing at theirs.
        let sim = drive(&jobs, Box::new(PriorityPreempt), toggle, Toggle::PerJob)?;
        assert_exact_split(&sim)?;
    }

    #[test]
    fn checkpoint_restore_readvances_bit_identically(
        jobs in prop::collection::vec(arb_job(), 2..=8),
        toggle in 1usize..=4,
        k in 0usize..=48,
        preempt in any::<bool>(),
    ) {
        // PR 8 checkpoint pin: snapshot a mid-flight simulator (concurrent
        // gangs, heterogeneous sprint domains, preemption victims pending),
        // advance an arbitrary k events, restore, and re-advance — the replay
        // must reproduce the reference event stream, clock and dyadic energy
        // books float for float.
        let scheduler: Box<dyn Scheduler> = if preempt {
            Box::new(PriorityPreempt)
        } else {
            Box::new(GangBinPack)
        };
        let (mut sim, events_at_cp) =
            drive_arrivals(&jobs, scheduler, toggle, Toggle::PerJob, |_| Ok(()))?;
        let cp = sim.checkpoint();
        let reference = drain_recording(&mut sim, events_at_cp, toggle, Toggle::PerJob, None);
        let now_ref = sim.now();
        let energy_ref = sim.energy_joules();
        let meter_ref = sim.meter().clone();

        sim.restore(&cp);
        drain_recording(&mut sim, events_at_cp, toggle, Toggle::PerJob, Some(k));
        sim.restore(&cp);
        let replay = drain_recording(&mut sim, events_at_cp, toggle, Toggle::PerJob, None);
        prop_assert_eq!(replay, reference);
        prop_assert_eq!(sim.now(), now_ref);
        prop_assert_eq!(sim.energy_joules(), energy_ref);
        prop_assert!(
            sim.meter() == &meter_ref,
            "per-job energy books diverged after restore"
        );
    }
}

// ----------------------------------------------------------------------
// Scheduler decisions against the allocating reference
// ----------------------------------------------------------------------

/// The free gaps between `ranges`, in slot order — the original
/// collect-sort-scan formulation the shipped policies are checked against.
fn reference_gaps(total: usize, ranges: impl Iterator<Item = SlotRange>) -> Vec<SlotRange> {
    let mut ranges: Vec<SlotRange> = ranges.collect();
    ranges.sort_by_key(|r| r.start);
    let mut gaps = Vec::new();
    let mut cursor = 0usize;
    for r in ranges {
        if r.start > cursor {
            gaps.push(SlotRange::new(cursor, r.start - cursor));
        }
        cursor = cursor.max(r.end());
    }
    if cursor < total {
        gaps.push(SlotRange::new(cursor, total - cursor));
    }
    gaps
}

fn reference_best_fit(width: usize, total: usize, running: &[RunningView]) -> Option<SlotRange> {
    let w = width.clamp(1, total);
    reference_gaps(total, running.iter().map(|r| r.slots))
        .into_iter()
        .filter(|g| g.count >= w)
        .min_by_key(|g| (g.count, g.start))
        .map(|g| SlotRange::new(g.start, w))
}

fn reference_pick_gang(
    pending: &[PendingView],
    total: usize,
    running: &[RunningView],
) -> Option<(usize, SlotRange)> {
    pending
        .iter()
        .enumerate()
        .find_map(|(i, p)| reference_best_fit(p.width, total, running).map(|r| (i, r)))
}

fn reference_pick_priority(
    pending: &[PendingView],
    total: usize,
    running: &[RunningView],
) -> Option<(usize, SlotRange)> {
    let mut order: Vec<usize> = (0..pending.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(pending[i].class));
    order
        .into_iter()
        .find_map(|i| reference_best_fit(pending[i].width, total, running).map(|r| (i, r)))
}

fn reference_victim(
    class: usize,
    width: usize,
    total: usize,
    running: &[RunningView],
) -> Option<JobId> {
    let survivors: Vec<RunningView> = running
        .iter()
        .filter(|r| r.class >= class)
        .copied()
        .collect();
    reference_best_fit(width, total, &survivors)?;
    running
        .iter()
        .filter(|r| r.class < class)
        .min_by(|a, b| {
            a.class
                .cmp(&b.class)
                .then(b.started.partial_cmp(&a.started).unwrap())
                .then(b.job.cmp(&a.job))
        })
        .map(|r| r.job)
}

/// One generated cluster occupancy: `(gap before, run width, class, start
/// time in eighths)` per run, laid out left to right, plus an optional
/// phantom blocked range `(start, len)` that may overlap a run (a draining
/// slot still held by its occupant).
type Occupancy = (Vec<(usize, usize, usize, u32)>, Option<(usize, usize)>);

fn arb_occupancy() -> impl Strategy<Value = Occupancy> {
    (
        prop::collection::vec((0usize..6, 1usize..12, 0usize..3, 0u32..64), 0..=12),
        (any::<bool>(), 0usize..64, 1usize..8),
    )
        .prop_map(|(runs, (blocked, start, len))| (runs, blocked.then_some((start, len))))
}

/// Lays the generated runs out on a cluster, returning the total slot count
/// and the views sorted by slot start (the order the engine passes).
fn lay_out(
    runs: &[(usize, usize, usize, u32)],
    phantom: Option<(usize, usize)>,
    tail: usize,
) -> (usize, Vec<RunningView>) {
    let mut views = Vec::new();
    let mut cursor = 0usize;
    for (i, &(gap, width, class, started)) in runs.iter().enumerate() {
        cursor += gap;
        views.push(RunningView {
            job: JobId(i as u64),
            class,
            slots: SlotRange::new(cursor, width),
            started: SimTime::from_secs(f64::from(started) / 8.0),
        });
        cursor += width;
    }
    let total = (cursor + tail).max(1);
    if let Some((start, len)) = phantom {
        let start = start % total;
        views.push(RunningView {
            job: BLOCKED_SLOT_JOB,
            class: BLOCKED_SLOT_CLASS,
            slots: SlotRange::new(start, len.min(total - start)),
            started: SimTime::ZERO,
        });
    }
    views.sort_by_key(|v| (v.slots.start, v.job));
    (total, views)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The shipped policies answer exactly as the allocating reference does,
    /// on the slot-ordered views the engine maintains *and* on any other
    /// order (here: reversed and rotated), so keeping the views sorted in
    /// place changes no placement, backfill pick or victim.
    #[test]
    fn scheduler_decisions_match_reference_in_any_view_order(
        (runs, phantom) in arb_occupancy(),
        tail in 0usize..16,
        rotate in 0usize..16,
        width in 1usize..80,
        class in 0usize..3,
        pending in prop::collection::vec((0usize..3, 1usize..24), 0..=6),
    ) {
        let (total, sorted) = lay_out(&runs, phantom, tail);
        let mut reversed = sorted.clone();
        reversed.reverse();
        let mut rotated = sorted.clone();
        if !rotated.is_empty() {
            let k = rotate % rotated.len();
            rotated.rotate_left(k);
        }
        let pending: Vec<PendingView> = pending
            .iter()
            .enumerate()
            .map(|(i, &(class, width))| PendingView {
                job: JobId(100 + i as u64),
                class,
                width,
            })
            .collect();

        let place = reference_best_fit(width, total, &sorted);
        let gang = reference_pick_gang(&pending, total, &sorted);
        let prio = reference_pick_priority(&pending, total, &sorted);
        let victim = reference_victim(class, width, total, &sorted);
        for views in [&sorted, &reversed, &rotated] {
            prop_assert_eq!(GangBinPack.place(class, width, total, views), place);
            prop_assert_eq!(PriorityPreempt.place(class, width, total, views), place);
            prop_assert_eq!(GangBinPack.pick_next(&pending, total, views), gang);
            prop_assert_eq!(PriorityPreempt.pick_next(&pending, total, views), prio);
            prop_assert_eq!(PriorityPreempt.victim(class, width, total, views), victim);
            prop_assert_eq!(
                Fifo.place(class, width, total, views),
                views.is_empty().then(|| SlotRange::new(0, total))
            );
        }
    }
}
