//! Golden event trace pinning `ClusterSim` semantics across refactors.
//!
//! The trace below was captured from the PR 2 engine (tombstoning
//! `BinaryHeap` event queue, cancel+repush on every DVFS switch) and every
//! line — event times, event kinds and payloads, and the energy meter —
//! is compared *textually at full float precision*, so the indexed-calendar
//! engine must reproduce the old behaviour bit for bit. Same discipline as
//! `stochastic/tests/golden_streams.rs`.
//!
//! The scenario deliberately crosses every rescheduling path: variable task
//! times (out-of-order completions), a mid-stage sprint and a later return
//! to base frequency (in-flight work rescaling), an eviction mid-wave
//! (outright cancellation of all pending completions), and a second job
//! driven to completion while sprinting.
//!
//! The drivers use the engine's general calls: `submit_job` on an idle
//! `Fifo` cluster, `evict_job`, and `set_job_frequency` on every running job
//! for the whole-cluster switch (a job that sprints from dispatch is
//! switched at its submission instant, which accrues nothing at base).
//!
//! To re-capture after an *intentional* semantic change, run
//! `DIAS_GOLDEN_PRINT=1 cargo test -p dias-engine --test golden_trace -- --nocapture`
//! and replace `EXPECTED` with the printed literals.

use dias_engine::{
    ClusterSim, ClusterSpec, FreqLevel, GangBinPack, JobId, JobInstance, JobSpec, PriorityPreempt,
    StageKind, StageSpec,
};
use dias_stochastic::Dist;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn variable_job(id: u64, seed: u64) -> JobInstance {
    variable_job_class(id, seed, 0)
}

fn variable_job_class(id: u64, seed: u64, class: usize) -> JobInstance {
    let spec = JobSpec::builder(id, class)
        .input_mb(473.0)
        .setup(Dist::uniform(8.0, 12.0))
        .shuffle(Dist::uniform(4.0, 6.0))
        .stage(StageSpec::new(StageKind::Map, 23, Dist::uniform(5.0, 20.0)))
        .stage(StageSpec::new(
            StageKind::Reduce,
            6,
            Dist::uniform(3.0, 9.0),
        ))
        .build();
    let mut rng = StdRng::seed_from_u64(seed);
    JobInstance::sample(&spec, &mut rng)
}

/// Switches every running job's frequency domain to `freq`, in dispatch
/// order (the order fixes calendar tie-breaks): the paper's whole-cluster
/// sprint switch.
fn set_all(sim: &mut ClusterSim, freq: FreqLevel) {
    for job in sim.running_jobs() {
        sim.set_job_frequency(job, freq).unwrap();
    }
}

/// Drives the scenario and renders one line per observation.
fn drive() -> Vec<String> {
    let mut sim = ClusterSim::new(ClusterSpec::paper_reference());
    let mut log = Vec::new();
    fn record(log: &mut Vec<String>, tag: &str, sim: &ClusterSim) {
        log.push(format!(
            "{tag} t={:?} e={:?}",
            sim.now().as_secs(),
            sim.energy_joules()
        ));
    }

    sim.submit_job(&variable_job(1, 11), &[0.1, 0.0]).unwrap();
    record(&mut log, "start1", &sim);

    // Advance with a sprint window [step 5, step 17) and evict at step 23.
    for step in 0..23 {
        if step == 5 {
            set_all(&mut sim, FreqLevel::Sprint);
            record(&mut log, "sprint-on", &sim);
        }
        if step == 17 {
            set_all(&mut sim, FreqLevel::Base);
            record(&mut log, "sprint-off", &sim);
        }
        let ev = sim.advance().unwrap();
        log.push(format!("ev {:?} e={:?}", ev, sim.energy_joules()));
    }
    let evicted = sim.evict_job(JobId(1)).unwrap();
    log.push(format!(
        "evicted wall={:?} work={:?} sprint={:?} e={:?}",
        evicted.wall_secs,
        evicted.work_secs,
        evicted.sprint_secs,
        sim.energy_joules()
    ));

    // Second job runs entirely at sprint frequency to completion.
    record(&mut log, "sprint-on-2", &sim);
    sim.submit_job(&variable_job(2, 12), &[0.0, 0.5]).unwrap();
    sim.set_job_frequency(JobId(2), FreqLevel::Sprint).unwrap();
    record(&mut log, "start2", &sim);
    loop {
        let ev = sim.advance().unwrap();
        let done = matches!(ev, dias_engine::EngineEvent::JobFinished { .. });
        log.push(format!("ev {:?} e={:?}", ev, sim.energy_joules()));
        if done {
            break;
        }
    }
    record(&mut log, "end", &sim);
    log
}

#[test]
fn cluster_sim_trace_is_bit_identical_to_pr2_engine() {
    let lines = drive();
    if std::env::var("DIAS_GOLDEN_PRINT").is_ok() {
        for l in &lines {
            println!("    {l:?},");
        }
    }
    assert_eq!(
        lines.len(),
        EXPECTED.len(),
        "trace length changed: got {} lines, expected {}",
        lines.len(),
        EXPECTED.len()
    );
    for (i, (got, want)) in lines.iter().zip(EXPECTED).enumerate() {
        assert_eq!(got, want, "trace diverges at line {i}");
    }
}

const EXPECTED: &[&str] = &[
    "start1 t=0.0 e=0.0",
    "ev SetupFinished { job: JobId(1) } e=7979.111051788222",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 20 } e=18331.65138614626",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 19 } e=20717.865523930177",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 18 } e=21431.075554743995",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 17 } e=23404.666133020724",
    "sprint-on t=17.081123595311826 e=23404.666133020724",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 16 } e=23634.30696270637",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 15 } e=23804.955289176978",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 14 } e=25054.086543499106",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 13 } e=26425.976342565995",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 12 } e=26543.971044116435",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 11 } e=27274.07162728742",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 10 } e=28139.834770816113",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 9 } e=28720.96032684103",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 8 } e=28933.084432487874",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 7 } e=29184.73287344183",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 6 } e=29467.75593501705",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 5 } e=29817.06510530748",
    "sprint-off t=20.352465384469273 e=29817.06510530748",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 4 } e=30459.69384816355",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 3 } e=30686.68340530325",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 2 } e=30707.119193212682",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 1 } e=31396.766212142593",
    "ev StageFinished { job: JobId(1), stage: 0 } e=31600.11026436263",
    "ev ShuffleFinished { job: JobId(1), next_stage: 1 } e=36788.64077867759",
    "evicted wall=27.55591169459153 work=285.6748465345884 sprint=3.2713417891574466 e=36788.64077867759",
    "sprint-on-2 t=27.55591169459153 e=36788.64077867759",
    "start2 t=27.55591169459153 e=36788.64077867759",
    "ev SetupFinished { job: JobId(2) } e=41108.965405297284",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 22 } e=46830.318249192685",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 21 } e=47044.33694837683",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 20 } e=47494.179097094086",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 19 } e=48222.44892487449",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 18 } e=48909.798797554766",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 17 } e=49392.798541134776",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 16 } e=49652.023995874304",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 15 } e=52052.514758208985",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 14 } e=52418.94670777875",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 13 } e=52770.63390414031",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 12 } e=53168.70076801987",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 11 } e=53684.93215255015",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 10 } e=53969.12004163696",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 9 } e=54008.0644328488",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 8 } e=54404.202127342876",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 7 } e=54770.87616721479",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 6 } e=55772.207526872604",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 5 } e=56426.992603785875",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 4 } e=57077.93465040494",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 3 } e=57087.86041353559",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 2 } e=57721.53465310252",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 1 } e=59658.19296851458",
    "ev StageFinished { job: JobId(2), stage: 0 } e=59733.329199763066",
    "ev ShuffleFinished { job: JobId(2), next_stage: 1 } e=61821.288749086816",
    "ev TaskFinished { job: JobId(2), stage: 1, tasks_left: 2 } e=63590.50198765181",
    "ev TaskFinished { job: JobId(2), stage: 1, tasks_left: 1 } e=63689.52547741921",
    "ev JobFinished { job: JobId(2), metrics: JobRunMetrics { execution_secs: 17.737863164511275, work_secs: 304.35586269874386, sprint_secs: 17.737863164511275, tasks_run: 26, tasks_dropped: 3 } } e=63709.52868389253",
    "end t=45.293774859102804 e=63709.52868389253",
];

/// Drives the multi-job preemption scenario under `PriorityPreempt`: a
/// low-class job is evicted mid-stage by a high-class arrival (through its
/// calendar handles — the other job's events must stay put), the high job
/// runs partly at sprint frequency, and the victim re-dispatches from the
/// engine's pending queue and re-executes from scratch (repeat-identical).
/// Per-job energy attribution is recorded at the end.
fn drive_preempt() -> Vec<String> {
    let mut sim =
        ClusterSim::with_scheduler(ClusterSpec::paper_reference(), Box::new(PriorityPreempt))
            .unwrap();
    let mut log = Vec::new();

    let low = variable_job_class(1, 11, 0);
    let sub = sim.submit_job(&low, &[0.1, 0.0]).unwrap();
    log.push(format!(
        "submit-low {:?} t={:?} e={:?}",
        sub,
        sim.now().as_secs(),
        sim.energy_joules()
    ));

    // Setup + five task completions: the low job is mid-stage-0.
    for _ in 0..6 {
        let ev = sim.advance().unwrap();
        log.push(format!("ev {:?} e={:?}", ev, sim.energy_joules()));
    }

    // High-class arrival needs the whole cluster: the low job is preempted.
    let high = variable_job_class(2, 12, 1);
    let sub = sim.submit_job(&high, &[0.0, 0.0]).unwrap();
    log.push(format!(
        "submit-high {:?} t={:?} pending={} e={:?}",
        sub,
        sim.now().as_secs(),
        sim.pending_jobs(),
        sim.energy_joules()
    ));
    log.push(format!(
        "running {:?} assignments {:?}",
        sim.running_jobs(),
        sim.assignments()
    ));

    // Sprint for a stretch of the high job's stage 0, then back to base.
    let mut steps = 0;
    while !sim.is_idle() {
        if steps == 8 {
            set_all(&mut sim, FreqLevel::Sprint);
            log.push(format!(
                "sprint-on t={:?} e={:?}",
                sim.now().as_secs(),
                sim.energy_joules()
            ));
        }
        if steps == 16 {
            set_all(&mut sim, FreqLevel::Base);
            log.push(format!(
                "sprint-off t={:?} e={:?}",
                sim.now().as_secs(),
                sim.energy_joules()
            ));
        }
        let ev = sim.advance().unwrap();
        let finished = matches!(ev, dias_engine::EngineEvent::JobFinished { .. });
        log.push(format!("ev {:?} e={:?}", ev, sim.energy_joules()));
        if finished {
            log.push(format!("running-after-finish {:?}", sim.running_jobs()));
        }
        steps += 1;
    }

    for id in [1u64, 2] {
        let e = sim.job_energy(JobId(id)).unwrap();
        log.push(format!(
            "job{id} active={:?} busy_slot_secs={:?} sprint_slot_secs={:?}",
            e.active_joules, e.busy_slot_secs, e.sprint_slot_secs
        ));
    }
    log.push(format!(
        "end t={:?} e={:?}",
        sim.now().as_secs(),
        sim.energy_joules()
    ));
    log
}

#[test]
fn priority_preempt_trace_is_pinned() {
    let lines = drive_preempt();
    if std::env::var("DIAS_GOLDEN_PRINT").is_ok() {
        for l in &lines {
            println!("    {l:?},");
        }
    }
    assert_eq!(
        lines.len(),
        EXPECTED_PREEMPT.len(),
        "trace length changed: got {} lines, expected {}",
        lines.len(),
        EXPECTED_PREEMPT.len()
    );
    for (i, (got, want)) in lines.iter().zip(EXPECTED_PREEMPT).enumerate() {
        assert_eq!(got, want, "preempt trace diverges at line {i}");
    }
}

/// A narrow job (8-map/4-reduce or 6-map/3-reduce) so two gangs coexist on
/// the 20-slot cluster.
fn narrow_variable_job(id: u64, seed: u64, class: usize, map_tasks: usize) -> JobInstance {
    let spec = JobSpec::builder(id, class)
        .input_mb(200.0)
        .setup(Dist::uniform(3.0, 5.0))
        .shuffle(Dist::uniform(2.0, 3.0))
        .stage(StageSpec::new(
            StageKind::Map,
            map_tasks,
            Dist::uniform(8.0, 24.0),
        ))
        .stage(StageSpec::new(
            StageKind::Reduce,
            map_tasks / 2,
            Dist::uniform(3.0, 9.0),
        ))
        .build();
    let mut rng = StdRng::seed_from_u64(seed);
    JobInstance::sample(&spec, &mut rng)
}

/// Drives the per-gang frequency-domain scenario under `GangBinPack`: a
/// low-class 8-wide gang and a high-class 6-wide gang run side by side; the
/// high job's *own domain* sprints mid-stage (`set_job_frequency`) while the
/// low gang stays at base frequency, and a driver-emulated budget exhaustion
/// later drops the high domain back to base mid-flight. Domain levels and
/// per-job energy attributions are logged alongside every event.
fn drive_domains() -> Vec<String> {
    let mut sim =
        ClusterSim::with_scheduler(ClusterSpec::paper_reference(), Box::new(GangBinPack)).unwrap();
    let mut log = Vec::new();

    let low = narrow_variable_job(1, 21, 0, 8);
    let high = narrow_variable_job(2, 22, 1, 6);
    let sub = sim.submit_job(&low, &[0.0, 0.0]).unwrap();
    log.push(format!("submit-low {sub:?} t={:?}", sim.now().as_secs()));
    let sub = sim.submit_job(&high, &[0.0, 0.0]).unwrap();
    log.push(format!("submit-high {sub:?} t={:?}", sim.now().as_secs()));

    let freqs = |sim: &ClusterSim| {
        format!(
            "low={:?} high={:?}",
            sim.job_frequency(JobId(1)),
            sim.job_frequency(JobId(2)),
        )
    };

    let mut steps = 0;
    while !sim.is_idle() {
        // Mid-stage: the high job's domain sprints alone.
        if steps == 6 {
            sim.set_job_frequency(JobId(2), FreqLevel::Sprint).unwrap();
            log.push(format!(
                "sprint-high-on t={:?} {} e={:?}",
                sim.now().as_secs(),
                freqs(&sim),
                sim.energy_joules()
            ));
        }
        // Budget exhausted (driver-emulated): the sprinting domain stops.
        if steps == 12 {
            sim.set_job_frequency(JobId(2), FreqLevel::Base).unwrap();
            log.push(format!(
                "budget-exhausted t={:?} {} e={:?}",
                sim.now().as_secs(),
                freqs(&sim),
                sim.energy_joules()
            ));
        }
        let ev = sim.advance().unwrap();
        log.push(format!("ev {:?} e={:?}", ev, sim.energy_joules()));
        steps += 1;
    }

    for id in [1u64, 2] {
        let e = sim.job_energy(JobId(id)).unwrap();
        log.push(format!(
            "job{id} active={:?} busy_slot_secs={:?} sprint_slot_secs={:?}",
            e.active_joules, e.busy_slot_secs, e.sprint_slot_secs
        ));
    }
    log.push(format!(
        "end t={:?} e={:?}",
        sim.now().as_secs(),
        sim.energy_joules()
    ));
    log
}

#[test]
fn per_gang_sprint_trace_is_pinned() {
    let lines = drive_domains();
    if std::env::var("DIAS_GOLDEN_PRINT").is_ok() {
        for l in &lines {
            println!("    {l:?},");
        }
    }
    assert_eq!(
        lines.len(),
        EXPECTED_DOMAINS.len(),
        "trace length changed: got {} lines, expected {}",
        lines.len(),
        EXPECTED_DOMAINS.len()
    );
    for (i, (got, want)) in lines.iter().zip(EXPECTED_DOMAINS).enumerate() {
        assert_eq!(got, want, "domain trace diverges at line {i}");
    }
}

const EXPECTED_PREEMPT: &[&str] = &[
    "submit-low Dispatched { slots: SlotRange { start: 0, count: 20 } } t=0.0 e=0.0",
    "ev SetupFinished { job: JobId(1) } e=7979.111051788222",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 20 } e=18331.65138614626",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 19 } e=20717.865523930177",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 18 } e=21431.075554743995",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 17 } e=23404.666133020724",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 16 } e=23798.03236905632",
    "submit-high Preempted { slots: SlotRange { start: 0, count: 20 }, evicted: [(JobId(1), EvictedWork { wall_secs: 17.317379592930802, work_secs: 182.49757189819107, sprint_secs: 0.0 })] } t=17.317379592930802 pending=1 e=23798.03236905632",
    "running [JobId(2)] assignments [(JobId(2), SlotRange { start: 0, count: 20 })]",
    "ev SetupFinished { job: JobId(2) } e=34107.89795530786",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 22 } e=43643.48602846687",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 21 } e=44000.183860440455",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 20 } e=44749.92077496921",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 19 } e=45963.70382126987",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 18 } e=47119.16265896517",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 17 } e=47938.53722396696",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 16 } e=48382.580826993006",
    "sprint-on t=36.21808945168813 e=48382.580826993006",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 15 } e=50783.07158932769",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 14 } e=51149.50353889745",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 13 } e=51501.19073525901",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 12 } e=51899.257599138575",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 11 } e=52415.48898366885",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 10 } e=52699.67687275566",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 9 } e=52738.6212639675",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 8 } e=53134.75895846158",
    "sprint-off t=38.42630195565115 e=53134.75895846158",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 7 } e=53847.7362582125",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 6 } e=55835.6735163567",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 5 } e=57165.705703836786",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 4 } e=58521.834967626506",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 3 } e=58543.10446004934",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 2 } e=59944.499412937745",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 1 } e=64382.67471909037",
    "ev StageFinished { job: JobId(2), stage: 0 } e=64561.97708911517",
    "ev ShuffleFinished { job: JobId(2), next_stage: 1 } e=69544.60783181958",
    "ev TaskFinished { job: JobId(2), stage: 1, tasks_left: 5 } e=73967.64092823207",
    "ev TaskFinished { job: JobId(2), stage: 1, tasks_left: 4 } e=74225.51459950132",
    "ev TaskFinished { job: JobId(2), stage: 1, tasks_left: 3 } e=74280.06879897401",
    "ev TaskFinished { job: JobId(2), stage: 1, tasks_left: 2 } e=74970.56385924587",
    "ev TaskFinished { job: JobId(2), stage: 1, tasks_left: 1 } e=77549.04300755193",
    "ev JobFinished { job: JobId(2), metrics: JobRunMetrics { execution_secs: 45.179252326216755, work_secs: 324.6219033033813, sprint_secs: 2.2082125039630185, tasks_run: 29, tasks_dropped: 0 } } e=78376.1483918281",
    "running-after-finish [JobId(1)]",
    "ev SetupFinished { job: JobId(1) } e=86355.25944361632",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 20 } e=96707.79977797435",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 19 } e=99094.01391575827",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 18 } e=99807.22394657208",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 17 } e=101780.81452484881",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 16 } e=102174.18076088442",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 15 } e=102469.53363362202",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 14 } e=104655.51332868573",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 13 } e=107084.90151453335",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 12 } e=107296.52244666187",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 11 } e=108623.97805242728",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 10 } e=110221.51718631953",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 9 } e=111311.12760386625",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 8 } e=111715.8380685872",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 7 } e=112205.15448155323",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 6 } e=112767.03850085697",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 5 } e=113476.57275300939",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 4 } e=114119.20149586546",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 3 } e=114346.19105300515",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 2 } e=114366.6268409146",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 1 } e=115056.27385984451",
    "ev StageFinished { job: JobId(1), stage: 0 } e=115259.61791206454",
    "ev ShuffleFinished { job: JobId(1), next_stage: 1 } e=120448.1484263795",
    "ev TaskFinished { job: JobId(1), stage: 1, tasks_left: 5 } e=125469.62351690952",
    "ev TaskFinished { job: JobId(1), stage: 1, tasks_left: 4 } e=127383.13739454965",
    "ev TaskFinished { job: JobId(1), stage: 1, tasks_left: 3 } e=128618.57209605764",
    "ev TaskFinished { job: JobId(1), stage: 1, tasks_left: 2 } e=128620.9940651822",
    "ev TaskFinished { job: JobId(1), stage: 1, tasks_left: 1 } e=128715.48813476533",
    "ev JobFinished { job: JobId(1), metrics: JobRunMetrics { execution_secs: 40.19891810063497, work_secs: 325.20563216229993, sprint_secs: 0.0, tasks_run: 27, tasks_dropped: 2 } } e=129189.42812970304",
    "running-after-finish []",
    "job1 active=14634.2534473035 busy_slot_secs=325.20563216230005 sprint_slot_secs=0.0",
    "job2 active=13916.788929176695 busy_slot_secs=278.54212200501706 sprint_slot_secs=30.719854198909402",
    "end t=102.69555001978253 e=129189.42812970304",
];

/// Captured from the first per-gang-domain engine (PR 5) via
/// `DIAS_GOLDEN_PRINT=1`; pins `set_job_frequency` semantics — only the
/// target domain rescales, the neighbour gang's completions and the exact
/// per-job energy split are untouched.
const EXPECTED_DOMAINS: &[&str] = &[
    "submit-low Dispatched { slots: SlotRange { start: 0, count: 8 } } t=0.0",
    "submit-high Dispatched { slots: SlotRange { start: 8, count: 6 } } t=0.0",
    "ev SetupFinished { job: JobId(2) } e=3536.0319870083326",
    "ev SetupFinished { job: JobId(1) } e=3768.7129061813293",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 7 } e=16371.989675687699",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 6 } e=16927.179253232745",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 5 } e=18613.136840704683",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 4 } e=18752.215557344272",
    "sprint-high-on t=13.645059128582355 low=Some(Base) high=Some(Sprint) e=18752.215557344272",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 5 } e=18902.463822745533",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 4 } e=22225.15936890846",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 3 } e=22668.256814326774",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 2 } e=23794.206472575344",
    "ev TaskFinished { job: JobId(2), stage: 0, tasks_left: 1 } e=24194.853082707596",
    "ev StageFinished { job: JobId(2), stage: 0 } e=25738.934524302542",
    "budget-exhausted t=18.7602105986983 low=Some(Base) high=Some(Base) e=25738.934524302542",
    "ev ShuffleFinished { job: JobId(2), next_stage: 1 } e=28298.077778485705",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 3 } e=29499.896260454036",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 2 } e=30873.761998461432",
    "ev TaskFinished { job: JobId(1), stage: 0, tasks_left: 1 } e=32767.15337126815",
    "ev StageFinished { job: JobId(1), stage: 0 } e=33263.572167714",
    "ev TaskFinished { job: JobId(2), stage: 1, tasks_left: 2 } e=34517.15821822273",
    "ev TaskFinished { job: JobId(2), stage: 1, tasks_left: 1 } e=34684.052694877304",
    "ev ShuffleFinished { job: JobId(1), next_stage: 1 } e=35789.95053722864",
    "ev JobFinished { job: JobId(2), metrics: JobRunMetrics { execution_secs: 29.25769225217771, work_secs: 123.08280828790001, sprint_secs: 5.115151470115945, tasks_run: 9, tasks_dropped: 0 } } e=37452.23228260696",
    "ev TaskFinished { job: JobId(1), stage: 1, tasks_left: 3 } e=42766.91993464329",
    "ev TaskFinished { job: JobId(1), stage: 1, tasks_left: 2 } e=42839.20240050465",
    "ev TaskFinished { job: JobId(1), stage: 1, tasks_left: 1 } e=43907.18621740672",
    "ev JobFinished { job: JobId(1), metrics: JobRunMetrics { execution_secs: 35.51325370093677, work_secs: 153.78792512649125, sprint_secs: 0.0, tasks_run: 12, tasks_dropped: 0 } } e=44082.90395895294",
    "job1 active=6920.456630692108 busy_slot_secs=153.78792512649127 sprint_slot_secs=0.0",
    "job2 active=5200.51899741774 busy_slot_secs=100.53564991871612 sprint_slot_secs=15.031438912789241",
    "end t=35.51325370093677 e=44082.90395895294",
];
