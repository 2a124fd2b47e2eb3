//! Criterion micro-benchmarks of the core data structures and solvers.
//!
//! These track the performance of the pieces every experiment leans on: the event
//! queue, PH-distribution algebra and CDF evaluation, the priority-queue solvers,
//! the Monte-Carlo model evaluator and the engine simulator itself.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use dias_des::{EventQueue, SimTime};
use dias_engine::{ClusterSim, ClusterSpec, EngineEvent, JobInstance};
use dias_linalg::{sum, Uniformized};
use dias_models::mc::{Discipline, McQueue};
use dias_models::priority::{mph1_waiting_ph, non_preemptive_means, ClassInput};
use dias_models::TaskLevelModel;
use dias_stochastic::{DiscreteDist, MarkedPoisson, Ph, PhSampler};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue/push_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1000u64 {
                q.push(SimTime::from_secs((i % 97) as f64), i);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum += v;
            }
            black_box(sum)
        });
    });

    // Cancel-heavy churn: the engine's eviction/DVFS pattern — every other
    // event is cancelled before it can fire.
    c.bench_function("event_queue/push_pop_cancel50_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let handles: Vec<_> = (0..1000u64)
                .map(|i| q.push(SimTime::from_secs((i % 97) as f64), i))
                .collect();
            for h in handles.iter().step_by(2) {
                q.cancel(*h);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum += v;
            }
            black_box(sum)
        });
    });

    // Decrease/increase-key churn: every pending event is rescheduled once
    // (the DVFS rescale pattern).
    c.bench_function("event_queue/reschedule_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let handles: Vec<_> = (0..1000u64)
                .map(|i| q.push(SimTime::from_secs((i % 97) as f64), i))
                .collect();
            for (i, h) in handles.iter().enumerate() {
                q.reschedule(*h, SimTime::from_secs(((i as u64 * 31) % 113) as f64));
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum += v;
            }
            black_box(sum)
        });
    });

    // Task hand-off: a finished task's calendar entry goes to the next task
    // of its stage, 1000 times per iteration, at the depth of the paper's
    // 20-slot cluster running one job (the engine's commonest event).
    c.bench_function("event_queue/task_chain_20", |b| {
        let mut q = EventQueue::new();
        for i in 0..20u64 {
            q.push(SimTime::from_secs(i as f64), i);
        }
        let mut next = 20u64;
        b.iter(|| {
            for _ in 0..1000 {
                let (t, _, _) = q.peek().expect("the chain never empties");
                q.replace_top(t + ((next * 37) % 23 + 1) as f64, next);
                next += 1;
            }
            black_box(q.peek_time())
        });
    });
}

fn bench_workloads(c: &mut Criterion) {
    use dias_core::JobSource;
    // One arrival of the paper's reference workload: 62 lognormal draws
    // (setup, shuffle, 50 map and 10 reduce tasks) plus the arrival itself.
    let mut stream = dias_workloads::reference_two_priority(0.8, 42);
    c.bench_function("workloads/next_job/reference_two_priority", |b| {
        b.iter(|| stream.next_job());
    });
}

fn bench_faults(c: &mut Criterion) {
    // The contended soak's crash/repair schedule (20 slots, MTBF 2400 s,
    // MTTR 150 s) over a tenth of its 1M-job horizon: about 180k events
    // drawn per slot and merged in time order, read through a cursor as the
    // driver reads it.
    c.bench_function("faults/slot_failure_trace/20slots", |b| {
        b.iter(|| {
            dias_workloads::slot_failure_trace(20, 1.15e7, 2_400.0, 150.0, 1009)
                .cursor()
                .count()
        });
    });
}

fn bench_stats(c: &mut Criterion) {
    use dias_des::stats::{SampleStats, StreamingSummary};
    use rand::{Rng, SeedableRng};
    // One push into a long-lived soak summary at ε = 0.001 (every 500th
    // push sorts the insert buffer and folds it into the sketch), cycling
    // through lognormal response times.
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let xs: Vec<f64> = (0..4096)
        .map(|_| {
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.gen();
            (1.5 * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()).exp()
        })
        .collect();
    let mut summary = StreamingSummary::with_epsilon(0.001);
    for i in 0..100_000 {
        summary.push(xs[i % xs.len()]);
    }
    let mut next = 0;
    c.bench_function("stats/streaming_summary/push_eps0.001", |b| {
        b.iter(|| {
            summary.push(xs[next % xs.len()]);
            next += 1;
        });
    });
}

fn bench_ph(c: &mut Criterion) {
    let erl = Ph::erlang(8, 2.0).unwrap();
    let hyper = Ph::hyperexponential(&[0.4, 0.6], &[1.0, 5.0]).unwrap();
    c.bench_function("ph/convolve_8x2", |b| {
        b.iter(|| black_box(erl.convolve(&hyper)));
    });
    let job = erl.convolve(&hyper);
    c.bench_function("ph/cdf_order10", |b| {
        b.iter(|| black_box(job.cdf(black_box(3.0))));
    });
    c.bench_function("ph/moments_order10", |b| {
        b.iter(|| black_box(job.moment(2)));
    });
}

/// The pre-`PhEvaluator` quantile: mean-based doubling bracket plus
/// bisection, with every CDF probe paying a full uncached `expm_action`.
/// Kept here as the "before" side of the `ph/quantile_order10` comparison.
fn quantile_uncached(ph: &Ph, q: f64) -> f64 {
    let uncached_cdf = |t: f64| 1.0 - sum(&ph.matrix().expm_action(ph.alpha(), t)).clamp(0.0, 1.0);
    let mut hi = ph.mean().max(1e-9);
    while uncached_cdf(hi) < q {
        hi *= 2.0;
        if hi > 1e12 {
            return hi;
        }
    }
    let mut lo = 0.0;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if uncached_cdf(mid) < q {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-9 * hi.max(1.0) {
            break;
        }
    }
    0.5 * (lo + hi)
}

fn bench_uniformization_cache(c: &mut Criterion) {
    let erl = Ph::erlang(8, 2.0).unwrap();
    let hyper = Ph::hyperexponential(&[0.4, 0.6], &[1.0, 5.0]).unwrap();
    let job = erl.convolve(&hyper);

    // expm_action: rebuild P per call vs the precomputed operator.
    c.bench_function("ph/expm_action_order10_uncached", |b| {
        b.iter(|| black_box(job.matrix().expm_action(job.alpha(), black_box(3.0))));
    });
    let mut op = Uniformized::new(job.matrix());
    let mut out = vec![0.0; job.order()];
    c.bench_function("ph/expm_action_order10_cached", |b| {
        b.iter(|| {
            op.apply_into(job.alpha(), black_box(3.0), &mut out);
            black_box(out[0])
        });
    });

    // Quantile: the repeated-CDF path the deflators and figures lean on.
    c.bench_function("ph/quantile_order10_uncached", |b| {
        b.iter(|| black_box(quantile_uncached(&job, black_box(0.95))));
    });
    c.bench_function("ph/quantile_order10", |b| {
        b.iter(|| black_box(job.quantile(black_box(0.95))));
    });

    // Grid evaluation from one shared cache.
    let grid: Vec<f64> = (1..=20).map(|i| 0.5 * f64::from(i)).collect();
    let mut ev = job.evaluator();
    c.bench_function("ph/sf_grid_20pts_order10", |b| {
        b.iter(|| black_box(ev.sf_grid(black_box(&grid))));
    });
}

fn bench_sampling(c: &mut Criterion) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let ph = Ph::erlang(3, 3.0 / 147.0).unwrap();

    // The pre-`PhSampler` walk: exit vector reallocated on every draw and the
    // sub-generator indexed per transition.
    c.bench_function("ph/sample_walk_alloc", |b| {
        let mut rng = StdRng::seed_from_u64(7);
        b.iter(|| {
            let u: f64 = rng.gen();
            let mut acc = 0.0;
            let mut phase = usize::MAX;
            for (i, &p) in ph.alpha().iter().enumerate() {
                acc += p;
                if u < acc {
                    phase = i;
                    break;
                }
            }
            if phase == usize::MAX {
                return black_box(0.0);
            }
            let exit = ph.exit_vector(); // the per-draw allocation
            let a = ph.matrix();
            let mut time = 0.0;
            loop {
                let rate = -a[(phase, phase)];
                time += dias_stochastic::sample_exp(&mut rng, rate);
                let mut u = rng.gen::<f64>() * rate;
                if u < exit[phase] {
                    return black_box(time);
                }
                u -= exit[phase];
                let mut next = phase;
                for j in 0..ph.order() {
                    if j == phase {
                        continue;
                    }
                    let r = a[(phase, j)];
                    if u < r {
                        next = j;
                        break;
                    }
                    u -= r;
                }
                phase = next;
            }
        });
    });
    let sampler = PhSampler::new(&ph);
    c.bench_function("ph/sample_sampler", |b| {
        let mut rng = StdRng::seed_from_u64(7);
        b.iter(|| black_box(sampler.sample(&mut rng)));
    });
}

fn bench_sweep(c: &mut Criterion) {
    let point = |seed: u64| McQueue {
        arrivals: MarkedPoisson::new(vec![0.0045, 0.0005]).unwrap(),
        service: vec![
            Ph::erlang(3, 3.0 / 147.0).unwrap(),
            Ph::erlang(3, 3.0 / 126.0).unwrap(),
        ],
        sprint: vec![None, None],
        discipline: Discipline::NonPreemptive,
        servers: 1,
        jobs: 300,
        warmup: 50,
        seed,
    };
    let mut group = c.benchmark_group("sweep/mc_4pts");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        group.bench_function(&format!("{threads}t"), |b| {
            b.iter(|| {
                let points: Vec<McQueue> = (0..4).map(&point).collect();
                black_box(dias_core::run_parallel(points, threads, |_, q| {
                    q.run().expect("stable configuration").mean_response(0)
                }))
            });
        });
    }
    group.finish();
}

fn bench_branch_sweep(c: &mut Criterion) {
    use dias_core::sweep::{run_differential, run_multi_experiments_branch};
    use dias_core::{MultiJobExperiment, VecJobSource};
    use dias_engine::{GangBinPack, JobSpec, StageKind, StageSpec};
    use dias_stochastic::Dist;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    // A late-diverging theta sweep: every job runs three 8-task map stages
    // that all five thetas deflate to the same ⌈8(1−θ)⌉ = 6 kept tasks;
    // only job 96 (of 110 measured+warmup arrivals) draws a 40-task map,
    // where the grid splits ⌈40(1−θ)⌉ = 28/28/26/26/30. Three of the four
    // non-reference points therefore share ~7/8 of the reference prefix, and
    // the 0.32 point — identical everywhere — skips essentially the whole
    // run. The source is built once and cloned so the measurement is
    // simulation, not job sampling.
    let source = {
        let mut rng = StdRng::seed_from_u64(11);
        let jobs: Vec<JobInstance> = (0..120u64)
            .map(|i| {
                let mut builder = JobSpec::builder(i, 0)
                    .setup(Dist::constant(1.0))
                    .shuffle(Dist::constant(0.5));
                for stage in 0..3 {
                    let map_tasks = if i == 96 && stage == 0 { 40 } else { 8 };
                    builder = builder.stage(StageSpec::new(
                        StageKind::Map,
                        map_tasks,
                        Dist::exponential(2.0),
                    ));
                }
                let spec = builder
                    .stage(StageSpec::new(StageKind::Reduce, 4, Dist::constant(1.0)))
                    .build();
                let mut inst = JobInstance::sample(&spec, &mut rng);
                inst.arrival_secs = i as f64 * 6.0;
                inst
            })
            .collect();
        VecJobSource::new(jobs, 1)
    };
    let thetas: Vec<Vec<f64>> = [0.30, 0.32, 0.35, 0.37, 0.26]
        .iter()
        .map(|&t| vec![t])
        .collect();
    let base = || MultiJobExperiment::new(source.clone(), Box::new(GangBinPack)).jobs(100);

    let mut group = c.benchmark_group("sweep/branch");
    group.sample_size(10);
    group.bench_function("full_replay", |b| {
        b.iter(|| {
            black_box(
                run_differential(thetas.len(), 1, 1, |p, _| base().drops(&thetas[p]).run())
                    .expect("valid grid"),
            )
        });
    });
    // Stride 16 ⇒ 7 checkpoints over the 110-arrival run; a checkpoint clone
    // is O(outstanding state), so the stride must stay a constant *fraction*
    // of the run, not a constant count of arrivals.
    group.bench_function("suffix_replay", |b| {
        b.iter(|| {
            black_box(
                run_multi_experiments_branch(&thetas, 1, 1, 16, |_| base()).expect("valid grid"),
            )
        });
    });
    group.finish();
}

fn bench_task_level_model(c: &mut Criterion) {
    let model = TaskLevelModel {
        slots: 20,
        map_tasks: DiscreteDist::constant(50),
        reduce_tasks: DiscreteDist::constant(10),
        setup_rate: 1.0 / 12.0,
        map_task_rate: 1.0 / 35.0,
        shuffle_rate: 1.0 / 8.0,
        reduce_task_rate: 1.0 / 12.0,
        theta_map: 0.2,
        theta_reduce: 0.0,
    };
    c.bench_function("models/task_level_build_and_mean", |b| {
        b.iter(|| black_box(model.mean_processing_time().unwrap()));
    });
}

fn bench_priority_solvers(c: &mut Criterion) {
    let classes = [
        ClassInput {
            lambda: 0.004,
            mean_service: 147.0,
            second_moment: 147.0f64.powi(2) * 1.1,
        },
        ClassInput {
            lambda: 0.0005,
            mean_service: 126.0,
            second_moment: 126.0f64.powi(2) * 1.1,
        },
    ];
    c.bench_function("models/cobham_means", |b| {
        b.iter(|| black_box(non_preemptive_means(&classes).unwrap()));
    });
    let service = Ph::erlang(3, 3.0 / 147.0).unwrap();
    // The PH solver is fast enough (hundreds of nanoseconds) that the
    // default 30 samples left the regression gate flaky on a noisy runner;
    // a bigger sample pool tightens the median the gate compares.
    let mut group = c.benchmark_group("models");
    group.sample_size(120);
    group.bench_function("mph1_waiting_ph", |b| {
        b.iter(|| black_box(mph1_waiting_ph(0.005, &service).unwrap()));
    });
    group.finish();
}

fn bench_mc_queue(c: &mut Criterion) {
    // Arrival rates scale with the server count so every configuration runs
    // at the same per-server load (rho ≈ 0.72).
    let queue = |servers: usize| McQueue {
        arrivals: MarkedPoisson::new(vec![0.0045 * servers as f64, 0.0005 * servers as f64])
            .unwrap(),
        service: vec![
            Ph::erlang(3, 3.0 / 147.0).unwrap(),
            Ph::erlang(3, 3.0 / 126.0).unwrap(),
        ],
        sprint: vec![None, None],
        discipline: Discipline::NonPreemptive,
        servers,
        jobs: 2000,
        warmup: 200,
        seed: 1,
    };
    let mut group = c.benchmark_group("models/mc_queue");
    group.sample_size(10);
    let one = queue(1);
    group.bench_function("2k_jobs", |b| {
        b.iter(|| black_box(one.run().unwrap()));
    });
    for servers in [2usize, 4] {
        let q = queue(servers);
        group.bench_function(&format!("2k_jobs_{servers}srv"), |b| {
            b.iter(|| black_box(q.run().unwrap()));
        });
    }
    group.finish();
}

fn bench_wave_fit(c: &mut Criterion) {
    use dias_workloads::dataset_147;
    // The fig4/fig5 setup cost: 3000-makespan list-scheduling fits per stage
    // (1500 antithetic draw-vector pairs). This times the *uncached* fit; the
    // figure harnesses go through the memoizing `dias_bench::wave_model_for`,
    // which would reduce this loop to a cache lookup.
    let profile = dataset_147();
    let cluster = ClusterSpec::paper_reference();
    let spec = dias_bench::wave_fit_spec(&profile, &cluster);
    let mut group = c.benchmark_group("models/wave_fit");
    group.sample_size(10);
    group.bench_function("dataset147", |b| {
        b.iter(|| black_box(dias_models::wave_fit::wave_model_for(&spec, 0.2, 7)));
    });
    group.finish();
}

fn bench_engine(c: &mut Criterion) {
    use dias_workloads::dataset_147;
    let profile = dataset_147();
    let spec = profile.spec(0, 0);
    let mut rng: rand::rngs::StdRng = dias_des::SeedSequence::new(5).stream("bench");
    let instance = JobInstance::sample(&spec, &mut rng);
    let mut group = c.benchmark_group("engine");
    group.sample_size(20);
    group.bench_function("one_wordcount_job", |b| {
        b.iter(|| {
            let mut sim = ClusterSim::new(ClusterSpec::paper_reference());
            sim.submit_job(&instance, &[0.0, 0.0]).unwrap();
            loop {
                if let EngineEvent::JobFinished { metrics, .. } = sim.advance().unwrap() {
                    break black_box(metrics.execution_secs);
                }
            }
        });
    });
    group.finish();
}

fn bench_multi_job(c: &mut Criterion) {
    use dias_engine::{GangBinPack, JobSpec, PriorityPreempt, StageKind, StageSpec};
    use dias_stochastic::Dist;

    // Eight narrow jobs (5-wide gangs) for the packing bench; the same jobs
    // alternate classes for the preemption-churn bench.
    let mut rng: rand::rngs::StdRng = dias_des::SeedSequence::new(5).stream("bench-multi");
    let jobs: Vec<JobInstance> = (0..8u64)
        .map(|id| {
            let spec = JobSpec::builder(id, (id % 2) as usize)
                .setup(Dist::constant(2.0))
                .shuffle(Dist::constant(1.0))
                .stage(StageSpec::new(StageKind::Map, 5, Dist::uniform(4.0, 12.0)))
                .stage(StageSpec::new(
                    StageKind::Reduce,
                    3,
                    Dist::uniform(2.0, 5.0),
                ))
                .build();
            JobInstance::sample(&spec, &mut rng)
        })
        .collect();

    let mut group = c.benchmark_group("engine/multi_job");
    group.sample_size(20);
    // Gang packing: all eight jobs submitted up front, four 5-wide gangs run
    // at a time on the 20-slot cluster, the rest queue and backfill.
    group.bench_function("gang_8x5wide", |b| {
        b.iter(|| {
            let mut sim =
                ClusterSim::with_scheduler(ClusterSpec::paper_reference(), Box::new(GangBinPack))
                    .unwrap();
            for inst in &jobs {
                sim.submit_job(inst, &[0.0, 0.0]).unwrap();
            }
            while !sim.is_idle() {
                sim.advance().unwrap();
            }
            black_box(sim.now().as_secs())
        });
    });
    // Cluster-wide jobs: every pair contends for all 20 slots, so each
    // high-class arrival must evict the low-class job running before it.
    let wide_jobs: Vec<JobInstance> = (0..8u64)
        .map(|id| {
            let spec = JobSpec::builder(id, (id % 2) as usize)
                .setup(Dist::constant(2.0))
                .shuffle(Dist::constant(1.0))
                .stage(StageSpec::new(StageKind::Map, 20, Dist::uniform(4.0, 12.0)))
                .stage(StageSpec::new(
                    StageKind::Reduce,
                    5,
                    Dist::uniform(2.0, 5.0),
                ))
                .build();
            JobInstance::sample(&spec, &mut rng)
        })
        .collect();
    // Per-gang DVFS churn: four 5-wide gangs run concurrently while the
    // driver toggles one job's frequency domain at every event — only that
    // job's in-flight completions reschedule (the set_job_frequency path).
    group.bench_function("per_gang_sprint", |b| {
        use dias_engine::FreqLevel;
        b.iter(|| {
            let mut sim =
                ClusterSim::with_scheduler(ClusterSpec::paper_reference(), Box::new(GangBinPack))
                    .unwrap();
            for inst in &jobs {
                sim.submit_job(inst, &[0.0, 0.0]).unwrap();
            }
            let mut flips = 0usize;
            while !sim.is_idle() {
                sim.advance().unwrap();
                let running = sim.running_jobs();
                if !running.is_empty() {
                    let job = running[flips % running.len()];
                    let next = match sim.job_frequency(job) {
                        Some(FreqLevel::Base) => FreqLevel::Sprint,
                        _ => FreqLevel::Base,
                    };
                    sim.set_job_frequency(job, next).unwrap();
                    flips += 1;
                }
            }
            black_box(sim.energy_joules())
        });
    });
    // Preemption churn: each odd (high-class) submission lands mid-stage of
    // the even (low-class) job before it and evicts it through its calendar
    // handles; victims re-queue and re-execute.
    group.bench_function("preempt_churn", |b| {
        b.iter(|| {
            let mut sim = ClusterSim::with_scheduler(
                ClusterSpec::paper_reference(),
                Box::new(PriorityPreempt),
            )
            .unwrap();
            for pair in wide_jobs.chunks(2) {
                // Low-class job takes slots, then a few events run...
                sim.submit_job(&pair[0], &[0.0, 0.0]).unwrap();
                for _ in 0..4 {
                    if sim.next_event_time().is_some() {
                        sim.advance().unwrap();
                    }
                }
                // ...and the high-class job arrives wanting the same slots.
                if pair.len() > 1 {
                    sim.submit_job(&pair[1], &[0.0, 0.0]).unwrap();
                }
                for _ in 0..4 {
                    if sim.next_event_time().is_some() {
                        sim.advance().unwrap();
                    }
                }
            }
            while !sim.is_idle() {
                sim.advance().unwrap();
            }
            black_box(sim.energy_joules())
        });
    });
    // Fault churn: four 5-wide gangs run while the driver fails and repairs a
    // rotating slot at every event — each failure evicts the overlapping gang
    // through its calendar handles, re-queues it, and each repair backfills.
    group.bench_function("fault_churn", |b| {
        b.iter(|| {
            let mut sim =
                ClusterSim::with_scheduler(ClusterSpec::paper_reference(), Box::new(GangBinPack))
                    .unwrap();
            for inst in &jobs {
                sim.submit_job(inst, &[0.0, 0.0]).unwrap();
            }
            let mut victim = 0usize;
            let mut down: Option<usize> = None;
            while !sim.is_idle() {
                sim.advance().unwrap();
                if let Some(slot) = down.take() {
                    sim.repair_slot(slot).unwrap();
                } else if !sim.is_idle() {
                    let slot = victim % 20;
                    victim += 1;
                    black_box(sim.fail_slot(slot).unwrap());
                    down = Some(slot);
                }
            }
            black_box(sim.energy_joules())
        });
    });
    // A wide cluster: 96 gangs of 4–12 slots on 640 slots, about 70 running
    // at once. Per-event bookkeeping that scanned the running jobs (run
    // lookup, energy ledgers, scheduler views) grew with that count.
    let wide_cluster = ClusterSpec {
        workers: 320,
        ..ClusterSpec::paper_reference()
    };
    let many: Vec<JobInstance> = (0..96u64)
        .map(|id| {
            let width = 4 + (id % 9) as usize;
            let spec = JobSpec::builder(id, (id % 4 == 0) as usize)
                .setup(Dist::constant(2.0))
                .shuffle(Dist::constant(1.0))
                .stage(StageSpec::new(
                    StageKind::Map,
                    width,
                    Dist::uniform(4.0, 12.0),
                ))
                .stage(StageSpec::new(
                    StageKind::Reduce,
                    2,
                    Dist::uniform(2.0, 5.0),
                ))
                .build();
            JobInstance::sample(&spec, &mut rng)
        })
        .collect();
    group.bench_function("wide_640slots_96gangs", |b| {
        b.iter(|| {
            let mut sim =
                ClusterSim::with_scheduler(wide_cluster.clone(), Box::new(GangBinPack)).unwrap();
            for inst in &many {
                sim.submit_job(inst, &[0.0, 0.0]).unwrap();
            }
            while !sim.is_idle() {
                sim.advance().unwrap();
            }
            black_box(sim.energy_joules())
        });
    });
    group.finish();
}

fn bench_federation(c: &mut Criterion) {
    use dias_core::federation::{FederationExperiment, Router};
    use dias_engine::GangBinPack;
    use dias_workloads::heterogeneous_width_fleet;

    // Four paper-reference shards under the fleet-rate two-priority stream:
    // measures the coordinator loop (routing, epoch delivery, barrier
    // bookkeeping) on top of the shard engines. One lane, so the gate tracks
    // deterministic work rather than scheduler jitter on a shared runner.
    let fleet_spec = ClusterSpec {
        workers: 4 * ClusterSpec::paper_reference().workers,
        ..ClusterSpec::paper_reference()
    };
    let mut group = c.benchmark_group("federation/4shards");
    group.sample_size(10);
    group.bench_function("hash_300jobs_1t", |b| {
        b.iter(|| {
            let shards = vec![ClusterSpec::paper_reference(); 4];
            let stream = heterogeneous_width_fleet(&fleet_spec, 0.7, 42);
            let report = FederationExperiment::new(stream, shards, |_| Box::new(GangBinPack))
                .router(Router::Hash)
                .epoch_secs(60.0)
                .arrivals(300)
                .run(1)
                .expect("valid federation");
            black_box(report.completed())
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_workloads,
    bench_faults,
    bench_stats,
    bench_ph,
    bench_uniformization_cache,
    bench_sampling,
    bench_task_level_model,
    bench_priority_solvers,
    bench_mc_queue,
    bench_wave_fit,
    bench_sweep,
    bench_branch_sweep,
    bench_engine,
    bench_multi_job,
    bench_federation
);
criterion_main!(benches);
