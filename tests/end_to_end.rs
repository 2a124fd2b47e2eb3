//! Cross-crate integration tests: models vs engine, policy invariants, energy and
//! waste accounting, and end-to-end deflator planning.

use dias_repro::core::{Experiment, Policy, Series, SprintBudget, SprintPolicy};
use dias_repro::engine::{ClusterSim, ClusterSpec, EngineEvent, JobInstance};
use dias_repro::models::priority::{non_preemptive_means, ClassInput};
use dias_repro::models::TaskLevelModel;
use dias_repro::stochastic::{DiscreteDist, Dist};
use dias_repro::workloads::{
    dataset_147, profile_473, profile_execution, reference_two_priority, three_priority_stream,
    triangle_two_priority, JobProfile,
};

const JOBS: usize = 800;

#[test]
fn task_level_model_matches_engine_with_exponential_tasks() {
    // When task times really are exponential, the Eq. 1 task-level model and the
    // engine must agree on the mean processing time.
    let profile = JobProfile {
        stages: vec![
            dias_repro::engine::StageSpec::new(
                dias_repro::engine::StageKind::Map,
                50,
                Dist::exponential(33.4),
            ),
            dias_repro::engine::StageSpec::new(
                dias_repro::engine::StageKind::Reduce,
                10,
                Dist::exponential(12.0),
            ),
        ],
        setup: Dist::exponential(12.0),
        shuffle: Dist::exponential(8.0),
        setup_data_fraction: 0.0,
        name: "exp".into(),
        input_mb: 1117.0,
    };
    let model = TaskLevelModel {
        slots: 20,
        map_tasks: DiscreteDist::constant(50),
        reduce_tasks: DiscreteDist::constant(10),
        setup_rate: 1.0 / 12.0,
        map_task_rate: 1.0 / 33.4,
        shuffle_rate: 1.0 / 8.0,
        reduce_task_rate: 1.0 / 12.0,
        theta_map: 0.0,
        theta_reduce: 0.0,
    };
    for theta in [0.0, 0.2, 0.5] {
        let predicted = model
            .with_drop(theta, 0.0)
            .mean_processing_time()
            .expect("valid model");
        let observed = profile_execution(
            &profile,
            &ClusterSpec::paper_reference(),
            &[theta, 0.0],
            400,
            7,
        )
        .mean();
        let rel = (predicted - observed).abs() / observed;
        assert!(
            rel < 0.06,
            "theta {theta}: model {predicted:.1} vs engine {observed:.1} ({rel:.3})"
        );
    }
}

#[test]
fn non_preemptive_policies_never_evict_or_waste() {
    for policy in [
        Policy::non_preemptive(2),
        Policy::da_percent_high_to_low(&[0.0, 20.0]),
        Policy::non_preemptive(2).with_sprint(SprintPolicy::unlimited_for_top(2)),
    ] {
        let report = Experiment::new(reference_two_priority(0.8, 3), policy)
            .jobs(JOBS)
            .run()
            .expect("valid experiment");
        assert_eq!(report.evictions, 0);
        assert_eq!(report.waste_fraction(), 0.0);
        assert_eq!(report.wasted_work_secs, 0.0);
    }
}

#[test]
fn preemptive_baseline_evicts_and_wastes() {
    let report = Experiment::new(reference_two_priority(0.8, 3), Policy::preemptive(2))
        .jobs(JOBS)
        .run()
        .expect("valid experiment");
    assert!(report.evictions > 0);
    assert!(report.waste_fraction() > 0.0);
    // Evictions recorded on completed jobs must not exceed total evictions.
    let per_class: u64 = report.per_class.iter().map(|c| c.evictions).sum();
    assert!(per_class <= report.evictions);
    // Only the low class is ever evicted in a two-class system.
    assert_eq!(report.class_stats(1).evictions, 0);
}

#[test]
fn priority_ordering_holds_across_policies() {
    for policy in [
        Policy::preemptive(3),
        Policy::non_preemptive(3),
        Policy::da_percent_high_to_low(&[0.0, 10.0, 20.0]),
    ] {
        let report = Experiment::new(three_priority_stream(5), policy)
            .jobs(JOBS)
            .record(Series::QUEUEING)
            .run()
            .expect("valid experiment");
        let queueing = |k: usize| report.class_stats(k).queueing.as_ref().unwrap().mean();
        let (q0, q1, q2) = (queueing(0), queueing(1), queueing(2));
        assert!(
            q2 <= q1 && q1 <= q0,
            "queueing must decrease with priority: {q0:.1} {q1:.1} {q2:.1} ({})",
            report.policy
        );
    }
}

#[test]
fn identical_seeds_reproduce_reports() {
    let run = || {
        Experiment::new(reference_two_priority(0.8, 9), Policy::preemptive(2))
            .jobs(300)
            .run()
            .expect("valid experiment")
    };
    let a = run();
    let b = run();
    assert_eq!(a.mean_response(0), b.mean_response(0));
    assert_eq!(a.energy_joules, b.energy_joules);
    assert_eq!(a.evictions, b.evictions);
}

#[test]
fn energy_never_below_idle_floor_and_sprint_draws_more() {
    let plain = Experiment::new(triangle_two_priority(0.8, 4), Policy::non_preemptive(2))
        .jobs(JOBS)
        .run()
        .expect("valid experiment");
    assert!(plain.energy_joules >= plain.idle_energy_joules);

    // Unlimited sprinting: more power while busy, but less total busy time. The
    // energy *per unit of work* goes down; verify via dynamic energy.
    let sprinted = Experiment::new(
        triangle_two_priority(0.8, 4),
        Policy::non_preemptive(2).with_sprint(SprintPolicy::unlimited_for_top(2)),
    )
    .jobs(JOBS)
    .run()
    .expect("valid experiment");
    assert!(sprinted.sprint_secs > 0.0);
    assert!(
        sprinted.dynamic_energy_joules() < plain.dynamic_energy_joules(),
        "sprinting at 2.5x speed for 1.5x power must save dynamic energy"
    );
}

#[test]
fn drops_reduce_work_and_latency_without_touching_high_class_exec() {
    let np = Experiment::new(reference_two_priority(0.8, 6), Policy::non_preemptive(2))
        .jobs(JOBS)
        .record(Series::EXECUTION)
        .run()
        .expect("valid experiment");
    let da = Experiment::new(
        reference_two_priority(0.8, 6),
        Policy::da_percent_high_to_low(&[0.0, 20.0]),
    )
    .jobs(JOBS)
    .record(Series::EXECUTION)
    .run()
    .expect("valid experiment");
    assert!(da.total_work_secs < np.total_work_secs);
    assert!(da.mean_response(0) < np.mean_response(0));
    assert!(da.mean_response(1) < np.mean_response(1));
    let high_exec_np = np.class_stats(1).execution.as_ref().unwrap().mean();
    let high_exec_da = da.class_stats(1).execution.as_ref().unwrap().mean();
    assert!((high_exec_np - high_exec_da).abs() < 1e-9);
}

#[test]
fn limited_budget_sprints_less_than_unlimited() {
    let extra = ClusterSpec::paper_reference().sprint_extra_power_w();
    let limited = Experiment::new(
        triangle_two_priority(0.8, 8),
        Policy::non_preemptive(2).with_sprint(SprintPolicy::top_class(
            2,
            65.0,
            SprintBudget::paper_limited(extra),
        )),
    )
    .jobs(JOBS)
    .run()
    .expect("valid experiment");
    let unlimited = Experiment::new(
        triangle_two_priority(0.8, 8),
        Policy::non_preemptive(2).with_sprint(SprintPolicy::top_class(
            2,
            0.0,
            SprintBudget::Unlimited,
        )),
    )
    .jobs(JOBS)
    .run()
    .expect("valid experiment");
    assert!(limited.sprint_secs > 0.0);
    assert!(limited.sprint_secs < unlimited.sprint_secs);
    assert!(unlimited.mean_response(1) < limited.mean_response(1));
}

#[test]
fn cobham_model_predicts_engine_queueing_direction() {
    // The model and engine must agree on the *direction and rough size* of the
    // DA(0,20) improvement at 80% utilization.
    let stream = reference_two_priority(0.8, 13);
    let rates = stream.rates().to_vec();
    drop(stream);
    let cluster = ClusterSpec::paper_reference();
    let exec_low = profile_execution(&dataset_147(), &cluster, &[0.0, 0.0], 60, 1);
    let exec_low20 = profile_execution(&dataset_147(), &cluster, &[0.2, 0.0], 60, 1);
    let exec_high = profile_execution(&profile_473(), &cluster, &[0.0, 0.0], 60, 1);

    let means = |low: &dias_repro::des::stats::SampleSet| {
        non_preemptive_means(&[
            ClassInput {
                lambda: rates[0],
                mean_service: low.mean(),
                second_moment: low.mean_sq(),
            },
            ClassInput {
                lambda: rates[1],
                mean_service: exec_high.mean(),
                second_moment: exec_high.mean_sq(),
            },
        ])
        .expect("stable")
    };
    let at0 = means(&exec_low);
    let at20 = means(&exec_low20);
    assert!(at20[0].response < at0[0].response);
    assert!(at20[1].response < at0[1].response);

    let engine0 = Experiment::new(reference_two_priority(0.8, 13), Policy::non_preemptive(2))
        .jobs(JOBS)
        .run()
        .expect("valid experiment");
    let rel = (at0[0].response - engine0.mean_response(0)).abs() / engine0.mean_response(0);
    assert!(
        rel < 0.35,
        "model {:.1} vs engine {:.1} low-class response",
        at0[0].response,
        engine0.mean_response(0)
    );
}

#[test]
fn engine_work_conservation_under_drops() {
    // Every kept second of sampled work is executed exactly once.
    let profile = dataset_147();
    let spec = profile.spec(0, 0);
    let mut rng: rand::rngs::StdRng = dias_repro::des::SeedSequence::new(21).stream("wc");
    let instance = JobInstance::sample(&spec, &mut rng);
    for drops in [[0.0, 0.0], [0.3, 0.0], [0.9, 0.5]] {
        let mut sim = ClusterSim::new(ClusterSpec::paper_reference());
        sim.submit_job(&instance, &drops).expect("engine idle");
        let metrics = loop {
            if let EngineEvent::JobFinished { metrics, .. } = sim.advance().expect("running") {
                break metrics;
            }
        };
        // Expected work: setup scaled by kept fraction + shuffles + kept tasks.
        let kept: f64 = instance
            .task_secs
            .iter()
            .zip(&drops)
            .map(|(ts, &theta)| {
                let keep = ((ts.len() as f64) * (1.0 - theta)).ceil() as usize;
                ts[..keep].iter().sum::<f64>()
            })
            .sum();
        let total_tasks: usize = instance.task_secs.iter().map(Vec::len).sum();
        let kept_tasks = total_tasks
            - instance
                .task_secs
                .iter()
                .zip(&drops)
                .map(|(ts, &theta)| ts.len() - ((ts.len() as f64) * (1.0 - theta)).ceil() as usize)
                .sum::<usize>();
        let frac = kept_tasks as f64 / total_tasks as f64;
        let f = spec.setup_data_fraction;
        let setup = instance.setup_secs * (1.0 - f + f * frac);
        let expected = setup + instance.shuffle_secs.iter().sum::<f64>() + kept;
        assert!(
            (metrics.work_secs - expected).abs() < 1e-6,
            "drops {drops:?}: work {} vs expected {expected}",
            metrics.work_secs
        );
    }
}

#[test]
fn report_display_is_complete() {
    let report = Experiment::new(reference_two_priority(0.8, 2), Policy::preemptive(2))
        .jobs(200)
        .run()
        .expect("valid experiment");
    let text = report.to_string();
    assert!(text.contains("policy P"));
    assert!(text.contains("waste"));
    assert!(text.contains("energy"));
}
