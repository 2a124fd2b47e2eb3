//! Bit-level pins of the paper's one-job experiment and of the batched soak.
//!
//! Every pinned number is recorded by its `f64::to_bits`, and the one-job
//! reports also by their `Display` text, so any change to either driver's
//! arithmetic or event order shows up here as a named diff instead of a
//! quiet drift in a figure. The expected text lives in
//! `tests/paper_pins.txt`, one `<<<name` … `>>>` section per run; a failing
//! pin prints the freshly computed section in the same format.

use std::fmt::Write as _;

use dias_repro::core::{
    Experiment, ExperimentReport, JobSource, Policy, Series, SoakExperiment, SoakReport,
    SprintBudget, SprintPolicy, WarmupRule,
};
use dias_repro::des::stats::SampleStats;
use dias_repro::engine::{ClusterSpec, PriorityPreempt};
use dias_repro::workloads::{
    heterogeneous_width_two_priority, reference_two_priority, slot_failure_trace,
    three_priority_stream,
};

const PINS: &str = include_str!("paper_pins.txt");

/// Measured jobs per one-job policy run.
const JOBS: usize = 600;

/// The expected text of section `name`.
fn expected(name: &str) -> &'static str {
    let open = format!("<<<{name}\n");
    let start = PINS
        .find(&open)
        .unwrap_or_else(|| panic!("no pin section `{name}`"))
        + open.len();
    let len = PINS[start..]
        .find("\n>>>")
        .unwrap_or_else(|| panic!("pin section `{name}` is not closed"));
    &PINS[start..start + len]
}

fn check(name: &str, actual: &str) {
    assert!(
        expected(name) == actual.trim_end(),
        "pin `{name}` moved; the run now gives:\n<<<{name}\n{}\n>>>",
        actual.trim_end()
    );
}

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn one_job_pin(r: &ExperimentReport) -> String {
    let mut s = String::new();
    for (k, c) in r.per_class.iter().enumerate() {
        writeln!(
            s,
            "class {k}: n {} response mean {} p95 {} execution mean {}",
            c.completed,
            bits(c.response.mean()),
            bits(c.response.p95()),
            bits(c.execution.as_ref().expect("recorded").mean())
        )
        .unwrap();
    }
    writeln!(
        s,
        "energy {} horizon {} evictions {} wasted {} sprint {}",
        bits(r.energy_joules),
        bits(r.horizon_secs),
        r.evictions,
        bits(r.wasted_work_secs),
        bits(r.sprint_secs)
    )
    .unwrap();
    s.push_str(&r.to_string());
    s
}

/// Runs every policy on a fresh copy of the stream and checks its pin. The
/// runs record the queueing and execution series the pin prints.
fn check_policies<S: JobSource>(stream: impl Fn() -> S, prefix: &str, policies: Vec<Policy>) {
    for policy in policies {
        let name = format!("{prefix} {}", policy.label);
        let report = Experiment::new(stream(), policy)
            .jobs(JOBS)
            .record(Series::QUEUEING | Series::EXECUTION)
            .run()
            .unwrap();
        check(&name, &one_job_pin(&report));
    }
}

#[test]
fn two_class_paper_policies_are_pinned() {
    let extra = ClusterSpec::paper_reference().sprint_extra_power_w();
    let limited = SprintPolicy::top_class(2, 65.0, SprintBudget::paper_limited(extra));
    let policies = vec![
        Policy::preemptive(2),
        Policy::non_preemptive(2),
        Policy::da_percent_high_to_low(&[0.0, 20.0]),
        Policy::non_preemptive(2).with_sprint(SprintPolicy::unlimited_for_top(2)),
        Policy::da_percent_high_to_low(&[0.0, 20.0]).with_sprint(limited),
    ];
    check_policies(|| reference_two_priority(0.8, 21), "two-class", policies);
}

#[test]
fn three_class_paper_policies_are_pinned() {
    let policies = vec![
        Policy::preemptive(3),
        Policy::non_preemptive(3),
        Policy::da_percent_high_to_low(&[0.0, 10.0, 20.0]),
        Policy::da_percent_high_to_low(&[0.0, 20.0, 40.0]),
    ];
    check_policies(|| three_priority_stream(21), "three-class", policies);
}

fn soak_pin(r: &SoakReport) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "measured {} warmup {} live_high_water {} events {} batch {}",
        r.measured_jobs, r.warmup_jobs, r.live_high_water, r.events, r.arrival_batch
    )
    .unwrap();
    for (k, c) in r.per_class.iter().enumerate() {
        writeln!(
            s,
            "class {k}: n {} response mean {} p50 {} p95 {} p99 {} max {}",
            c.completed,
            bits(c.response.mean()),
            bits(c.response.quantile(0.5)),
            bits(c.response.quantile(0.95)),
            bits(c.response.quantile(0.99)),
            bits(c.response.max())
        )
        .unwrap();
    }
    let t = &r.totals;
    writeln!(
        s,
        "energy {} horizon {} evictions {} failure evictions {} sprint spent {}",
        bits(t.energy_joules),
        bits(t.horizon_secs),
        t.evictions,
        t.failure_evictions,
        bits(t.sprint_budget_spent_j)
    )
    .unwrap();
    for w in &r.windows {
        write!(
            s,
            "window {}: {} .. {} energy {}",
            w.index,
            bits(w.start_secs),
            bits(w.end_secs),
            bits(w.energy_joules)
        )
        .unwrap();
        for c in &w.per_class {
            write!(
                s,
                " | n {} mean {} p95 {} max {}",
                c.completed,
                bits(c.mean_response),
                bits(c.p95_response),
                bits(c.max_response)
            )
            .unwrap();
        }
        s.push('\n');
    }
    s
}

#[test]
fn batched_soaks_with_sprint_and_faults_are_pinned() {
    let spec = ClusterSpec::paper_reference();
    // 4-wide high gangs: the soak harness's 22 kJ budget, 6 sprint-minutes
    // per hour.
    let budget = SprintBudget::limited(
        22_000.0,
        4.0 * spec.sprint_extra_slot_power_w() * 6.0 * 60.0 / 3600.0,
    );
    let cases = [
        (4, WarmupRule::Arrivals(200)),
        (16, WarmupRule::Mser { calibration: 0 }),
    ];
    // Every series: `live_high_water` counts each recorded sketch's nodes.
    for (batch, warmup) in cases {
        let report = SoakExperiment::new(
            heterogeneous_width_two_priority(0.8, 33),
            Box::new(PriorityPreempt),
        )
        .jobs(3_000)
        .warmup(warmup)
        .arrival_batch(batch)
        .window_jobs(600)
        .drops(&[0.2, 0.0])
        .sprint(SprintPolicy::top_class(2, 65.0, budget))
        .faults(slot_failure_trace(
            spec.slots(),
            40_000.0,
            2_400.0,
            150.0,
            33,
        ))
        .record(Series::ALL)
        .run()
        .unwrap();
        check(&format!("soak batch {batch}"), &soak_pin(&report));
    }
}
