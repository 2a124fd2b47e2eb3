//! End-to-end benchmark of the DiAS simulator.
//!
//! One invocation runs one workload:
//!
//! ```text
//! dias-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` it repeats the workload (inputs generated from the seed,
//! then one run through the program's public API) for about `--seconds`
//! seconds, at least three times, checks every repeat simulated the same
//! thing, and prints the end-to-end metrics: host throughput and set-up time
//! as medians over the repeats, peak memory, and the simulated latency and
//! energy the seed produces.
//!
//! With `--trace 1` it prints the per-layer metrics instead, from four runs:
//! a plain run, the same run with timing wrappers on the job source and the
//! scheduler, and two replays of the run's engine calls — one bare, one with
//! its calls timed. Each replay must end bit-identical to the run. The paper
//! workload has no replay; its replay-derived metrics read 0.
//!
//! Every metric is printed by name with its unit; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. The exit code is 0 only when every check passed.

mod host;
mod probe;
mod replay;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use probe::{Counter, SchedCounters, Span, Timed, Untimed};
use replay::EngineTally;
use stats::Summary;
use workloads::{Executed, Outcome, Seams, Workload};

const USAGE: &str =
    "usage: dias-benchmark --workload <soak_plain|soak_contended|fleet_16x|paper_dias> \
                     --seed <u64> [--seconds <n>] [--trace <0|1>]";

/// Fewest repeats a measuring run makes, however short `--seconds` is.
const MIN_REPEATS: usize = 3;

/// Input generations timed before each repeat for the set-up median; the
/// last one feeds the repeat. Most take well under a millisecond, and host
/// noise comes in bursts of a tenth of a second that double them: samples
/// spread over the whole run keep one burst from covering them all.
const SETUP_PER_REPEAT: usize = 5;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run size: always the workload's full size from the command line;
    /// tests shrink it.
    size: usize,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 25.0;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        size: workload.full_size(),
    })
}

/// One printed metric.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

fn count(name: &'static str, n: u64) -> Metric {
    metric(name, n as f64, "count")
}

/// Repeat measurement with its spread, printed beside the median.
fn summarised(name: &'static str, s: Summary, unit: &'static str) -> Metric {
    Metric {
        note: format!("median of n={}, q1 {} q3 {}", s.n, s.q1, s.q3),
        ..metric(name, s.median, unit)
    }
}

/// Runs and checks attempted, and what went wrong.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checks {
    /// Counts one run, failed unless `ok`.
    fn run(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(problem());
        }
    }

    /// Counts one run that returned an error.
    fn error(&mut self, what: &str, e: String) {
        self.run(false, || format!("{what} failed: {e}"));
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {}  seed {}  seconds {}  trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut checks = Checks::default();
    let metrics = if args.trace {
        trace(&args, &mut checks)
    } else {
        measure(&args, &mut checks)
    };
    for m in &metrics {
        if !m.value.is_finite() {
            checks.run(false, || format!("{} is not a finite number", m.name));
        }
        println!("{:<38} {:>22} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    for p in &checks.problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = checks.failed == 0 && !metrics.is_empty();
    println!("{}", json_line(correct, &checks, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The result line: `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
fn json_line(correct: bool, checks: &Checks, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .filter(|m| m.value.is_finite())
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    )
}

/// The end-to-end pass: repeat the workload for about `--seconds` seconds.
fn measure(args: &Args, checks: &mut Checks) -> Vec<Metric> {
    let start = Instant::now();
    let size = args.size;
    let mut setup_s = Vec::new();
    let mut jobs_per_s = Vec::new();
    let mut first: Option<Outcome> = None;
    let mut last_repeat_s = 0.0;
    while jobs_per_s.len() < MIN_REPEATS
        || start.elapsed().as_secs_f64() + last_repeat_s <= args.seconds
    {
        let repeat = Instant::now();
        for _ in 1..SETUP_PER_REPEAT {
            setup_s.push(workloads::prepare(args.workload, args.seed, size).prepare_s);
        }
        let inputs = workloads::prepare(args.workload, args.seed, size);
        setup_s.push(inputs.prepare_s);
        let Executed { outcome, run_s } = match workloads::execute(&inputs, &Seams::default(), 1) {
            Ok(x) => x,
            Err(e) => {
                checks.error("run", e);
                return Vec::new();
            }
        };
        jobs_per_s.push(outcome.measured_jobs as f64 / run_s);
        match &first {
            None => {
                checks.run(true, String::new);
                first = Some(outcome);
            }
            Some(f) => {
                let n = jobs_per_s.len();
                checks.run(f.same_simulation(&outcome), || {
                    format!("repeat {n} simulated something else than repeat 1")
                });
            }
        }
        last_repeat_s = repeat.elapsed().as_secs_f64();
    }
    let outcome = first.expect("at least one repeat ran");
    if let Some(ok) = outcome.paper_shape_holds() {
        checks.run(ok, || {
            "paper shape: want waste only under P, DA(0,20) low mean < P's, \
             DiAS(0,20) high mean < DA(0,20)'s"
                .into()
        });
    }
    let summary = |v: &[f64]| Summary::of(v).expect("at least one repeat ran");
    let [low, high] = outcome.latency;
    vec![
        summarised("sim_jobs_per_s", summary(&jobs_per_s), "1/s"),
        summarised("setup_s", summary(&setup_s), "s"),
        metric("peak_rss_mb", host::peak_rss_mb().unwrap_or(f64::NAN), "MB"),
        metric("low_mean_s", low.mean, "s"),
        metric("low_p95_s", low.p95, "s"),
        metric("low_p99_s", low.p99, "s"),
        metric("high_mean_s", high.mean, "s"),
        metric("high_p95_s", high.p95, "s"),
        metric("high_p99_s", high.p99, "s"),
        metric(
            "energy_per_job_kj",
            outcome.energy_joules / outcome.measured_jobs as f64 / 1e3,
            "kJ",
        ),
    ]
}

/// The traced pass: per-layer metrics from wrapped runs and engine replays.
fn trace(args: &Args, checks: &mut Checks) -> Vec<Metric> {
    match traced_layers(args, checks) {
        Ok(metrics) => metrics,
        Err(e) => {
            checks.error("traced pass", e);
            Vec::new()
        }
    }
}

fn traced_layers(args: &Args, checks: &mut Checks) -> Result<Vec<Metric>, String> {
    let w = args.workload;
    let cpu_start = host::cpu_secs();
    let wall_start = Instant::now();
    let inputs = workloads::prepare(w, args.seed, args.size);

    // The program as the end-to-end pass runs it: the reference wall.
    let plain = workloads::execute(&inputs, &Seams::default(), 1)?;
    checks.run(true, String::new);

    // The same run with timers on the job source and the scheduler.
    let seams = Seams {
        source: Some(Arc::new(Counter::default())),
        sched: Some(Arc::new(SchedCounters::default())),
    };
    let wrapped = workloads::execute(&inputs, &seams, 1)?;
    checks.run(wrapped.outcome.same_simulation(&plain.outcome), || {
        "the wrapped run simulated something else than the plain run".into()
    });
    let source = seams.source.as_deref().expect("wrapped above");
    let sched = seams.sched.as_deref().expect("wrapped above");

    let replayed = if w.has_replay() {
        replays(&inputs, &plain.outcome, sched, checks)?
    } else {
        Replays::default()
    };
    let cpu_over_wall = match (cpu_start, host::cpu_secs()) {
        (Some(a), Some(b)) => (b - a) / wall_start.elapsed().as_secs_f64(),
        _ => f64::NAN,
    };

    // The fleet again on two pool lanes: same report, advisory speed-up.
    if w == Workload::Fleet16x {
        let two = workloads::execute(&inputs, &Seams::default(), 2)?;
        checks.run(two.outcome.same_simulation(&plain.outcome), || {
            "the fleet report changed with two lanes".into()
        });
        println!(
            "pool.two_lane_speedup (advisory) {} on {} available cores",
            plain.run_s / two.run_s,
            std::thread::available_parallelism().map_or(1, usize::from)
        );
    }

    println!(
        "run wall: plain {} s, wrapped {} s",
        plain.run_s, wrapped.run_s
    );
    let spans = &replayed.spans;
    // Without a replay every replay-derived metric reads 0.
    let mut driver_self_s = 0.0;
    let mut coverage_pct = 0.0;
    if w.has_replay() {
        for span in Span::ALL {
            println!(
                "replay span {:<22} calls {:>10}  busy {:>10.4} s  {:>8.1} ns/call",
                span.name(),
                spans.calls(span),
                spans.busy_s(span),
                spans.ns_per_call(span)
            );
        }
        println!(
            "replay wall: bare {} s, timed {} s; {} ns of clock removed per timed call",
            replayed.bare_wall_s,
            replayed.timed_wall_s,
            spans.clock_ns()
        );
        driver_self_s = plain.run_s - replayed.bare_wall_s;
        coverage_pct = spans.total_busy_s() / replayed.timed_wall_s * 100.0;
    }

    let o = &plain.outcome;
    let t = &replayed.tally;
    Ok(vec![
        count("workloads.next_job.calls", source.calls()),
        metric("workloads.next_job.busy_s", source.busy_s(), "s"),
        metric("workloads.next_job.ns_per_call", source.ns_per_call(), "ns"),
        metric("workloads.calibrate_s", inputs.calibrate_s, "s"),
        count("engine.sched.place.calls", sched.place.calls()),
        metric(
            "engine.sched.place.hit_ratio",
            sched.place.hit_ratio(),
            "ratio",
        ),
        count("engine.sched.pick_next.calls", sched.pick_next.calls()),
        metric(
            "engine.sched.pick_next.hit_ratio",
            sched.pick_next.hit_ratio(),
            "ratio",
        ),
        count("engine.sched.victim.calls", sched.victim.calls()),
        metric("engine.sched.busy_s", sched.busy_s(), "s"),
        metric("engine.sched.ns_per_call", sched.ns_per_call(), "ns"),
        metric(
            "engine.sched.running_scanned_mean",
            sched.running_scanned_mean(),
            "count",
        ),
        count("engine.advance.calls", spans.calls(Span::Advance)),
        metric("engine.advance.busy_s", spans.busy_s(Span::Advance), "s"),
        metric(
            "engine.advance.ns_per_call",
            spans.ns_per_call(Span::Advance),
            "ns",
        ),
        count("engine.submit_job.calls", spans.calls(Span::Submit)),
        metric("engine.submit_job.busy_s", spans.busy_s(Span::Submit), "s"),
        metric(
            "engine.submit_job.ns_per_call",
            spans.ns_per_call(Span::Submit),
            "ns",
        ),
        count("engine.apply_fault.calls", spans.calls(Span::ApplyFault)),
        count("engine.calendar_depth_max", t.depth_max as u64),
        metric("engine.calendar_depth_mean", t.depth_mean(), "count"),
        metric(
            "engine.events_per_job",
            probe::per(t.events as f64, t.completions),
            "count",
        ),
        count("engine.evictions", o.evictions),
        count("engine.failure_evictions", o.failure_evictions),
        metric("engine.useful_work_ratio", o.useful_work_ratio, "ratio"),
        count("des.stats.push.calls", spans.calls(Span::StatsPush)),
        metric(
            "des.stats.push.ns_per_call",
            spans.ns_per_call(Span::StatsPush),
            "ns",
        ),
        metric("core.driver_self_s", driver_self_s, "s"),
        count("core.live_objects_hwm", t.live_hwm as u64),
        metric("core.sprint_budget_spent_kj", o.sprint_spent_j / 1e3, "kJ"),
        count("core.federation.epochs", o.epochs() as u64),
        metric(
            "core.federation.routed_max_over_mean",
            o.routed_max_over_mean(),
            "ratio",
        ),
        metric("host.cpu_over_wall", cpu_over_wall, "ratio"),
        metric(
            "trace.overhead_pct",
            (wrapped.run_s / plain.run_s - 1.0) * 100.0,
            "%",
        ),
        metric("trace.replay_coverage_pct", coverage_pct, "%"),
    ])
}

/// What the two engine replays of a run measured. The default, all zero,
/// stands for a workload without a replay.
#[derive(Debug, Default)]
struct Replays {
    spans: Timed,
    tally: EngineTally,
    bare_wall_s: f64,
    timed_wall_s: f64,
}

/// Replays the run's engine calls bare, then timed with the scheduler
/// wrapped. Both must end bit-identical to the run, and the timed one must
/// ask the scheduler exactly what the wrapped run (`sched`) asked.
fn replays(
    inputs: &workloads::Inputs,
    run: &Outcome,
    sched: &SchedCounters,
    checks: &mut Checks,
) -> Result<Replays, String> {
    let bare = workloads::replay(inputs, run, &Seams::default(), &mut Untimed)?;
    checks.run(bare.mismatch.is_empty(), || {
        format!("bare replay differs: {}", bare.mismatch.join("; "))
    });
    let replay_sched = Arc::new(SchedCounters::default());
    let replay_seams = Seams {
        source: None,
        sched: Some(Arc::clone(&replay_sched)),
    };
    let mut spans = Timed::calibrated();
    let timed = workloads::replay(inputs, run, &replay_seams, &mut spans)?;
    checks.run(timed.mismatch.is_empty(), || {
        format!("timed replay differs: {}", timed.mismatch.join("; "))
    });
    let same = [
        (&sched.place, &replay_sched.place),
        (&sched.pick_next, &replay_sched.pick_next),
        (&sched.victim, &replay_sched.victim),
    ]
    .iter()
    .all(|(a, b)| a.calls() == b.calls() && a.hit_ratio() == b.hit_ratio());
    checks.run(same, || {
        "the replay made other scheduler calls than the program".into()
    });
    Ok(Replays {
        spans,
        tally: timed.tally,
        bare_wall_s: bare.wall_s,
        timed_wall_s: timed.wall_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "fleet_16x",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::Fleet16x,
                seed: 7,
                seconds: 12.0,
                trace: true,
                size: Workload::Fleet16x.full_size(),
            }
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "soak_plain", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "soak_plain", "--seconds"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
    }

    #[test]
    fn json_line_has_the_four_keys() {
        let checks = Checks {
            attempted: 3,
            failed: 0,
            problems: Vec::new(),
        };
        let line = json_line(true, &checks, &[metric("setup_s", 0.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    /// `(name, unit)` of every entry in one metric list of BENCHMARK.json.
    fn declared(spec: &str, list: &str) -> Vec<(String, String)> {
        let start = spec.find(&format!("\"{list}\": [")).expect("list present");
        let body = &spec[start..start + spec[start..].find(']').expect("list closed")];
        body.split("{\"name\": \"")
            .skip(1)
            .map(|entry| {
                let name = &entry[..entry.find('"').expect("name closed")];
                let unit = entry.split("\"unit\": \"").nth(1).expect("unit present");
                (
                    name.to_string(),
                    unit[..unit.find('"').expect("unit closed")].to_string(),
                )
            })
            .collect()
    }

    fn printed(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn passes_print_exactly_the_declared_metrics() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let args = Args {
            workload: Workload::SoakContended,
            seed: 42,
            seconds: 0.1,
            trace: false,
            size: 2_000,
        };
        let mut checks = Checks::default();
        let e2e = measure(&args, &mut checks);
        let layers = trace(
            &Args {
                trace: true,
                ..args
            },
            &mut checks,
        );
        assert!(checks.problems.is_empty(), "{:?}", checks.problems);
        assert_eq!(printed(&e2e), declared(&spec, "end_to_end"));
        assert_eq!(printed(&layers), declared(&spec, "per_layer"));
    }
}
