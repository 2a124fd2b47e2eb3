//! Figure 5 — validation of the queueing model's mean response times.
//!
//! The setup of §4.3: low- and high-priority jobs process the 1117 MB and 473 MB
//! datasets, arrival ratio 9:1, rate set for 80% utilization. For each drop ratio θ
//! applied to the low class (`DA(0,θ·100)`), compare:
//!
//! * the model: service moments from the §4.2 wave-level PH, per-class means from
//!   the non-preemptive M[K]/G/1 priority formulas;
//! * the observation: the engine-simulator experiment under the same policy.
//!
//! Paper checkpoint: average model error 18.7%.

use dias_bench::{banner, bench_jobs, compare, run_policies, wave_model_for};
use dias_core::{Policy, Series};
use dias_engine::ClusterSpec;
use dias_models::priority::{non_preemptive_means, ClassInput};
use dias_workloads::reference_two_priority;

fn main() {
    banner(
        "Figure 5",
        "priority-queue model vs observed mean response times",
    );
    let cluster = ClusterSpec::paper_reference();
    let jobs = bench_jobs();
    let seed = 42;

    // Arrival rates calibrated exactly as the experiment's stream.
    let stream = reference_two_priority(0.8, seed);
    let rates = stream.rates().to_vec();
    let profiles = stream.profiles().to_vec();
    let thetas = [0.0, 0.2, 0.4, 0.6, 0.8];

    // Observation: the engine experiment under DA(0, θ), over one stream.
    let policies = thetas
        .iter()
        .map(|&theta| Policy::differential_approximation(&[theta, 0.0]))
        .collect();
    let reports = run_policies(stream, policies, jobs, Series::default());

    println!(
        "{:>6} {:>11} {:>11} {:>12} {:>12}",
        "drop", "mod-low[s]", "obs-low[s]", "mod-high[s]", "obs-high[s]"
    );
    let mut total_err = 0.0;
    let mut points = 0;
    for (&theta, report) in thetas.iter().zip(&reports) {
        // Model: wave-level service PH per class, Cobham means.
        let low_ph = wave_model_for(&profiles[0], &cluster, theta, 17)
            .ph()
            .expect("valid model");
        let high_ph = wave_model_for(&profiles[1], &cluster, 0.0, 17)
            .ph()
            .expect("valid model");
        let inputs = [
            ClassInput::from_ph(rates[0], &low_ph),
            ClassInput::from_ph(rates[1], &high_ph),
        ];
        let model = non_preemptive_means(&inputs).expect("stable configuration");

        let (ml, ol) = (model[0].response, report.mean_response(0));
        let (mh, oh) = (model[1].response, report.mean_response(1));
        total_err += (ml - ol).abs() / ol * 100.0 + (mh - oh).abs() / oh * 100.0;
        points += 2;
        println!("{theta:>6.1} {ml:>11.1} {ol:>11.1} {mh:>12.1} {oh:>12.1}");
    }
    let avg_err = total_err / f64::from(points);
    println!();
    println!("paper-vs-measured checkpoints:");
    compare("average model error", "18.7%", &format!("{avg_err:.1}%"));
}
