//! Poisson job streams over profiles, with utilization-targeted calibration.

use rand::rngs::StdRng;

use dias_core::JobSource;
use dias_des::stats::SampleSet;
use dias_des::SeedSequence;
use dias_engine::{ClusterSim, ClusterSpec, EngineEvent, JobId, JobInstance, JobSampler};
use dias_stochastic::MarkedPoisson;

use crate::profiles::JobProfile;

/// Mean execution time of a profile on an otherwise idle cluster — the offline
/// profiling run the paper uses to parameterize models and arrival rates (§4.3).
///
/// Runs `n` independent jobs with the given per-stage `drops` and collects their
/// execution times.
///
/// # Panics
///
/// Panics if `drops` does not match the profile's stage count.
#[must_use]
pub fn profile_execution(
    profile: &JobProfile,
    cluster: &ClusterSpec,
    drops: &[f64],
    n: usize,
    seed: u64,
) -> SampleSet {
    let seeds = SeedSequence::new(seed);
    let mut rng: StdRng = seeds.stream(&format!("profile/{}", profile.name));
    let mut out = SampleSet::new();
    let sampler = JobSampler::new(&profile.spec(0, 0));
    for i in 0..n {
        let instance = sampler.sample(JobId(i as u64), &mut rng);
        let mut sim = ClusterSim::new(cluster.clone());
        sim.submit_job(&instance, drops)
            .expect("drops match the profile's stages");
        loop {
            match sim.advance().expect("running job yields events") {
                EngineEvent::JobFinished { metrics, .. } => {
                    out.push(metrics.execution_secs);
                    break;
                }
                _ => continue,
            }
        }
    }
    out
}

/// An endless Poisson job stream: class `k` arrives at `rates[k]` and instantiates
/// `profiles[k]`.
///
/// Implements [`JobSource`] for [`dias_core::Experiment`]. A clone continues
/// with exactly the jobs the original would draw next, so sweep points are
/// paired over common random numbers by cloning one seeded stream per replica.
#[derive(Debug, Clone)]
pub struct JobStream {
    profiles: Vec<JobProfile>,
    /// `profiles[k]` compiled for class `k`.
    samplers: Vec<JobSampler>,
    arrivals: MarkedPoisson,
    rng: StdRng,
    now: f64,
    next_id: u64,
}

impl JobStream {
    /// Builds a stream with explicit per-class Poisson rates (jobs/second).
    ///
    /// # Errors
    ///
    /// Returns an error string if lengths mismatch or rates are invalid.
    pub fn with_rates(
        profiles: Vec<JobProfile>,
        rates: Vec<f64>,
        seed: u64,
    ) -> Result<Self, String> {
        if profiles.len() != rates.len() {
            return Err(format!(
                "{} profiles but {} rates",
                profiles.len(),
                rates.len()
            ));
        }
        let arrivals = MarkedPoisson::new(rates)?;
        let seeds = SeedSequence::new(seed);
        Ok(JobStream {
            samplers: profiles
                .iter()
                .enumerate()
                .map(|(class, p)| JobSampler::new(&p.spec(0, class)))
                .collect(),
            profiles,
            arrivals,
            rng: seeds.stream("jobstream"),
            now: 0.0,
            next_id: 0,
        })
    }

    /// Builds a stream whose total arrival rate hits `utilization` on `cluster`,
    /// splitting arrivals across classes by `weights`.
    ///
    /// The per-class mean execution times are measured by engine profiling (40 jobs
    /// per class at zero drop), then the total rate solves
    /// `Σ weight_k · rate · E[T_k] = utilization`.
    ///
    /// # Panics
    ///
    /// Panics if inputs are inconsistent (empty, mismatched lengths, non-positive
    /// weights or utilization).
    #[must_use]
    pub fn with_target_utilization(
        profiles: Vec<JobProfile>,
        weights: Vec<f64>,
        cluster: &ClusterSpec,
        utilization: f64,
        seed: u64,
    ) -> Self {
        assert!(!profiles.is_empty(), "need at least one class");
        assert_eq!(profiles.len(), weights.len(), "one weight per class");
        assert!(utilization > 0.0 && utilization < 1.0, "need 0 < util < 1");
        assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");
        let wsum: f64 = weights.iter().sum();
        let mean_exec: Vec<f64> = profiles
            .iter()
            .map(|p| {
                let drops = vec![0.0; p.stages.len()];
                profile_execution(p, cluster, &drops, 40, seed ^ 0xCAFE).mean()
            })
            .collect();
        let weighted: f64 = weights
            .iter()
            .zip(&mean_exec)
            .map(|(w, m)| w / wsum * m)
            .sum();
        let total_rate = utilization / weighted;
        let rates: Vec<f64> = weights.iter().map(|w| w / wsum * total_rate).collect();
        JobStream::with_rates(profiles, rates, seed).expect("validated inputs")
    }

    /// Per-class arrival rates (jobs/second).
    #[must_use]
    pub fn rates(&self) -> &[f64] {
        self.arrivals.rates()
    }

    /// The profiles, indexed by class.
    #[must_use]
    pub fn profiles(&self) -> &[JobProfile] {
        &self.profiles
    }
}

impl JobSource for JobStream {
    fn classes(&self) -> usize {
        self.profiles.len()
    }

    // Lets drivers in other crates inline the per-job draw: the workspace
    // builds without LTO, so a plain non-generic call stays out of line.
    #[inline]
    fn next_job(&mut self) -> Option<JobInstance> {
        let arrival = self.arrivals.sample_next(&mut self.rng, self.now);
        self.now = arrival.time;
        let id = JobId(self.next_id);
        self.next_id += 1;
        let mut instance = self.samplers[arrival.class].sample(id, &mut self.rng);
        instance.arrival_secs = arrival.time;
        Some(instance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{dataset_147, profile_473};

    #[test]
    fn stream_produces_sorted_arrivals() {
        let mut s = JobStream::with_rates(
            vec![dataset_147(), profile_473()],
            vec![0.9 / 150.0, 0.1 / 150.0],
            3,
        )
        .unwrap();
        let mut last = 0.0;
        for _ in 0..200 {
            let j = s.next_job().unwrap();
            assert!(j.arrival_secs >= last);
            last = j.arrival_secs;
            assert!(j.class() < 2);
        }
    }

    #[test]
    fn class_mix_matches_rates() {
        let mut s =
            JobStream::with_rates(vec![dataset_147(), profile_473()], vec![0.009, 0.001], 9)
                .unwrap();
        let n = 4000;
        let high = (0..n)
            .filter(|_| s.next_job().unwrap().class() == 1)
            .count();
        let frac = high as f64 / n as f64;
        assert!((frac - 0.1).abs() < 0.02, "high fraction {frac}");
    }

    #[test]
    fn utilization_targeting_hits_rho() {
        let cluster = ClusterSpec::paper_reference();
        let s = JobStream::with_target_utilization(
            vec![dataset_147(), profile_473()],
            vec![0.9, 0.1],
            &cluster,
            0.8,
            11,
        );
        // Offered load from the calibrated rates and profiled means.
        let mean_low = profile_execution(&dataset_147(), &cluster, &[0.0, 0.0], 40, 1).mean();
        let mean_high = profile_execution(&profile_473(), &cluster, &[0.0, 0.0], 40, 1).mean();
        let rho = s.rates()[0] * mean_low + s.rates()[1] * mean_high;
        assert!((rho - 0.8).abs() < 0.05, "rho {rho}");
    }

    #[test]
    fn mismatched_inputs_rejected() {
        assert!(JobStream::with_rates(vec![dataset_147()], vec![0.1, 0.2], 0).is_err());
        assert!(JobStream::with_rates(vec![dataset_147()], vec![-0.1], 0).is_err());
        assert!(JobStream::with_rates(vec![dataset_147()], vec![f64::NAN], 0).is_err());
        assert!(JobStream::with_rates(vec![dataset_147()], vec![f64::INFINITY], 0).is_err());
    }

    #[test]
    fn profiling_is_deterministic() {
        let cluster = ClusterSpec::paper_reference();
        let a = profile_execution(&profile_473(), &cluster, &[0.0, 0.0], 10, 2);
        let b = profile_execution(&profile_473(), &cluster, &[0.0, 0.0], 10, 2);
        assert_eq!(a.mean(), b.mean());
    }

    #[test]
    fn clones_continue_the_same_draw_stream() {
        let profiles = vec![dataset_147(), profile_473()];
        let rates = vec![0.9 / 150.0, 0.1 / 150.0];
        let mut live = JobStream::with_rates(profiles.clone(), rates.clone(), 21).unwrap();
        let mut fresh = live.clone();

        // A clone taken mid-stream continues with the original's next jobs.
        for _ in 0..100 {
            let _ = live.next_job().unwrap();
        }
        let mut resumed = live.clone();
        for i in 0..50 {
            assert_eq!(resumed.next_job(), live.next_job(), "job {}", 100 + i);
        }

        // A fresh clone is the same stream as a same-seeded rebuild.
        let mut rebuilt = JobStream::with_rates(profiles, rates, 21).unwrap();
        for i in 0..150 {
            assert_eq!(fresh.next_job(), rebuilt.next_job(), "job {i}");
        }
    }
}
