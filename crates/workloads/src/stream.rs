//! Poisson job streams over profiles, with utilization-targeted calibration.

use rand::rngs::StdRng;
use rand::RngCore;

use dias_core::JobSource;
use dias_des::stats::SampleSet;
use dias_des::SeedSequence;
use dias_engine::{ClusterSim, ClusterSpec, EngineEvent, JobId, JobInstance, JobSampler};
use dias_stochastic::{DrawTrace, MarkedPoisson, RecordingRng, ReplayRng};

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
/// Implements [`JobSource`] for [`dias_core::Experiment`]. Generic over its
/// draw source `R` so the same stream definition runs live ([`StdRng`]),
/// recording ([`RecordingRng`], via [`JobStream::recording`]) or replaying a
/// captured trace ([`ReplayRng`], via [`JobStreamTrace::replay`]) — the
/// common-random-number plumbing behind differential sweeps.
#[derive(Debug, Clone)]
pub struct JobStream<R = StdRng> {
    profiles: Vec<JobProfile>,
    /// `profiles[k]` compiled for class `k`.
    samplers: Vec<JobSampler>,
    arrivals: MarkedPoisson,
    rng: R,
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
            samplers: samplers(&profiles),
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

    /// Wraps the stream's RNG in a [`RecordingRng`] so every arrival/service
    /// draw is captured for later bit-identical replay.
    ///
    /// # Panics
    ///
    /// Panics if jobs were already drawn: a trace pairs sweep points only if
    /// it starts at the beginning of the stream.
    #[must_use]
    pub fn recording(self) -> JobStream<RecordingRng<StdRng>> {
        assert_eq!(
            self.next_id, 0,
            "recording must start before the first job is drawn"
        );
        JobStream {
            profiles: self.profiles,
            samplers: self.samplers,
            arrivals: self.arrivals,
            rng: RecordingRng::new(self.rng),
            now: self.now,
            next_id: self.next_id,
        }
    }
}

impl JobStream<RecordingRng<StdRng>> {
    /// Freezes the recorded draw stream into a replayable [`JobStreamTrace`].
    #[must_use]
    pub fn into_trace(self) -> JobStreamTrace {
        JobStreamTrace {
            profiles: self.profiles,
            rates: self.arrivals.rates().to_vec(),
            trace: self.rng.into_trace(),
        }
    }
}

impl<R> JobStream<R> {
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

impl<R: RngCore> JobSource for JobStream<R> {
    fn classes(&self) -> usize {
        self.profiles.len()
    }

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

/// One compiled job sampler per class: class `k` instantiates
/// `profiles[k]`.
fn samplers(profiles: &[JobProfile]) -> Vec<JobSampler> {
    profiles
        .iter()
        .enumerate()
        .map(|(class, p)| JobSampler::new(&p.spec(0, class)))
        .collect()
}

/// A recorded arrival/service draw stream of a [`JobStream`], replayable any
/// number of times.
///
/// Each [`JobStreamTrace::replay`] yields a stream that produces the exact
/// jobs of the recorded run — bit-identical arrivals and task times — and,
/// past the recorded prefix, continues from the source RNG's state, so
/// replicas that consume *more* jobs than the recording stay paired too.
/// Cloning is cheap: the recorded words are shared.
#[derive(Debug, Clone)]
pub struct JobStreamTrace {
    profiles: Vec<JobProfile>,
    rates: Vec<f64>,
    trace: DrawTrace,
}

impl JobStreamTrace {
    /// A fresh replay of the recorded stream from its beginning.
    #[must_use]
    pub fn replay(&self) -> JobStream<ReplayRng> {
        JobStream {
            profiles: self.profiles.clone(),
            samplers: samplers(&self.profiles),
            arrivals: MarkedPoisson::new(self.rates.clone()).expect("recorded rates are valid"),
            rng: self.trace.replay(),
            now: 0.0,
            next_id: 0,
        }
    }

    /// Number of recorded RNG words.
    #[must_use]
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Returns `true` if nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
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
    fn recorded_stream_replays_bit_identically() {
        let profiles = vec![dataset_147(), profile_473()];
        let rates = vec![0.9 / 150.0, 0.1 / 150.0];
        let mut live = JobStream::with_rates(profiles.clone(), rates.clone(), 21).unwrap();
        let live_jobs: Vec<_> = (0..150).map(|_| live.next_job().unwrap()).collect();

        // Record only the first 100 jobs, then replay 150: the prefix comes
        // from the trace, the rest from the tail snapshot.
        let mut rec = JobStream::with_rates(profiles, rates, 21)
            .unwrap()
            .recording();
        for _ in 0..100 {
            let _ = rec.next_job().unwrap();
        }
        let trace = rec.into_trace();
        assert!(!trace.is_empty());

        for round in 0..2 {
            let mut replay = trace.replay();
            for (i, want) in live_jobs.iter().enumerate() {
                let got = replay.next_job().unwrap();
                assert_eq!(got, *want, "round {round} job {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "before the first job")]
    fn recording_rejects_started_streams() {
        let mut s = JobStream::with_rates(vec![dataset_147()], vec![0.01], 3).unwrap();
        let _ = s.next_job();
        let _ = s.recording();
    }
}
