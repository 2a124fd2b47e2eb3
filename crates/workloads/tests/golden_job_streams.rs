//! Golden-value regression tests pinning the arrival streams of the paper's
//! workload generators bit for bit.
//!
//! Every seeded experiment in the workspace starts from one of these
//! streams, so a change to how a job's durations are drawn (the order of
//! the draws, or the arithmetic of a distribution's sampler) would silently
//! move every downstream result. The digests fold `f64::to_bits` of each
//! job's arrival time, setup, shuffles and task times (plus its id and
//! class) over the first [`JOBS`] jobs; the literal values pin a few of
//! those words directly so a diverging stream names where it diverged.

use dias_core::JobSource;
use dias_engine::JobInstance;
use dias_workloads::{
    heterogeneous_width_two_priority, reference_two_priority, three_priority_stream,
    triangle_two_priority,
};

/// Jobs drawn from each stream.
const JOBS: usize = 200;

/// FNV-1a over 64-bit words: order-sensitive and dependency-free.
fn fold(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn job_words(job: &JobInstance) -> Vec<u64> {
    let mut words = vec![
        job.spec.id.0,
        job.class() as u64,
        job.arrival_secs.to_bits(),
        job.setup_secs.to_bits(),
    ];
    words.extend(job.shuffle_secs.iter().map(|s| s.to_bits()));
    for stage in &job.task_secs {
        words.extend(stage.iter().map(|t| t.to_bits()));
    }
    words
}

/// Digest of the first `JOBS` jobs, and the first job's words.
fn digest(source: &mut impl JobSource) -> (u64, Vec<u64>) {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let mut first = Vec::new();
    for i in 0..JOBS {
        let job = source.next_job().expect("streams are endless");
        let words = job_words(&job);
        if i == 0 {
            first = words.clone();
        }
        hash = words.into_iter().fold(hash, fold);
    }
    (hash, first)
}

/// Checks a stream's digest and the first job's arrival, setup and last
/// task time.
fn check(name: &str, source: &mut impl JobSource, want: u64, want_first: [u64; 3]) {
    let (got, first) = digest(source);
    let got_first = [first[2], first[3], first[first.len() - 1]];
    assert_eq!(
        got_first, want_first,
        "{name}: first job's (arrival, setup, last task) bits diverged"
    );
    assert_eq!(
        got, want,
        "{name}: digest of the first {JOBS} jobs diverged: {got:#018x}"
    );
}

#[test]
fn reference_two_priority_stream_is_pinned() {
    check(
        "reference_two_priority(0.8, 42)",
        &mut reference_two_priority(0.8, 42),
        0x47da2ca11330f6fd,
        [0x406227b61836d4df, 0x4023e9982baeb802, 0x402c693021e1087f],
    );
}

#[test]
fn heterogeneous_width_stream_is_pinned() {
    check(
        "heterogeneous_width_two_priority(0.7, 42)",
        &mut heterogeneous_width_two_priority(0.7, 42),
        0x951d8054bdb5638c,
        [0x4058551d4e3f67ad, 0x4023e9982baeb802, 0x4022fb143b21a313],
    );
}

#[test]
fn three_priority_stream_is_pinned() {
    check(
        "three_priority_stream(7)",
        &mut three_priority_stream(7),
        0x1e634a43de77f4eb,
        [0x405d0af6e4320f52, 0x3ffb6f90918f901d, 0x3ffd4dcb3cb94a10],
    );
}

#[test]
fn triangle_stream_is_pinned() {
    check(
        "triangle_two_priority(0.8, 42)",
        &mut triangle_two_priority(0.8, 42),
        0xcc929db7277cd663,
        [0x40671ea108688163, 0x401a8ccae4e8f555, 0x4010a9dca286c174],
    );
}
