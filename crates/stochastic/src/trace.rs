//! Common-random-number draw traces: record an RNG word stream once, replay
//! it bit-identically everywhere.
//!
//! Sweeps that contrast policies on the same workload want *paired* samples:
//! every sweep point should see the identical arrival/service draw stream, so
//! that the difference between two points is policy effect, not sampling
//! noise (common random numbers). The tools here make that pairing explicit
//! and testable:
//!
//! * [`RecordingRng`] wraps any RNG and captures every 64-bit word it emits.
//! * [`DrawTrace`] is the captured stream plus a snapshot of the source RNG's
//!   state *after* recording.
//! * [`ReplayRng`] plays the recorded words back verbatim and then — because
//!   different policies consume different numbers of draws — continues from
//!   the snapshotted tail state, so the replayed stream is bit-identical to
//!   the live one for *any* number of draws, not just the recorded prefix.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::RngCore;

/// An RNG adaptor that records every word drawn through it.
///
/// Wrap the source RNG, run the reference replica, then call
/// [`RecordingRng::into_trace`] to freeze the observed stream.
#[derive(Debug, Clone)]
pub struct RecordingRng<R = StdRng> {
    inner: R,
    words: Vec<u64>,
}

impl<R: RngCore> RecordingRng<R> {
    /// Wraps `inner`, recording from its current state.
    #[must_use]
    pub fn new(inner: R) -> Self {
        RecordingRng {
            inner,
            words: Vec::new(),
        }
    }
}

impl RecordingRng<StdRng> {
    /// Freezes the recording into a replayable [`DrawTrace`].
    ///
    /// The wrapped RNG's current state becomes the trace's tail: a replay that
    /// runs past the recorded prefix keeps producing exactly the words the
    /// live RNG would have produced.
    #[must_use]
    pub fn into_trace(self) -> DrawTrace {
        DrawTrace {
            words: self.words.into(),
            tail: self.inner,
        }
    }
}

impl<R: RngCore> RngCore for RecordingRng<R> {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let w = self.inner.next_u64();
        self.words.push(w);
        w
    }
}

/// A recorded RNG word stream plus the source state past its end.
///
/// Cheap to clone (the words are shared), so one trace can fan out to many
/// concurrent sweep points.
#[derive(Debug, Clone)]
pub struct DrawTrace {
    words: Arc<[u64]>,
    tail: StdRng,
}

impl DrawTrace {
    /// Number of recorded words.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Returns `true` if nothing was recorded (replays are pure tail).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// A fresh replay of the stream from its beginning.
    #[must_use]
    pub fn replay(&self) -> ReplayRng {
        self.replay_from(0)
    }

    /// A replay resuming mid-stream at word `offset` — the offset-cursor
    /// primitive checkpoint-and-branch re-execution uses: a branched run
    /// whose prefix consumed `offset` words continues with exactly the words
    /// the live stream would have produced next, recorded prefix and tail
    /// alike.
    ///
    /// The tail state is only ever consumed after the *whole* recorded
    /// prefix, so a resume at any `offset ≤ len` is bit-identical to a
    /// from-zero replay advanced by `offset` draws.
    ///
    /// # Panics
    ///
    /// Panics if `offset` exceeds the recorded length.
    #[must_use]
    pub fn replay_from(&self, offset: usize) -> ReplayRng {
        assert!(
            offset <= self.words.len(),
            "offset {offset} past the {}-word recording",
            self.words.len()
        );
        ReplayRng {
            words: Arc::clone(&self.words),
            pos: offset,
            tail: self.tail.clone(),
        }
    }
}

/// An RNG that replays a [`DrawTrace`] and then continues from its tail.
///
/// Bit-identical to the live stream the trace was recorded from, for any
/// number of draws.
#[derive(Debug, Clone)]
pub struct ReplayRng {
    words: Arc<[u64]>,
    pos: usize,
    tail: StdRng,
}

impl ReplayRng {
    /// Number of recorded words not yet replayed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.words.len() - self.pos
    }

    /// The replay cursor: words consumed so far (recorded prefix only — once
    /// past the recording the cursor stays at the recorded length).
    ///
    /// A driver that checkpoints mid-run stores this offset; resuming with
    /// [`DrawTrace::replay_from`] at the stored offset reproduces the
    /// remaining stream bit for bit.
    #[must_use]
    pub fn position(&self) -> usize {
        self.pos
    }
}

impl RngCore for ReplayRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        match self.words.get(self.pos) {
            Some(&w) => {
                self.pos += 1;
                w
            }
            None => self.tail.next_u64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn replay_is_bit_identical_including_past_the_prefix() {
        let mut live = StdRng::seed_from_u64(99);
        let mut recorder = RecordingRng::new(StdRng::seed_from_u64(99));
        let recorded: Vec<u64> = (0..100).map(|_| recorder.next_u64()).collect();
        let trace = recorder.into_trace();
        assert_eq!(trace.len(), 100);

        // Replay twice as many words as were recorded: the prefix comes from
        // the trace, the rest from the tail snapshot — all bit-identical.
        let mut replay = trace.replay();
        for (i, want) in (0..200).map(|i| (i, live.next_u64())) {
            if let Some(&rec) = recorded.get(i) {
                assert_eq!(want, rec);
            }
            assert_eq!(replay.next_u64(), want, "word {i}");
        }
    }

    #[test]
    fn replays_are_independent() {
        let mut recorder = RecordingRng::new(StdRng::seed_from_u64(5));
        let _ = (0..10).map(|_| recorder.next_u64()).count();
        let trace = recorder.into_trace();
        let mut a = trace.replay();
        let a_stream: Vec<u64> = (0..25).map(|_| a.next_u64()).collect();
        let mut b = trace.replay();
        let b_stream: Vec<u64> = (0..25).map(|_| b.next_u64()).collect();
        assert_eq!(a_stream, b_stream);
    }

    #[test]
    fn replay_from_matches_live_stream_at_arbitrary_offsets() {
        let mut live = StdRng::seed_from_u64(41);
        let mut recorder = RecordingRng::new(StdRng::seed_from_u64(41));
        for _ in 0..64 {
            recorder.next_u64();
        }
        let trace = recorder.into_trace();
        // The live stream extended past the recording, so offsets near the
        // end also exercise the prefix → tail hand-off.
        let extended: Vec<u64> = (0..128).map(|_| live.next_u64()).collect();
        // Every offset, including 0 and len: the resumed stream must equal
        // the live stream advanced by `offset` draws, word for word, across
        // the prefix/tail boundary.
        for offset in 0..=trace.len() {
            let mut resumed = trace.replay_from(offset);
            assert_eq!(resumed.position(), offset);
            for (i, want) in extended[offset..].iter().enumerate() {
                assert_eq!(resumed.next_u64(), *want, "offset {offset}, word {i}");
            }
            assert_eq!(resumed.position(), trace.len());
        }
    }

    #[test]
    #[should_panic(expected = "past the")]
    fn replay_from_rejects_offsets_past_the_recording() {
        let trace = RecordingRng::new(StdRng::seed_from_u64(1)).into_trace();
        let _ = trace.replay_from(1);
    }

    #[test]
    fn high_level_draws_match_through_the_adaptors() {
        // gen_range and friends go through next_u64, so distribution-level
        // draws replay identically too.
        let mut recorder = RecordingRng::new(StdRng::seed_from_u64(3));
        let live: Vec<f64> = (0..50).map(|_| recorder.gen_range(0.0..1.0)).collect();
        let mut replay = recorder.into_trace().replay();
        let replayed: Vec<f64> = (0..50).map(|_| replay.gen_range(0.0..1.0)).collect();
        assert_eq!(live, replayed);
    }
}
