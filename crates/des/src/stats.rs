//! Statistics collectors for simulation output.
//!
//! Every experiment in the workspace reports means, percentiles and time-weighted
//! utilizations; these collectors are the single implementation they share.

use serde::{Deserialize, Serialize};

use crate::SimTime;

/// Streaming mean/variance via Welford's algorithm.
///
/// Numerically stable and O(1) memory; use when only the first two moments are needed.
///
/// # Examples
///
/// ```
/// use dias_des::stats::Welford;
///
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     w.push(x);
/// }
/// assert!((w.mean() - 5.0).abs() < 1e-12);
/// assert!((w.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (`M2 / n`); 0 when empty.
    ///
    /// This is the same normalization [`SampleSet::variance`] uses, so exact
    /// and streaming statistics backends agree on what "variance" means.
    #[must_use]
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Merges another accumulator into this one (parallel Welford combination).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
    }
}

/// A sample set retaining every observation, for exact quantiles.
///
/// Experiments in this workspace observe at most a few hundred thousand jobs, so
/// retaining samples is cheap and gives exact percentiles (the paper reports the
/// 95th percentile "tail latency" throughout its evaluation).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SampleSet {
    samples: Vec<f64>,
}

impl SampleSet {
    /// Creates an empty sample set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty sample set with room for `n` observations, so hot
    /// recording loops with a known sample budget never reallocate.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        SampleSet {
            samples: Vec::with_capacity(n),
        }
    }

    /// Adds an observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "sample cannot be NaN");
        self.samples.push(x);
    }

    /// Number of observations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` when no observations were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sample mean; 0 when empty.
    ///
    /// Computed on demand (left-to-right over the recorded samples, the same
    /// order an eager accumulator would produce): recording is the hot path,
    /// querying is not.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Mean of squares; 0 when empty. Useful for feeding M/G/1 formulas.
    #[must_use]
    pub fn mean_sq(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().map(|x| x * x).sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Sample variance (population form); 0 when empty.
    #[must_use]
    pub fn variance(&self) -> f64 {
        let m = self.mean();
        (self.mean_sq() - m * m).max(0.0)
    }

    /// Exact `q`-quantile with linear interpolation between order statistics.
    ///
    /// `q` must be in `[0, 1]`. Returns 0 when the set is empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            sorted[lo]
        } else {
            let frac = pos - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    }

    /// The 95th percentile, the paper's tail-latency metric.
    #[must_use]
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// Largest observation; 0 when empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.samples.iter().copied().fold(0.0, f64::max)
    }

    /// Read-only view of the raw samples.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Merges `other` into this set by appending its quantile buffer.
    ///
    /// Because the set retains every observation, the merge is *exact*: the
    /// count is the sum of counts, and every moment and every quantile of
    /// the merged set equals the statistic computed over the pooled
    /// observations — there is no sketch error to track. Merging is
    /// associative, the empty set is a neutral element, and merging the same
    /// parts in the same order always yields bitwise-identical statistics,
    /// which is what lets parallel Monte-Carlo replications fan out and
    /// recombine deterministically.
    pub fn merge(&mut self, other: &SampleSet) {
        self.samples.extend_from_slice(&other.samples);
    }
}

impl FromIterator<f64> for SampleSet {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = SampleSet::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

impl Extend<f64> for SampleSet {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

/// Common interface over exact ([`SampleSet`]) and streaming
/// ([`StreamingSummary`]) per-metric statistics backends.
///
/// Closed fixed-N experiments keep every observation for exact percentiles;
/// open-system soaks over millions of jobs cannot. Harness code that is
/// generic over this trait works with either backend: `quantile` is exact for
/// `SampleSet` and ε-approximate (rank error ≤ εn, see [`GkSketch`]) for
/// `StreamingSummary`, while `count`, `mean` and `merge` are exact for both.
pub trait SampleStats: Clone + Default + PartialEq + std::fmt::Debug {
    /// Records an observation. Panics on NaN for both backends.
    fn push(&mut self, x: f64);

    /// Number of observations recorded.
    fn count(&self) -> u64;

    /// Returns `true` when no observations were recorded.
    fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Sample mean; 0 when empty.
    fn mean(&self) -> f64;

    /// Population variance (`E[X²] − E[X]²` normalization); 0 when empty.
    fn variance(&self) -> f64;

    /// The `q`-quantile for `q ∈ [0, 1]`; 0 when empty. Exact or
    /// ε-approximate in rank depending on the backend.
    fn quantile(&self, q: f64) -> f64;

    /// The 95th percentile, the paper's tail-latency metric.
    fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// Largest observation; 0 when empty.
    fn max(&self) -> f64;

    /// Merges another collector of the same backend into this one.
    fn merge(&mut self, other: &Self);

    /// Number of live heap objects held (buffered samples or sketch nodes).
    ///
    /// Feeds the soak harness's live-object high-water-mark memory proxy: for
    /// `SampleSet` this is the full sample count (which is exactly why it
    /// cannot back an open-system soak), for `StreamingSummary` it is the
    /// bounded sketch node count.
    fn live_nodes(&self) -> usize;
}

impl SampleStats for SampleSet {
    fn push(&mut self, x: f64) {
        SampleSet::push(self, x);
    }

    fn count(&self) -> u64 {
        self.len() as u64
    }

    fn is_empty(&self) -> bool {
        SampleSet::is_empty(self)
    }

    fn mean(&self) -> f64 {
        SampleSet::mean(self)
    }

    fn variance(&self) -> f64 {
        SampleSet::variance(self)
    }

    fn quantile(&self, q: f64) -> f64 {
        SampleSet::quantile(self, q)
    }

    fn p95(&self) -> f64 {
        SampleSet::p95(self)
    }

    fn max(&self) -> f64 {
        SampleSet::max(self)
    }

    fn merge(&mut self, other: &Self) {
        SampleSet::merge(self, other);
    }

    fn live_nodes(&self) -> usize {
        self.len()
    }
}

/// Streaming first/second moments plus exact extremes, O(1) memory.
///
/// A [`Welford`] accumulator extended with running min/max so it can stand in
/// for the moment-side of a [`SampleSet`] (`mean`, `variance`, `max`) without
/// retaining observations. Mean and count merge exactly (parallel Welford);
/// like the rest of the collectors, empty-set queries return 0.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamingMoments {
    welford: Welford,
    min: f64,
    max: f64,
}

impl Default for StreamingMoments {
    fn default() -> Self {
        StreamingMoments {
            welford: Welford::new(),
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl StreamingMoments {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "sample cannot be NaN");
        self.welford.push(x);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.welford.count()
    }

    /// Returns `true` when no observations were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Sample mean; 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.welford.mean()
    }

    /// Population variance (`M2 / n`); 0 when empty.
    #[must_use]
    pub fn variance(&self) -> f64 {
        self.welford.population_variance()
    }

    /// Smallest observation; 0 when empty (matching [`SampleSet::max`]'s
    /// empty-set convention).
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation; 0 when empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.max
        }
    }

    /// Merges another accumulator into this one. Exact: count, mean and M2
    /// combine by the parallel Welford rule, extremes by min/max.
    pub fn merge(&mut self, other: &StreamingMoments) {
        if other.is_empty() {
            return;
        }
        self.welford.merge(&other.welford);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Default rank-error bound for streaming quantile sketches: quantile queries
/// are accurate to ±1% of the stream length in rank.
pub const DEFAULT_SKETCH_EPSILON: f64 = 0.01;

/// One Greenwald–Khanna summary tuple: a stored value `v` covering `g`
/// observations, with `delta` bounding the extra rank uncertainty.
///
/// With `r_min(i) = Σ_{j≤i} g_j` and `r_max(i) = r_min(i) + Δ_i`, the true
/// rank of `v_i` in the stream lies in `[r_min(i), r_max(i)]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct GkTuple {
    v: f64,
    g: u64,
    delta: u64,
}

/// Greenwald–Khanna ε-approximate streaming quantile sketch.
///
/// Maintains a sorted list of `GkTuple`s under the GK invariant
/// `g_i + Δ_i ≤ ⌊2εn⌋` (with the first and last tuples pinning the exact
/// min/max). Under that invariant a quantile query returns a value whose rank
/// differs from the requested rank by at most `εn` — the classic
/// Greenwald–Khanna bound (SIGMOD 2001) — in `O((1/ε)·log(εn))` space.
///
/// Inserts are buffered (capacity `max(256, ⌈1/(2ε)⌉)`) and folded in by a
/// stable sort and one backward pass that merges and compresses in place,
/// so amortized insert cost stays logarithmic rather than paying an
/// `O(nodes)` memmove per observation. [`GkSketch::merge`]
/// combines two sketches *losslessly with respect to their rank bounds*: each
/// merged tuple's `[r_min, r_max]` interval is derived from both inputs, so
/// the merged sketch answers queries with error ≤ `max(ε_a, ε_b)·n`.
///
/// # Examples
///
/// ```
/// use dias_des::stats::GkSketch;
///
/// let mut s = GkSketch::with_epsilon(0.01);
/// for i in 0..10_000 {
///     s.push(f64::from(i));
/// }
/// let p50 = s.quantile(0.5);
/// assert!((p50 - 5000.0).abs() <= 100.0); // rank error ≤ εn = 100
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GkSketch {
    eps: f64,
    count: u64,
    tuples: Vec<GkTuple>,
    buf: Vec<f64>,
}

impl Default for GkSketch {
    fn default() -> Self {
        GkSketch::with_epsilon(DEFAULT_SKETCH_EPSILON)
    }
}

impl GkSketch {
    /// Creates an empty sketch with rank-error bound `eps`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < eps < 0.5`.
    #[must_use]
    pub fn with_epsilon(eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 0.5, "sketch epsilon must be in (0, 0.5)");
        GkSketch {
            eps,
            count: 0,
            tuples: Vec::new(),
            buf: Vec::new(),
        }
    }

    /// The sketch's rank-error bound ε.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.eps
    }

    /// Number of observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns `true` when no observations were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Live summary size: retained tuples plus not-yet-folded buffer entries.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.tuples.len() + self.buf.len()
    }

    fn buf_capacity(&self) -> usize {
        256usize.max((1.0 / (2.0 * self.eps)).ceil() as usize)
    }

    /// Records an observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "sample cannot be NaN");
        self.buf.push(x);
        self.count += 1;
        if self.buf.len() >= self.buf_capacity() {
            self.flush();
        }
    }

    /// Folds the insert buffer into the tuple list and compresses, in one
    /// backward pass in place.
    ///
    /// The sorted buffer is merged with the tuples from the largest value
    /// down (a buffered value goes after every tuple with `v ≤ x`, so ties
    /// keep tuples first), and each merged element is handed straight to
    /// the right-to-left compress. The tuple list is first extended by the
    /// buffer's length; since the write cursor never passes the unread
    /// tuples, the result builds up at the back of the list and is then
    /// moved to the front.
    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        self.buf
            .sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
        let old_len = self.tuples.len();
        let len = old_len + self.buf.len();
        let cap = (2.0 * self.eps * self.count as f64).floor() as u64;
        // Observations the tuple list accounts for before the buffer: the
        // GK insert rule caps the `k`-th buffered value's uncertainty at
        // ⌊2ε(base + k + 1)⌋ − 1 (0 for a new global extreme, whose rank is
        // known exactly).
        let base = self.count - self.buf.len() as u64;
        self.tuples.resize(
            len,
            GkTuple {
                v: 0.0,
                g: 0,
                delta: 0,
            },
        );
        let (mut i, mut j, mut w) = (old_len, self.buf.len(), len);
        while i + j > 0 {
            let t = if j > 0 && (i == 0 || self.tuples[i - 1].v <= self.buf[j - 1]) {
                j -= 1;
                // A new maximum has no old tuple after it; a new minimum is
                // the smallest buffered value with no old tuple before it.
                let extreme = i == old_len || (i == 0 && j == 0);
                let delta = if extreme {
                    0
                } else {
                    let n = base + j as u64 + 1;
                    ((2.0 * self.eps * n as f64).floor() as u64).saturating_sub(1)
                };
                GkTuple {
                    v: self.buf[j],
                    g: 1,
                    delta,
                }
            } else {
                i -= 1;
                self.tuples[i]
            };
            w = compress_step(&mut self.tuples, w, len, t, i + j == 0, cap);
        }
        self.tuples.copy_within(w.., 0);
        self.tuples.truncate(len - w);
        self.buf.clear();
    }

    /// GK COMPRESS: greedily merges adjacent tuples (right-to-left, each into
    /// its successor) while the invariant `g_i + g_{i+1} + Δ_{i+1} ≤ ⌊2εn⌋`
    /// allows, never touching the first or last tuple (exact extremes).
    fn compress(&mut self) {
        let cap = (2.0 * self.eps * self.count as f64).floor() as u64;
        let len = self.tuples.len();
        let mut w = len;
        for i in (0..len).rev() {
            let t = self.tuples[i];
            w = compress_step(&mut self.tuples, w, len, t, i == 0, cap);
        }
        self.tuples.copy_within(w.., 0);
        self.tuples.truncate(len - w);
    }

    /// The `q`-quantile for `q ∈ [0, 1]`; 0 when empty.
    ///
    /// Returns a stored value whose rank is within `εn` of `⌈qn⌉`. Queries on
    /// a sketch with a non-empty insert buffer fold a clone first, so the
    /// sketch itself can stay `&self`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.count == 0 {
            return 0.0;
        }
        if self.buf.is_empty() {
            return self.quantile_flushed(q);
        }
        let mut folded = self.clone();
        folded.flush();
        folded.quantile_flushed(q)
    }

    fn quantile_flushed(&self, q: f64) -> f64 {
        // The first and last tuples pin the exact extremes (Δ = 0 on insert,
        // never removed by compress), so the endpoints are answered exactly.
        if q == 0.0 {
            return self.tuples[0].v;
        }
        if q == 1.0 {
            return self.tuples[self.tuples.len() - 1].v;
        }
        let n = self.count as f64;
        let rank = (q * n).ceil().max(1.0);
        let slack = self.eps * n;
        let mut r_min = 0u64;
        let mut prev_v = self.tuples[0].v;
        for t in &self.tuples {
            r_min += t.g;
            let r_max = r_min + t.delta;
            if r_max as f64 > rank + slack {
                return prev_v;
            }
            prev_v = t.v;
        }
        prev_v
    }

    /// Merges another sketch into this one.
    ///
    /// Implements the rank-bound-preserving combine: both sides are flushed,
    /// the tuple lists are merge-sorted, and each output tuple's rank
    /// interval is `r_min = r_min_own + r_min_other(pred)`,
    /// `r_max = r_max_own + r_max_other(succ) − 1` (or `+ n_other` past the
    /// last tuple of the other side), after which `(g, Δ)` are recovered from
    /// consecutive intervals. The result satisfies the GK query guarantee at
    /// `ε = max(ε_self, ε_other)` and is then re-compressed at the combined
    /// count. Merging an empty sketch is bitwise neutral.
    pub fn merge(&mut self, other: &GkSketch) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.flush();
        let mut rhs = other.clone();
        rhs.flush();
        self.eps = self.eps.max(rhs.eps);

        fn bounds(tuples: &[GkTuple]) -> Vec<(f64, u64, u64)> {
            let mut out = Vec::with_capacity(tuples.len());
            let mut r_min = 0u64;
            for t in tuples {
                r_min += t.g;
                out.push((t.v, r_min, r_min + t.delta));
            }
            out
        }

        let a = bounds(&std::mem::take(&mut self.tuples));
        let b = bounds(&rhs.tuples);
        let (n_a, n_b) = (self.count, rhs.count);
        let mut out: Vec<GkTuple> = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0usize, 0usize);
        let mut prev_r_min = 0u64;
        while i < a.len() || j < b.len() {
            let take_a = j >= b.len() || (i < a.len() && a[i].0 <= b[j].0);
            let (v, own_min, own_max, other, other_idx, other_n) = if take_a {
                let t = a[i];
                i += 1;
                (t.0, t.1, t.2, &b, j, n_b)
            } else {
                let t = b[j];
                j += 1;
                (t.0, t.1, t.2, &a, i, n_a)
            };
            let pred_other_min = if other_idx == 0 {
                0
            } else {
                other[other_idx - 1].1
            };
            let succ_other = if other_idx < other.len() {
                other[other_idx].2 - 1
            } else {
                other_n
            };
            let r_min = own_min + pred_other_min;
            let r_max = own_max + succ_other;
            debug_assert!(r_min > prev_r_min, "merged r_min must be increasing");
            debug_assert!(r_max >= r_min);
            out.push(GkTuple {
                v,
                g: r_min - prev_r_min,
                delta: r_max - r_min,
            });
            prev_r_min = r_min;
        }
        self.count = n_a + n_b;
        self.tuples = out;
        self.compress();
    }
}

/// One step of the right-to-left GK COMPRESS over `tuples[w..end]`, the
/// compressed suffix built so far: `t`, the next tuple leftwards, folds its
/// `g` into the suffix's first tuple when `t.g + g + Δ ≤ cap`, and is
/// otherwise written at `w − 1`. The last tuple (the suffix's first write)
/// and the `first` tuple of the list are always kept. Returns the new `w`.
fn compress_step(
    tuples: &mut [GkTuple],
    w: usize,
    end: usize,
    t: GkTuple,
    first: bool,
    cap: u64,
) -> usize {
    if w < end && !first {
        let succ = &mut tuples[w];
        if t.g + succ.g + succ.delta <= cap {
            succ.g += t.g;
            return w;
        }
    }
    tuples[w - 1] = t;
    w - 1
}

/// O(1)-memory drop-in for [`SampleSet`]: streaming moments plus a
/// Greenwald–Khanna quantile sketch.
///
/// This is the streaming statistics backend for open-system soak runs:
/// `count`, `mean`, `variance` and `max` are exact (Welford + running
/// extremes), `quantile` is ε-approximate in rank (default
/// [`DEFAULT_SKETCH_EPSILON`] = 1%), and `merge` combines both parts without
/// widening the sketch's error bound beyond `max(ε_a, ε_b)`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StreamingSummary {
    moments: StreamingMoments,
    sketch: GkSketch,
}

impl StreamingSummary {
    /// Creates an empty summary at the default ε.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty summary with sketch rank-error bound `eps`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < eps < 0.5`.
    #[must_use]
    pub fn with_epsilon(eps: f64) -> Self {
        StreamingSummary {
            moments: StreamingMoments::new(),
            sketch: GkSketch::with_epsilon(eps),
        }
    }

    /// The underlying sketch's rank-error bound ε.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.sketch.epsilon()
    }

    /// Smallest observation; 0 when empty.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.moments.min()
    }

    /// Access to the exact streaming moments.
    #[must_use]
    pub fn moments(&self) -> &StreamingMoments {
        &self.moments
    }

    /// Access to the quantile sketch.
    #[must_use]
    pub fn sketch(&self) -> &GkSketch {
        &self.sketch
    }
}

impl SampleStats for StreamingSummary {
    fn push(&mut self, x: f64) {
        self.moments.push(x);
        self.sketch.push(x);
    }

    fn count(&self) -> u64 {
        self.moments.count()
    }

    fn mean(&self) -> f64 {
        self.moments.mean()
    }

    fn variance(&self) -> f64 {
        self.moments.variance()
    }

    fn quantile(&self, q: f64) -> f64 {
        self.sketch.quantile(q)
    }

    fn max(&self) -> f64 {
        self.moments.max()
    }

    fn merge(&mut self, other: &Self) {
        self.moments.merge(&other.moments);
        self.sketch.merge(&other.sketch);
    }

    fn live_nodes(&self) -> usize {
        self.sketch.nodes()
    }
}

/// Integrates a piecewise-constant signal over simulated time.
///
/// The energy meter integrates cluster power with it.
///
/// # Examples
///
/// ```
/// use dias_des::stats::TimeWeighted;
/// use dias_des::SimTime;
///
/// let mut u = TimeWeighted::new(SimTime::ZERO, 0.0);
/// u.set(SimTime::from_secs(2.0), 1.0); // signal was 0 for 2s
/// u.set(SimTime::from_secs(6.0), 0.0); // signal was 1 for 4s
/// assert_eq!(u.integral(SimTime::from_secs(6.0)), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeWeighted {
    last_time: SimTime,
    value: f64,
    integral: f64,
}

impl TimeWeighted {
    /// Starts integrating at `start` with initial signal `value`.
    #[must_use]
    pub fn new(start: SimTime, value: f64) -> Self {
        TimeWeighted {
            last_time: start,
            value,
            integral: 0.0,
        }
    }

    /// Updates the signal to `value` at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous update (time must be monotone).
    pub fn set(&mut self, now: SimTime, value: f64) {
        assert!(now >= self.last_time, "time must not run backwards");
        self.integral += self.value * (now - self.last_time);
        self.last_time = now;
        self.value = value;
    }

    /// Current signal value.
    #[must_use]
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Integral of the signal from start until `now`.
    #[must_use]
    pub fn integral(&self, now: SimTime) -> f64 {
        self.integral + self.value * (now - self.last_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [1.0, 2.0, 3.0, 4.0, 10.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.population_variance() - var).abs() < 1e-12);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = Welford::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.population_variance() - all.population_variance()).abs() < 1e-9);
        assert_eq!(a.count(), all.count());
    }

    #[test]
    fn sampleset_quantiles() {
        let s: SampleSet = (1..=100).map(f64::from).collect();
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert!((s.quantile(0.5) - 50.5).abs() < 1e-12);
        assert!((s.p95() - 95.05).abs() < 1e-9);
        assert_eq!(s.mean(), 50.5);
        assert_eq!(s.max(), 100.0);
    }

    #[test]
    fn sampleset_empty_is_zero() {
        let s = SampleSet::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.quantile(0.5), 0.0);
        assert!(s.is_empty());
    }

    #[test]
    fn sampleset_merge() {
        let mut a: SampleSet = [1.0, 2.0].into_iter().collect();
        let b: SampleSet = [3.0, 4.0].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.mean(), 2.5);
    }

    #[test]
    fn sampleset_merge_is_exact_for_moments_and_quantiles() {
        // Split a skewed sample three ways; the merge of the parts must agree
        // with the pooled set on count, moments, and every probed quantile —
        // bitwise, not approximately.
        let xs: Vec<f64> = (0..997).map(|i| ((i * 97) % 251) as f64 * 0.37).collect();
        let pooled: SampleSet = xs.iter().copied().collect();
        let mut merged = SampleSet::new();
        for chunk in xs.chunks(310) {
            let part: SampleSet = chunk.iter().copied().collect();
            merged.merge(&part);
        }
        assert_eq!(merged.len(), pooled.len());
        assert_eq!(merged.mean(), pooled.mean());
        assert_eq!(merged.mean_sq(), pooled.mean_sq());
        assert_eq!(merged.variance(), pooled.variance());
        assert_eq!(merged.max(), pooled.max());
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.999, 1.0] {
            assert_eq!(merged.quantile(q), pooled.quantile(q), "quantile {q}");
        }
    }

    #[test]
    fn sampleset_merge_empty_is_neutral_and_associative() {
        let a: SampleSet = [5.0, 1.0, 3.0].into_iter().collect();
        let b: SampleSet = [2.0, 4.0].into_iter().collect();
        let c: SampleSet = [9.0].into_iter().collect();
        // Neutral element on both sides.
        let mut left = SampleSet::new();
        left.merge(&a);
        assert_eq!(left, a);
        let mut right = a.clone();
        right.merge(&SampleSet::new());
        assert_eq!(right, a);
        // (a ∪ b) ∪ c == a ∪ (b ∪ c): same retained sequence either way.
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn sampleset_rejects_nan() {
        SampleSet::new().push(f64::NAN);
    }

    #[test]
    fn sampleset_empty_edge_cases_pinned() {
        // The audit for the streaming backend: every query on an empty set
        // returns 0 (not NaN, not a panic) at every probed q, including the
        // endpoints — the sketch mirrors exactly this contract.
        let s = SampleSet::new();
        for q in [0.0, 0.25, 0.5, 0.95, 1.0] {
            assert_eq!(s.quantile(q), 0.0, "empty quantile({q})");
        }
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.mean_sq(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.p95(), 0.0);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn sampleset_one_element_edge_cases_pinned() {
        // A single observation is every quantile of itself (interpolation
        // must not index out of bounds at q=1), and is mean, max, and p95.
        let mut s = SampleSet::new();
        s.push(7.25);
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(s.quantile(q), 7.25, "singleton quantile({q})");
        }
        assert_eq!(s.mean(), 7.25);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.max(), 7.25);
        // Negative singleton: max() folds from 0.0, pinning the documented
        // "0 when empty" identity even though it masks negative extremes —
        // response/queueing metrics are all non-negative, so this is safe,
        // but the contract is pinned here so a change is a conscious one.
        let mut neg = SampleSet::new();
        neg.push(-3.0);
        assert_eq!(neg.quantile(0.5), -3.0);
        assert_eq!(neg.max(), 0.0);
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0,1]")]
    fn sampleset_rejects_out_of_range_quantile() {
        let mut s = SampleSet::new();
        s.push(1.0);
        let _ = s.quantile(1.5);
    }

    #[test]
    fn streaming_moments_match_exact() {
        let xs: Vec<f64> = (0..500)
            .map(|i| ((i * 37) % 101) as f64 * 0.5 - 10.0)
            .collect();
        let exact: SampleSet = xs.iter().copied().collect();
        let mut m = StreamingMoments::new();
        for &x in &xs {
            m.push(x);
        }
        assert_eq!(m.count(), exact.len() as u64);
        assert!((m.mean() - exact.mean()).abs() < 1e-9);
        assert!((m.variance() - exact.variance()).abs() < 1e-9);
        assert_eq!(
            m.max(),
            xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        );
        assert_eq!(m.min(), xs.iter().copied().fold(f64::INFINITY, f64::min));
    }

    #[test]
    fn streaming_moments_empty_and_merge() {
        let mut a = StreamingMoments::new();
        assert_eq!(a.mean(), 0.0);
        assert_eq!(a.variance(), 0.0);
        assert_eq!(a.min(), 0.0);
        assert_eq!(a.max(), 0.0);
        let mut b = StreamingMoments::new();
        b.push(2.0);
        b.push(4.0);
        a.merge(&b);
        assert_eq!(a, b);
        let empty = StreamingMoments::new();
        a.merge(&empty);
        assert_eq!(a, b);
    }

    #[test]
    fn gk_sketch_small_stream_is_exact_enough() {
        // Below the buffer capacity the sketch holds raw samples, so the
        // query path must still work against the buffered (unflushed) state.
        let mut s = GkSketch::with_epsilon(0.01);
        for i in 1..=100 {
            s.push(f64::from(i));
        }
        assert_eq!(s.count(), 100);
        let p50 = s.quantile(0.5);
        assert!((p50 - 50.0).abs() <= 1.0 + 1e-9, "p50 = {p50}");
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 100.0);
    }

    #[test]
    fn gk_sketch_empty_and_singleton_mirror_sampleset() {
        let s = GkSketch::default();
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(s.quantile(q), 0.0);
        }
        assert!(s.is_empty());
        assert_eq!(s.nodes(), 0);
        let mut one = GkSketch::default();
        one.push(7.25);
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(one.quantile(q), 7.25);
        }
    }

    #[test]
    fn gk_sketch_merge_empty_is_bitwise_neutral() {
        let mut s = GkSketch::with_epsilon(0.02);
        for i in 0..1000 {
            s.push(f64::from(i) * 0.3);
        }
        let before = s.clone();
        s.merge(&GkSketch::with_epsilon(0.02));
        assert_eq!(s, before);
        let mut empty = GkSketch::with_epsilon(0.02);
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn streaming_summary_tracks_exact_set() {
        let xs: Vec<f64> = (0..20_000)
            .map(|i| (((i * 193) % 7919) as f64).sqrt() * 3.0)
            .collect();
        let exact: SampleSet = xs.iter().copied().collect();
        let mut stream = StreamingSummary::new();
        for &x in &xs {
            SampleStats::push(&mut stream, x);
        }
        let n = xs.len() as f64;
        assert_eq!(SampleStats::count(&stream), exact.len() as u64);
        assert!((SampleStats::mean(&stream) - exact.mean()).abs() < 1e-9);
        assert!((SampleStats::variance(&stream) - exact.variance()).abs() < 1e-6);
        assert_eq!(SampleStats::max(&stream), exact.max());
        // Rank error ≤ εn ⇒ the returned value sits between the order
        // statistics at ranks ⌈qn⌉ ± εn.
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.5, 0.9, 0.95, 0.99] {
            let v = SampleStats::quantile(&stream, q);
            let rank = (q * n).ceil();
            let eps_n = stream.epsilon() * n;
            let lo = ((rank - eps_n).floor().max(1.0) as usize) - 1;
            let hi = ((rank + eps_n).ceil().min(n) as usize) - 1;
            assert!(
                v >= sorted[lo] && v <= sorted[hi],
                "q={q}: {v} outside [{}, {}]",
                sorted[lo],
                sorted[hi]
            );
        }
        // Sub-linear space: far fewer live nodes than observations.
        assert!(
            SampleStats::live_nodes(&stream) < xs.len() / 10,
            "nodes = {}",
            SampleStats::live_nodes(&stream)
        );
    }

    #[test]
    fn time_weighted_integral() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 2.0);
        tw.set(SimTime::from_secs(3.0), 5.0);
        tw.set(SimTime::from_secs(4.0), 0.0);
        // 2*3 + 5*1 + 0*...
        assert_eq!(tw.integral(SimTime::from_secs(10.0)), 11.0);
        assert_eq!(tw.value(), 0.0);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn time_weighted_rejects_backwards_time() {
        let mut tw = TimeWeighted::new(SimTime::from_secs(5.0), 0.0);
        tw.set(SimTime::from_secs(4.0), 1.0);
    }
}
