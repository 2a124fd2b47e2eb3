//! Golden-value and model tests pinning the Greenwald–Khanna sketch's state
//! bit for bit.
//!
//! Every streaming soak percentile comes out of a [`GkSketch`], so a change
//! to how the insert buffer is folded (which tuples a compress merges, the
//! Δ a new tuple gets, the tie order of equal values) would silently move
//! every reported tail. The pins fold the sketch's whole state: the count,
//! each tuple's `(v bits, g, Δ)` and the insert buffer's bits, read through
//! the sketch's `Debug` form (its only public view of the tuple list; Rust
//! prints floats in a form that parses back to the same bits).
//!
//! The model check compares the sketch against the sort-merge-compress
//! fold kept below as the reference, [`RefSketch`], after every few pushes
//! and across merges, on streams that include `±0.0`.
//!
//! To re-capture after an *intentional* semantic change, run
//! `DIAS_GOLDEN_PRINT=1 cargo test -p dias-des --test golden_sketch -- --nocapture`
//! and replace the literals with the printed ones.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dias_des::stats::GkSketch;

/// FNV-1a over 64-bit words: order-sensitive and dependency-free.
fn fold(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A sketch's full state: count, tuples as `(v bits, g, Δ)`, buffer bits.
#[derive(Debug, PartialEq)]
struct State {
    count: u64,
    tuples: Vec<(u64, u64, u64)>,
    buf: Vec<u64>,
}

impl State {
    fn digest(&self) -> u64 {
        let words = std::iter::once(self.count)
            .chain(self.tuples.iter().flat_map(|&(v, g, d)| [v, g, d]))
            .chain(std::iter::once(u64::MAX))
            .chain(self.buf.iter().copied());
        words.fold(0xcbf2_9ce4_8422_2325, fold)
    }
}

/// The text between `start` and the next `end` after it.
fn between<'a>(text: &'a str, start: &str, end: &str) -> &'a str {
    let from = text.find(start).expect("field present") + start.len();
    let len = text[from..].find(end).expect("field terminated");
    &text[from..from + len]
}

fn bits(word: &str) -> u64 {
    word.trim().parse::<f64>().expect("a float").to_bits()
}

/// Reads a sketch's state from its `Debug` form.
fn state(sketch: &GkSketch) -> State {
    let text = format!("{sketch:?}");
    let count = between(&text, "count: ", ",").parse().expect("a count");
    let tuples = between(&text, "tuples: [", "]")
        .split("GkTuple {")
        .skip(1)
        .map(|t| {
            (
                bits(between(t, "v: ", ",")),
                between(t, "g: ", ",").parse().expect("a g"),
                between(t, "delta: ", " }").parse().expect("a delta"),
            )
        })
        .collect();
    let buf = between(&text, "buf: [", "]");
    let buf = if buf.is_empty() {
        Vec::new()
    } else {
        buf.split(',').map(bits).collect()
    };
    State { count, tuples, buf }
}

/// The reference sketch: buffered inserts folded by a stable sort, a
/// forward merge into a new list and a right-to-left compress into a
/// second list that is then reversed.
#[derive(Clone)]
struct RefSketch {
    eps: f64,
    count: u64,
    tuples: Vec<(f64, u64, u64)>,
    buf: Vec<f64>,
}

impl RefSketch {
    fn new(eps: f64) -> Self {
        RefSketch {
            eps,
            count: 0,
            tuples: Vec::new(),
            buf: Vec::new(),
        }
    }

    fn state(&self) -> State {
        State {
            count: self.count,
            tuples: self
                .tuples
                .iter()
                .map(|&(v, g, d)| (v.to_bits(), g, d))
                .collect(),
            buf: self.buf.iter().map(|x| x.to_bits()).collect(),
        }
    }

    fn push(&mut self, x: f64) {
        self.buf.push(x);
        self.count += 1;
        if self.buf.len() >= 256usize.max((1.0 / (2.0 * self.eps)).ceil() as usize) {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        self.buf.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let buf = std::mem::take(&mut self.buf);
        let old = std::mem::take(&mut self.tuples);
        let mut merged = Vec::with_capacity(old.len() + buf.len());
        let mut old_iter = old.into_iter().peekable();
        let mut n = self.count - buf.len() as u64;
        for x in buf {
            while old_iter.peek().is_some_and(|t| t.0 <= x) {
                merged.push(old_iter.next().unwrap());
            }
            n += 1;
            let extreme = merged.is_empty() || old_iter.peek().is_none();
            let delta = if extreme {
                0
            } else {
                ((2.0 * self.eps * n as f64).floor() as u64).saturating_sub(1)
            };
            merged.push((x, 1, delta));
        }
        merged.extend(old_iter);
        self.tuples = merged;
        self.compress();
    }

    fn compress(&mut self) {
        if self.tuples.len() <= 2 {
            return;
        }
        let cap = (2.0 * self.eps * self.count as f64).floor() as u64;
        let tuples = std::mem::take(&mut self.tuples);
        let mut rev: Vec<(f64, u64, u64)> = Vec::with_capacity(tuples.len());
        for (i, t) in tuples.into_iter().enumerate().rev() {
            if rev.is_empty() || i == 0 {
                rev.push(t);
                continue;
            }
            let succ = rev.last_mut().unwrap();
            if t.1 + succ.1 + succ.2 <= cap {
                succ.1 += t.1;
            } else {
                rev.push(t);
            }
        }
        rev.reverse();
        self.tuples = rev;
    }

    fn merge(&mut self, other: &RefSketch) {
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
        let bounds = |tuples: &[(f64, u64, u64)]| {
            let mut r_min = 0;
            tuples
                .iter()
                .map(|&(v, g, d)| {
                    r_min += g;
                    (v, r_min, r_min + d)
                })
                .collect::<Vec<_>>()
        };
        let a = bounds(&self.tuples);
        let b = bounds(&rhs.tuples);
        let (n_a, n_b) = (self.count, rhs.count);
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        let mut prev_r_min = 0;
        while i < a.len() || j < b.len() {
            let take_a = j >= b.len() || (i < a.len() && a[i].0 <= b[j].0);
            let (t, other, other_idx, other_n) = if take_a {
                i += 1;
                (a[i - 1], &b, j, n_b)
            } else {
                j += 1;
                (b[j - 1], &a, i, n_a)
            };
            let pred = if other_idx == 0 {
                0
            } else {
                other[other_idx - 1].1
            };
            let succ = if other_idx < other.len() {
                other[other_idx].2 - 1
            } else {
                other_n
            };
            let (r_min, r_max) = (t.1 + pred, t.2 + succ);
            out.push((t.0, r_min - prev_r_min, r_max - r_min));
            prev_r_min = r_min;
        }
        self.count = n_a + n_b;
        self.tuples = out;
        self.compress();
    }
}

/// Lognormal(0, 1.5) via Box–Muller: the heavy-tailed response-time shape.
fn lognormal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (1.5 * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()).exp()
}

/// The pinned stream shapes, `n` values each.
fn stream(shape: &str, n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| match shape {
            "sorted" => i as f64,
            "reverse" => (n - i) as f64,
            "tied" => (i % 7) as f64,
            "zero_heavy" => match rng.gen_range(0u32..10) {
                0..=3 => 0.0,
                4..=6 => -0.0,
                _ => lognormal(&mut rng),
            },
            "lognormal" => lognormal(&mut rng),
            _ => unreachable!("unknown shape {shape}"),
        })
        .collect()
}

const SHAPES: [&str; 5] = ["sorted", "reverse", "tied", "zero_heavy", "lognormal"];
const EPSILONS: [f64; 3] = [0.001, 0.01, 0.2];

/// Digest over the three ε of one shape's final state (12,345 pushes, not a
/// multiple of any buffer size, so a partial buffer is pinned too).
fn shape_digest(shape: &str) -> (u64, usize) {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let mut tuples = 0;
    for eps in EPSILONS {
        let mut sketch = GkSketch::with_epsilon(eps);
        for x in stream(shape, 12_345, 17) {
            sketch.push(x);
        }
        let s = state(&sketch);
        tuples += s.tuples.len();
        hash = fold(hash, s.digest());
    }
    (hash, tuples)
}

#[test]
fn sketch_states_are_pinned() {
    let want: [(u64, usize); 5] = [
        (0xfda1_2746_cd2c_6fee, 753),
        (0x8b2f_4016_2c48_da3d, 2_164),
        (0x81b7_7c41_c167_e237, 1_946),
        (0x4803_9d31_5c30_5d08, 1_777),
        (0x5cd2_c549_766c_a5eb, 913),
    ];
    let got = SHAPES.map(shape_digest);
    if std::env::var_os("DIAS_GOLDEN_PRINT").is_some() {
        println!("{got:#x?}");
    }
    for ((shape, got), want) in SHAPES.iter().zip(got).zip(want) {
        assert_eq!(got, want, "{shape}: sketch state diverged");
    }
}

#[test]
fn merged_state_is_pinned() {
    let mut a = GkSketch::with_epsilon(0.001);
    let mut b = GkSketch::with_epsilon(0.01);
    stream("lognormal", 7_001, 3)
        .into_iter()
        .for_each(|x| a.push(x));
    stream("zero_heavy", 5_003, 4)
        .into_iter()
        .for_each(|x| b.push(x));
    a.merge(&b);
    let got = (state(&a).digest(), state(&a).tuples.len());
    if std::env::var_os("DIAS_GOLDEN_PRINT").is_some() {
        println!("merged: ({:#018x}, {})", got.0, got.1);
    }
    assert_eq!(
        got,
        (0x4b7a_dfa3_91b6_bea4, 75),
        "merged sketch state diverged"
    );
}

#[test]
fn debug_state_reads_back_every_bit() {
    let mut sketch = GkSketch::with_epsilon(0.2);
    for x in [-0.0, 1e-300, 0.1, f64::INFINITY, -2.5e17] {
        sketch.push(x);
    }
    let mut model = RefSketch::new(0.2);
    for x in [-0.0, 1e-300, 0.1, f64::INFINITY, -2.5e17] {
        model.push(x);
    }
    assert_eq!(state(&sketch), model.state());
    assert_eq!(state(&sketch).buf[0], (-0.0f64).to_bits());
}

#[test]
fn sketch_matches_the_reference_fold() {
    for shape in SHAPES {
        for eps in EPSILONS {
            for n in [1, 2, 3, 255, 257, 1_001, 4_099] {
                let mut sketch = GkSketch::with_epsilon(eps);
                let mut model = RefSketch::new(eps);
                for (i, x) in stream(shape, n, n as u64).into_iter().enumerate() {
                    sketch.push(x);
                    model.push(x);
                    if i % 97 == 0 {
                        assert_eq!(state(&sketch), model.state(), "{shape} eps={eps} i={i}");
                    }
                }
                assert_eq!(state(&sketch), model.state(), "{shape} eps={eps} n={n}");
            }
        }
    }
}

#[test]
fn merge_matches_the_reference_fold() {
    for (i, (left, right)) in SHAPES.iter().zip(SHAPES.iter().rev()).enumerate() {
        for (eps_a, eps_b) in [(0.001, 0.01), (0.2, 0.001), (0.01, 0.01)] {
            let (mut a, mut ma) = (GkSketch::with_epsilon(eps_a), RefSketch::new(eps_a));
            let (mut b, mut mb) = (GkSketch::with_epsilon(eps_b), RefSketch::new(eps_b));
            for x in stream(left, 3_001 + i, 9) {
                a.push(x);
                ma.push(x);
            }
            for x in stream(right, 2_039, 10) {
                b.push(x);
                mb.push(x);
            }
            a.merge(&b);
            ma.merge(&mb);
            assert_eq!(state(&a), ma.state(), "{left}+{right}");
            // Pushing after a merge folds into the merged tuples.
            for x in stream(right, 777, 11) {
                a.push(x);
                ma.push(x);
            }
            assert_eq!(state(&a), ma.state(), "{left}+{right} then pushes");
        }
    }
}
