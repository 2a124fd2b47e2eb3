//! Synthetic StackExchange-like text analytics with a real word-count job.
//!
//! The paper's text workload parses XML dumps of 164 StackExchange sites and counts
//! word frequencies per topic. This module generates a synthetic corpus with the
//! same statistical shape — topics, posts wrapped in pseudo-XML, Zipf-distributed
//! vocabulary — and implements the word count as an actual map/reduce computation
//! over partitions, so that dropping map tasks produces *measurable* accuracy loss
//! (Fig. 6), not a modeled one.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use dias_des::SeedSequence;
use dias_stochastic::ZipfSampler;

/// Configuration of the synthetic corpus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusConfig {
    /// Number of topics (the paper uses 164 StackExchange sites).
    pub topics: usize,
    /// Posts generated per topic.
    pub posts_per_topic: usize,
    /// Words per post (fixed count; post lengths hardly matter statistically).
    pub words_per_post: usize,
    /// Vocabulary size per topic.
    pub vocabulary: usize,
    /// Zipf exponent of word frequencies (natural text ≈ 1.0–1.2).
    pub zipf_exponent: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig::paper_fig6()
    }
}

impl CorpusConfig {
    /// The corpus whose accuracy-vs-drop curve calibrates to the paper's Fig. 6
    /// (≈ 8.5% MAPE at θ = 0.1, ≈ 15% at 0.2, ≈ 25–32% at 0.4, ≈ 60% at 0.8 when
    /// measured with [`accuracy_curve`] over 50 partitions and all words).
    #[must_use]
    pub fn paper_fig6() -> Self {
        CorpusConfig {
            topics: 8,
            posts_per_topic: 300,
            words_per_post: 60,
            vocabulary: 3000,
            zipf_exponent: 1.1,
            seed: 7,
        }
    }
}

/// A generated corpus: posts per topic, each wrapped in row-XML like the
/// StackExchange data dumps.
#[derive(Debug, Clone)]
pub struct Corpus {
    topics: Vec<Vec<String>>,
}

impl Corpus {
    /// Generates a corpus.
    ///
    /// # Panics
    ///
    /// Panics if any dimension of the configuration is zero.
    #[must_use]
    pub fn generate(cfg: &CorpusConfig) -> Self {
        assert!(
            cfg.topics > 0 && cfg.posts_per_topic > 0 && cfg.words_per_post > 0,
            "corpus dimensions must be positive"
        );
        assert!(cfg.vocabulary > 0, "vocabulary must be positive");
        let seeds = SeedSequence::new(cfg.seed);
        let zipf = ZipfSampler::new(cfg.vocabulary, cfg.zipf_exponent);
        let topics = (0..cfg.topics)
            .map(|t| {
                let mut rng: StdRng = seeds.stream(&format!("corpus/topic-{t}"));
                (0..cfg.posts_per_topic)
                    .map(|p| {
                        let mut body = String::with_capacity(cfg.words_per_post * 8);
                        for _ in 0..cfg.words_per_post {
                            let rank = zipf.sample(&mut rng);
                            // Word identity: topic-local token derived from rank.
                            body.push_str(&format!("w{rank} "));
                        }
                        format!(
                            "<row Id=\"{p}\" PostTypeId=\"{}\" Body=\"{}\" />",
                            rng.gen_range(1..3),
                            body.trim_end()
                        )
                    })
                    .collect()
            })
            .collect();
        Corpus { topics }
    }

    /// Number of topics.
    #[must_use]
    pub fn topics(&self) -> usize {
        self.topics.len()
    }

    /// Splits every topic's posts into `partitions` round-robin partitions — the
    /// RDD partitioning the word-count job maps over.
    #[must_use]
    pub fn partition(&self, partitions: usize) -> Vec<Vec<&str>> {
        assert!(partitions > 0, "need at least one partition");
        let mut out: Vec<Vec<&str>> = vec![Vec::new(); partitions];
        let mut i = 0;
        for topic in &self.topics {
            for post in topic {
                out[i % partitions].push(post.as_str());
                i += 1;
            }
        }
        out
    }
}

/// The map task of the word-count job: parse the pseudo-XML rows of a partition,
/// extract each `Body`, tokenize and count.
///
/// This is the real computation the paper's map tasks perform ("first parsing the
/// XML to extract the posts of users followed by counting the frequency of words").
#[must_use]
pub fn map_word_count(partition: &[&str]) -> HashMap<String, u64> {
    let mut counts = HashMap::new();
    for row in partition {
        if let Some(body) = extract_attribute(row, "Body") {
            for token in body.split_whitespace() {
                let word = token.trim_matches(|c: char| !c.is_alphanumeric());
                if !word.is_empty() {
                    *counts.entry(word.to_string()).or_insert(0) += 1;
                }
            }
        }
    }
    counts
}

/// The reduce task: merge per-partition counts.
#[must_use]
pub fn reduce_word_counts(parts: Vec<HashMap<String, u64>>) -> HashMap<String, u64> {
    let mut total = HashMap::new();
    for part in parts {
        for (w, c) in part {
            *total.entry(w).or_insert(0) += c;
        }
    }
    total
}

/// Extracts the value of `attr="…"` from a pseudo-XML row.
fn extract_attribute<'a>(row: &'a str, attr: &str) -> Option<&'a str> {
    let needle = format!("{attr}=\"");
    let start = row.find(&needle)? + needle.len();
    let end = row[start..].find('"')? + start;
    Some(&row[start..end])
}

/// Runs the full word-count job over `partitions`, dropping a fraction `theta` of
/// the map tasks (the first `⌈n(1−θ)⌉` are kept, matching the engine's dropper) and
/// scaling the surviving counts by the Horvitz–Thompson factor `n/kept`.
///
/// Returns the estimated word counts.
///
/// # Panics
///
/// Panics if `theta` is outside `[0, 1]` or there are no partitions.
#[must_use]
pub fn word_count_with_drop(partitions: &[Vec<&str>], theta: f64) -> HashMap<String, f64> {
    assert!((0.0..=1.0).contains(&theta), "theta must be in [0,1]");
    assert!(!partitions.is_empty(), "need at least one partition");
    let n = partitions.len();
    let keep = ((n as f64) * (1.0 - theta)).ceil() as usize;
    let mapped: Vec<HashMap<String, u64>> = partitions[..keep]
        .iter()
        .map(|p| map_word_count(p))
        .collect();
    let reduced = reduce_word_counts(mapped);
    let scale = if keep == 0 {
        0.0
    } else {
        n as f64 / keep as f64
    };
    reduced
        .into_iter()
        .map(|(w, c)| (w, c as f64 * scale))
        .collect()
}

/// Mean absolute percentage error of estimated counts against exact counts over the
/// `top_n` most frequent words — the paper's Fig. 6 metric.
///
/// # Panics
///
/// Panics if the exact counts are empty.
#[must_use]
pub fn mean_absolute_pct_error(
    exact: &HashMap<String, u64>,
    estimate: &HashMap<String, f64>,
    top_n: usize,
) -> f64 {
    assert!(!exact.is_empty(), "exact counts must be non-empty");
    let mut words: Vec<(&String, &u64)> = exact.iter().collect();
    words.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
    let take = top_n.min(words.len()).max(1);
    let mut total = 0.0;
    for (w, &c) in words.into_iter().take(take) {
        let est = estimate.get(w).copied().unwrap_or(0.0);
        total += (est - c as f64).abs() / c as f64 * 100.0;
    }
    total / take as f64
}

/// Measures the accuracy-loss curve: MAPE for each drop ratio in `thetas`, over a
/// fresh corpus with `cfg`.
#[must_use]
pub fn accuracy_curve(
    cfg: &CorpusConfig,
    partitions: usize,
    thetas: &[f64],
    top_n: usize,
) -> Vec<(f64, f64)> {
    let corpus = Corpus::generate(cfg);
    let parts = corpus.partition(partitions);
    let exact = reduce_word_counts(parts.iter().map(|p| map_word_count(p)).collect());
    thetas
        .iter()
        .map(|&theta| {
            let est = word_count_with_drop(&parts, theta);
            (theta, mean_absolute_pct_error(&exact, &est, top_n))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_corpus() -> CorpusConfig {
        CorpusConfig {
            topics: 4,
            posts_per_topic: 120,
            words_per_post: 40,
            vocabulary: 500,
            zipf_exponent: 1.1,
            seed: 3,
        }
    }

    #[test]
    fn corpus_has_expected_shape() {
        let c = Corpus::generate(&small_corpus());
        assert_eq!(c.topics(), 4);
        assert_eq!(c.topics[0].len(), 120);
        assert!(c.topics[0][0].starts_with("<row "));
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = Corpus::generate(&small_corpus());
        let b = Corpus::generate(&small_corpus());
        assert_eq!(a.topics[2][5], b.topics[2][5]);
    }

    #[test]
    fn partitions_cover_all_posts() {
        let c = Corpus::generate(&small_corpus());
        let parts = c.partition(50);
        let total: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(total, 4 * 120);
    }

    #[test]
    fn map_extracts_and_counts() {
        let rows = ["<row Id=\"1\" Body=\"hello world hello\" />"];
        let counts = map_word_count(rows.as_slice());
        assert_eq!(counts.get("hello"), Some(&2));
        assert_eq!(counts.get("world"), Some(&1));
        // XML attributes are not counted as words.
        assert_eq!(counts.get("row"), None);
    }

    #[test]
    fn reduce_merges() {
        let a: HashMap<String, u64> = [("x".to_string(), 2)].into();
        let b: HashMap<String, u64> = [("x".to_string(), 3), ("y".to_string(), 1)].into();
        let merged = reduce_word_counts(vec![a, b]);
        assert_eq!(merged.get("x"), Some(&5));
        assert_eq!(merged.get("y"), Some(&1));
    }

    #[test]
    fn zero_drop_is_exact() {
        let c = Corpus::generate(&small_corpus());
        let parts = c.partition(20);
        let exact = reduce_word_counts(parts.iter().map(|p| map_word_count(p)).collect());
        let est = word_count_with_drop(&parts, 0.0);
        let err = mean_absolute_pct_error(&exact, &est, 100);
        assert!(err < 1e-9, "zero drop must be exact, got {err}%");
    }

    #[test]
    fn error_grows_with_drop() {
        let curve = accuracy_curve(&small_corpus(), 20, &[0.0, 0.2, 0.5, 0.8], 100);
        assert!(curve[0].1 < 1e-9);
        assert!(curve[1].1 > 0.0);
        assert!(
            curve[3].1 > curve[1].1,
            "error must grow with theta: {curve:?}"
        );
    }

    #[test]
    fn estimates_are_unbiased_in_aggregate() {
        // The HT estimator preserves total mass in expectation; with Zipf words the
        // total estimated count should be within a few percent of the exact total.
        let c = Corpus::generate(&small_corpus());
        let parts = c.partition(40);
        let exact: u64 = reduce_word_counts(parts.iter().map(|p| map_word_count(p)).collect())
            .values()
            .sum();
        let est: f64 = word_count_with_drop(&parts, 0.5).values().sum();
        let rel = (est - exact as f64).abs() / exact as f64;
        assert!(rel < 0.05, "aggregate relative error {rel}");
    }

    #[test]
    fn extract_attribute_robustness() {
        assert_eq!(
            extract_attribute("<row Body=\"a b\" Id=\"1\"/>", "Body"),
            Some("a b")
        );
        assert_eq!(extract_attribute("<row Id=\"1\"/>", "Body"), None);
        assert_eq!(extract_attribute("garbage", "Body"), None);
    }
}
