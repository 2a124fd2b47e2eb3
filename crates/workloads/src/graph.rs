//! Synthetic web graphs and a real triangle-count job.
//!
//! The paper runs GraphX's triangle count over the SNAP Google web graph (875,713
//! nodes, 5,105,039 edges). This module generates an R-MAT graph with the same
//! skewed degree structure (scaled by default for test speed) and implements the
//! triangle count as a real computation whose per-stage edge sampling mirrors the
//! paper's per-ShuffleMap-stage task dropping (§5.2.4: "task dropping in this case
//! is performed on every ShuffleMap stage", compounding across stages).

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of the R-MAT graph generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphConfig {
    /// Number of nodes (rounded up to a power of two internally).
    pub nodes: usize,
    /// Number of directed edges to generate (self-loops and duplicates removed,
    /// so the final count is slightly lower).
    pub edges: usize,
    /// R-MAT quadrant probabilities (a, b, c); d = 1 − a − b − c.
    pub quadrants: (f64, f64, f64),
    /// Master seed.
    pub seed: u64,
}

impl GraphConfig {
    /// The SNAP Google web graph the paper uses (875,713 nodes, 5,105,039
    /// edges) scaled 1:100 with the same density and skew, fast enough for
    /// tests and repeated accuracy sweeps.
    #[must_use]
    pub fn google_web_scaled() -> Self {
        GraphConfig {
            nodes: 8_757,
            edges: 51_050,
            quadrants: (0.57, 0.19, 0.19),
            seed: 13,
        }
    }
}

/// An undirected graph as a deduplicated edge list over `0..nodes`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Graph {
    nodes: usize,
    edges: Vec<(u32, u32)>,
}

impl Graph {
    /// Generates an R-MAT graph.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero nodes/edges or quadrant
    /// probabilities outside the simplex).
    #[must_use]
    pub fn generate(cfg: &GraphConfig) -> Self {
        assert!(cfg.nodes > 1 && cfg.edges > 0, "graph must be non-trivial");
        let (a, b, c) = cfg.quadrants;
        let d = 1.0 - a - b - c;
        assert!(
            a > 0.0 && b > 0.0 && c > 0.0 && d > 0.0,
            "quadrant probabilities must be a valid distribution"
        );
        let scale = (cfg.nodes as f64).log2().ceil() as u32;
        let side = 1u64 << scale;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut seen = HashSet::with_capacity(cfg.edges * 2);
        let mut edges = Vec::with_capacity(cfg.edges);
        let mut attempts = 0usize;
        while edges.len() < cfg.edges && attempts < cfg.edges * 20 {
            attempts += 1;
            let (mut x0, mut x1) = (0u64, side);
            let (mut y0, mut y1) = (0u64, side);
            while x1 - x0 > 1 {
                let u: f64 = rng.gen();
                let (mx, my) = ((x0 + x1) / 2, (y0 + y1) / 2);
                if u < a {
                    x1 = mx;
                    y1 = my;
                } else if u < a + b {
                    x1 = mx;
                    y0 = my;
                } else if u < a + b + c {
                    x0 = mx;
                    y1 = my;
                } else {
                    x0 = mx;
                    y0 = my;
                }
            }
            let (mut u, mut v) = (x0 as u32, y0 as u32);
            if u as usize >= cfg.nodes || v as usize >= cfg.nodes || u == v {
                continue;
            }
            if u > v {
                std::mem::swap(&mut u, &mut v);
            }
            let key = (u64::from(u) << 32) | u64::from(v);
            if seen.insert(key) {
                edges.push((u, v));
            }
        }
        Graph {
            nodes: cfg.nodes,
            edges,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The undirected, deduplicated edges.
    #[must_use]
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Exact triangle count via the node-iterator algorithm over sorted adjacency
    /// sets (each triangle counted once).
    #[must_use]
    pub fn triangles(&self) -> u64 {
        self.triangles_of(&self.edges)
    }

    /// Triangle count over an arbitrary edge subset of this graph.
    fn triangles_of(&self, edges: &[(u32, u32)]) -> u64 {
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); self.nodes];
        for &(u, v) in edges {
            // Orient edges from lower to higher id: every triangle u<v<w is found
            // exactly once, at its lowest vertex.
            adj[u as usize].push(v);
        }
        for list in &mut adj {
            list.sort_unstable();
        }
        let mut count = 0u64;
        for u in 0..self.nodes {
            let nu = &adj[u];
            for (i, &v) in nu.iter().enumerate() {
                let nv = &adj[v as usize];
                // Intersect the tails: w > v among u's neighbors, w among v's.
                let mut a = i + 1;
                let mut b = 0;
                while a < nu.len() && b < nv.len() {
                    match nu[a].cmp(&nv[b]) {
                        std::cmp::Ordering::Less => a += 1,
                        std::cmp::Ordering::Greater => b += 1,
                        std::cmp::Ordering::Equal => {
                            count += 1;
                            a += 1;
                            b += 1;
                        }
                    }
                }
            }
        }
        count
    }

    /// Approximate triangle count with per-stage dropping: each of `stages`
    /// ShuffleMap stages independently keeps a `1−theta` fraction of the edges it
    /// processes, so an edge survives the pipeline with probability
    /// `p = (1−theta)^stages`. The count of triangles found among surviving edges is
    /// scaled by `1/p³` (a triangle needs its three edges to survive).
    ///
    /// Returns `(estimate, relative_error_pct)` against the exact count.
    ///
    /// # Panics
    ///
    /// Panics if `theta` is outside `[0, 1)` or `stages == 0`.
    #[must_use]
    pub fn approximate_triangles(&self, theta: f64, stages: u32, seed: u64) -> (f64, f64) {
        assert!((0.0..1.0).contains(&theta), "theta must be in [0,1)");
        assert!(stages > 0, "need at least one stage");
        let p = (1.0 - theta).powi(stages as i32);
        let mut rng = StdRng::seed_from_u64(seed);
        let kept: Vec<(u32, u32)> = self
            .edges
            .iter()
            .copied()
            .filter(|_| rng.gen::<f64>() < p)
            .collect();
        let found = self.triangles_of(&kept) as f64;
        let estimate = found / (p * p * p);
        let exact = self.triangles() as f64;
        let rel_err = if exact > 0.0 {
            (estimate - exact).abs() / exact * 100.0
        } else {
            0.0
        };
        (estimate, rel_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> GraphConfig {
        GraphConfig {
            nodes: 512,
            edges: 3000,
            quadrants: (0.57, 0.19, 0.19),
            seed: 5,
        }
    }

    #[test]
    fn generator_respects_bounds() {
        let g = Graph::generate(&small());
        assert!(g.edges().len() > 2000, "got {}", g.edges().len());
        for &(u, v) in g.edges() {
            assert!(u < v, "edges oriented low->high");
            assert!((v as usize) < g.nodes());
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let a = Graph::generate(&small());
        let b = Graph::generate(&small());
        assert_eq!(a.edges()[100], b.edges()[100]);
        assert_eq!(a.triangles(), b.triangles());
    }

    #[test]
    fn rmat_graphs_are_skewed() {
        // R-MAT with a=0.57 concentrates edges on low-id nodes: the max degree
        // should far exceed the average.
        let g = Graph::generate(&small());
        let mut deg = vec![0usize; g.nodes()];
        for &(u, v) in g.edges() {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let avg = 2.0 * g.edges().len() as f64 / g.nodes() as f64;
        let max = *deg.iter().max().unwrap() as f64;
        assert!(max > 5.0 * avg, "max {max} vs avg {avg}");
    }

    #[test]
    fn triangle_count_on_known_graph() {
        // K4 has 4 triangles.
        let g = Graph {
            nodes: 4,
            edges: vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
        };
        assert_eq!(g.triangles(), 4);
        // Remove one edge: 2 triangles remain.
        let g2 = Graph {
            nodes: 4,
            edges: vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)],
        };
        assert_eq!(g2.triangles(), 2);
    }

    #[test]
    fn rmat_has_triangles() {
        let g = Graph::generate(&small());
        assert!(g.triangles() > 0, "skewed graphs have triangles");
    }

    #[test]
    fn approximation_error_grows_with_drop() {
        let g = Graph::generate(&small());
        let (_, e_small) = g.approximate_triangles(0.02, 6, 1);
        let (_, e_large) = g.approximate_triangles(0.2, 6, 1);
        assert!(
            e_large > e_small,
            "error must grow with per-stage drop: {e_small} vs {e_large}"
        );
    }

    #[test]
    fn approximation_unbiased_at_low_drop() {
        let g = Graph::generate(&GraphConfig {
            nodes: 1024,
            edges: 12_000,
            quadrants: (0.57, 0.19, 0.19),
            seed: 9,
        });
        // Average the estimator over seeds: should land near the exact count.
        let exact = g.triangles() as f64;
        let runs = 12;
        let mean: f64 = (0..runs)
            .map(|s| g.approximate_triangles(0.05, 6, s).0)
            .sum::<f64>()
            / runs as f64;
        let rel = (mean - exact).abs() / exact;
        assert!(rel < 0.15, "estimator bias {rel}");
    }
}
