//! Balanced bidirectional BFS (bb-BFS) path counting and sampling.
//!
//! Borassi & Natale's KADABRA \[7\] replaces the full single-source BFS of RK
//! with a bidirectional search: BFS levels are grown from both endpoints,
//! always expanding the side whose frontier has the smaller total degree, so
//! the two searches meet after exploring roughly `O(√m)` edges on many
//! graph families instead of `O(m)`.
//!
//! This module implements the primitive exactly (correct σ counting and
//! uniform path sampling); the surrounding KADABRA *stopping rule* is
//! simplified in `mhbc-baselines` (see DESIGN.md "Substitutions").
//!
//! ## Counting correctness
//!
//! After the searches stop with completed depths `ls` (from `s`) and `lt`
//! (from `t`) such that `ls + lt >= d(s, t)`, every shortest path crosses
//! exactly one vertex `v` with `d(s, v) = k` for the fixed split level
//! `k = min(ls, d)`; hence `σ_st = Σ_{v : d_s(v) = k, d_t(v) = d − k}
//! σ_s(v) · σ_t(v)`, and sampling `v` proportional to that product followed
//! by independent σ-weighted walks to both endpoints yields a uniformly
//! random shortest path.

use mhbc_graph::{CsrGraph, Vertex};
use rand::{Rng, RngExt};

const UNREACHED: u32 = u32::MAX;

/// Result of a bidirectional `(s, t)` query.
#[derive(Debug, Clone, PartialEq)]
pub struct BbResult {
    /// `d(s, t)` in edges.
    pub distance: u32,
    /// `σ_st`: number of shortest `s`–`t` paths.
    pub sigma: f64,
    /// A uniformly sampled shortest path (present when sampling was asked).
    pub path: Option<Vec<Vertex>>,
}

/// One directional search state (reusable buffers).
struct Side {
    dist: Vec<u32>,
    sigma: Vec<f64>,
    /// Vertices at each completed/being-built level.
    levels: Vec<Vec<Vertex>>,
    touched: Vec<Vertex>,
}

impl Side {
    fn new(n: usize) -> Self {
        Side {
            dist: vec![UNREACHED; n],
            sigma: vec![0.0; n],
            levels: Vec::new(),
            touched: Vec::new(),
        }
    }

    fn reset(&mut self, root: Vertex) {
        for &v in &self.touched {
            self.dist[v as usize] = UNREACHED;
            self.sigma[v as usize] = 0.0;
        }
        self.touched.clear();
        self.levels.clear();
        self.dist[root as usize] = 0;
        self.sigma[root as usize] = 1.0;
        self.touched.push(root);
        self.levels.push(vec![root]);
    }

    /// Total degree of the current deepest level (the bb-BFS balance metric).
    fn frontier_cost(&self, g: &CsrGraph) -> usize {
        self.levels.last().map(|f| f.iter().map(|&v| g.degree(v)).sum()).unwrap_or(0)
    }

    /// Expands one full level. Returns `false` when the frontier was empty
    /// (side exhausted). `other` is read to update the best meeting
    /// distance.
    fn expand(&mut self, g: &CsrGraph, other: &Side, best_d: &mut u32) -> bool {
        let depth = (self.levels.len() - 1) as u32;
        let frontier = std::mem::take(self.levels.last_mut().expect("levels never empty"));
        if frontier.is_empty() {
            return false;
        }
        let mut next: Vec<Vertex> = Vec::new();
        for &u in &frontier {
            let su = self.sigma[u as usize];
            for &v in g.neighbors(u) {
                let dv = &mut self.dist[v as usize];
                if *dv == UNREACHED {
                    *dv = depth + 1;
                    self.touched.push(v);
                    next.push(v);
                    let dother = other.dist[v as usize];
                    if dother != UNREACHED {
                        *best_d = (*best_d).min(depth + 1 + dother);
                    }
                }
                if self.dist[v as usize] == depth + 1 {
                    self.sigma[v as usize] += su;
                }
            }
        }
        *self.levels.last_mut().expect("levels never empty") = frontier;
        self.levels.push(next);
        true
    }

    /// Completed depth: all vertices at distance <= this have final σ.
    fn completed(&self) -> u32 {
        (self.levels.len() - 1) as u32
    }

    /// σ-weighted walk from `v` down to the root; appends the vertices
    /// strictly after `v` (each one level closer to the root).
    fn walk_to_root<R: Rng + ?Sized>(
        &self,
        g: &CsrGraph,
        mut v: Vertex,
        rng: &mut R,
        out: &mut Vec<Vertex>,
    ) {
        while self.dist[v as usize] > 0 {
            let dv = self.dist[v as usize];
            let mut remaining = rng.random::<f64>() * self.sigma[v as usize];
            let mut chosen = None;
            for &u in g.neighbors(v) {
                if self.dist[u as usize] != UNREACHED && self.dist[u as usize] + 1 == dv {
                    chosen = Some(u);
                    remaining -= self.sigma[u as usize];
                    if remaining <= 0.0 {
                        break;
                    }
                }
            }
            v = chosen.expect("non-root vertex has a parent");
            out.push(v);
        }
    }
}

/// Reusable balanced bidirectional BFS engine for unweighted graphs.
pub struct BidirectionalSearch {
    fwd: Side,
    bwd: Side,
    /// Edges touched by the most recent query (the bb-BFS cost metric).
    pub last_edges_touched: usize,
}

impl BidirectionalSearch {
    /// Engine for graphs with `n` vertices.
    pub fn new(n: usize) -> Self {
        BidirectionalSearch { fwd: Side::new(n), bwd: Side::new(n), last_edges_touched: 0 }
    }

    /// Computes `d(s, t)` and `σ_st`; samples a uniform shortest path when
    /// `sample` is set. Returns `None` when `t` is unreachable from `s`.
    ///
    /// # Panics
    /// If `s == t` (the estimators never query diagonal pairs) or either
    /// endpoint is out of range.
    pub fn query<R: Rng + ?Sized>(
        &mut self,
        g: &CsrGraph,
        s: Vertex,
        t: Vertex,
        sample: bool,
        rng: &mut R,
    ) -> Option<BbResult> {
        assert_ne!(s, t, "bidirectional query requires distinct endpoints");
        let n = g.num_vertices();
        assert!((s as usize) < n && (t as usize) < n, "endpoint out of range");

        self.fwd.reset(s);
        self.bwd.reset(t);
        self.last_edges_touched = 0;
        let mut best_d = UNREACHED;

        loop {
            if best_d != UNREACHED && self.fwd.completed() + self.bwd.completed() >= best_d {
                break;
            }
            // Expand the cheaper side (the balanced rule of [7]).
            let (cf, cb) = (self.fwd.frontier_cost(g), self.bwd.frontier_cost(g));
            let expand_fwd = cf <= cb;
            self.last_edges_touched += if expand_fwd { cf } else { cb };
            let ok = if expand_fwd {
                self.fwd.expand(g, &self.bwd, &mut best_d)
            } else {
                self.bwd.expand(g, &self.fwd, &mut best_d)
            };
            if !ok {
                // One side exhausted without meeting: disconnected.
                if best_d == UNREACHED {
                    return None;
                }
                break;
            }
        }

        let d = best_d;
        debug_assert_ne!(d, UNREACHED);
        // Fixed split level: every shortest path has exactly one vertex at
        // distance k from s.
        let k = d.min(self.fwd.completed());
        debug_assert!(d - k <= self.bwd.completed());

        // Bridge vertices: d_s(v) = k and d_t(v) = d - k.
        let level: &[Vertex] = &self.fwd.levels[k as usize];
        let mut sigma = 0.0;
        for &v in level {
            if self.bwd.dist[v as usize] == d - k {
                sigma += self.fwd.sigma[v as usize] * self.bwd.sigma[v as usize];
            }
        }
        debug_assert!(sigma > 0.0);

        let path = if sample {
            // Pick the bridge vertex proportional to σ_s(v) σ_t(v).
            let mut remaining = rng.random::<f64>() * sigma;
            let mut bridge = None;
            for &v in level {
                if self.bwd.dist[v as usize] == d - k {
                    bridge = Some(v);
                    remaining -= self.fwd.sigma[v as usize] * self.bwd.sigma[v as usize];
                    if remaining <= 0.0 {
                        break;
                    }
                }
            }
            let bridge = bridge.expect("sigma > 0 implies a bridge vertex");
            // Assemble: s-side (reversed), bridge, t-side.
            let mut s_half = Vec::with_capacity(k as usize);
            self.fwd.walk_to_root(g, bridge, rng, &mut s_half);
            let mut path = Vec::with_capacity(d as usize + 1);
            path.extend(s_half.iter().rev());
            path.push(bridge);
            self.bwd.walk_to_root(g, bridge, rng, &mut path);
            debug_assert_eq!(path.len() as u32, d + 1);
            debug_assert_eq!(path[0], s);
            debug_assert_eq!(*path.last().expect("non-empty"), t);
            Some(path)
        } else {
            None
        };

        Some(BbResult { distance: d, sigma, path })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BfsSpd;
    use mhbc_graph::generators;
    use rand::{rngs::SmallRng, SeedableRng};
    use std::collections::HashMap;

    #[test]
    fn adjacent_pair() {
        let g = generators::path(2);
        let mut bb = BidirectionalSearch::new(2);
        let mut rng = SmallRng::seed_from_u64(1);
        let r = bb.query(&g, 0, 1, true, &mut rng).unwrap();
        assert_eq!(r.distance, 1);
        assert_eq!(r.sigma, 1.0);
        assert_eq!(r.path.unwrap(), vec![0, 1]);
    }

    #[test]
    fn disconnected_returns_none() {
        let g = mhbc_graph::CsrGraph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let mut bb = BidirectionalSearch::new(4);
        let mut rng = SmallRng::seed_from_u64(2);
        assert!(bb.query(&g, 0, 3, false, &mut rng).is_none());
    }

    #[test]
    fn counts_match_bfs_on_random_graphs() {
        let mut rng = SmallRng::seed_from_u64(3);
        for seed in 0..6u64 {
            let mut gr = SmallRng::seed_from_u64(seed);
            let g = generators::ensure_connected(
                generators::erdos_renyi_gnp(60, 0.06, &mut gr),
                &mut gr,
            );
            let n = g.num_vertices();
            let mut bb = BidirectionalSearch::new(n);
            let mut spd = BfsSpd::new(n);
            for s in [0u32, 10, 30] {
                spd.compute(&g, s);
                for t in [5u32, 25, 59] {
                    if s == t {
                        continue;
                    }
                    let r = bb.query(&g, s, t, false, &mut rng).unwrap();
                    assert_eq!(r.distance, spd.dist(t), "seed {seed}, {s}->{t}");
                    assert_eq!(r.sigma, spd.sigma(t), "seed {seed}, {s}->{t}");
                }
            }
        }
    }

    #[test]
    fn sampled_paths_valid_and_shortest() {
        let mut rng = SmallRng::seed_from_u64(4);
        let g = generators::grid(5, 5, false);
        let mut bb = BidirectionalSearch::new(25);
        for _ in 0..50 {
            let r = bb.query(&g, 0, 24, true, &mut rng).unwrap();
            let path = r.path.unwrap();
            assert_eq!(path.len() as u32, r.distance + 1);
            for w in path.windows(2) {
                assert!(g.has_edge(w[0], w[1]));
            }
        }
    }

    #[test]
    fn sampling_is_uniform() {
        // Corner-to-corner on a 3x3 grid: 6 shortest paths.
        let g = generators::grid(3, 3, false);
        let mut bb = BidirectionalSearch::new(9);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut counts: HashMap<Vec<Vertex>, usize> = HashMap::new();
        let trials = 60_000;
        for _ in 0..trials {
            let r = bb.query(&g, 0, 8, true, &mut rng).unwrap();
            assert_eq!(r.sigma, 6.0);
            *counts.entry(r.path.unwrap()).or_default() += 1;
        }
        assert_eq!(counts.len(), 6);
        let expected = trials as f64 / 6.0;
        for (p, c) in counts {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "path {p:?}: count {c}");
        }
    }

    #[test]
    fn touches_fewer_edges_than_full_bfs_on_expander() {
        let mut rng = SmallRng::seed_from_u64(6);
        let g = generators::barabasi_albert(3000, 4, &mut rng);
        let mut bb = BidirectionalSearch::new(3000);
        let mut total = 0usize;
        for t in [100u32, 900, 2500] {
            bb.query(&g, 0, t, false, &mut rng).unwrap();
            total += bb.last_edges_touched;
        }
        // Full BFS touches ~2m = ~24k edge endpoints per query.
        assert!(
            total < 3 * g.num_edges(),
            "bb-BFS should touch fewer edges: {total} vs m = {}",
            g.num_edges()
        );
    }

    #[test]
    #[should_panic(expected = "distinct endpoints")]
    fn diagonal_pair_panics() {
        let g = generators::path(3);
        let mut bb = BidirectionalSearch::new(3);
        let mut rng = SmallRng::seed_from_u64(7);
        let _ = bb.query(&g, 1, 1, false, &mut rng);
    }
}
