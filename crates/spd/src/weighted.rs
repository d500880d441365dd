//! Dijkstra shortest-path DAGs for positively weighted graphs.

use crate::WEIGHT_TIE_RELATIVE_EPS;
use mhbc_graph::{CsrGraph, Vertex};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Heap entry ordered by *smallest* distance first.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapItem {
    dist: f64,
    v: Vertex,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Weights are validated finite and positive, so distances are never
        // NaN; reverse for a min-heap on BinaryHeap.
        other
            .dist
            .partial_cmp(&self.dist)
            .expect("distances are never NaN")
            .then_with(|| other.v.cmp(&self.v))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The shortest-path DAG rooted at a source of a *positively weighted*
/// graph, computed by Dijkstra with lazy deletion in
/// `O(|E| log |V|)` (§2.1 quotes `O(|E| + |V| log |V|)` with Fibonacci
/// heaps; a binary heap is the standard practical choice).
///
/// Two `s`–`v` paths are considered equally short when their lengths agree
/// to within [`WEIGHT_TIE_RELATIVE_EPS`] relative tolerance; exact float
/// ties (e.g. integer-valued weights) are handled exactly, and nearly-equal
/// real-valued sums are merged, which is the conventional treatment of
/// floating-point path ties.
///
/// Like [`crate::BfsSpd`], the workspace resets are *epoch-stamped*: each
/// vertex carries a stamp `2·epoch + settled_bit`, and a pass begins by
/// bumping the epoch, so neither distances, σ, nor the settled flags are
/// cleared per pass — stale entries are recognised by their old stamps.
#[derive(Debug, Clone)]
pub struct DijkstraSpd {
    /// `dist[v]`: valid only when `stamp[v] >= 2 * epoch`.
    dist: Vec<f64>,
    /// `sigma[v]`: valid only when `stamp[v] >= 2 * epoch`.
    sigma: Vec<f64>,
    /// Vertices in settle order (nondecreasing distance); only reached ones.
    order: Vec<Vertex>,
    heap: BinaryHeap<HeapItem>,
    /// `2 * epoch` = discovered this pass, `2 * epoch + 1` = settled.
    stamp: Vec<u64>,
    epoch: u64,
    source: Vertex,
}

#[inline]
fn ties(a: f64, b: f64) -> bool {
    (a - b).abs() <= WEIGHT_TIE_RELATIVE_EPS * a.abs().max(b.abs()).max(1.0)
}

impl DijkstraSpd {
    /// Workspace for graphs with `n` vertices.
    pub fn new(n: usize) -> Self {
        DijkstraSpd {
            dist: vec![f64::INFINITY; n],
            sigma: vec![0.0; n],
            order: Vec::with_capacity(n),
            heap: BinaryHeap::new(),
            stamp: vec![0; n],
            // Epoch 1 with all-zero stamps: a fresh workspace reports every
            // vertex unreached (stamp 0 < 2 * epoch).
            epoch: 1,
            source: 0,
        }
    }

    /// The source of the last `compute` call.
    pub fn source(&self) -> Vertex {
        self.source
    }

    /// Weighted `d(s, v)`, or `f64::INFINITY` if `v` was not reached by the
    /// last [`DijkstraSpd::compute`] call.
    #[inline]
    pub fn dist(&self, v: Vertex) -> f64 {
        if self.stamp[v as usize] >= 2 * self.epoch {
            self.dist[v as usize]
        } else {
            f64::INFINITY
        }
    }

    /// `σ_{sv}`: number of shortest `s`–`v` paths (0 if unreached).
    #[inline]
    pub fn sigma(&self, v: Vertex) -> f64 {
        if self.stamp[v as usize] >= 2 * self.epoch {
            self.sigma[v as usize]
        } else {
            0.0
        }
    }

    /// Vertices in settle order (source first); only reached ones.
    #[inline]
    pub fn order(&self) -> &[Vertex] {
        &self.order
    }

    /// Computes the weighted SPD rooted at `s`.
    ///
    /// Works on unweighted graphs too (all weights treated as 1), which the
    /// tests use to cross-validate against [`crate::BfsSpd`].
    ///
    /// # Panics
    /// If the workspace size does not match `g` or `s` is out of range.
    pub fn compute(&mut self, g: &CsrGraph, s: Vertex) {
        let n = g.num_vertices();
        assert_eq!(self.dist.len(), n, "workspace sized for a different graph");
        assert!((s as usize) < n, "source {s} out of range");

        // Epoch bump replaces the per-pass clearing loop (u64 epochs never
        // wrap in practice).
        self.epoch += 1;
        let discovered = 2 * self.epoch;
        let settled = discovered + 1;
        self.order.clear();
        self.heap.clear();
        self.source = s;

        self.dist[s as usize] = 0.0;
        self.sigma[s as usize] = 1.0;
        self.stamp[s as usize] = discovered;
        self.heap.push(HeapItem { dist: 0.0, v: s });
        while let Some(HeapItem { dist: du, v: u }) = self.heap.pop() {
            if self.stamp[u as usize] == settled {
                continue; // stale lazy-deleted entry
            }
            self.stamp[u as usize] = settled;
            self.order.push(u);
            let su = self.sigma[u as usize];
            for (v, w) in g.neighbors_weighted(u) {
                let seen = self.stamp[v as usize] >= discovered;
                let vd = if seen { self.dist[v as usize] } else { f64::INFINITY };
                let nd = du + w;
                if vd.is_finite() && ties(nd, vd) {
                    // Another shortest path into v through u.
                    self.sigma[v as usize] += su;
                } else if nd < vd {
                    self.dist[v as usize] = nd;
                    self.sigma[v as usize] = su;
                    self.stamp[v as usize] = discovered;
                    self.heap.push(HeapItem { dist: nd, v });
                }
            }
        }
    }

    /// Whether `u` is a predecessor of `w` in this SPD:
    /// `d(s, u) + w(u, w) == d(s, w)` up to the tie tolerance.
    #[inline]
    pub fn is_parent(&self, g: &CsrGraph, u: Vertex, w: Vertex) -> bool {
        let (du, dw) = (self.dist(u), self.dist(w));
        if !du.is_finite() || !dw.is_finite() {
            return false;
        }
        match g.edge_weight(u, w) {
            Some(wt) => du < dw && ties(du + wt, dw),
            None => false,
        }
    }

    /// Number of vertices reached (including the source).
    pub fn reached(&self) -> usize {
        self.order.len()
    }

    /// Accumulates Brandes dependency scores `δ_{s•}(v)` into `delta`
    /// (cleared and resized), scanning the settle order backwards.
    ///
    /// # Panics
    /// If `g` does not match the workspace size.
    pub fn accumulate_dependencies(&self, g: &CsrGraph, delta: &mut Vec<f64>) {
        self.backward::<false>(g, &[], delta);
    }

    /// Vertex-weighted Brandes accumulation: like
    /// [`DijkstraSpd::accumulate_dependencies`] but each target `w` seeds the
    /// backward recurrence with `seeds[w]` instead of `1` — the reduced-graph
    /// form where a retained vertex stands for `ω(w)` original targets
    /// (itself plus its pruned pendant trees; see `mhbc_graph::reduce`).
    /// Unit seeds reproduce the plain accumulation exactly.
    ///
    /// # Panics
    /// If `g` or `seeds` do not match the workspace size.
    pub fn accumulate_dependencies_seeded(
        &self,
        g: &CsrGraph,
        seeds: &[f64],
        delta: &mut Vec<f64>,
    ) {
        self.backward::<true>(g, seeds, delta);
    }

    /// The one backward scan behind both accumulations: each target seeds
    /// the recurrence with `1` (`SEEDED = false`, `seeds` ignored) or with
    /// `seeds[w]`.
    fn backward<const SEEDED: bool>(&self, g: &CsrGraph, seeds: &[f64], delta: &mut Vec<f64>) {
        assert_eq!(g.num_vertices(), self.dist.len(), "graph does not match workspace");
        if SEEDED {
            assert_eq!(seeds.len(), self.dist.len(), "seeds do not match workspace");
        }
        delta.clear();
        delta.resize(self.dist.len(), 0.0);
        let discovered = 2 * self.epoch;
        for &w in self.order.iter().rev() {
            let seed = if SEEDED { seeds[w as usize] } else { 1.0 };
            let coeff = (seed + delta[w as usize]) / self.sigma[w as usize];
            let dw = self.dist[w as usize];
            for (u, wt) in g.neighbors_weighted(w) {
                if self.stamp[u as usize] < discovered {
                    continue;
                }
                let du = self.dist[u as usize];
                if du < dw && ties(du + wt, dw) {
                    delta[u as usize] += self.sigma[u as usize] * coeff;
                }
            }
        }
        delta[self.source as usize] = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BfsSpd;
    use mhbc_graph::{generators, CsrGraph};
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn weighted_path_distances() {
        let g = CsrGraph::from_weighted_edges(3, &[(0, 1, 2.0), (1, 2, 3.0)]).unwrap();
        let mut spd = DijkstraSpd::new(3);
        spd.compute(&g, 0);
        for (v, (d, s)) in [(0.0, 1.0), (2.0, 1.0), (5.0, 1.0)].iter().enumerate() {
            assert_eq!(spd.dist(v as Vertex), *d);
            assert_eq!(spd.sigma(v as Vertex), *s);
        }
    }

    #[test]
    fn tie_counting_on_weighted_diamond() {
        // Two equal-length routes 0 -> 3 (1 + 2 and 2 + 1).
        let g =
            CsrGraph::from_weighted_edges(4, &[(0, 1, 1.0), (1, 3, 2.0), (0, 2, 2.0), (2, 3, 1.0)])
                .unwrap();
        let mut spd = DijkstraSpd::new(4);
        spd.compute(&g, 0);
        assert_eq!(spd.dist(3), 3.0);
        assert_eq!(spd.sigma(3), 2.0);
    }

    #[test]
    fn shorter_route_wins_over_fewer_hops() {
        // Direct edge 0-2 costs 10; the two-hop route costs 3.
        let g =
            CsrGraph::from_weighted_edges(3, &[(0, 2, 10.0), (0, 1, 1.0), (1, 2, 2.0)]).unwrap();
        let mut spd = DijkstraSpd::new(3);
        spd.compute(&g, 0);
        assert_eq!(spd.dist(2), 3.0);
        assert_eq!(spd.sigma(2), 1.0);
        assert!(spd.is_parent(&g, 1, 2));
        assert!(!spd.is_parent(&g, 0, 2));
    }

    #[test]
    fn unreachable_is_infinite() {
        let g = CsrGraph::from_weighted_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        let mut spd = DijkstraSpd::new(4);
        spd.compute(&g, 0);
        assert!(spd.dist(2).is_infinite());
        assert_eq!(spd.sigma(2), 0.0);
        assert_eq!(spd.reached(), 2);
    }

    #[test]
    fn unit_weights_match_bfs() {
        let mut rng = SmallRng::seed_from_u64(99);
        let g = generators::barabasi_albert(80, 3, &mut rng);
        let gw = g.map_weights(|_, _| 1.0).unwrap();
        let mut bfs = BfsSpd::new(80);
        let mut dij = DijkstraSpd::new(80);
        for s in [0u32, 17, 42] {
            bfs.compute(&g, s);
            dij.compute(&gw, s);
            for v in 0..80u32 {
                assert_eq!(bfs.dist(v) as f64, dij.dist(v), "dist mismatch at {v}");
                assert_eq!(bfs.sigma(v), dij.sigma(v), "sigma mismatch at {v}");
            }
            let (mut d1, mut d2) = (Vec::new(), Vec::new());
            bfs.accumulate_dependencies(&g, &mut d1);
            dij.accumulate_dependencies(&gw, &mut d2);
            for v in 0..80 {
                assert!((d1[v] - d2[v]).abs() < 1e-9, "delta mismatch at {v}");
            }
            // Unit seeds reproduce the plain accumulation bit for bit.
            let mut d3 = Vec::new();
            dij.accumulate_dependencies_seeded(&gw, &[1.0; 80], &mut d3);
            let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&d2), bits(&d3));
        }
    }

    #[test]
    fn workspace_reuse_is_clean() {
        let g = CsrGraph::from_weighted_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let mut spd = DijkstraSpd::new(3);
        spd.compute(&g, 0);
        spd.compute(&g, 2);
        assert_eq!(spd.dist(0), 2.0);
        assert_eq!(spd.dist(1), 1.0);
        assert_eq!(spd.dist(2), 0.0);
        assert_eq!(spd.source(), 2);
    }

    #[test]
    fn fresh_workspace_reports_nothing_reached() {
        let spd = DijkstraSpd::new(3);
        assert_eq!(spd.reached(), 0);
        for v in 0..3 {
            assert!(spd.dist(v).is_infinite(), "vertex {v}");
            assert_eq!(spd.sigma(v), 0.0, "vertex {v}");
        }
    }

    #[test]
    fn stale_stamps_do_not_leak_across_components() {
        let g = CsrGraph::from_weighted_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        let mut spd = DijkstraSpd::new(4);
        spd.compute(&g, 2);
        assert_eq!(spd.dist(3), 1.0);
        spd.compute(&g, 0);
        assert!(spd.dist(2).is_infinite());
        assert!(spd.dist(3).is_infinite());
        assert!(!spd.is_parent(&g, 2, 3));
    }
}
