//! Validating graph construction.

use crate::{CsrGraph, GraphError, Vertex};
use std::ops::{AddAssign, SubAssign};

/// Incremental, validating builder for [`CsrGraph`].
///
/// Enforces the structural assumptions of the paper (§2): no self-loops, no
/// multi-edges (identical duplicates are silently merged; duplicates with
/// different weights are an error), and strictly positive finite weights.
/// A single builder is either entirely weighted or entirely unweighted.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(Vertex, Vertex)>,
    weights: Vec<f64>,
    weighted: Option<bool>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` vertices (ids `0..n`).
    pub fn new(n: usize) -> Self {
        GraphBuilder { n, edges: Vec::new(), weights: Vec::new(), weighted: None }
    }

    /// Creates a builder with capacity for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder { n, edges: Vec::with_capacity(m), weights: Vec::new(), weighted: None }
    }

    /// A builder that takes over `edges` (and their `weights`, one per edge
    /// when `weighted`) instead of copying them in one call at a time. The
    /// caller has already done what the `add_*` calls check: every edge is
    /// normalised to `u < v < n` and every weight is positive and finite.
    pub(crate) fn from_normalised(
        n: usize,
        edges: Vec<(Vertex, Vertex)>,
        weights: Vec<f64>,
        weighted: bool,
    ) -> Self {
        debug_assert!(edges.iter().all(|&(u, v)| u < v && (v as usize) < n));
        debug_assert!(!weighted || weights.len() == edges.len());
        GraphBuilder { n, edges, weights, weighted: Some(weighted) }
    }

    /// Number of vertices this builder targets.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    fn check_endpoints(&self, u: Vertex, v: Vertex) -> Result<(), GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        for x in [u, v] {
            if x as usize >= self.n {
                return Err(GraphError::VertexOutOfRange { vertex: x, num_vertices: self.n });
            }
        }
        Ok(())
    }

    /// Adds an undirected, unweighted edge `{u, v}`.
    pub fn add_edge(&mut self, u: Vertex, v: Vertex) -> Result<&mut Self, GraphError> {
        self.check_endpoints(u, v)?;
        match self.weighted {
            Some(true) => return Err(GraphError::MixedWeightedness),
            Some(false) => {}
            None => self.weighted = Some(false),
        }
        self.edges.push(if u < v { (u, v) } else { (v, u) });
        Ok(self)
    }

    /// Adds an undirected edge `{u, v}` with strictly positive weight `w`.
    pub fn add_weighted_edge(
        &mut self,
        u: Vertex,
        v: Vertex,
        w: f64,
    ) -> Result<&mut Self, GraphError> {
        self.check_endpoints(u, v)?;
        if !(w.is_finite() && w > 0.0) {
            return Err(GraphError::InvalidWeight { u, v, weight: w });
        }
        match self.weighted {
            Some(false) => return Err(GraphError::MixedWeightedness),
            Some(true) => {}
            None => self.weighted = Some(true),
        }
        self.edges.push(if u < v { (u, v) } else { (v, u) });
        self.weights.push(w);
        Ok(self)
    }

    /// Finalises into CSR form.
    ///
    /// A counting sort, in `O(n + m)` plus the cost of sorting the
    /// adjacency slices that arrive out of order:
    ///
    /// 1. count each vertex's endpoints and take prefix sums;
    /// 2. scatter every edge into both endpoints' slices, in the order the
    ///    edges were added;
    /// 3. sort only the slices that are not already strictly ascending (a
    ///    stable sort that carries the weights along), then drop repeated
    ///    targets and close the gaps in place.
    ///
    /// Edges that arrive sorted by `(min, max)`, as
    /// [`crate::io::write_edge_list`] writes them, fill every slice in
    /// ascending order, so nothing is sorted or moved. Memory peaks at the
    /// added edges (8 bytes each, 16 with a weight) beside the doubled
    /// target array (4 bytes per endpoint, 12 with weights) and one
    /// position per vertex; the added edges are freed before the slices
    /// are checked. Positions are `u32` (they become the CSR's offsets)
    /// unless the doubled count of added edges exceeds `u32::MAX`.
    ///
    /// Duplicate edges with differing weights produce
    /// [`GraphError::InconsistentDuplicate`] for the smallest such `(u, v)`,
    /// with `w1` its first weight in the order added and `w2` the first
    /// later one that differs. The compact-index invariant of [`CsrGraph`]
    /// (`u32` offsets) is checked on the deduplicated edge count: graphs
    /// whose doubled edge-endpoint count `2m` exceeds `u32::MAX` are refused
    /// with [`GraphError::TooManyEdges`] instead of overflowing.
    pub fn build(self) -> Result<CsrGraph, GraphError> {
        if self.n >= u32::MAX as usize {
            return Err(GraphError::TooManyVertices { requested: self.n });
        }
        if 2 * self.edges.len() <= u32::MAX as usize {
            self.counting_sort::<u32>()
        } else {
            self.counting_sort::<u64>()
        }
    }

    /// [`GraphBuilder::build`]'s counting sort, with slice positions of
    /// type `P`, which must hold twice the number of added edges.
    fn counting_sort<P: Pos>(self) -> Result<CsrGraph, GraphError> {
        let GraphBuilder { n, edges, weights, weighted } = self;
        let weighted = weighted == Some(true);

        // `pos[x]` counts x's endpoints, then (inclusive prefix sums) marks
        // the end of x's slice; scattering backwards leaves it at the start.
        let mut pos = vec![P::default(); n + 1];
        for &(u, v) in &edges {
            pos[u as usize] += P::ONE;
            pos[v as usize] += P::ONE;
        }
        let mut total = P::default();
        for p in &mut pos {
            total += *p;
            *p = total;
        }
        let mut targets = vec![0 as Vertex; total.idx()];
        let mut ws = if weighted { vec![0.0f64; total.idx()] } else { Vec::new() };
        for (k, &(u, v)) in edges.iter().enumerate().rev() {
            pos[u as usize] -= P::ONE;
            pos[v as usize] -= P::ONE;
            let (iu, iv) = (pos[u as usize].idx(), pos[v as usize].idx());
            targets[iu] = v;
            targets[iv] = u;
            if weighted {
                ws[iu] = weights[k];
                ws[iv] = weights[k];
            }
        }
        drop((edges, weights));

        // Sort, dedup and compact each slice; `len` is the compacted prefix.
        let mut len = 0;
        let mut pairs: Vec<(Vertex, f64)> = Vec::new();
        let mut start = 0;
        for x in 0..n {
            let end = pos[x + 1].idx();
            pos[x] = P::of(len);
            let slice = &mut targets[start..end];
            if slice.windows(2).all(|p| p[0] < p[1]) {
                if len < start {
                    targets.copy_within(start..end, len);
                    if weighted {
                        ws.copy_within(start..end, len);
                    }
                }
                len += end - start;
            } else if weighted {
                pairs.clear();
                pairs.extend(slice.iter().copied().zip(ws[start..end].iter().copied()));
                pairs.sort_by_key(|&(t, _)| t);
                for (k, &(t, w)) in pairs.iter().enumerate() {
                    if k == 0 || pairs[k - 1].0 != t {
                        targets[len] = t;
                        ws[len] = w;
                        len += 1;
                    } else if w != ws[len - 1] {
                        // Slices are scanned in vertex order, so the first
                        // mismatch found is at the smallest pair.
                        let (u, v) = (x.min(t as usize) as Vertex, x.max(t as usize) as Vertex);
                        return Err(GraphError::InconsistentDuplicate {
                            u,
                            v,
                            w1: ws[len - 1],
                            w2: w,
                        });
                    }
                }
            } else {
                slice.sort_unstable();
                let first = len;
                for k in start..end {
                    let t = targets[k];
                    if len == first || targets[len - 1] != t {
                        targets[len] = t;
                        len += 1;
                    }
                }
            }
            start = end;
        }
        if len > u32::MAX as usize {
            return Err(GraphError::TooManyEdges { edges: len / 2 });
        }
        pos[n] = P::of(len);
        targets.truncate(len);
        ws.truncate(len);
        Ok(CsrGraph::from_sorted_parts(P::offsets(pos), targets, weighted.then_some(ws)))
    }
}

/// A slice position in [`GraphBuilder::build`]'s counting sort.
trait Pos: Copy + Default + AddAssign + SubAssign {
    const ONE: Self;
    fn of(i: usize) -> Self;
    fn idx(self) -> usize;
    /// Final positions (each at most `u32::MAX`) as CSR offsets.
    fn offsets(pos: Vec<Self>) -> Vec<u32>;
}

impl Pos for u32 {
    const ONE: u32 = 1;
    fn of(i: usize) -> u32 {
        i as u32
    }
    fn idx(self) -> usize {
        self as usize
    }
    fn offsets(pos: Vec<u32>) -> Vec<u32> {
        pos
    }
}

impl Pos for u64 {
    const ONE: u64 = 1;
    fn of(i: usize) -> u64 {
        i as u64
    }
    fn idx(self) -> usize {
        self as usize
    }
    fn offsets(pos: Vec<u64>) -> Vec<u32> {
        pos.into_iter().map(|p| p as u32).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new(2);
        assert_eq!(b.add_edge(1, 1).unwrap_err(), GraphError::SelfLoop { vertex: 1 });
    }

    #[test]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        assert_eq!(
            b.add_edge(0, 2).unwrap_err(),
            GraphError::VertexOutOfRange { vertex: 2, num_vertices: 2 }
        );
    }

    #[test]
    fn rejects_mixed_weightedness() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        assert_eq!(b.add_weighted_edge(1, 2, 1.0).unwrap_err(), GraphError::MixedWeightedness);

        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 1.0).unwrap();
        assert_eq!(b.add_edge(1, 2).unwrap_err(), GraphError::MixedWeightedness);
    }

    #[test]
    fn rejects_bad_weights() {
        let mut b = GraphBuilder::new(2);
        for w in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                b.add_weighted_edge(0, 1, w).unwrap_err(),
                GraphError::InvalidWeight { .. }
            ));
        }
    }

    #[test]
    fn merges_identical_duplicates() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 0).unwrap();
        b.add_edge(0, 1).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn merges_identical_weighted_duplicates() {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 2.0).unwrap();
        b.add_weighted_edge(1, 0, 2.0).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(2.0));
    }

    #[test]
    fn rejects_inconsistent_duplicate_weights() {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 2.0).unwrap();
        b.add_weighted_edge(1, 0, 3.0).unwrap();
        assert!(matches!(b.build().unwrap_err(), GraphError::InconsistentDuplicate { .. }));
    }

    #[test]
    fn builds_isolated_vertices() {
        let g = GraphBuilder::new(4).build().unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn weighted_adjacency_stays_aligned_after_sorting() {
        // Edges out of order: the edge sort must carry weights along.
        let mut b = GraphBuilder::new(4);
        b.add_weighted_edge(3, 1, 3.0).unwrap();
        b.add_weighted_edge(1, 0, 1.0).unwrap();
        b.add_weighted_edge(2, 1, 2.0).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.neighbors(1), &[0, 2, 3]);
        assert_eq!(g.neighbor_weights(1).unwrap(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn wide_positions_build_the_same_csr() {
        // `u64` positions serve only inputs of over 2^31 edges; on small
        // ones they must give what `u32` positions give, errors included.
        use rand::{rngs::SmallRng, RngExt, SeedableRng};
        let parts = |r: Result<CsrGraph, GraphError>| {
            r.map(|g| (g.csr().0.to_vec(), g.csr().1.to_vec(), g.weights.clone()))
        };
        let mut rng = SmallRng::seed_from_u64(5);
        for case in 0..40 {
            let n = rng.random_range(2..30u32);
            let mut b = GraphBuilder::new(n as usize);
            for _ in 0..rng.random_range(0..4 * n) {
                let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
                if u == v {
                    continue;
                }
                if case % 2 == 0 {
                    b.add_edge(u, v).unwrap();
                } else {
                    b.add_weighted_edge(u, v, f64::from(rng.random_range(1..3u32))).unwrap();
                }
            }
            assert_eq!(parts(b.clone().counting_sort::<u64>()), parts(b.build()), "case {case}");
        }
    }

    #[test]
    fn shuffled_duplicated_weighted_edges_build_sorted_aligned_slices() {
        use rand::{rngs::SmallRng, RngExt, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(11);
        let n = 60u32;
        // Weight of {u, v} is a function of the pair, so duplicates agree.
        let weight = |u: u32, v: u32| 1.0 + (u.min(v) * n + u.max(v)) as f64;
        let mut edges = Vec::new();
        for _ in 0..400 {
            let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
            if u != v {
                edges.push((u, v));
                edges.push((v, u));
            }
        }
        for i in (1..edges.len()).rev() {
            edges.swap(i, rng.random_range(0..=i));
        }
        let mut b = GraphBuilder::new(n as usize);
        for &(u, v) in &edges {
            b.add_weighted_edge(u, v, weight(u, v)).unwrap();
        }
        let g = b.build().unwrap();
        for v in 0..n {
            let (nbrs, ws) = (g.neighbors(v), g.neighbor_weights(v).unwrap());
            assert!(nbrs.windows(2).all(|p| p[0] < p[1]), "slice of {v} unsorted: {nbrs:?}");
            for (&u, &w) in nbrs.iter().zip(ws) {
                assert_eq!(w, weight(u, v), "weight of {{{u}, {v}}} misaligned");
            }
        }
        let distinct: std::collections::HashSet<(u32, u32)> =
            edges.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
        assert_eq!(g.num_edges(), distinct.len());
    }
}
