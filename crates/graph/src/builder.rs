//! Validating graph construction.

use crate::{CsrGraph, GraphError, Vertex};

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
    /// Runs in `O(n + m log m)`: normalised edges are sorted, identical
    /// duplicates merged, and the doubled adjacency arrays filled by prefix
    /// sums. Duplicate edges with differing weights produce
    /// [`GraphError::InconsistentDuplicate`]. The compact-index invariant of
    /// [`CsrGraph`] (`u32` offsets) is checked here: graphs whose doubled
    /// edge-endpoint count `2m` exceeds `u32::MAX` are refused with
    /// [`GraphError::TooManyEdges`] instead of overflowing.
    pub fn build(self) -> Result<CsrGraph, GraphError> {
        if self.n >= u32::MAX as usize {
            return Err(GraphError::TooManyVertices { requested: self.n });
        }
        let weighted = self.weighted == Some(true);

        // Sort (edge, weight) jointly, then merge duplicates.
        let mut order: Vec<u32> = (0..self.edges.len() as u32).collect();
        order.sort_unstable_by_key(|&i| self.edges[i as usize]);

        let mut dedup: Vec<(Vertex, Vertex)> = Vec::with_capacity(self.edges.len());
        let mut dedup_w: Vec<f64> = Vec::with_capacity(if weighted { self.edges.len() } else { 0 });
        for &i in &order {
            let e = self.edges[i as usize];
            if dedup.last() == Some(&e) {
                if weighted {
                    let w_new = self.weights[i as usize];
                    let w_old = *dedup_w.last().unwrap();
                    if w_new != w_old {
                        return Err(GraphError::InconsistentDuplicate {
                            u: e.0,
                            v: e.1,
                            w1: w_old,
                            w2: w_new,
                        });
                    }
                }
                continue;
            }
            dedup.push(e);
            if weighted {
                dedup_w.push(self.weights[i as usize]);
            }
        }

        let m = dedup.len();
        if 2 * m > u32::MAX as usize {
            return Err(GraphError::TooManyEdges { edges: m });
        }
        let mut offsets = vec![0u32; self.n + 1];
        for &(u, v) in &dedup {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for i in 0..self.n {
            offsets[i + 1] += offsets[i];
        }

        // Edges arrive sorted by `(min, max)`, so every slice is filled in
        // ascending order: vertex `x` first receives each `a < x` (from the
        // pairs `(a, x)`, ordered by `a`), then each `b > x` (from the pairs
        // `(x, b)`, which sort after all of them, ordered by `b`);
        // `from_sorted_parts` checks it in debug builds.
        let mut targets = vec![0 as Vertex; 2 * m];
        let mut weights = if weighted { vec![0.0f64; 2 * m] } else { Vec::new() };
        let mut cursor = offsets.clone();
        for (k, &(u, v)) in dedup.iter().enumerate() {
            let (cu, cv) = (cursor[u as usize] as usize, cursor[v as usize] as usize);
            targets[cu] = v;
            targets[cv] = u;
            if weighted {
                weights[cu] = dedup_w[k];
                weights[cv] = dedup_w[k];
            }
            cursor[u as usize] += 1;
            cursor[v as usize] += 1;
        }
        Ok(CsrGraph::from_sorted_parts(offsets, targets, weighted.then_some(weights)))
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
