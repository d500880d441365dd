//! Immutable compressed-sparse-row adjacency storage.

use crate::{GraphBuilder, GraphError, Vertex};

/// An immutable, undirected graph in compressed-sparse-row form.
///
/// Each undirected edge `{u, v}` is stored twice (once in each endpoint's
/// adjacency slice); adjacency slices are sorted by target, enabling
/// `O(log deg)` membership tests. Weights, when present, are stored parallel
/// to the targets so that `neighbors` and `neighbor_weights` zip directly.
///
/// Public construction goes through [`GraphBuilder`], which enforces the
/// paper's structural assumptions (no self-loops, no multi-edges, positive
/// weights); the crate's own derived graphs (the reduction's CSRs) are
/// assembled already sorted and wrapped as they are.
///
/// # Compact index invariants
///
/// The index is deliberately *compact*: offsets are `u32` (not `usize`), so
/// the per-pass streaming footprint of the SPD kernels is 4 bytes per
/// offset load beside the 4-byte vertex ids — half of what `usize` offsets
/// cost on 64-bit hosts, on the arrays every traversal streams end to end.
/// This caps the doubled edge-endpoint count `2m` at `u32::MAX`;
/// [`GraphBuilder::build`] checks the bound and refuses larger graphs with
/// [`GraphError::TooManyEdges`](crate::GraphError::TooManyEdges) rather than
/// silently truncating (≈2.1 billion undirected edges — beyond any graph
/// this suite targets). A prebuilt [`CsrGraph::degrees`] array is stored
/// alongside, so frontier-size heuristics (the hybrid BFS α/β switch) read
/// one `u32` per vertex instead of two offset loads. Invariants:
///
/// - `offsets.len() == n + 1`, `offsets[0] == 0`, nondecreasing, and
///   `offsets[n] as usize == targets.len() == 2m <= u32::MAX`;
/// - `degrees[v] == offsets[v + 1] - offsets[v]` for every `v`;
/// - every entry of `targets` is a valid vertex id `< n`.
#[derive(Clone, Debug)]
pub struct CsrGraph {
    pub(crate) offsets: Box<[u32]>,
    pub(crate) degrees: Box<[u32]>,
    pub(crate) targets: Box<[Vertex]>,
    pub(crate) weights: Option<Box<[f64]>>,
    pub(crate) num_edges: usize,
}

impl CsrGraph {
    /// Builds an unweighted graph from `n` vertices and an undirected edge list.
    ///
    /// Convenience wrapper over [`GraphBuilder`]; see it for validation rules.
    pub fn from_edges(n: usize, edges: &[(Vertex, Vertex)]) -> Result<Self, GraphError> {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(u, v)?;
        }
        b.build()
    }

    /// Builds a weighted graph from `n` vertices and `(u, v, w)` triples.
    pub fn from_weighted_edges(
        n: usize,
        edges: &[(Vertex, Vertex, f64)],
    ) -> Result<Self, GraphError> {
        let mut b = GraphBuilder::new(n);
        for &(u, v, w) in edges {
            b.add_weighted_edge(u, v, w)?;
        }
        b.build()
    }

    /// Number of vertices `n = |V(G)|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m = |E(G)|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Whether edge weights are attached.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Degree of `v` (one load from the prebuilt degree array).
    #[inline]
    pub fn degree(&self, v: Vertex) -> usize {
        self.degrees[v as usize] as usize
    }

    /// Sorted adjacency slice of `v`.
    #[inline]
    pub fn neighbors(&self, v: Vertex) -> &[Vertex] {
        let v = v as usize;
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Weights parallel to [`CsrGraph::neighbors`], if the graph is weighted.
    #[inline]
    pub fn neighbor_weights(&self, v: Vertex) -> Option<&[f64]> {
        let w = self.weights.as_deref()?;
        let v = v as usize;
        Some(&w[self.offsets[v] as usize..self.offsets[v + 1] as usize])
    }

    /// Iterator over `(neighbor, weight)` pairs; weight defaults to `1.0`
    /// on unweighted graphs so weighted algorithms can run uniformly.
    pub fn neighbors_weighted(&self, v: Vertex) -> impl Iterator<Item = (Vertex, f64)> + '_ {
        let nbrs = self.neighbors(v);
        let ws = self.neighbor_weights(v);
        nbrs.iter().enumerate().map(move |(i, &t)| {
            let w = ws.map_or(1.0, |w| w[i]);
            (t, w)
        })
    }

    /// `O(log deg(u))` undirected adjacency test.
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        if u as usize >= self.num_vertices() || v as usize >= self.num_vertices() {
            return false;
        }
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Weight of edge `{u, v}` (1.0 on unweighted graphs), or `None` if absent.
    pub fn edge_weight(&self, u: Vertex, v: Vertex) -> Option<f64> {
        if u as usize >= self.num_vertices() {
            return None;
        }
        let idx = self.neighbors(u).binary_search(&v).ok()?;
        Some(match &self.weights {
            Some(w) => w[self.offsets[u as usize] as usize + idx],
            None => 1.0,
        })
    }

    /// Iterator over all vertex ids `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = Vertex> + '_ {
        0..self.num_vertices() as Vertex
    }

    /// Iterator over each undirected edge exactly once, as `(u, v, w)` with
    /// `u < v` (`w = 1.0` when unweighted).
    pub fn edges(&self) -> EdgeIter<'_> {
        EdgeIter { g: self, u: 0, i: 0 }
    }

    /// Sum of all degrees (`2m`).
    #[inline]
    pub fn degree_sum(&self) -> usize {
        self.targets.len()
    }

    /// Raw compact CSR view `(offsets, targets)` for kernel-style loops.
    ///
    /// `offsets` has length `n + 1` and the adjacency of `v` is
    /// `targets[offsets[v] as usize..offsets[v + 1] as usize]`. Offsets are
    /// `u32` by the compact-index invariant (see the type docs), so per-edge
    /// loops stream 4-byte loads for both halves of the index. Hoisting the
    /// slices once lets tight per-edge loops (the SPD kernels) avoid
    /// re-deriving the slice per vertex; for everything else prefer
    /// [`CsrGraph::neighbors`].
    #[inline]
    pub fn csr(&self) -> (&[u32], &[Vertex]) {
        (&self.offsets, &self.targets)
    }

    /// Prebuilt per-vertex degrees (`degrees()[v] == degree(v)`), for loops
    /// that tally degree sums without touching two offset entries per vertex
    /// (the hybrid-BFS frontier-edge heuristic).
    #[inline]
    pub fn degrees(&self) -> &[u32] {
        &self.degrees
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.degrees.iter().copied().max().unwrap_or(0) as usize
    }

    /// Returns a copy of this graph with the given per-edge weight function
    /// applied; `f` receives each undirected edge `(u, v)` with `u < v` and
    /// must return a strictly positive, finite weight.
    pub fn map_weights(
        &self,
        mut f: impl FnMut(Vertex, Vertex) -> f64,
    ) -> Result<Self, GraphError> {
        let mut b = GraphBuilder::new(self.num_vertices());
        for (u, v, _) in self.edges() {
            b.add_weighted_edge(u, v, f(u, v))?;
        }
        b.build()
    }

    /// Returns the unweighted skeleton of this graph (drops weights).
    pub fn unweighted(&self) -> Self {
        CsrGraph {
            offsets: self.offsets.clone(),
            degrees: self.degrees.clone(),
            targets: self.targets.clone(),
            weights: None,
            num_edges: self.num_edges,
        }
    }

    /// Wraps CSR arrays that already meet the invariants above, with every
    /// adjacency slice strictly ascending and the edge set symmetric (the
    /// lengths and the ordering are checked in debug builds); degrees and
    /// the edge count are derived from `offsets`.
    pub(crate) fn from_sorted_parts(
        offsets: Vec<u32>,
        targets: Vec<Vertex>,
        weights: Option<Vec<f64>>,
    ) -> Self {
        debug_assert_eq!(offsets.last().map(|&o| o as usize), Some(targets.len()));
        debug_assert!(weights.as_ref().is_none_or(|w| w.len() == targets.len()));
        let degrees: Box<[u32]> = offsets.windows(2).map(|w| w[1] - w[0]).collect();
        let g = CsrGraph {
            offsets: offsets.into_boxed_slice(),
            degrees,
            num_edges: targets.len() / 2,
            targets: targets.into_boxed_slice(),
            weights: weights.map(Vec::into_boxed_slice),
        };
        debug_assert!(g.vertices().all(|v| g.neighbors(v).windows(2).all(|p| p[0] < p[1])));
        g
    }
}

impl std::fmt::Display for CsrGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CsrGraph(n={}, m={}{})",
            self.num_vertices(),
            self.num_edges(),
            if self.is_weighted() { ", weighted" } else { "" }
        )
    }
}

/// Iterator yielding each undirected edge once; see [`CsrGraph::edges`].
pub struct EdgeIter<'a> {
    g: &'a CsrGraph,
    u: usize,
    i: usize,
}

impl Iterator for EdgeIter<'_> {
    type Item = (Vertex, Vertex, f64);

    fn next(&mut self) -> Option<Self::Item> {
        let n = self.g.num_vertices();
        while self.u < n {
            let end = self.g.offsets[self.u + 1] as usize;
            while self.g.offsets[self.u] as usize + self.i < end {
                let pos = self.g.offsets[self.u] as usize + self.i;
                self.i += 1;
                let v = self.g.targets[pos];
                if (self.u as Vertex) < v {
                    let w = self.g.weights.as_ref().map_or(1.0, |ws| ws[pos]);
                    return Some((self.u as Vertex, v, w));
                }
            }
            self.u += 1;
            self.i = 0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> CsrGraph {
        CsrGraph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap()
    }

    #[test]
    fn counts_and_degrees() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree_sum(), 6);
        for v in 0..3 {
            assert_eq!(g.degree(v), 2);
        }
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = CsrGraph::from_edges(5, &[(4, 0), (2, 0), (0, 3), (0, 1)]).unwrap();
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
        assert_eq!(g.degree(0), 4);
        assert_eq!(g.degree(4), 1);
    }

    #[test]
    fn has_edge_both_directions() {
        let g = triangle();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 0));
        assert!(!g.has_edge(0, 99));
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let g = triangle();
        let es: Vec<_> = g.edges().map(|(u, v, _)| (u, v)).collect();
        assert_eq!(es, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn weighted_graph_roundtrip() {
        let g = CsrGraph::from_weighted_edges(3, &[(0, 1, 2.5), (1, 2, 0.5)]).unwrap();
        assert!(g.is_weighted());
        assert_eq!(g.edge_weight(0, 1), Some(2.5));
        assert_eq!(g.edge_weight(1, 0), Some(2.5));
        assert_eq!(g.edge_weight(2, 1), Some(0.5));
        assert_eq!(g.edge_weight(0, 2), None);
    }

    #[test]
    fn unweighted_edge_weight_defaults_to_one() {
        let g = triangle();
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
        let pairs: Vec<_> = g.neighbors_weighted(0).collect();
        assert_eq!(pairs, vec![(1, 1.0), (2, 1.0)]);
    }

    #[test]
    fn map_weights_and_unweighted_skeleton() {
        let g = triangle();
        let w = g.map_weights(|u, v| (u + v + 1) as f64).unwrap();
        assert_eq!(w.edge_weight(0, 1), Some(2.0));
        assert_eq!(w.edge_weight(1, 2), Some(4.0));
        let back = w.unweighted();
        assert!(!back.is_weighted());
        assert_eq!(back.num_edges(), 3);
    }

    #[test]
    fn empty_and_single_vertex_graphs() {
        let g = CsrGraph::from_edges(0, &[]).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.edges().count(), 0);
        let g1 = CsrGraph::from_edges(1, &[]).unwrap();
        assert_eq!(g1.num_vertices(), 1);
        assert_eq!(g1.degree(0), 0);
    }

    #[test]
    fn raw_csr_view_matches_neighbors() {
        let g = CsrGraph::from_edges(5, &[(4, 0), (2, 0), (0, 3), (0, 1)]).unwrap();
        let (offsets, targets) = g.csr();
        assert_eq!(offsets.len(), 6);
        for v in 0..5u32 {
            assert_eq!(
                &targets[offsets[v as usize] as usize..offsets[v as usize + 1] as usize],
                g.neighbors(v),
                "vertex {v}"
            );
        }
        assert_eq!(g.max_degree(), 4);
        assert_eq!(CsrGraph::from_edges(0, &[]).unwrap().max_degree(), 0);
        assert_eq!(g.degrees(), &[4, 1, 1, 1, 1]);
        assert_eq!(*offsets.last().unwrap() as usize, targets.len());
    }

    #[test]
    fn display_summary() {
        let g = triangle();
        assert_eq!(format!("{g}"), "CsrGraph(n=3, m=3)");
        let w = g.map_weights(|_, _| 1.0).unwrap();
        assert_eq!(format!("{w}"), "CsrGraph(n=3, m=3, weighted)");
    }
}
