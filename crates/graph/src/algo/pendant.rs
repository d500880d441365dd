//! Degree-1 peeling: the pendant trees of a graph.

use crate::{CsrGraph, Vertex};
use std::collections::VecDeque;

/// The pendant forest of a graph: the vertices that repeatedly removing
/// degree-1 vertices takes away, each with the live neighbour it was
/// removed into (its *parent*).
///
/// What survives is the 2-core plus one vertex per tree component (and the
/// isolated vertices). A removed vertex's parent chain ends at a surviving
/// vertex, its *attachment*; the removed subtree hanging off the attachment
/// that contains it is its *branch*. Every path from a branch vertex to a
/// vertex outside the branch passes through the attachment.
///
/// The peel is FIFO: the degree-1 vertices are queued in ascending id,
/// and a vertex whose degree drops to 1 joins the back of the queue. The
/// order is part of the contract — the reduction's pruning corrections are
/// floating-point sums taken in it.
#[derive(Debug, Clone, Default)]
pub struct PendantForest {
    /// Removed vertices, in removal order.
    order: Vec<Vertex>,
    /// The live neighbour each vertex was removed into; `u32::MAX` for
    /// survivors. Empty when nothing was removed.
    parent: Vec<Vertex>,
}

impl PendantForest {
    /// Peels `g` to fixpoint in `O(n + m)` (edge weights are ignored). A
    /// graph without degree-1 vertices gets the empty forest
    /// ([`PendantForest::default`]) and no per-vertex arrays.
    pub fn peel(g: &CsrGraph) -> Self {
        let mut queue: VecDeque<u32> = g.vertices().filter(|&v| g.degree(v) == 1).collect();
        if queue.is_empty() {
            return Self::default();
        }
        let mut degree = g.degrees().to_vec();
        let mut parent = vec![u32::MAX; g.num_vertices()];
        let mut order = Vec::new();
        while let Some(v) = queue.pop_front() {
            let vu = v as usize;
            if degree[vu] != 1 {
                continue;
            }
            let u = *g
                .neighbors(v)
                .iter()
                .find(|&&u| parent[u as usize] == u32::MAX)
                .expect("degree-1 vertex has a live neighbour");
            parent[vu] = u;
            order.push(v);
            degree[vu] = 0;
            degree[u as usize] -= 1;
            if degree[u as usize] == 1 {
                queue.push_back(u);
            }
        }
        PendantForest { order, parent }
    }

    /// The removed vertices, in removal order (a vertex is removed before
    /// its parent).
    pub fn order(&self) -> &[Vertex] {
        &self.order
    }

    /// The live neighbour `v` was removed into; `None` if `v` survives.
    #[inline]
    pub fn parent(&self, v: Vertex) -> Option<Vertex> {
        self.parent.get(v as usize).copied().filter(|&p| p != u32::MAX)
    }

    /// Whether the peel removed `v`.
    #[inline]
    pub fn is_pruned(&self, v: Vertex) -> bool {
        self.parent(v).is_some()
    }

    /// `(attachment, branch root)` of every removed vertex, indexed by
    /// vertex (`(u32::MAX, u32::MAX)` for survivors; empty for the empty
    /// forest): the surviving vertex its parent chain ends at, and the last
    /// removed vertex on that chain.
    pub fn branches(&self) -> Vec<(Vertex, Vertex)> {
        let mut out = vec![(u32::MAX, u32::MAX); self.parent.len()];
        // A parent is removed after its children, if at all: walking the
        // removal order backwards resolves every parent before its children.
        for &v in self.order.iter().rev() {
            let p = self.parent[v as usize];
            out[v as usize] = if self.is_pruned(p) { out[p as usize] } else { (p, v) };
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn lollipop_path_hangs_off_the_clique() {
        let g = generators::lollipop(5, 3);
        let f = PendantForest::peel(&g);
        assert_eq!(f.order(), &[7, 6, 5]);
        assert_eq!((f.parent(7), f.parent(5), f.parent(4)), (Some(6), Some(4), None));
        let b = f.branches();
        assert!((5..8).all(|v| b[v] == (4, 5)));
        assert_eq!(b[4], (u32::MAX, u32::MAX));
    }

    #[test]
    fn a_tree_keeps_one_vertex_and_splits_into_branches() {
        // Path 0-1-2: both leaves go into 1, which then has degree 0.
        let g = generators::path(3);
        let f = PendantForest::peel(&g);
        assert_eq!(f.order(), &[0, 2]);
        assert!(!f.is_pruned(1));
        assert_eq!(f.branches(), vec![(1, 0), (u32::MAX, u32::MAX), (1, 2)]);
    }

    #[test]
    fn cycles_and_the_empty_forest_prune_nothing() {
        let f = PendantForest::peel(&generators::cycle(6));
        assert!(f.order().is_empty() && (0..6).all(|v| !f.is_pruned(v)));
        let empty = PendantForest::default();
        assert!(!empty.is_pruned(3) && empty.branches().is_empty());
    }
}
