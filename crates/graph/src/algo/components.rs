//! Connected components and vertex-removal component analysis.

use crate::{CsrGraph, Vertex, VisitBitset};
use std::borrow::Cow;
use std::collections::VecDeque;

/// Result of [`connected_components`].
#[derive(Debug, Clone)]
pub struct ComponentLabels {
    /// Number of connected components.
    pub count: usize,
    /// `labels[v]` is the component id of `v`, in `0..count`, assigned in
    /// order of discovery from vertex 0 upward.
    pub labels: Vec<u32>,
}

impl ComponentLabels {
    /// Sizes of each component, indexed by component id.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.count];
        for &l in &self.labels {
            sizes[l as usize] += 1;
        }
        sizes
    }
}

/// Labels connected components by BFS in `O(n + m)`.
pub fn connected_components(g: &CsrGraph) -> ComponentLabels {
    let n = g.num_vertices();
    let mut labels = vec![u32::MAX; n];
    let mut count = 0u32;
    let mut queue = VecDeque::new();
    for s in 0..n {
        if labels[s] != u32::MAX {
            continue;
        }
        labels[s] = count;
        queue.push_back(s as Vertex);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                if labels[v as usize] == u32::MAX {
                    labels[v as usize] = count;
                    queue.push_back(v);
                }
            }
        }
        count += 1;
    }
    ComponentLabels { count: count as usize, labels }
}

/// Whether `g` is connected (the paper's standing assumption). Empty graphs
/// count as connected.
pub fn is_connected(g: &CsrGraph) -> bool {
    reaches_all_from_zero(g)
}

/// The largest connected component of `g` and the map `new_id -> old_id`.
///
/// Takes `&CsrGraph` or `CsrGraph`. A connected graph comes back as it
/// is, with the identity map; passed by value it is moved, not copied.
/// Connectivity is decided by one search from vertex 0 over a visited
/// bitset (top-down, switching to sweeps in id order while the frontier is
/// large), in `O(n + m)`. Only a disconnected graph is labelled
/// by [`connected_components`]: it keeps its largest component (the last
/// one discovered, from vertex 0 upward, among equals), relabelled in
/// ascending old id. That relabelling is monotone, so every adjacency slice
/// stays sorted and the CSR (with its weights) is mapped slice by slice,
/// without a builder. Standard preprocessing step for loaded edge lists
/// and for generated graphs that came out disconnected.
pub fn largest_component<'a>(g: impl Into<Cow<'a, CsrGraph>>) -> (CsrGraph, Vec<Vertex>) {
    let g = g.into();
    let n = g.num_vertices();
    if reaches_all_from_zero(&g) {
        return (g.into_owned(), (0..n as Vertex).collect());
    }
    let comps = connected_components(&g);
    let best = comps
        .sizes()
        .iter()
        .enumerate()
        .max_by_key(|&(_, s)| *s)
        .map(|(i, _)| i as u32)
        .expect("a disconnected graph has components");

    let mut new_of_old = vec![u32::MAX; n];
    let mut old_of_new = Vec::new();
    for (v, slot) in new_of_old.iter_mut().enumerate() {
        if comps.labels[v] == best {
            *slot = old_of_new.len() as Vertex;
            old_of_new.push(v as Vertex);
        }
    }
    // Every neighbour of a kept vertex is kept.
    let mut offsets = Vec::with_capacity(old_of_new.len() + 1);
    offsets.push(0u32);
    let mut targets = Vec::new();
    for &old in &old_of_new {
        targets.extend(g.neighbors(old).iter().map(|&t| new_of_old[t as usize]));
        offsets.push(targets.len() as u32);
    }
    let weights = g.is_weighted().then(|| {
        old_of_new
            .iter()
            .flat_map(|&old| g.neighbor_weights(old).unwrap_or_default())
            .copied()
            .collect()
    });
    (CsrGraph::from_sorted_parts(offsets, targets, weights), old_of_new)
}

impl From<CsrGraph> for Cow<'_, CsrGraph> {
    fn from(g: CsrGraph) -> Self {
        Cow::Owned(g)
    }
}

impl<'a> From<&'a CsrGraph> for Cow<'a, CsrGraph> {
    fn from(g: &'a CsrGraph) -> Self {
        Cow::Borrowed(g)
    }
}

/// Whether a search from vertex 0 reaches every vertex (true on an empty
/// graph), over a visited bitset. A frontier expands top-down, unless it
/// holds at least `1/SWEEPS` of all vertices: then a sweep in id order
/// instead marks each unseen vertex that has a seen neighbour, reading the
/// adjacency arrays in order rather than at random. Either way, every
/// neighbour of a vertex seen before the step is seen after it, and the
/// newly seen vertices form the next frontier. Frontiers are disjoint, so
/// at most `SWEEPS` sweeps run: `O(n + m)` in all.
fn reaches_all_from_zero(g: &CsrGraph) -> bool {
    const SWEEPS: usize = 16;
    let n = g.num_vertices();
    if n == 0 {
        return true;
    }
    let mut seen = VisitBitset::new(n);
    seen.insert(0);
    let mut unseen = n - 1;
    let (mut frontier, mut next) = (vec![0 as Vertex], Vec::new());
    while !frontier.is_empty() && unseen > 0 {
        if frontier.len() * SWEEPS >= n {
            for v in 0..n as Vertex {
                if !seen.contains(v) && g.neighbors(v).iter().any(|&u| seen.contains(u)) {
                    seen.insert(v);
                    next.push(v);
                }
            }
        } else {
            for &u in &frontier {
                for &v in g.neighbors(u) {
                    if !seen.contains(v) {
                        seen.insert(v);
                        next.push(v);
                    }
                }
            }
        }
        unseen -= next.len();
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
    }
    unseen == 0
}

/// Sizes of the connected components of `G \ r` (the paper's notation for
/// the graphs obtained by removing `r`), sorted descending.
///
/// This is the quantity Theorem 2 reasons about: `r` is a *balanced vertex
/// separator* when at least two of these components have `Θ(n)` vertices.
pub fn components_after_removal(g: &CsrGraph, r: Vertex) -> Vec<usize> {
    let n = g.num_vertices();
    let mut labels = vec![u32::MAX; n];
    labels[r as usize] = u32::MAX - 1; // mark removed
    let mut sizes = Vec::new();
    let mut queue = VecDeque::new();
    for s in 0..n {
        if labels[s] != u32::MAX {
            continue;
        }
        let mut size = 0usize;
        labels[s] = sizes.len() as u32;
        queue.push_back(s as Vertex);
        while let Some(u) = queue.pop_front() {
            size += 1;
            for &v in g.neighbors(u) {
                if v != r && labels[v as usize] == u32::MAX {
                    labels[v as usize] = sizes.len() as u32;
                    queue.push_back(v);
                }
            }
        }
        sizes.push(size);
    }
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn single_component() {
        let g = generators::cycle(6);
        let c = connected_components(&g);
        assert_eq!(c.count, 1);
        assert!(is_connected(&g));
    }

    #[test]
    fn multiple_components_and_sizes() {
        let g = CsrGraph::from_edges(7, &[(0, 1), (1, 2), (3, 4), (5, 6)]).unwrap();
        let c = connected_components(&g);
        assert_eq!(c.count, 3);
        let mut sizes = c.sizes();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 2, 3]);
    }

    #[test]
    fn largest_component_extraction_preserves_structure() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4)]).unwrap();
        let (sub, map) = largest_component(&g);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 3);
        let mut old: Vec<_> = map.clone();
        old.sort_unstable();
        assert_eq!(old, vec![0, 1, 2]);
    }

    #[test]
    fn largest_component_weighted() {
        let g = CsrGraph::from_weighted_edges(5, &[(0, 1, 2.0), (1, 2, 3.0), (3, 4, 1.0)]).unwrap();
        let (sub, map) = largest_component(&g);
        assert_eq!(sub.num_vertices(), 3);
        assert!(sub.is_weighted());
        // Find the new ids of old 0 and 1 via the map.
        let new_of = |old: Vertex| map.iter().position(|&o| o == old).unwrap() as Vertex;
        assert_eq!(sub.edge_weight(new_of(0), new_of(1)), Some(2.0));
    }

    #[test]
    fn reachability_search_agrees_with_component_labels() {
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(3);
        let ba = generators::barabasi_albert(3000, 2, &mut rng);
        // Top-down on a long path, sweeps on a star and through BA's
        // middle levels; then the same with a vertex cut off.
        for g in [generators::path(500), generators::star(400), ba] {
            assert!(reaches_all_from_zero(&g));
            let n = g.num_vertices() as Vertex;
            let cut: Vec<_> = g.edges().filter(|&(u, v, _)| u != n - 1 && v != n - 1).collect();
            let edges: Vec<_> = cut.iter().map(|&(u, v, _)| (u, v)).collect();
            let h = CsrGraph::from_edges(n as usize, &edges).unwrap();
            assert!(!reaches_all_from_zero(&h));
            assert_eq!(largest_component(h).1.len(), n as usize - 1);
        }
    }

    #[test]
    fn owned_connected_graph_comes_back_without_a_copy() {
        for g in [generators::cycle(6), generators::barbell(3, 1).map_weights(|_, _| 2.0).unwrap()]
        {
            let (n, targets) = (g.num_vertices(), g.csr().1.as_ptr());
            let (same, map) = largest_component(g);
            assert_eq!(same.csr().1.as_ptr(), targets);
            assert_eq!(map, (0..n as Vertex).collect::<Vec<_>>());
        }
        let empty = CsrGraph::from_edges(0, &[]).unwrap();
        let (same, map) = largest_component(empty);
        assert_eq!((same.num_vertices(), map.len()), (0, 0));
    }

    #[test]
    fn removal_of_cut_vertex() {
        // Two triangles joined by an edge; vertex 2 is in clique A and on
        // the bridge (2-3).
        let g = generators::barbell(3, 0);
        let sizes = components_after_removal(&g, 2);
        assert_eq!(sizes, vec![3, 2]);
    }

    #[test]
    fn removal_of_non_cut_vertex() {
        let g = generators::complete(5);
        let sizes = components_after_removal(&g, 0);
        assert_eq!(sizes, vec![4]);
    }

    #[test]
    fn removal_from_star_shatters() {
        let g = generators::star(6);
        let sizes = components_after_removal(&g, 0);
        assert_eq!(sizes, vec![1, 1, 1, 1, 1]);
    }
}
