//! Property-based tests for the graph substrate.

use mhbc_graph::reduce::{reduce, ReduceLevel, TwinKind};
use mhbc_graph::{algo, generators, CsrGraph, GraphBuilder, Vertex};
use proptest::prelude::*;
use rand::{rngs::SmallRng, RngExt, SeedableRng};
use std::collections::VecDeque;

/// Strategy: arbitrary simple edge list over `n` vertices.
fn arb_edges(max_n: usize, max_m: usize) -> impl Strategy<Value = (usize, Vec<(Vertex, Vertex)>)> {
    (2usize..=max_n).prop_flat_map(move |n| {
        let edge = (0..n as Vertex, 0..n as Vertex).prop_filter("no self-loop", |(u, v)| u != v);
        (Just(n), proptest::collection::vec(edge, 0..=max_m))
    })
}

/// A random graph with planted twins: each vertex of a `G(base, p)` graph
/// becomes 1–4 copies forming a clique (true twins) or an independent set
/// (false twins), then `pendants` tree vertices hang off random earlier
/// vertices, and all labels are shuffled.
fn planted_twins(base: usize, p: f64, pendants: usize, seed: u64) -> CsrGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let skeleton = generators::erdos_renyi_gnp(base, p, &mut rng);
    let mut copies: Vec<Vec<Vertex>> = Vec::new();
    let mut edges = Vec::new();
    let mut n = 0u32;
    for _ in 0..base {
        let k = rng.random_range(1..=4u32);
        if rng.random_range(0..2u32) == 0 {
            for a in n..n + k {
                edges.extend((a + 1..n + k).map(|b| (a, b)));
            }
        }
        copies.push((n..n + k).collect());
        n += k;
    }
    for (u, v, _) in skeleton.edges() {
        for &a in &copies[u as usize] {
            edges.extend(copies[v as usize].iter().map(|&b| (a, b)));
        }
    }
    for _ in 0..pendants {
        edges.push((rng.random_range(0..n), n));
        n += 1;
    }
    let mut label: Vec<Vertex> = (0..n).collect();
    for i in (1..n as usize).rev() {
        label.swap(i, rng.random_range(0..=i));
    }
    let edges: Vec<_> =
        edges.iter().map(|&(a, b)| (label[a as usize], label[b as usize])).collect();
    CsrGraph::from_edges(n as usize, &edges).unwrap()
}

/// Brute-force twin classes of the subgraph induced by `retained`
/// (ascending), in the reduction's class order: false classes (equal open
/// neighbourhoods) by smallest member, then true classes (equal closed
/// neighbourhoods, among the rest) and singletons in retained order.
/// Degree-0 vertices are always singletons.
fn brute_force_classes(g: &CsrGraph, retained: &[Vertex]) -> Vec<(TwinKind, Vec<Vertex>)> {
    let n = g.num_vertices();
    let live: Vec<Vec<Vertex>> = (0..n as Vertex)
        .map(|v| {
            let nbrs = g.neighbors(v).iter().copied();
            nbrs.filter(|u| retained.binary_search(u).is_ok()).collect()
        })
        .collect();
    let closed: Vec<Vec<Vertex>> = (0..n)
        .map(|v| {
            let mut k = live[v].clone();
            k.push(v as Vertex);
            k.sort_unstable();
            k
        })
        .collect();
    let mut classes = Vec::new();
    let mut assigned = vec![false; n];
    for &v in retained {
        let v = v as usize;
        let twins: Vec<Vertex> = retained
            .iter()
            .copied()
            .filter(|&u| !live[v].is_empty() && live[u as usize] == live[v])
            .collect();
        if twins.len() >= 2 && twins[0] as usize == v {
            twins.iter().for_each(|&u| assigned[u as usize] = true);
            classes.push((TwinKind::False, twins));
        }
    }
    let mut rest = Vec::new();
    for &v in retained {
        let v = v as usize;
        if assigned[v] {
            continue;
        }
        let twins: Vec<Vertex> = retained
            .iter()
            .copied()
            .filter(|&u| {
                !assigned[u as usize] && !live[v].is_empty() && closed[u as usize] == closed[v]
            })
            .collect();
        if twins.len() >= 2 {
            twins.iter().for_each(|&u| assigned[u as usize] = true);
            rest.push((TwinKind::True, twins));
        } else {
            rest.push((TwinKind::Single, vec![v as Vertex]));
        }
    }
    classes.extend(rest);
    classes
}

/// Final ids of `classes` under the reduction's documented relabel: BFS over
/// the class graph from each component's highest-degree class (roots by
/// descending degree, then id), applied only when fewer than half of the
/// consecutive visits are within 16 ids of each other.
fn expected_final_ids(g: &CsrGraph, classes: &[(TwinKind, Vec<Vertex>)]) -> Vec<Vertex> {
    let h_n = classes.len();
    let mut class_of = vec![usize::MAX; g.num_vertices()];
    for (c, (_, members)) in classes.iter().enumerate() {
        members.iter().for_each(|&m| class_of[m as usize] = c);
    }
    let mut adj = vec![Vec::new(); h_n];
    for (u, v, _) in g.edges() {
        let (cu, cv) = (class_of[u as usize], class_of[v as usize]);
        if cu != usize::MAX && cv != usize::MAX && cu != cv {
            adj[cu].push(cv);
            adj[cv].push(cu);
        }
    }
    for a in &mut adj {
        a.sort_unstable();
        a.dedup();
    }
    let mut roots: Vec<usize> = (0..h_n).collect();
    roots.sort_by_key(|&c| (usize::MAX - adj[c].len(), c));
    let (mut order, mut seen) = (Vec::new(), vec![false; h_n]);
    for root in roots {
        if seen[root] {
            continue;
        }
        seen[root] = true;
        let mut queue = VecDeque::from([root]);
        while let Some(c) = queue.pop_front() {
            order.push(c);
            for &d in &adj[c] {
                if !seen[d] {
                    seen[d] = true;
                    queue.push_back(d);
                }
            }
        }
    }
    let local = order.windows(2).filter(|w| w[0].abs_diff(w[1]) <= 16).count();
    let mut ids: Vec<Vertex> = (0..h_n as Vertex).collect();
    if 2 * local < h_n.saturating_sub(1) {
        for (new, &old) in order.iter().enumerate() {
            ids[old] = new as Vertex;
        }
    }
    ids
}

proptest! {
    /// CSR invariants hold for arbitrary edge lists: sorted adjacency,
    /// symmetric edges, degree sum = 2m, no self-loops or duplicates.
    #[test]
    fn csr_invariants((n, edges) in arb_edges(40, 200)) {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in &edges {
            b.add_edge(u, v).unwrap();
        }
        let g = b.build().unwrap();

        prop_assert_eq!(g.num_vertices(), n);
        prop_assert_eq!(g.degree_sum(), 2 * g.num_edges());
        for v in 0..n as Vertex {
            let nbrs = g.neighbors(v);
            // Sorted strictly (no duplicates), no self-loop.
            for w in nbrs.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
            for &u in nbrs {
                prop_assert_ne!(u, v);
                prop_assert!(g.has_edge(u, v), "symmetry violated for ({}, {})", u, v);
            }
        }
    }

    /// Every edge added is present, and nothing else is.
    #[test]
    fn membership_matches_input((n, edges) in arb_edges(25, 80)) {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in &edges {
            b.add_edge(u, v).unwrap();
        }
        let g = b.build().unwrap();
        use std::collections::HashSet;
        let set: HashSet<(Vertex, Vertex)> =
            edges.iter().map(|&(u, v)| if u < v { (u, v) } else { (v, u) }).collect();
        prop_assert_eq!(g.num_edges(), set.len());
        for u in 0..n as Vertex {
            for v in 0..n as Vertex {
                let expect = u != v && set.contains(&if u < v { (u, v) } else { (v, u) });
                prop_assert_eq!(g.has_edge(u, v), expect);
            }
        }
    }

    /// Connected components partition the vertex set and are edge-closed.
    #[test]
    fn components_partition((n, edges) in arb_edges(30, 60)) {
        let g = CsrGraph::from_edges(n, &edges).unwrap();
        let comps = algo::connected_components(&g);
        prop_assert_eq!(comps.labels.len(), n);
        prop_assert!(comps.labels.iter().all(|&l| (l as usize) < comps.count));
        prop_assert_eq!(comps.sizes().iter().sum::<usize>(), n);
        for (u, v, _) in g.edges() {
            prop_assert_eq!(comps.labels[u as usize], comps.labels[v as usize]);
        }
    }

    /// `ensure_connected` always yields a connected graph containing the
    /// original edges.
    #[test]
    fn ensure_connected_connects((n, edges) in arb_edges(30, 40), seed in any::<u64>()) {
        let g = CsrGraph::from_edges(n, &edges).unwrap();
        let m_before = g.num_edges();
        let mut rng = SmallRng::seed_from_u64(seed);
        let g2 = generators::ensure_connected(g.clone(), &mut rng);
        prop_assert!(algo::is_connected(&g2));
        prop_assert!(g2.num_edges() >= m_before);
        for (u, v, _) in g.edges() {
            prop_assert!(g2.has_edge(u, v));
        }
    }

    /// BFS distances satisfy the edge-relaxation (triangle) property and the
    /// source has distance zero.
    #[test]
    fn bfs_distance_triangle((n, edges) in arb_edges(30, 120), src_raw in 0u32..30) {
        let g = CsrGraph::from_edges(n, &edges).unwrap();
        let src = src_raw % n as u32;
        let d = algo::bfs_distances(&g, src);
        prop_assert_eq!(d[src as usize], 0);
        for (u, v, _) in g.edges() {
            let (du, dv) = (d[u as usize], d[v as usize]);
            if du != u32::MAX {
                prop_assert!(dv != u32::MAX && dv <= du + 1, "edge ({}, {})", u, v);
            }
            if dv != u32::MAX {
                prop_assert!(du != u32::MAX && du <= dv + 1);
            }
        }
    }

    /// Generators produce the promised vertex counts and connectivity.
    #[test]
    fn ba_generator_invariants(n in 5usize..60, m in 1usize..4, seed in any::<u64>()) {
        prop_assume!(n > m);
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::barabasi_albert(n, m, &mut rng);
        prop_assert_eq!(g.num_vertices(), n);
        prop_assert_eq!(g.num_edges(), m + (n - m - 1) * m);
        prop_assert!(algo::is_connected(&g));
    }

    /// Separator family: hub removal gives exactly `clusters` equal parts.
    #[test]
    fn separator_invariants(clusters in 2usize..5, size in 1usize..12, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let links = 1 + seed as usize % size.min(3);
        let hs = generators::hub_separator(clusters, size, 0.2, links, &mut rng);
        prop_assert!(algo::is_connected(&hs.graph));
        let sizes = algo::components_after_removal(&hs.graph, hs.hub);
        prop_assert_eq!(sizes.len(), clusters);
        prop_assert!(sizes.iter().all(|&s| s == size));
    }

    /// Edge-list IO roundtrips arbitrary graphs.
    #[test]
    fn io_roundtrip((n, edges) in arb_edges(20, 50)) {
        let g = CsrGraph::from_edges(n, &edges).unwrap();
        let mut buf = Vec::new();
        mhbc_graph::io::write_edge_list(&g, &mut buf).unwrap();
        let g2 = mhbc_graph::io::read_edge_list(std::io::Cursor::new(buf)).unwrap();
        prop_assert_eq!(g2.num_edges(), g.num_edges());
        for (u, v, _) in g.edges() {
            prop_assert!(g2.has_edge(u, v));
        }
    }

    /// Union-find agrees with BFS connectivity.
    #[test]
    fn union_find_matches_bfs((n, edges) in arb_edges(25, 60)) {
        let g = CsrGraph::from_edges(n, &edges).unwrap();
        let mut uf = algo::UnionFind::new(n);
        for (u, v, _) in g.edges() {
            uf.union(u, v);
        }
        let comps = algo::connected_components(&g);
        prop_assert_eq!(uf.num_components(), comps.count);
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                prop_assert_eq!(
                    uf.connected(u, v),
                    comps.labels[u as usize] == comps.labels[v as usize]
                );
            }
        }
    }

    /// Twin detection at `Full` equals a brute-force pairwise comparison of
    /// live open and closed neighbourhoods: same classes, kinds and class
    /// order (read through the relabel).
    #[test]
    fn twin_classes_match_brute_force(
        base in 1usize..120,
        p in 0.01f64..0.08,
        pendants in 0usize..40,
        seed in any::<u64>(),
    ) {
        let g = planted_twins(base, p, pendants, seed);
        let red = reduce(&g, ReduceLevel::Full).unwrap();
        let retained: Vec<Vertex> = g.vertices().filter(|&v| red.is_retained(v)).collect();
        let classes = brute_force_classes(&g, &retained);
        let ids = expected_final_ids(&g, &classes);
        prop_assert_eq!(red.csr().num_vertices(), classes.len());
        for ((kind, members), &z) in classes.iter().zip(&ids) {
            prop_assert_eq!(red.kind(z), *kind, "class {:?}", members);
            prop_assert_eq!(red.members(z), &members[..]);
        }
    }
}
