#![allow(clippy::needless_range_loop)]
//! Property-based cross-validation of the shortest-path machinery.

use mhbc_graph::reduce::{reduce, ReduceLevel, ReducedGraph, TwinKind, VertexState};
use mhbc_graph::{generators, CsrGraph, Vertex};
use mhbc_spd::{
    bidirectional::BidirectionalSearch, exact_betweenness, exact_betweenness_par,
    exact_betweenness_preprocessed, naive, BfsSpd, DependencyCalculator, DijkstraSpd, KernelMode,
    ReducedCalculator, SpdView, ViewCalculator, UNREACHED,
};
use proptest::prelude::*;
use rand::{rngs::SmallRng, RngExt, SeedableRng};

/// Connected random graph from a seed (ER backbone, bridged if needed).
fn connected_graph(n: usize, p: f64, seed: u64) -> CsrGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    generators::ensure_connected(generators::erdos_renyi_gnp(n, p, &mut rng), &mut rng)
}

/// Exact u128 shortest-path counting by level-DP, to validate the f64 σ.
fn sigma_u128(g: &CsrGraph, s: Vertex) -> Vec<u128> {
    let n = g.num_vertices();
    let dist = mhbc_graph::algo::bfs_distances(g, s);
    let mut order: Vec<Vertex> =
        (0..n as Vertex).filter(|&v| dist[v as usize] != u32::MAX).collect();
    order.sort_by_key(|&v| dist[v as usize]);
    let mut sigma = vec![0u128; n];
    sigma[s as usize] = 1;
    for &w in &order {
        if w == s {
            continue;
        }
        for &u in g.neighbors(w) {
            if dist[u as usize] != u32::MAX && dist[u as usize] + 1 == dist[w as usize] {
                sigma[w as usize] += sigma[u as usize];
            }
        }
    }
    sigma
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// BFS σ equals exact integer counting.
    #[test]
    fn sigma_matches_exact_integers(n in 5usize..40, seed in any::<u64>(), src in 0usize..40) {
        let g = connected_graph(n, 0.15, seed);
        let s = (src % n) as Vertex;
        let mut spd = BfsSpd::new(n);
        spd.compute(&g, s);
        let exact = sigma_u128(&g, s);
        for v in 0..n {
            prop_assert_eq!(spd.sigma(v as Vertex), exact[v] as f64, "vertex {}", v);
        }
    }

    /// The frontier-swap kernel reproduces the legacy `VecDeque` kernel's
    /// `dist`/`sigma`/`delta` (and scaled delta) bit-for-bit on random
    /// graphs, including across workspace reuse.
    #[test]
    fn frontier_kernel_matches_legacy_bitwise(n in 4usize..40, seed in any::<u64>()) {
        let g = connected_graph(n, 0.15, seed);
        let mut new = BfsSpd::new(n);
        let mut old = mhbc_spd::legacy::LegacyBfsSpd::new(n);
        let (mut d1, mut d2) = (Vec::new(), Vec::new());
        for s in 0..n as Vertex {
            new.compute(&g, s);
            old.compute(&g, s);
            old.canonicalize_order();
            prop_assert_eq!(new.order(), &old.order[..], "order, source {}", s);
            for v in 0..n as Vertex {
                prop_assert_eq!(new.dist(v), old.dist[v as usize], "dist {}", v);
                prop_assert_eq!(
                    new.sigma(v).to_bits(),
                    old.sigma[v as usize].to_bits(),
                    "sigma {}", v
                );
            }
            new.accumulate_dependencies(&g, &mut d1);
            old.accumulate_dependencies(&g, &mut d2);
            for v in 0..n {
                prop_assert_eq!(d1[v].to_bits(), d2[v].to_bits(), "delta {}", v);
            }
            new.accumulate_scaled_dependencies(&g, &mut d1);
            old.accumulate_scaled_dependencies(&g, &mut d2);
            for v in 0..n {
                prop_assert_eq!(d1[v].to_bits(), d2[v].to_bits(), "scaled {}", v);
            }
        }
    }

    /// The recorded level boundaries partition the settle order by distance.
    #[test]
    fn level_starts_partition_order_by_distance(n in 4usize..40, seed in any::<u64>()) {
        let g = connected_graph(n, 0.15, seed);
        let mut spd = BfsSpd::new(n);
        spd.compute(&g, 0);
        let starts = spd.level_starts().to_vec();
        prop_assert_eq!(*starts.last().unwrap(), spd.reached());
        for lvl in 0..starts.len() - 1 {
            for &v in &spd.order()[starts[lvl]..starts[lvl + 1]] {
                prop_assert_eq!(spd.dist(v) as usize, lvl, "vertex {}", v);
            }
        }
    }

    /// Brandes accumulation equals the definition-level dependency scores.
    #[test]
    fn dependencies_match_naive(n in 5usize..30, seed in any::<u64>(), src in 0usize..30) {
        let g = connected_graph(n, 0.2, seed);
        let s = (src % n) as Vertex;
        let mut calc = DependencyCalculator::new(&g);
        let fast = calc.dependencies(&g, s).to_vec();
        let slow = naive::dependencies_naive(&g, s);
        for v in 0..n {
            prop_assert!((fast[v] - slow[v]).abs() < 1e-9, "vertex {}: {} vs {}", v, fast[v], slow[v]);
        }
    }

    /// Exact Brandes equals naive BC; parallel equals serial.
    #[test]
    fn brandes_matches_naive(n in 5usize..25, seed in any::<u64>()) {
        let g = connected_graph(n, 0.2, seed);
        let fast = exact_betweenness(&g);
        let par = exact_betweenness_par(&g, 3);
        let slow = naive::betweenness_naive(&g);
        for v in 0..n {
            prop_assert!((fast[v] - slow[v]).abs() < 1e-9);
            prop_assert!((fast[v] - par[v]).abs() < 1e-12);
        }
    }

    /// Dependency sums: Σ_v δ_s•(v) equals Σ_t (d(s,t) - 1)⁺ for connected
    /// graphs (each target contributes its path's interior count in
    /// expectation-free form: Σ_v δ_st(v) = d(s,t) - 1).
    #[test]
    fn dependency_sum_identity(n in 4usize..30, seed in any::<u64>(), src in 0usize..30) {
        let g = connected_graph(n, 0.18, seed);
        let s = (src % n) as Vertex;
        let mut calc = DependencyCalculator::new(&g);
        let delta_sum: f64 = calc.dependencies(&g, s).iter().sum();
        let dist = mhbc_graph::algo::bfs_distances(&g, s);
        let expected: f64 = dist
            .iter()
            .filter(|&&d| d != u32::MAX && d > 0)
            .map(|&d| (d - 1) as f64)
            .sum();
        prop_assert!((delta_sum - expected).abs() < 1e-9, "{} vs {}", delta_sum, expected);
    }

    /// Dijkstra with unit weights agrees with BFS everywhere.
    #[test]
    fn dijkstra_unit_equals_bfs(n in 4usize..30, seed in any::<u64>(), src in 0usize..30) {
        let g = connected_graph(n, 0.2, seed);
        let gw = g.map_weights(|_, _| 1.0).unwrap();
        let s = (src % n) as Vertex;
        let mut bfs = BfsSpd::new(n);
        let mut dij = DijkstraSpd::new(n);
        bfs.compute(&g, s);
        dij.compute(&gw, s);
        for v in 0..n as Vertex {
            prop_assert_eq!(bfs.dist(v) as f64, dij.dist(v));
            prop_assert_eq!(bfs.sigma(v), dij.sigma(v));
        }
    }

    /// Weighted Brandes equals weighted naive BC with random weights.
    #[test]
    fn weighted_brandes_matches_naive(n in 4usize..20, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xBEEF);
        let g = generators::assign_uniform_weights(&connected_graph(n, 0.25, seed), 1.0, 5.0, &mut rng);
        let fast = exact_betweenness(&g);
        let slow = naive::betweenness_naive_weighted(&g);
        for v in 0..n {
            prop_assert!((fast[v] - slow[v]).abs() < 1e-8, "vertex {}", v);
        }
    }

    /// Bidirectional search agrees with BFS on distance and σ for all pairs.
    #[test]
    fn bidirectional_matches_bfs(n in 4usize..25, seed in any::<u64>()) {
        let g = connected_graph(n, 0.18, seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xF00D);
        let mut bb = BidirectionalSearch::new(n);
        let mut spd = BfsSpd::new(n);
        for s in 0..n as Vertex {
            spd.compute(&g, s);
            for t in 0..n as Vertex {
                if s == t {
                    continue;
                }
                let r = bb.query(&g, s, t, false, &mut rng).unwrap();
                prop_assert_eq!(r.distance, spd.dist(t), "{} -> {}", s, t);
                prop_assert_eq!(r.sigma, spd.sigma(t), "{} -> {}", s, t);
            }
        }
    }

    /// Linear-scaling identity: summing the length-scaled dependencies
    /// over *all* sources recovers exact betweenness —
    /// `BC(v) = (2/(n(n-1))) Σ_s d(s,v) · g_s(v)` (pairing (s,t) with
    /// (t,s) makes the scale factors telescope to 1).
    #[test]
    fn linear_scaling_sums_to_exact_bc(n in 4usize..25, seed in any::<u64>()) {
        let g = connected_graph(n, 0.22, seed);
        let exact = exact_betweenness(&g);
        let mut spd = BfsSpd::new(n);
        let mut scaled = Vec::new();
        let mut acc = vec![0.0f64; n];
        for s in 0..n as Vertex {
            spd.compute(&g, s);
            spd.accumulate_scaled_dependencies(&g, &mut scaled);
            for v in 0..n {
                acc[v] += scaled[v];
            }
        }
        let norm = (n * (n - 1)) as f64;
        for v in 0..n {
            let got = 2.0 * acc[v] / norm;
            prop_assert!((got - exact[v]).abs() < 1e-9, "vertex {}: {} vs {}", v, got, exact[v]);
        }
    }

    /// Degree-1 pruning corrections + reduced-graph Brandes reproduce
    /// whole-graph exact Brandes on random ER graphs — sparse enough to
    /// carry pendant trees and (without `ensure_connected`) disconnected
    /// components, the two things the correction bookkeeping must get
    /// right.
    #[test]
    fn reduction_matches_brandes_on_sparse_er(n in 8usize..60, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::erdos_renyi_gnp(n, 2.0 / n as f64, &mut rng);
        let want = exact_betweenness(&g);
        for level in [ReduceLevel::Off, ReduceLevel::Prune, ReduceLevel::Full] {
            let got = exact_betweenness_preprocessed(&g, level).unwrap();
            for v in 0..n {
                let tol = 1e-9 * want[v].abs().max(1.0);
                prop_assert!(
                    (got[v] - want[v]).abs() <= tol,
                    "vertex {} at {:?}: {} vs {}", v, level, got[v], want[v]
                );
            }
        }
    }

    /// Same identity on preferential-attachment graphs (heavy pendant mass
    /// at m = 1, twin-prone hubs) across attachment counts.
    #[test]
    fn reduction_matches_brandes_on_ba(n in 6usize..50, m in 1usize..4, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::barabasi_albert(n.max(m + 1), m, &mut rng);
        let want = exact_betweenness(&g);
        for level in [ReduceLevel::Prune, ReduceLevel::Full] {
            let got = exact_betweenness_preprocessed(&g, level).unwrap();
            for v in 0..g.num_vertices() {
                let tol = 1e-9 * want[v].abs().max(1.0);
                prop_assert!(
                    (got[v] - want[v]).abs() <= tol,
                    "vertex {} at {:?}: {} vs {}", v, level, got[v], want[v]
                );
            }
        }
    }

    /// Same identity on the balanced-separator family (the Theorem 2
    /// workload the preprocessing benchmark targets).
    #[test]
    fn reduction_matches_brandes_on_separators(
        clusters in 2usize..4, per in 4usize..12, seed in any::<u64>()
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let hs = generators::hub_separator(clusters, per, 0.15, 2.min(per), &mut rng);
        let g = hs.graph;
        let want = exact_betweenness(&g);
        for level in [ReduceLevel::Prune, ReduceLevel::Full] {
            let got = exact_betweenness_preprocessed(&g, level).unwrap();
            for v in 0..g.num_vertices() {
                let tol = 1e-9 * want[v].abs().max(1.0);
                prop_assert!(
                    (got[v] - want[v]).abs() <= tol,
                    "vertex {} at {:?}: {} vs {}", v, level, got[v], want[v]
                );
            }
        }
    }

    /// Reduced-view dependency rows equal direct rows for every source and
    /// every retained probe (the mapping the MH samplers rely on).
    #[test]
    fn reduced_dependency_rows_match_direct(n in 6usize..36, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::erdos_renyi_gnp(n, 2.5 / n as f64, &mut rng);
        for level in [ReduceLevel::Prune, ReduceLevel::Full] {
            let red = reduce(&g, level).unwrap();
            let mut direct = DependencyCalculator::new(&g);
            let mut through = ViewCalculator::new(SpdView::preprocessed(&g, &red));
            for r in (0..n as Vertex).filter(|&r| red.is_retained(r)) {
                for v in 0..n as Vertex {
                    let want = direct.dependency_on(&g, v, r);
                    let got = through.dependency_on(v, r);
                    let tol = 1e-9 * want.abs().max(1.0);
                    prop_assert!(
                        (got - want).abs() <= tol,
                        "source {} probe {} at {:?}: {} vs {}", v, r, level, got, want
                    );
                }
            }
        }
    }

    /// Betweenness is invariant under vertex relabelling.
    #[test]
    fn bc_invariant_under_relabelling(n in 4usize..20, seed in any::<u64>()) {
        let g = connected_graph(n, 0.25, seed);
        // Reverse relabelling: new id = n - 1 - old id.
        let relabel = |v: Vertex| (n as Vertex - 1) - v;
        let edges: Vec<(Vertex, Vertex)> =
            g.edges().map(|(u, v, _)| (relabel(u), relabel(v))).collect();
        let g2 = CsrGraph::from_edges(n, &edges).unwrap();
        let bc1 = exact_betweenness(&g);
        let bc2 = exact_betweenness(&g2);
        for v in 0..n as Vertex {
            prop_assert!((bc1[v as usize] - bc2[relabel(v) as usize]).abs() < 1e-12);
        }
    }
}

/// BA (m = 1 grows pendant trees), duplication–divergence (twins), grid, or
/// a disconnected union of a BA and a dup graph plus an isolated vertex,
/// picked by `family % 4`.
fn targeted_graph(family: usize, n: usize, seed: u64) -> CsrGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    match family % 4 {
        0 => generators::barabasi_albert(n, 1 + (seed % 3) as usize, &mut rng),
        1 => generators::duplication_divergence(n, 0.45, &mut rng),
        2 => generators::grid(n / 6 + 2, 6, false),
        _ => {
            let a = generators::barabasi_albert(n / 2 + 2, 2, &mut rng);
            let b = generators::duplication_divergence(n / 2 + 2, 0.45, &mut rng);
            let off = a.num_vertices() as Vertex;
            let mut edges: Vec<(Vertex, Vertex)> = a.edges().map(|(u, v, _)| (u, v)).collect();
            edges.extend(b.edges().map(|(u, v, _)| (u + off, v + off)));
            CsrGraph::from_edges(a.num_vertices() + b.num_vertices() + 1, &edges).unwrap()
        }
    }
}

/// One to five probes drawn with replacement from `pool`, so duplicates
/// occur.
fn pick_probes(pool: &[Vertex], rng: &mut SmallRng) -> Vec<Vertex> {
    let k = rng.random_range(1..6usize);
    (0..k).map(|_| pool[rng.random_range(0..pool.len())]).collect()
}

/// `ReducedCalculator::dependency_on_many` computed the long way: the full
/// class-level row from `spd`, mapped to original probes by the formulas of
/// the `reduced` module docs.
fn reduced_reference(
    red: &ReducedGraph,
    spd: &mut BfsSpd,
    source: Vertex,
    probes: &[Vertex],
) -> Vec<f64> {
    let retained = |v: Vertex| match red.state(v) {
        VertexState::Retained { h, omega } => (h, omega),
        VertexState::Pruned { .. } => panic!("vertex {v} is pruned"),
    };
    let (src, pruned) = match red.state(source) {
        VertexState::Retained { .. } => (source, None),
        VertexState::Pruned { att, branch } => (att, Some((att, branch))),
    };
    let (h_src, omega_src) = retained(src);
    let h = red.csr();
    // With unit multiplicities and seeds the collapsed kernels are the
    // plain and seeded ones bit for bit.
    spd.compute_collapsed(h, h_src, red.mults());
    let mut delta = Vec::new();
    spd.accumulate_dependencies_collapsed(h, red.mults(), red.weights(), &mut delta);
    let same_class = if red.kind(h_src) == TwinKind::False {
        (red.weight(h_src) - omega_src as f64) / red.wdeg(h_src)
    } else {
        0.0
    };
    let mapped = |hr: Vertex, omega_r: u32| {
        let mut d = delta[hr as usize] + (omega_r as f64 - 1.0);
        if same_class != 0.0 && h.has_edge(h_src, hr) {
            d += same_class;
        }
        d
    };
    probes
        .iter()
        .map(|&r| {
            let (hr, omega_r) = retained(r);
            match pruned {
                Some((a, branch)) if r == a => red.comp_total(h_src) - 1.0 - branch as f64,
                _ if pruned.is_none() && r == src => 0.0,
                _ if spd.dist(hr) == UNREACHED => 0.0,
                _ => mapped(hr, omega_r),
            }
        })
        .collect()
}

const MODES: [KernelMode; 3] = [KernelMode::TopDown, KernelMode::Hybrid, KernelMode::Auto];

/// Every forward strategy: the three modes plus forced bottom-up.
fn every_kernel(n: usize) -> Vec<BfsSpd> {
    let mut forced = BfsSpd::with_mode(n, KernelMode::Hybrid);
    forced.set_hybrid_params(u32::MAX, u32::MAX);
    MODES.into_iter().map(|m| BfsSpd::with_mode(n, m)).chain([forced]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The probe-targeted backward scan equals the full-row scan bit for
    /// bit at every probe — plain, seeded and collapsed kernels, every
    /// kernel mode and forced pull — and examines the same number of edges
    /// whatever the mode. Probe sets mix the source, an unreached vertex,
    /// a deepest-level vertex and duplicates.
    #[test]
    fn targeted_backward_equals_full_bitwise(
        family in 0usize..4, n in 12usize..48, seed in any::<u64>()
    ) {
        let g = targeted_graph(family, n, seed);
        let n = g.num_vertices();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x7A6);
        let mult: Vec<f64> = (0..n).map(|v| 1.0 + (v % 3) as f64).collect();
        let seeds: Vec<f64> = (0..n).map(|v| 1.0 + (v % 4) as f64 * 0.5).collect();
        let ones = vec![1.0; n];
        let mut kernels = every_kernel(n);
        let (mut full, mut part) = (Vec::new(), Vec::new());
        for s in (0..n as Vertex).step_by(1 + n / 12) {
            let spd = &mut kernels[0];
            spd.compute(&g, s);
            let deepest = *spd.order().last().unwrap();
            let unreached = (0..n as Vertex).find(|&v| spd.dist(v) == UNREACHED);
            let pool = [s, deepest, unreached.unwrap_or(deepest), rng.random_range(0..n as Vertex)];
            let probes = pick_probes(&pool, &mut rng);
            // (forward multiplicities, backward multiplicities, seeds) per kernel.
            let plain: (Option<&[f64]>, &[f64], &[f64]) = (None, &[], &[]);
            let seeded: (Option<&[f64]>, &[f64], &[f64]) = (None, &ones, &seeds);
            let collapsed: (Option<&[f64]>, &[f64], &[f64]) = (Some(&mult), &mult, &seeds);
            for (kind, (fwd, m, sd)) in [plain, seeded, collapsed].into_iter().enumerate() {
                let mut edges = None;
                for (k, spd) in kernels.iter_mut().enumerate() {
                    match fwd {
                        None => spd.compute(&g, s),
                        Some(fm) => spd.compute_collapsed(&g, s, fm),
                    }
                    if kind == 0 {
                        spd.accumulate_dependencies(&g, &mut full);
                        spd.accumulate_dependencies_at(&g, &probes, &mut part);
                    } else {
                        spd.accumulate_dependencies_collapsed(&g, m, sd, &mut full);
                        spd.accumulate_dependencies_collapsed_at(&g, m, sd, &probes, &mut part);
                    }
                    for &p in &probes {
                        prop_assert_eq!(
                            part[p as usize].to_bits(), full[p as usize].to_bits(),
                            "kernel {} variant {} source {} probe {} of {:?}", kind, k, s, p, &probes
                        );
                    }
                    let e = spd.backward_edges();
                    prop_assert_eq!(*edges.get_or_insert(e), e, "edges, kernel {} variant {}", kind, k);
                }
            }
            let mut calc = DependencyCalculator::with_kernel(&g, MODES[seed as usize % 3]);
            let row = calc.dependencies(&g, s).to_vec();
            let mut out = Vec::new();
            calc.dependency_on_many(&g, s, &probes, &mut out);
            for (i, &p) in probes.iter().enumerate() {
                prop_assert_eq!(out[i].to_bits(), row[p as usize].to_bits(), "calculator probe {}", p);
                prop_assert_eq!(calc.dependency_on(&g, s, p).to_bits(), row[p as usize].to_bits());
            }
        }
    }

    /// `ReducedCalculator` (plain, seeded and collapsed reductions) matches
    /// the full-row accumulation mapped by hand, bit for bit, on probe sets
    /// with the source, a twin of the source, an unreached vertex, a
    /// deepest-level vertex and duplicates, in every kernel mode; the
    /// reference runs forced pull.
    #[test]
    fn targeted_reduced_calculator_equals_full_bitwise(
        family in 0usize..4, n in 12usize..48, seed in any::<u64>()
    ) {
        let g = targeted_graph(family, n, seed);
        let n = g.num_vertices();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
        let mut direct = BfsSpd::new(n);
        for level in [ReduceLevel::Off, ReduceLevel::Prune, ReduceLevel::Full] {
            let red = reduce(&g, level).unwrap();
            let h_n = red.csr().num_vertices();
            let mut reference = BfsSpd::with_mode(h_n, KernelMode::Hybrid);
            reference.set_hybrid_params(u32::MAX, u32::MAX);
            let mut calcs: Vec<ReducedCalculator> =
                MODES.iter().map(|&m| ReducedCalculator::with_kernel(&red, m)).collect();
            let mut out = Vec::new();
            for s in (0..n as Vertex).step_by(1 + n / 10) {
                direct.compute(&g, s);
                let retained: Vec<Vertex> =
                    (0..n as Vertex).filter(|&v| red.is_retained(v)).collect();
                if retained.is_empty() {
                    continue;
                }
                let deepest = retained.iter().copied().filter(|&v| direct.dist(v) != UNREACHED)
                    .max_by_key(|&v| direct.dist(v));
                let unreached = retained.iter().copied().find(|&v| direct.dist(v) == UNREACHED);
                let twin = match red.state(s) {
                    VertexState::Retained { h, .. } => {
                        red.members(h).iter().copied().find(|&m| m != s)
                    }
                    VertexState::Pruned { .. } => None,
                };
                let random = retained[rng.random_range(0..retained.len())];
                let mut pool = vec![random];
                pool.extend([red.is_retained(s).then_some(s), twin, unreached, deepest].into_iter().flatten());
                let probes = pick_probes(&pool, &mut rng);
                let want = reduced_reference(&red, &mut reference, s, &probes);
                for calc in &mut calcs {
                    calc.dependency_on_many(&red, s, &probes, &mut out);
                    for i in 0..probes.len() {
                        prop_assert_eq!(
                            out[i].to_bits(), want[i].to_bits(),
                            "{:?} source {} probe {} of {:?}: {} vs {}",
                            level, s, probes[i], &probes, out[i], want[i]
                        );
                    }
                }
            }
        }
    }
}
