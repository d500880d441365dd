//! Dependency evaluation through a reduced graph.
//!
//! The samplers in `mhbc-core` need one quantity per Metropolis–Hastings
//! step: the dependency `δ_{v•}(r)` of an **original** source `v` on an
//! **original** probe `r` (Eq 4). This module computes that quantity from a
//! [`ReducedGraph`] — pruned, collapsed, and relabelled — *exactly*, so the
//! chain's state space, proposal stream, and stationary distribution are
//! identical to sampling on the original graph; only the per-evaluation
//! cost shrinks.
//!
//! # The density mapping
//!
//! Let `G` be the original graph (`n` vertices), `R` the pruned graph with
//! pendant weights `ω` (each retained vertex stands for itself plus its
//! pruned pendant trees), and `H` the collapsed graph whose super-vertex
//! `z` carries multiplicity `μ(z)` (retained members) and total weight
//! `Ω(z) = Σ_{x ∈ z} ω(x)`. Every probe must be **retained** (pruned
//! probes have closed-form exact betweenness; see
//! [`ReducedGraph::exact_pruned_bc`]).
//!
//! For a *retained* source `v` (class `z_v`, weight `ω(v)`) and retained
//! probe `r` (class `z_r`, weight `ω(r)`), with `D(·)` the class-level
//! dependency of one source member computed by
//! [`BfsSpd::compute_collapsed`](crate::BfsSpd::compute_collapsed) +
//! `accumulate_dependencies_collapsed` (target seeds `Ω`):
//!
//! ```text
//! δ_{v•}(r) = D(z_r)                                  reduced-pair targets
//!           + [z_r ∈ N_H(z_v)] · (Ω(z_v) − ω(v)) / Σ_{u ∈ N_H(z_v)} μ(u)
//!                                                      same-class targets*
//!           + (ω(r) − 1)                               pendants hanging at r
//! ```
//!
//! and 0 when `v = r` or when `z_r` is unreached (different component).
//! The three terms: (1) shortest paths between retained vertices avoid
//! pendant trees, so their `δ` share is the reduced one, with each target
//! `t` standing for the `ω(t)` original targets routed through it; (2) the
//! *false-twin* members of `v`'s own class sit at distance 2 behind every
//! common neighbour (for *true* twins the mutual distance is 1 and the term
//! vanishes — marked `*`); (3) `r` is an interior articulation vertex on
//! the path from `v` to each of the `ω(r) − 1` vertices pruned into it.
//!
//! For a *pruned* source `v` with attachment `a = att(v)` every shortest
//! path leaves through `a`, so `δ_{v•}(r) = δ_{a•}(r)` for every retained
//! `r ≠ a`, while for `r = a` the probe is the articulation point of `v`'s
//! whole branch:
//!
//! ```text
//! δ_{v•}(att(v)) = C − 1 − |branch(v)|
//! ```
//!
//! (`C` the component's original size, `branch(v)` the maximal pruned
//! subtree hanging off `a` that contains `v`). These formulas are proved
//! against whole-graph Brandes by the reduction proptests.
//!
//! # Row coalescing
//!
//! [`SpdView::row_keys`] gives every source a cache key for one probe set,
//! such that sources with equal keys have bit-identical dependency rows, so
//! density caches pay one SPD pass per *key*, not per vertex.
//!
//! **Reduced views.** Two original sources with equal
//! [`ReducedGraph::row_group`] produce *identical* rows whenever neither is
//! itself a probe (twins of equal pendant weight; pendant vertices of the
//! same attachment and branch size). A probe keys by its own id.
//!
//! A pruned source `v` with attachment `a` goes further: unless `a` is a
//! probe, it keys by `a`'s row group. This follows from the code, with no
//! floating-point argument. [`ViewCalculator::dependency_on_many`]
//! serves `v` with the same pass from `a`'s reduced vertex as `a`'s own row,
//! and then maps each probe `r ≠ a` through the same `mapped` call with the
//! same arguments. The two rows differ only at `r = a`, where `v`'s holds
//! `C − 1 − |branch(v)|` and `a`'s holds 0. This holds for weighted
//! (Dijkstra) reductions too. When `a` is a probe, `v` keeps its own row
//! group, which pendant vertices of `a` with equal branch size share. So a
//! reduced view has at most one key per (reduced vertex, pendant weight)
//! pair, plus one per (probe attachment, branch size) pair, plus one per
//! probe.
//!
//! **Unweighted direct views.** Let `v` lie in a pendant tree `B` (a branch
//! of `mhbc_graph::algo::PendantForest`) that hangs at vertex `a`. Every
//! path from `v` to a vertex outside `B` passes through `a`, along the one
//! path through the tree. So for every target `t ∉ B ∪ {a}`:
//!
//! - `d(v, t) = d(v, a) + d(a, t)` and `σ_vt = σ_at` (`σ_va = 1`);
//! - no vertex of `B` is a parent or child of a vertex outside `B ∪ {a}`.
//!
//! Take a probe `r ∉ B ∪ {a}`. Its shortest-path descendants lie outside
//! `B ∪ {a}`, in the same levels relative to `a` from either source and with
//! the same parents and children. The kernel forms σ in ascending parent
//! id and δ in reverse canonical order (see [`BfsSpd`](crate::BfsSpd)), so
//! from `v` and from `a` it adds the same terms in the same order. Hence
//! `δ_{v•}(r)` equals `δ_{a•}(r)` bit for bit, in every [`KernelMode`], and
//! whether the backward scan is targeted or full. So `v` keys by `a` unless
//! a probe lies in `B` or is `a` itself. Then `δ_{v•}(r)` differs from
//! `δ_{a•}(r)`, and `v` keys by its own id.
//!
//! False twins of a direct view are *not* folded. Their rows are equal in
//! exact arithmetic, but their δ sums run in different orders, so the rows
//! are not bitwise equal.
//!
//! **Weighted direct views** key by id: Dijkstra's floating-point distance
//! sums along the tree do not cancel, so ties may break differently from
//! `v` than from `a`.

use crate::{KernelMode, ViewCalculator};
use mhbc_graph::algo::PendantForest;
use mhbc_graph::reduce::{ReducedGraph, TwinKind, VertexState};
use mhbc_graph::{CsrGraph, Vertex};

/// A graph together with (optionally) its reduction — plus the SPD
/// [`KernelMode`] to evaluate with: the single handle the samplers, oracles,
/// and workspace pools thread through the stack. Cheap to copy; both modes
/// answer queries in **original** vertex ids.
///
/// Because every kernel mode is bit-identical (see [`KernelMode`]), the
/// mode is *not* part of [`SpdView::row_keys`]: cached dependency rows are
/// interchangeable across modes, and switching modes mid-run can never
/// change a sampler's output.
#[derive(Clone, Copy)]
pub struct SpdView<'g> {
    graph: &'g CsrGraph,
    reduced: Option<&'g ReducedGraph>,
    kernel: KernelMode,
}

impl<'g> SpdView<'g> {
    /// A view that evaluates densities directly on `graph`
    /// ([`KernelMode::Auto`]).
    pub fn direct(graph: &'g CsrGraph) -> Self {
        SpdView { graph, reduced: None, kernel: KernelMode::Auto }
    }

    /// A view that evaluates densities through `reduced` (built from
    /// `graph` by [`mhbc_graph::reduce::reduce`]), in [`KernelMode::Auto`].
    ///
    /// # Panics
    /// If `reduced` was built for a different vertex count.
    pub fn preprocessed(graph: &'g CsrGraph, reduced: &'g ReducedGraph) -> Self {
        assert_eq!(
            reduced.orig_vertices(),
            graph.num_vertices(),
            "reduction was built for a different graph"
        );
        SpdView { graph, reduced: Some(reduced), kernel: KernelMode::Auto }
    }

    /// This view with an explicit SPD kernel mode; everything built from
    /// the view (calculators, pools, oracles, pipelines) inherits it.
    pub fn with_kernel(mut self, kernel: KernelMode) -> Self {
        self.kernel = kernel;
        self
    }

    /// The SPD kernel mode this view evaluates with.
    pub fn kernel(&self) -> KernelMode {
        self.kernel
    }

    /// [`SpdView::preprocessed`] when a reduction exists, [`SpdView::direct`]
    /// otherwise — the idiom of every `--preprocess`-aware caller that holds
    /// an `Option<ReducedGraph>`.
    pub fn from_option(graph: &'g CsrGraph, reduced: Option<&'g ReducedGraph>) -> Self {
        match reduced {
            None => Self::direct(graph),
            Some(red) => Self::preprocessed(graph, red),
        }
    }

    /// The original graph.
    pub fn graph(&self) -> &'g CsrGraph {
        self.graph
    }

    /// The reduction, when this view has one.
    pub fn reduced(&self) -> Option<&'g ReducedGraph> {
        self.reduced
    }

    /// Number of vertices of the *original* graph (the sampler state
    /// space, whatever the reduction did).
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Whether original vertex `v` survives in the evaluation graph
    /// (always true for direct views).
    pub fn is_retained(&self, v: Vertex) -> bool {
        self.reduced.is_none_or(|red| red.is_retained(v))
    }

    /// The cache key of every source's dependency row on `probes`: sources
    /// with equal keys have bit-identical rows (see "Row coalescing" in the
    /// module docs).
    ///
    /// - Reduced views key a probe by its own id (its row holds a structural
    ///   zero no twin shares), a pruned source whose attachment is not a
    ///   probe by the attachment's [`ReducedGraph::row_group`], and every
    ///   other source by its own row group.
    /// - Unweighted direct views key each pendant-tree vertex by its
    ///   attachment, unless a probe lies in its branch or is the attachment
    ///   itself; every other source keys by its id.
    /// - Weighted direct views key by id.
    ///
    /// # Panics
    /// If a probe is out of range.
    pub fn row_keys(&self, probes: &[Vertex]) -> RowKeys<'g> {
        let n = self.num_vertices();
        for &p in probes {
            assert!((p as usize) < n, "probe {p} out of range");
        }
        let kind = match self.reduced {
            Some(red) => {
                let mut probes = probes.to_vec();
                probes.sort_unstable();
                probes.dedup();
                KeyKind::Reduced { red, probes: probes.into_boxed_slice() }
            }
            None if self.graph.is_weighted() => KeyKind::Id,
            None => {
                let forest = PendantForest::peel(self.graph);
                if forest.order().is_empty() {
                    return RowKeys { kind: KeyKind::Id };
                }
                // `own[v]`: `v` keys by its own id. A branch keeps its own
                // ids when it holds a probe (its root is marked) or hangs
                // from one.
                let branches = forest.branches();
                let mut own = vec![false; n];
                for &p in probes {
                    own[p as usize] = true;
                    if forest.is_pruned(p) {
                        own[branches[p as usize].1 as usize] = true;
                    }
                }
                let shares = |(a, root): (Vertex, Vertex)| {
                    a != u32::MAX && !own[a as usize] && !own[root as usize]
                };
                let keys = (0..n)
                    .map(|v| if shares(branches[v]) { branches[v].0 as u64 } else { v as u64 })
                    .collect();
                KeyKind::Table(keys)
            }
        };
        RowKeys { kind }
    }
}

/// Cache keys of the dependency rows on one probe set, built by
/// [`SpdView::row_keys`]: sources with equal keys have bit-identical rows.
///
/// Only unweighted direct views with pendant trees hold a per-source
/// table. Reduced-view keys are worked out on demand from the reduction's
/// row groups and the sorted probe list, and every other view keys by id.
#[derive(Debug, Clone)]
pub struct RowKeys<'g> {
    kind: KeyKind<'g>,
}

#[derive(Debug, Clone)]
enum KeyKind<'g> {
    /// Every source keys by its own id.
    Id,
    /// A probe keys by its id. A pruned source whose attachment is not a
    /// probe keys by the attachment's row group, since the two rows differ
    /// only at the attachment. Every other source keys by its row group.
    Reduced { red: &'g ReducedGraph, probes: Box<[Vertex]> },
    /// One key per source.
    Table(Box<[u64]>),
}

impl RowKeys<'_> {
    /// The key of source `v`'s row.
    #[inline]
    pub fn key(&self, v: Vertex) -> u64 {
        match &self.kind {
            KeyKind::Id => v as u64,
            KeyKind::Reduced { red, probes } => {
                let is_probe = |v: Vertex| probes.binary_search(&v).is_ok();
                if is_probe(v) {
                    return (1u64 << 33) | v as u64;
                }
                let keyed = match red.state(v) {
                    VertexState::Pruned { att, .. } if !is_probe(att) => att,
                    _ => v,
                };
                (1u64 << 32) | red.row_group(keyed) as u64
            }
            KeyKind::Table(keys) => keys[v as usize],
        }
    }
}

impl std::fmt::Debug for SpdView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let k = self.kernel.as_str();
        match self.reduced {
            None => write!(f, "SpdView::direct({}, kernel={k})", self.graph),
            Some(r) => {
                write!(f, "SpdView::preprocessed({}, H={}, kernel={k})", self.graph, r.csr())
            }
        }
    }
}

/// Exact betweenness of **every original vertex** computed through a
/// reduction: pruning corrections plus one multiplicity-aware pass per
/// reduced vertex (`n_H` passes over `H` instead of `n` over `G`).
///
/// Ground truth for the reduction proptests, and a faster exact path when
/// the graph has pendant or twin structure.
pub fn exact_betweenness_reduced(g: &CsrGraph, red: &ReducedGraph) -> Vec<f64> {
    let view = SpdView::preprocessed(g, red);
    let n = g.num_vertices();
    let mut bc = red.corrections().to_vec();
    if n < 2 {
        return bc;
    }
    let h = red.csr();
    let h_n = h.num_vertices();
    let mut calc = ViewCalculator::new(view);
    for z in 0..h_n as Vertex {
        let wz = red.weight(z);
        for (y, &d) in calc.pass(z, None).iter().enumerate() {
            if d != 0.0 {
                for &m in red.members(y as Vertex) {
                    bc[m as usize] += wz * d;
                }
            }
        }
        // Same-class targets of a false-twin class: each ordered member
        // pair contributes 1/wdeg to every member of every neighbour
        // class; summed over ordered pairs with weights ω this is
        // (Ω² − Σω²) / wdeg. True twins are mutually adjacent: nothing.
        if red.kind(z) == TwinKind::False {
            let corr = (red.weight(z) * red.weight(z) - red.sum_w2(z)) / red.wdeg(z);
            if corr != 0.0 {
                for &u in h.neighbors(z) {
                    for &m in red.members(u) {
                        bc[m as usize] += corr;
                    }
                }
            }
        }
    }
    let norm = (n * (n - 1)) as f64;
    for b in &mut bc {
        *b /= norm;
    }
    bc
}

/// The dependency profile `δ_{v•}(r)` of a retained probe over every
/// *original* source, evaluated through the view: one SPD pass per distinct
/// dependency row ([`SpdView::row_keys`] — twin classes and pendant branches
/// coalesce) instead of one per vertex. The rows are computed by
/// [`crate::sweep`] across `threads` workers (0 = available parallelism),
/// each with its own workspace. Deterministic — rows are pure functions of
/// the view — and identical values to [`crate::dependency_profile`], which
/// is this function on the direct view.
///
/// # Panics
/// If the view's reduction pruned `r`.
pub fn dependency_profile_view_par(
    view: SpdView<'_>,
    r: Vertex,
    threads: usize,
) -> crate::DependencyProfile {
    use std::collections::HashMap;
    let n = view.num_vertices();
    // One representative source per distinct row key, in first-seen order.
    let mut key_index: HashMap<u64, u32> = HashMap::new();
    let mut reps: Vec<Vertex> = Vec::new();
    let mut assign = vec![0u32; n];
    let keys = view.row_keys(&[r]);
    for v in 0..n as Vertex {
        let key = keys.key(v);
        let idx = *key_index.entry(key).or_insert_with(|| {
            reps.push(v);
            reps.len() as u32 - 1
        });
        assign[v as usize] = idx;
    }
    let threads = crate::brandes::effective_threads(threads, reps.len());
    let mut calcs: Vec<_> = (0..threads).map(|_| ViewCalculator::new(view)).collect();
    let vals = crate::sweep(&mut calcs, &reps, |calc, &v| calc.dependency_on(v, r));
    let profile = assign.iter().map(|&i| vals[i as usize]).collect();
    crate::DependencyProfile { profile, r }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{exact_betweenness, BfsSpd};
    use mhbc_graph::generators;
    use mhbc_graph::reduce::{reduce, ReduceLevel};

    fn assert_close(a: f64, b: f64, ctx: &str) {
        let tol = 1e-9 * a.abs().max(b.abs()).max(1.0);
        assert!((a - b).abs() <= tol, "{ctx}: {a} vs {b}");
    }

    /// Densities through the reduction must equal direct densities for
    /// every (source, retained probe) pair.
    fn check_density_mapping(g: &CsrGraph, level: ReduceLevel) {
        let red = reduce(g, level).unwrap();
        let n = g.num_vertices();
        let mut direct = ViewCalculator::new(SpdView::direct(g));
        let mut reduced = ViewCalculator::new(SpdView::preprocessed(g, &red));
        for r in (0..n as Vertex).filter(|&r| red.is_retained(r)) {
            for v in 0..n as Vertex {
                let want = direct.dependency_on(v, r);
                let got = reduced.dependency_on(v, r);
                assert_close(got, want, &format!("source {v}, probe {r}, {level:?}"));
            }
        }
    }

    #[test]
    fn density_mapping_exact_on_classic_graphs() {
        for g in [
            generators::lollipop(6, 4),
            generators::barbell(5, 3),
            generators::star(9),
            generators::grid(4, 3, false),
            generators::complete(6),
            generators::wheel(8),
        ] {
            check_density_mapping(&g, ReduceLevel::Prune);
            check_density_mapping(&g, ReduceLevel::Full);
        }
    }

    #[test]
    fn density_mapping_exact_on_disconnected_graphs() {
        // Two components, one with a pendant tail.
        let g = CsrGraph::from_edges(
            8,
            &[(0, 1), (1, 2), (2, 0), (2, 3), (4, 5), (5, 6), (6, 4), (6, 7)],
        )
        .unwrap();
        check_density_mapping(&g, ReduceLevel::Prune);
        check_density_mapping(&g, ReduceLevel::Full);
    }

    #[test]
    fn density_mapping_exact_on_weighted_pruned_graphs() {
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(11);
        let g = generators::assign_uniform_weights(&generators::lollipop(5, 3), 1.0, 3.0, &mut rng);
        check_density_mapping(&g, ReduceLevel::Prune);
    }

    #[test]
    fn exact_betweenness_through_reduction_matches_brandes() {
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(3);
        for (name, g) in [
            ("lollipop", generators::lollipop(7, 5)),
            ("barbell", generators::barbell(6, 2)),
            ("ba", generators::barabasi_albert(120, 2, &mut rng)),
            ("grid", generators::grid(6, 5, false)),
        ] {
            let want = exact_betweenness(&g);
            for level in [ReduceLevel::Off, ReduceLevel::Prune, ReduceLevel::Full] {
                let got = exact_betweenness_reduced(&g, &reduce(&g, level).unwrap());
                for v in 0..g.num_vertices() {
                    assert_close(got[v], want[v], &format!("{name} vertex {v} at {level:?}"));
                }
            }
        }
    }

    #[test]
    fn tree_betweenness_is_bit_exact_from_corrections_alone() {
        // On trees everything prunes: BC comes purely from the integer
        // pair-counting corrections, which match Brandes bit for bit.
        use rand::{rngs::SmallRng, RngExt, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(17);
        for trial in 0..10 {
            let n = 3 + (trial * 7) % 40;
            let mut edges = Vec::new();
            for v in 1..n as Vertex {
                edges.push((rng.random_range(0..v), v));
            }
            let g = CsrGraph::from_edges(n, &edges).unwrap();
            let want = exact_betweenness(&g);
            let got = exact_betweenness_reduced(&g, &reduce(&g, ReduceLevel::Prune).unwrap());
            for v in 0..n {
                assert_eq!(
                    got[v].to_bits(),
                    want[v].to_bits(),
                    "tree trial {trial}, vertex {v}: {} vs {}",
                    got[v],
                    want[v]
                );
            }
        }
    }

    #[test]
    fn profile_through_view_matches_direct_with_fewer_passes() {
        let g = generators::lollipop(6, 4);
        let red = reduce(&g, ReduceLevel::Full).unwrap();
        let view = SpdView::preprocessed(&g, &red);
        let r = 0; // clique vertex, retained
        assert!(red.is_retained(r));
        let direct = crate::dependency_profile(&g, r);
        let through = dependency_profile_view_par(view, r, 1);
        assert_eq!(through.r, r);
        for v in 0..g.num_vertices() {
            assert_close(through.profile[v], direct.profile[v], &format!("source {v}"));
        }
        assert_eq!(through.mu().is_some(), direct.mu().is_some());
        if let (Some(a), Some(b)) = (through.mu(), direct.mu()) {
            assert_close(a, b, "mu");
        }
    }

    #[test]
    fn row_keys_coalesce_twins_and_pendants() {
        let g = generators::star(6);
        let red = reduce(&g, ReduceLevel::Full).unwrap();
        assert!(red.is_retained(0) && (1..6).all(|v| !red.is_retained(v)));
        let view = SpdView::preprocessed(&g, &red);
        // With the centre as the probe the leaves share one row group,
        // apart from the centre's key; otherwise they take the centre's key.
        let keys = view.row_keys(&[0]);
        assert!((2..6).all(|v| keys.key(v) == keys.key(1)));
        assert_ne!(keys.key(0), keys.key(1));
        let keys = view.row_keys(&[]);
        assert!((1..6).all(|v| keys.key(v) == keys.key(0)));
        // A triangle 0, 1, 2 with leaves 3 and 4 on vertex 0 and leaf 5 on
        // vertex 1. Vertices 0 and 1 are true twins of unequal pendant
        // weight, so they keep separate row groups.
        let tri =
            CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (0, 3), (0, 4), (1, 5)]).unwrap();
        let red_tri = reduce(&tri, ReduceLevel::Full).unwrap();
        let view = SpdView::preprocessed(&tri, &red_tri);
        let keys = view.row_keys(&[2]);
        let k = |v| keys.key(v);
        assert_eq!((k(3), k(4), k(5)), (k(0), k(0), k(1)));
        assert!(k(0) != k(1) && k(2) != k(0) && k(2) != k(1));
        let keys = view.row_keys(&[0]);
        let k = |v| keys.key(v);
        assert_eq!((k(4), k(5)), (k(3), k(1)));
        assert!(k(3) != k(0) && k(3) != k(1) && k(0) != k(1));
        // Direct views key a leaf by the centre it hangs from, unless a
        // probe is the centre or the leaf itself; otherwise by vertex id.
        let direct = SpdView::direct(&g);
        let keys = direct.row_keys(&[1]);
        assert_eq!((keys.key(0), keys.key(1), keys.key(3)), (0, 1, 0));
        let keys = direct.row_keys(&[0]);
        assert!((0..6).all(|v| keys.key(v) == v as u64));
        // Weighted direct views key by vertex id.
        let weighted = g.map_weights(|_, _| 2.0).unwrap();
        let keys = SpdView::direct(&weighted).row_keys(&[1]);
        assert!((0..6).all(|v| keys.key(v) == v as u64));
    }

    #[test]
    fn view_calculator_dispatches_both_modes() {
        let g = generators::barbell(4, 3);
        let red = reduce(&g, ReduceLevel::Full).unwrap();
        let mut plain = ViewCalculator::new(SpdView::direct(&g));
        let mut through = ViewCalculator::new(SpdView::preprocessed(&g, &red));
        let probe = 5u32; // a path vertex (retained)
        assert!(red.is_retained(probe));
        for v in 0..g.num_vertices() as Vertex {
            assert_close(
                through.dependency_on(v, probe),
                plain.dependency_on(v, probe),
                &format!("source {v}"),
            );
        }
        assert!(through.passes() > 0);
        assert_eq!(plain.passes(), g.num_vertices() as u64);
    }

    #[test]
    #[should_panic(expected = "pruned into a pendant tree")]
    fn pruned_probes_are_rejected() {
        let g = generators::lollipop(5, 3);
        let red = reduce(&g, ReduceLevel::Prune).unwrap();
        let mut calc = ViewCalculator::new(SpdView::preprocessed(&g, &red));
        let _ = calc.dependency_on(0, 6); // 6 is on the pruned path
    }

    #[test]
    fn collapsed_kernel_with_unit_inputs_matches_plain_kernel() {
        let g = generators::grid(5, 4, false);
        let n = g.num_vertices();
        let ones = vec![1.0; n];
        let mut plain = BfsSpd::new(n);
        let mut coll = BfsSpd::new(n);
        let (mut d1, mut d2) = (Vec::new(), Vec::new());
        for s in [0u32, 7, 19] {
            plain.compute(&g, s);
            coll.compute_collapsed(&g, s, &ones);
            for v in 0..n as Vertex {
                assert_eq!(plain.dist(v), coll.dist(v));
                assert_eq!(plain.sigma(v).to_bits(), coll.sigma(v).to_bits());
            }
            plain.accumulate_dependencies(&g, &mut d1);
            coll.accumulate_dependencies_collapsed(&g, &ones, &ones, &mut d2);
            for v in 0..n {
                assert_eq!(d1[v].to_bits(), d2[v].to_bits(), "delta {v}, source {s}");
            }
        }
    }
}
