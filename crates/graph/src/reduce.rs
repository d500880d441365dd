//! Graph reduction: degree-1 pruning, equivalent-vertex collapsing, and
//! cache-locality relabelling.
//!
//! Every Metropolis–Hastings iteration costs one SPD pass over the graph
//! (§4.1), so shrinking and reordering the graph *before* sampling cuts the
//! per-sample price of every estimator in the suite. This module builds a
//! [`ReducedGraph`]: a smaller, relabelled CSR together with the exact
//! bookkeeping needed to answer original-graph queries from it.
//!
//! # The three transformations
//!
//! **Degree-1 pruning.** A vertex of degree 1 (and, iteratively, whole
//! pendant trees) can never be an *interior* vertex of a shortest path
//! between two surviving vertices. Pruning vertex `v` (with accumulated
//! subtree weight `ω(v)`) whose sole live neighbour is `u` credits `u` with
//! the exact betweenness of every pair it separates:
//!
//! ```text
//! c(u) += 2 · ω(v) · (C − ω(v) − ω(u)),      then      ω(u) += ω(v)
//! ```
//!
//! where `C` is the size of the component and `ω(x)` counts the original
//! vertices already merged into `x` (including `x` itself). The credit is
//! the number of ordered pairs `(s, t)` with `s` in `v`'s pendant subtree
//! and `t` in the rest of the component minus `u`'s own merged set — exactly
//! the pairs for which `u` is an interior vertex and which no later prune or
//! reduced-graph pass will count again (pairs between two subtrees hanging
//! off `u` are credited when the *first* of the two is pruned, because the
//! second still counts as "rest" at that moment). Summed to fixpoint, the
//! credits `c(x)` are **exact**: a pruned vertex's betweenness is final at
//! prune time, and a retained vertex's betweenness is `c(x)` plus the
//! vertex-weighted Brandes sum over the reduced graph (every shortest path
//! between retained vertices avoids pendant trees, and a reduced pair
//! `(s, t)` stands for `ω(s)·ω(t)` original pairs).
//!
//! **Equivalent-vertex collapsing** (level [`ReduceLevel::Full`] only).
//! Vertices with identical sorted neighbourhoods are interchangeable under
//! a graph automorphism, so one super-vertex with a *multiplicity* `μ`
//! represents the whole class:
//!
//! - *false twins*: identical open neighbourhoods `N(u) = N(v)` (such
//!   vertices are necessarily non-adjacent; mutual distance 2);
//! - *true twins*: identical closed neighbourhoods `N[u] = N[v]` (such
//!   vertices are necessarily adjacent; mutual distance 1).
//!
//! Shortest-path counts on the pruned graph are recovered from the
//! collapsed graph by multiplying σ through intermediate classes — see the
//! multiplicity-aware kernels in `mhbc-spd` — with two analytic corrections
//! (same-class targets sit at distance 2 via `Σ_{u ∈ N_H(z)} μ(u)` common
//! neighbours for false twins, and contribute nothing for true twins).
//! Collapsing is refused on weighted graphs: class members would need
//! identical per-neighbour weights for the automorphism argument to hold.
//!
//! **Relabelling.** The collapsed graph is renumbered in BFS order from its
//! highest-degree vertex, so that the frontier of an SPD pass reads mostly
//! consecutive adjacency ranges — the locality the memory-bound BFS kernel
//! wants. All maps in [`ReducedGraph`] are expressed in the *final* ids.
//!
//! # Cost
//!
//! Building a reduction takes expected `O(n + m)` time plus, at
//! [`ReduceLevel::Full`], one sort of at most `n` fixed-size keys for each
//! twin kind. Each live neighbourhood gets an order-independent 64-bit
//! fingerprint (a wrapping sum of mixed neighbour ids); sorting
//! `(fingerprint, degree, id)` only *buckets* candidate twins, and an
//! exact comparison of the neighbourhoods decides inside each bucket, so a
//! fingerprint collision costs time, never a wrong class. The collapsed
//! and relabelled CSRs are assembled by transposition and the row groups
//! by counting, with no further sort and no hashing.
//!
//! [`reduce`] runs in two steps. [`plan`] prunes and finds the twin classes,
//! which already fix the exact [`ReduceStats`] (the reduced edge count is
//! counted, not built) and the pruned vertices' closed forms;
//! [`ReducePlan::assemble`] then builds the CSR, relabels it and fills the
//! maps — on a 262k-vertex BA graph about two thirds of the total. A caller
//! that may discard the reduction decides from the plan. Only the pruning
//! credits and the assembled per-vertex component sizes read the connected
//! components, so a plan with nothing to prune leaves labelling them to
//! `assemble`.
//!
//! # Using a reduction
//!
//! `mhbc-spd` consumes [`ReducedGraph`] through an `SpdView`, whose
//! `ViewCalculator` maps original-id dependency queries
//! `δ_{v•}(r)` through the reduction *exactly* — the samplers keep their
//! original state space and stationary distribution. See that crate for the
//! mapping formulas and their derivation.
//!
//! ```
//! use mhbc_graph::{generators, reduce};
//!
//! // A lollipop = clique + pendant path: the path prunes away entirely and
//! // the clique interior collapses to one super-vertex.
//! let g = generators::lollipop(8, 4);
//! let red = reduce::reduce(&g, reduce::ReduceLevel::Full).unwrap();
//! assert_eq!(red.stats().pruned_vertices, 4);
//! assert!(red.csr().num_vertices() <= 2);
//! ```

use crate::algo::{connected_components, PendantForest};
use crate::{CsrGraph, Vertex};

/// How much preprocessing to apply before sampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceLevel {
    /// No reduction: the identity mapping (useful for uniform benching).
    Off,
    /// Iterative degree-1 pruning with exact betweenness corrections.
    Prune,
    /// Pruning plus twin collapsing plus BFS relabelling.
    Full,
}

impl ReduceLevel {
    /// Parses the CLI spelling (`off` / `prune` / `full`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(ReduceLevel::Off),
            "prune" => Some(ReduceLevel::Prune),
            "full" => Some(ReduceLevel::Full),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            ReduceLevel::Off => "off",
            ReduceLevel::Prune => "prune",
            ReduceLevel::Full => "full",
        }
    }
}

/// Why a reduction could not be built.
#[derive(Debug, Clone, PartialEq)]
pub enum ReduceError {
    /// [`ReduceLevel::Full`] on a weighted graph: collapsing requires equal
    /// edge weights within a class, which general weighted graphs violate.
    WeightedCollapse,
}

impl std::fmt::Display for ReduceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReduceError::WeightedCollapse => write!(
                f,
                "equivalent-vertex collapsing requires an unweighted graph \
                 (use --preprocess prune for weighted graphs)"
            ),
        }
    }
}

impl std::error::Error for ReduceError {}

/// What a super-vertex of the reduced graph stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TwinKind {
    /// A single retained vertex (no collapsing happened here).
    Single,
    /// A class of false twins: identical *open* neighbourhoods, mutual
    /// distance 2 through every common neighbour.
    False,
    /// A class of true twins: identical *closed* neighbourhoods, mutually
    /// adjacent (distance 1, a unique shortest path with no interior).
    True,
}

/// Where an original vertex ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VertexState {
    /// Survives as a member of reduced vertex `h`, carrying pendant weight
    /// `omega` (itself plus its pruned pendant trees).
    Retained {
        /// Reduced (final, relabelled) vertex id.
        h: Vertex,
        /// Original vertices this member represents (`>= 1`).
        omega: u32,
    },
    /// Pruned into the pendant forest.
    Pruned {
        /// The retained original vertex its pendant tree hangs from.
        att: Vertex,
        /// Size of the maximal pruned subtree hanging off `att` that
        /// contains this vertex (its *branch*), in original vertices.
        branch: u32,
    },
}

/// Size bookkeeping of a reduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReduceStats {
    /// Vertices and edges of the original graph.
    pub orig_vertices: usize,
    /// Edges of the original graph.
    pub orig_edges: usize,
    /// Vertices removed by pruning.
    pub pruned_vertices: usize,
    /// Vertices absorbed into twin classes (`Σ (μ − 1)`).
    pub collapsed_vertices: usize,
    /// Vertices of the reduced graph.
    pub reduced_vertices: usize,
    /// Edges of the reduced graph.
    pub reduced_edges: usize,
}

impl ReduceStats {
    /// `(n + m) / (n_H + m_H)`: how much smaller one SPD pass became.
    pub fn work_ratio(&self) -> f64 {
        let orig = (self.orig_vertices + self.orig_edges) as f64;
        let red = (self.reduced_vertices + self.reduced_edges).max(1) as f64;
        orig / red
    }
}

/// A reduced graph: the collapsed, relabelled CSR plus the exact forward
/// and inverse maps between original and reduced vertex spaces.
///
/// Built by [`reduce`]; consumed by the `mhbc-spd` reduced dependency
/// engine. All per-reduced-vertex arrays are indexed by final (relabelled)
/// reduced ids; all per-original arrays by original ids.
#[derive(Debug, Clone)]
pub struct ReducedGraph {
    level: ReduceLevel,
    csr: CsrGraph,
    orig_n: usize,
    // Per reduced vertex.
    mult: Box<[f64]>,
    weight: Box<[f64]>,
    sum_w2: Box<[f64]>,
    wdeg: Box<[f64]>,
    kind: Box<[TwinKind]>,
    comp_total: Box<[f64]>,
    member_offsets: Box<[usize]>,
    member_ids: Box<[Vertex]>,
    // Per original vertex.
    state: Box<[VertexState]>,
    corrections: Box<[f64]>,
    row_group: Box<[u32]>,
    stats: ReduceStats,
}

impl ReducedGraph {
    /// The reduction level this graph was built at.
    pub fn level(&self) -> ReduceLevel {
        self.level
    }

    /// The reduced CSR (`H`), in final relabelled ids.
    #[inline]
    pub fn csr(&self) -> &CsrGraph {
        &self.csr
    }

    /// Number of vertices of the *original* graph.
    #[inline]
    pub fn orig_vertices(&self) -> usize {
        self.orig_n
    }

    /// Multiplicity `μ(z)`: how many retained vertices the class collapses.
    #[inline]
    pub fn mult(&self, z: Vertex) -> f64 {
        self.mult[z as usize]
    }

    /// Raw multiplicity slice (kernel input).
    #[inline]
    pub fn mults(&self) -> &[f64] {
        &self.mult
    }

    /// Total pendant weight `Ω(z) = Σ_{x ∈ class} ω(x)`: how many *original*
    /// vertices the class represents.
    #[inline]
    pub fn weight(&self, z: Vertex) -> f64 {
        self.weight[z as usize]
    }

    /// Raw weight slice (the backward kernel's target seeds).
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weight
    }

    /// `Σ_{x ∈ class} ω(x)²` (used by the exact all-vertices path).
    #[inline]
    pub fn sum_w2(&self, z: Vertex) -> f64 {
        self.sum_w2[z as usize]
    }

    /// Multiplicity-weighted degree `Σ_{u ∈ N_H(z)} μ(u)` — the number of
    /// common neighbours two false twins of class `z` share in the pruned
    /// graph.
    #[inline]
    pub fn wdeg(&self, z: Vertex) -> f64 {
        self.wdeg[z as usize]
    }

    /// What kind of class `z` is.
    #[inline]
    pub fn kind(&self, z: Vertex) -> TwinKind {
        self.kind[z as usize]
    }

    /// Original size of the connected component `z` belongs to.
    #[inline]
    pub fn comp_total(&self, z: Vertex) -> f64 {
        self.comp_total[z as usize]
    }

    /// The retained original vertices collapsed into `z`.
    #[inline]
    pub fn members(&self, z: Vertex) -> &[Vertex] {
        let z = z as usize;
        &self.member_ids[self.member_offsets[z]..self.member_offsets[z + 1]]
    }

    /// Where original vertex `v` went.
    #[inline]
    pub fn state(&self, v: Vertex) -> VertexState {
        self.state[v as usize]
    }

    /// Whether original vertex `v` survives in the reduced graph.
    #[inline]
    pub fn is_retained(&self, v: Vertex) -> bool {
        matches!(self.state[v as usize], VertexState::Retained { .. })
    }

    /// Pruning corrections `c(v)` (raw, unnormalised pair counts) per
    /// original vertex. For a *pruned* vertex this is its exact raw
    /// betweenness; for a retained vertex it is the pendant share that the
    /// reduced-graph Brandes sum must be added to.
    #[inline]
    pub fn corrections(&self) -> &[f64] {
        &self.corrections
    }

    /// Exact betweenness (Eq 1 normalisation) of a **pruned** vertex, known
    /// in closed form from the corrections; `None` if `v` was retained.
    pub fn exact_pruned_bc(&self, v: Vertex) -> Option<f64> {
        match self.state[v as usize] {
            VertexState::Pruned { .. } => {
                Some(closed_form(self.corrections[v as usize], self.orig_n))
            }
            VertexState::Retained { .. } => None,
        }
    }

    /// Row-coalescing group of `v`: original vertices with equal groups have
    /// *identical dependency rows* `δ_{v•}(·)` for any probe set that does
    /// not contain them (twins of equal pendant weight share rows; pendant
    /// vertices of the same attachment and branch size share rows). Density
    /// caches key on this to turn whole classes into a single SPD pass.
    ///
    /// A pendant vertex's row equals its attachment's everywhere but at the
    /// attachment, so caches key it by the attachment's group unless the
    /// attachment is a probe: the branch-size groups matter only then.
    #[inline]
    pub fn row_group(&self, v: Vertex) -> u32 {
        self.row_group[v as usize]
    }

    /// Size bookkeeping.
    pub fn stats(&self) -> &ReduceStats {
        &self.stats
    }
}

/// Builds the reduction of `g` at `level`: [`plan`], then
/// [`ReducePlan::assemble`]. See the module docs for the exact semantics
/// of each level.
///
/// Errors only on [`ReduceLevel::Full`] over a weighted graph
/// ([`ReduceError::WeightedCollapse`]); pruning alone is weight-agnostic
/// (pendant trees are forced routes whatever the edge weights).
pub fn reduce(g: &CsrGraph, level: ReduceLevel) -> Result<ReducedGraph, ReduceError> {
    plan(g, level).map(ReducePlan::assemble)
}

/// A reduction decided but not yet built: the pruning and the twin classes
/// of `g`, which fix the reduction's exact [`ReduceStats`] and the closed
/// forms of the pruned vertices. What it leaves to
/// [`assemble`](ReducePlan::assemble) — the collapsed, relabelled CSR and
/// the per-vertex maps — is most of a reduction's cost, so a caller that
/// keeps a reduction only when it pays (the CLI's `--preprocess auto`)
/// decides from the plan and assembles only what it keeps.
#[derive(Debug)]
pub struct ReducePlan<'g> {
    g: &'g CsrGraph,
    level: ReduceLevel,
    /// Component label and size of every vertex, when the pruning needed
    /// them (`assemble` labels the components itself otherwise).
    comps: Option<(Vec<u32>, Vec<usize>)>,
    /// Pendant weight `ω(v)`: `v` plus the vertices pruned into it.
    omega: Vec<u64>,
    corrections: Vec<f64>,
    /// The pruning: which vertices went, into which neighbour, in what order.
    forest: PendantForest,
    /// Pre-relabel class of each retained vertex (`u32::MAX` if pruned).
    class_pre: Vec<u32>,
    kinds: Vec<TwinKind>,
    stats: ReduceStats,
}

/// Plans the reduction of `g` at `level`: prunes, finds the twin classes
/// and counts the reduced graph, without building it. Errors as
/// [`reduce`] does.
pub fn plan(g: &CsrGraph, level: ReduceLevel) -> Result<ReducePlan<'_>, ReduceError> {
    if g.is_weighted() && level == ReduceLevel::Full {
        return Err(ReduceError::WeightedCollapse);
    }
    let n = g.num_vertices();

    // ---- Degree-1 pruning to fixpoint --------------------------------
    // The credits are floating-point sums taken in the peel's removal
    // order, which fixes how they round. They count pairs inside the
    // pruned vertex's component, so only a non-empty forest labels them.
    let forest =
        if level == ReduceLevel::Off { PendantForest::default() } else { PendantForest::peel(g) };
    let comps = (!forest.order().is_empty()).then(|| components(g));
    let mut omega = vec![1u64; n];
    let mut corrections = vec![0.0f64; n];
    if let Some((labels, sizes)) = &comps {
        for &v in forest.order() {
            let (vu, uu) =
                (v as usize, forest.parent(v).expect("pruned vertices have a parent") as usize);
            let c = sizes[labels[vu] as usize] as u64;
            corrections[uu] += 2.0 * omega[vu] as f64 * (c - omega[vu] - omega[uu]) as f64;
            omega[uu] += omega[vu];
        }
    }
    let pruned = |v: u32| forest.is_pruned(v);
    let pruned_count = forest.order().len();

    // ---- Twin classes over the retained subgraph ----------------------
    // class_pre[v]: pre-relabel class id of retained v. Off / Prune keep
    // singleton classes in ascending retained order; Full numbers false
    // classes first (by smallest member), then true and singleton classes
    // in retained order.
    let retained: Vec<u32> = (0..n as u32).filter(|&v| !pruned(v)).collect();
    let mut class_pre = vec![u32::MAX; n];
    let mut kinds: Vec<TwinKind> = Vec::with_capacity(retained.len());
    let mut new_class = |kind: TwinKind| {
        kinds.push(kind);
        kinds.len() as u32 - 1
    };
    if level == ReduceLevel::Full {
        // Live (retained-only) sorted neighbour lists in one flat CSR —
        // `g`'s own when nothing was pruned.
        let (live_off_buf, live_tgt_buf);
        let (live_off, live_tgt) = if pruned_count == 0 {
            g.csr()
        } else {
            let mut off = Vec::with_capacity(n + 1);
            let mut tgt = Vec::with_capacity(g.degree_sum());
            off.push(0u32);
            for v in 0..n as u32 {
                if !pruned(v) {
                    tgt.extend(g.neighbors(v).iter().filter(|&&u| !pruned(u)));
                }
                off.push(tgt.len() as u32);
            }
            (live_off_buf, live_tgt_buf) = (off, tgt);
            (&live_off_buf[..], &live_tgt_buf[..])
        };
        let live =
            |v: u32| &live_tgt[live_off[v as usize] as usize..live_off[v as usize + 1] as usize];
        let open_fp: Vec<u64> = (0..n as u32)
            .map(|v| live(v).iter().fold(0, |h: u64, &u| h.wrapping_add(mix(u))))
            .collect();

        // False twins: identical open neighbourhoods (degree >= 1 only —
        // degree-0 vertices may sit in different components).
        let open: Vec<u32> = retained.iter().copied().filter(|&v| !live(v).is_empty()).collect();
        let lead = twin_leaders(
            n,
            &open,
            |v| open_fp[v as usize],
            |v| live(v).len() as u32,
            |a, b| live(a) == live(b),
        );
        for &v in &open {
            let l = lead[v as usize];
            if l != u32::MAX {
                class_pre[v as usize] =
                    if l == v { new_class(TwinKind::False) } else { class_pre[l as usize] };
            }
        }
        // True twins among the rest: identical closed neighbourhoods.
        let rest: Vec<u32> =
            open.into_iter().filter(|&v| class_pre[v as usize] == u32::MAX).collect();
        let closed = |v: u32| {
            let nb = live(v);
            let (lo, hi) = nb.split_at(nb.partition_point(|&u| u < v));
            lo.iter().copied().chain([v]).chain(hi.iter().copied())
        };
        let lead = twin_leaders(
            n,
            &rest,
            |v| open_fp[v as usize].wrapping_add(mix(v)),
            |v| live(v).len() as u32,
            |a, b| closed(a).eq(closed(b)),
        );
        for &v in &retained {
            if class_pre[v as usize] != u32::MAX {
                continue;
            }
            let l = lead[v as usize];
            class_pre[v as usize] = if l == u32::MAX {
                new_class(TwinKind::Single)
            } else if l == v {
                new_class(TwinKind::True)
            } else {
                class_pre[l as usize]
            };
        }
    } else {
        for &v in &retained {
            class_pre[v as usize] = new_class(TwinKind::Single);
        }
    }
    let h_n = kinds.len();
    let stats = ReduceStats {
        orig_vertices: n,
        orig_edges: g.num_edges(),
        pruned_vertices: pruned_count,
        collapsed_vertices: retained.len() - h_n,
        reduced_vertices: h_n,
        // `g` itself is H when nothing was pruned or collapsed.
        reduced_edges: if h_n == n { g.num_edges() } else { count_class_edges(g, &class_pre, h_n) },
    };
    Ok(ReducePlan { g, level, comps, omega, corrections, forest, class_pre, kinds, stats })
}

impl ReducePlan<'_> {
    /// The exact size bookkeeping of the reduction
    /// [`assemble`](Self::assemble) would build (equal to its
    /// [`ReducedGraph::stats`]).
    pub fn stats(&self) -> &ReduceStats {
        &self.stats
    }

    /// Exact betweenness of a pruned vertex, bit-identical to
    /// [`ReducedGraph::exact_pruned_bc`]; `None` if `v` is retained.
    pub fn exact_pruned_bc(&self, v: Vertex) -> Option<f64> {
        let raw = self.corrections[v as usize];
        self.forest.is_pruned(v).then(|| closed_form(raw, self.g.num_vertices()))
    }
}

/// Component label and size of every vertex: pair counting must never
/// cross components.
fn components(g: &CsrGraph) -> (Vec<u32>, Vec<usize>) {
    let comps = connected_components(g);
    let sizes = comps.sizes();
    (comps.labels, sizes)
}

/// Normalised betweenness (Eq 1) from a raw pair count on `n` vertices.
fn closed_form(raw: f64, n: usize) -> f64 {
    let n = n as f64;
    raw / (n * (n - 1.0))
}

/// Edges of H counted without building it. Members of a class share their
/// neighbourhood outside it (twins are interchangeable), so any one
/// member's distinct neighbouring classes are the class's degree in H; the
/// degrees sum to `2 m_H`. Pruned vertices (`class_pre == u32::MAX`) are
/// not in H.
fn count_class_edges(g: &CsrGraph, class_pre: &[u32], h_n: usize) -> usize {
    let mut counted = vec![false; h_n];
    // `stamp[d] == c`: class `d` was already counted as a neighbour of `c`.
    let mut stamp = vec![u32::MAX; h_n];
    let mut degree_sum = 0;
    for v in g.vertices() {
        let c = class_pre[v as usize];
        if c == u32::MAX || std::mem::replace(&mut counted[c as usize], true) {
            continue;
        }
        for &u in g.neighbors(v) {
            let d = class_pre[u as usize];
            if d != u32::MAX && d != c && stamp[d as usize] != c {
                stamp[d as usize] = c;
                degree_sum += 1;
            }
        }
    }
    degree_sum / 2
}

/// splitmix64's output mix: an order-independent neighbourhood fingerprint
/// is the wrapping sum of `mix` over its members.
fn mix(v: u32) -> u64 {
    let mut z = (v as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Groups `cands` (ascending ids) into classes whose neighbourhoods `same`
/// calls equal, and returns, per vertex, the smallest member of its class —
/// or `u32::MAX` for vertices outside `cands` or alone in their class.
///
/// One sort of `(fingerprint, degree, id)` buckets the candidates; `same`
/// then decides inside each run of equal `(fingerprint, degree)` by exact
/// comparison against each class found so far in the run, so a fingerprint
/// collision costs comparisons, never a wrong class.
fn twin_leaders(
    n: usize,
    cands: &[Vertex],
    fingerprint: impl Fn(Vertex) -> u64,
    degree: impl Fn(Vertex) -> u32,
    same: impl Fn(Vertex, Vertex) -> bool,
) -> Vec<u32> {
    let mut keys: Vec<(u64, u32, Vertex)> =
        cands.iter().map(|&v| (fingerprint(v), degree(v), v)).collect();
    keys.sort_unstable();
    let mut lead = vec![u32::MAX; n];
    // (leader, size) of each class found in the current run.
    let mut classes: Vec<(Vertex, u32)> = Vec::new();
    for run in keys.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
        if run.len() == 1 {
            continue;
        }
        classes.clear();
        for &(_, _, v) in run {
            match classes.iter_mut().find(|(l, _)| same(*l, v)) {
                Some((l, size)) => {
                    lead[v as usize] = *l;
                    *size += 1;
                }
                None => classes.push((v, 1)),
            }
        }
        for &(l, size) in &classes {
            if size > 1 {
                lead[l as usize] = l;
            }
        }
    }
    lead
}

impl ReducePlan<'_> {
    /// Builds the planned reduction: H from the class partition, relabelled,
    /// with the per-vertex maps.
    pub fn assemble(self) -> ReducedGraph {
        let ReducePlan {
            g,
            level,
            comps,
            omega,
            corrections,
            forest,
            class_pre,
            kinds,
            stats: planned,
        } = self;
        let n = g.num_vertices();
        let h_n = kinds.len();
        let pruned = |v: usize| forest.is_pruned(v as Vertex);
        let (comp_labels, comp_sizes) = comps.unwrap_or_else(|| components(g));

        // ---- Attachment / branch resolution ------------------------------
        // att(v): the first retained vertex on v's parent chain. broot(v): the
        // last pruned vertex before it (the root of v's branch).
        let (att, broot): (Vec<u32>, Vec<u32>) = forest.branches().into_iter().unzip();
        let mut branch_size = vec![0u32; n];
        for v in 0..n {
            if pruned(v) {
                branch_size[broot[v] as usize] += 1;
            }
        }

        // Class membership, flat: members of class c (ascending) are
        // `class_ids[class_off[c]..class_off[c + 1]]`.
        let (class_off, class_ids) =
            bucket(h_n, (0..n).filter(|&v| !pruned(v)).map(|v| (class_pre[v] as usize, v as u32)));

        // H in pre-relabel ids: the class map applied to the retained graph,
        // with intra-class edges dropped — `g` itself when nothing was pruned
        // or collapsed (the map is then the identity).
        let pre =
            if h_n == n { g.clone() } else { contract(g, &class_off, &class_ids, &class_pre) };

        // Relabel: BFS order from the highest-degree vertex of each component
        // (components visited by descending root degree, ties by smaller id),
        // keeping pre-id order inside each frontier. Applied only when it
        // pays: the SPD kernel is memory-bound on *traversal-order locality* —
        // a pass walks the frontier in BFS order, and consecutive frontier
        // vertices with near-consecutive ids stream consecutive CSR rows and
        // dist/σ cache lines (hardware-prefetch friendly), while fragmented
        // orders jump between distant rows on every step. The guard measures
        // the natural layout's traversal locality (fraction of consecutive BFS
        // visits within 16 ids of each other; the BFS layout scores ~1 by
        // construction) and relabels only when the natural order is fragmented
        // (< half local). Ring-ordered and already-relabelled graphs keep
        // their ids — making the relabel idempotent — while chronological,
        // scrambled, or cluster-interleaved layouts are rewritten. No-op for
        // `Off`. `order` (final id -> pre id) is the inverse of `perm`.
        let mut order: Vec<u32> = Vec::with_capacity(h_n);
        let mut relabel = false;
        if level != ReduceLevel::Off {
            let mut seen = vec![false; h_n];
            let top = pre.max_degree();
            let by_degree = (0..h_n).map(|z| (top - pre.degree(z as u32), z as u32));
            // `order` doubles as the BFS queue: `order[head..]` is the frontier.
            let mut head = 0;
            for root in bucket(top + 1, by_degree).1 {
                if seen[root as usize] {
                    continue;
                }
                seen[root as usize] = true;
                order.push(root);
                while let Some(&z) = order.get(head) {
                    head += 1;
                    for &w in pre.neighbors(z) {
                        if !seen[w as usize] {
                            seen[w as usize] = true;
                            order.push(w);
                        }
                    }
                }
            }
            let local_steps = order.windows(2).filter(|w| w[0].abs_diff(w[1]) <= 16).count();
            relabel = 2 * local_steps < h_n.saturating_sub(1);
        }
        let (csr, perm) = if relabel {
            let mut perm = vec![0u32; h_n];
            for (new, &old) in order.iter().enumerate() {
                perm[old as usize] = new as u32;
            }
            // Relabelled CSR by transposition: visiting sources in final-id
            // order and appending each to its neighbours' slices fills every
            // slice in ascending order (H is symmetric), with no sort.
            let (pre_off, pre_tgt) = pre.csr();
            let pre_w = pre.weights.as_deref();
            let mut off = vec![0u32; h_n + 1];
            for (z, &old) in order.iter().enumerate() {
                off[z + 1] = off[z] + pre.degrees()[old as usize];
            }
            let mut tgt = vec![0u32; off[h_n] as usize];
            let mut wts = vec![0.0f64; if pre_w.is_some() { tgt.len() } else { 0 }];
            let mut cursor = off.clone();
            for (s, &old) in order.iter().enumerate() {
                for i in pre_off[old as usize] as usize..pre_off[old as usize + 1] as usize {
                    let t = perm[pre_tgt[i] as usize] as usize;
                    let c = cursor[t] as usize;
                    tgt[c] = s as u32;
                    if let Some(w) = pre_w {
                        wts[c] = w[i];
                    }
                    cursor[t] += 1;
                }
            }
            (CsrGraph::from_sorted_parts(off, tgt, pre_w.map(|_| wts)), perm)
        } else {
            order = (0..h_n as u32).collect();
            (pre, order.clone())
        };

        // Per-reduced-vertex arrays (final ids), members ascending.
        let mut mult = vec![0.0f64; h_n];
        let mut weight = vec![0.0f64; h_n];
        let mut sum_w2 = vec![0.0f64; h_n];
        let mut kind = vec![TwinKind::Single; h_n];
        let mut comp_total = vec![0.0f64; h_n];
        let mut member_offsets = Vec::with_capacity(h_n + 1);
        let mut member_ids = Vec::with_capacity(class_ids.len());
        member_offsets.push(0);
        for (z, &c) in order.iter().enumerate() {
            let ms = &class_ids[class_off[c as usize]..class_off[c as usize + 1]];
            kind[z] = kinds[c as usize];
            mult[z] = ms.len() as f64;
            comp_total[z] = comp_sizes[comp_labels[ms[0] as usize] as usize] as f64;
            for &m in ms {
                let w = omega[m as usize] as f64;
                weight[z] += w;
                sum_w2[z] += w * w;
            }
            member_ids.extend_from_slice(ms);
            member_offsets.push(member_ids.len());
        }
        let mut wdeg = vec![0.0f64; h_n];
        for (z, w) in wdeg.iter_mut().enumerate() {
            *w = csr.neighbors(z as u32).iter().map(|&u| mult[u as usize]).sum();
        }

        // Per-original state and row groups. Row groups number the keys
        // `(h, ω(v))` of retained and `(att(v), branch size)` of pruned
        // vertices in order of first appearance. `rep[v]`, the smallest vertex
        // sharing v's key, is found per anchor (class h, or attachment) with a
        // slot per size; sizes are at most n.
        let mut state = vec![VertexState::Retained { h: 0, omega: 1 }; n];
        let mut rep: Vec<u32> = (0..n as u32).collect();
        let mut slot = vec![u32::MAX; n + 1];
        let mut first_by_size = |off: &[usize], ids: &[u32], size: &dyn Fn(u32) -> usize| {
            for group in off.windows(2).map(|w| &ids[w[0]..w[1]]) {
                for &v in group {
                    let s = &mut slot[size(v)];
                    if *s == u32::MAX {
                        *s = v;
                    }
                    rep[v as usize] = *s;
                }
                for &v in group {
                    slot[size(v)] = u32::MAX;
                }
            }
        };
        first_by_size(&member_offsets, &member_ids, &|v| omega[v as usize] as usize);
        let (att_off, att_ids) =
            bucket(n, (0..n).filter(|&v| pruned(v)).map(|v| (att[v] as usize, v as u32)));
        first_by_size(&att_off, &att_ids, &|v| branch_size[broot[v as usize] as usize] as usize);
        let mut row_group = vec![0u32; n];
        let mut groups = 0u32;
        for v in 0..n {
            state[v] = if pruned(v) {
                VertexState::Pruned { att: att[v], branch: branch_size[broot[v] as usize] }
            } else {
                VertexState::Retained { h: perm[class_pre[v] as usize], omega: omega[v] as u32 }
            };
            let r = rep[v] as usize;
            row_group[v] = if r == v {
                groups += 1;
                groups - 1
            } else {
                row_group[r]
            };
        }

        let stats = ReduceStats {
            orig_vertices: n,
            orig_edges: g.num_edges(),
            pruned_vertices: n - class_ids.len(),
            collapsed_vertices: class_ids.len() - h_n,
            reduced_vertices: h_n,
            reduced_edges: csr.num_edges(),
        };
        debug_assert_eq!(stats, planned, "the plan's counts must describe what was built");
        ReducedGraph {
            level,
            csr,
            orig_n: n,
            mult: mult.into_boxed_slice(),
            weight: weight.into_boxed_slice(),
            sum_w2: sum_w2.into_boxed_slice(),
            wdeg: wdeg.into_boxed_slice(),
            kind: kind.into_boxed_slice(),
            comp_total: comp_total.into_boxed_slice(),
            member_offsets: member_offsets.into_boxed_slice(),
            member_ids: member_ids.into_boxed_slice(),
            state: state.into_boxed_slice(),
            corrections: corrections.into_boxed_slice(),
            row_group: row_group.into_boxed_slice(),
            stats,
        }
    }
}

/// Contracts `base` onto groups: vertex `s` of the result stands for the
/// base vertices `ids[offsets[s]..offsets[s + 1]]`, and is adjacent to `t`
/// when one of them has a base neighbour `x` with `map[x] == t != s`
/// (`u32::MAX` drops `x`). Duplicate edges keep the first weight met.
///
/// Built by transposition, in two passes over the base adjacency and no
/// sort: visiting sources in ascending order and appending `s` to each
/// neighbour's slice fills every slice in ascending order, and the repeats
/// one source produces arrive back to back, so `last` drops them.
fn contract(base: &CsrGraph, offsets: &[usize], ids: &[Vertex], map: &[u32]) -> CsrGraph {
    let n = offsets.len() - 1;
    let (base_off, base_tgt) = base.csr();
    let base_w = base.weights.as_deref();
    let mut off = vec![0u32; n + 1];
    let (mut tgt, mut wts, mut cursor) = (Vec::new(), Vec::new(), Vec::new());
    // Pass 0 counts each slice, pass 1 fills it.
    for pass in 0..2 {
        if pass == 1 {
            for t in 0..n {
                off[t + 1] += off[t];
            }
            tgt = vec![0u32; off[n] as usize];
            wts = vec![0.0f64; if base_w.is_some() { tgt.len() } else { 0 }];
            cursor = off.clone();
        }
        let mut last = vec![u32::MAX; n];
        for s in 0..n {
            for &x in &ids[offsets[s]..offsets[s + 1]] {
                for i in base_off[x as usize] as usize..base_off[x as usize + 1] as usize {
                    let t = map[base_tgt[i] as usize] as usize;
                    if t == u32::MAX as usize || t == s || last[t] == s as u32 {
                        continue;
                    }
                    last[t] = s as u32;
                    if pass == 0 {
                        off[t + 1] += 1;
                    } else {
                        let c = cursor[t] as usize;
                        tgt[c] = s as u32;
                        if let Some(w) = base_w {
                            wts[c] = w[i];
                        }
                        cursor[t] += 1;
                    }
                }
            }
        }
    }
    CsrGraph::from_sorted_parts(off, tgt, base_w.map(|_| wts))
}

/// Counting sort of `(bucket, id)` pairs into `buckets` flat lists, each
/// keeping its ids in arrival order: bucket `b` is
/// `ids[offsets[b]..offsets[b + 1]]`.
fn bucket(
    buckets: usize,
    pairs: impl Iterator<Item = (usize, u32)> + Clone,
) -> (Vec<usize>, Vec<u32>) {
    let mut offsets = vec![0usize; buckets + 1];
    for (b, _) in pairs.clone() {
        offsets[b + 1] += 1;
    }
    for b in 0..buckets {
        offsets[b + 1] += offsets[b];
    }
    let mut ids = vec![0u32; offsets[buckets]];
    let mut cursor = offsets.clone();
    for (b, id) in pairs {
        ids[cursor[b]] = id;
        cursor[b] += 1;
    }
    (offsets, ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn path_prunes_to_one_vertex_with_exact_corrections() {
        // Path 0-1-2-3: raw BC = [0, 4, 4, 0].
        let g = generators::path(4);
        let red = reduce(&g, ReduceLevel::Prune).unwrap();
        assert_eq!(red.csr().num_vertices(), 1);
        assert_eq!(red.stats().pruned_vertices, 3);
        let c = red.corrections();
        assert_eq!(c, &[0.0, 4.0, 4.0, 0.0]);
        // Pruned vertex 1's exact normalised BC: 4 / (4*3).
        assert_eq!(red.exact_pruned_bc(1), Some(4.0 / 12.0));
    }

    #[test]
    fn star_prunes_to_centre() {
        let g = generators::star(5);
        let red = reduce(&g, ReduceLevel::Prune).unwrap();
        assert_eq!(red.csr().num_vertices(), 1);
        assert_eq!(red.corrections()[0], 12.0); // 4 * 3 ordered leaf pairs
        match red.state(0) {
            VertexState::Retained { omega, .. } => assert_eq!(omega, 5),
            s => panic!("centre should be retained, got {s:?}"),
        }
        // Each leaf hangs alone off the centre: branch of size 1.
        for leaf in 1..5 {
            match red.state(leaf) {
                VertexState::Pruned { att, branch } => {
                    assert_eq!(att, 0);
                    assert_eq!(branch, 1);
                }
                s => panic!("leaf should be pruned, got {s:?}"),
            }
        }
    }

    #[test]
    fn spider_corrections_match_hand_count() {
        // Centre 0 with three legs 0-1-4, 0-2-5, 0-3-6 (legs of length 2).
        let g = CsrGraph::from_edges(7, &[(0, 1), (1, 4), (0, 2), (2, 5), (0, 3), (3, 6)]).unwrap();
        let red = reduce(&g, ReduceLevel::Prune).unwrap();
        assert_eq!(red.csr().num_vertices(), 1);
        let c = red.corrections();
        assert_eq!(c[0], 24.0); // cross-leg ordered pairs through the centre
        for (mid, &corr) in c.iter().enumerate().take(4).skip(1) {
            assert_eq!(corr, 10.0, "mid vertex {mid}"); // leaf <-> 5 others
        }
        for &corr in &c[4..=6] {
            assert_eq!(corr, 0.0);
        }
        // 4's branch (via 1) has 2 members; branch sizes count members.
        match red.state(4) {
            VertexState::Pruned { att, branch } => {
                assert_eq!(att, 0);
                assert_eq!(branch, 2);
            }
            s => panic!("{s:?}"),
        }
    }

    #[test]
    fn diamond_collapses_false_twins() {
        // 0-1, 0-2, 1-3, 2-3: {1, 2} are false twins — and so are {0, 3}.
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let red = reduce(&g, ReduceLevel::Full).unwrap();
        assert_eq!(red.csr().num_vertices(), 2);
        assert_eq!(red.stats().collapsed_vertices, 2);
        let VertexState::Retained { h: h1, .. } = red.state(1) else { panic!() };
        let VertexState::Retained { h: h2, .. } = red.state(2) else { panic!() };
        assert_eq!(h1, h2);
        assert_eq!(red.kind(h1), TwinKind::False);
        assert_eq!(red.mult(h1), 2.0);
        assert_eq!(red.weight(h1), 2.0);
        assert_eq!(red.wdeg(h1), 2.0); // neighbours 0 and 3, multiplicity 1 each
        assert_eq!(red.members(h1), &[1, 2]);
        // Vertices 1 and 2 share a dependency-row group.
        assert_eq!(red.row_group(1), red.row_group(2));
        assert_ne!(red.row_group(0), red.row_group(1));
    }

    #[test]
    fn clique_collapses_true_twins() {
        let g = generators::complete(5);
        let red = reduce(&g, ReduceLevel::Full).unwrap();
        assert_eq!(red.csr().num_vertices(), 1);
        assert_eq!(red.kind(0), TwinKind::True);
        assert_eq!(red.mult(0), 5.0);
        assert_eq!(red.csr().num_edges(), 0);
    }

    #[test]
    fn lollipop_reduces_to_an_edge() {
        // Clique of 8 + path of 4: the path prunes, after which *all* eight
        // clique vertices (including the attachment, whose path neighbour is
        // gone from the live neighbourhood) are mutual true twins.
        let g = generators::lollipop(8, 4);
        let red = reduce(&g, ReduceLevel::Full).unwrap();
        assert_eq!(red.stats().pruned_vertices, 4);
        assert_eq!(red.csr().num_vertices(), 1);
        assert_eq!(red.kind(0), TwinKind::True);
        assert_eq!(red.mult(0), 8.0);
        assert_eq!(red.weight(0), 12.0); // 8 members + 4 pruned path vertices
    }

    #[test]
    fn off_level_is_the_identity() {
        let g = generators::barbell(4, 2);
        let red = reduce(&g, ReduceLevel::Off).unwrap();
        assert_eq!(red.csr().num_vertices(), g.num_vertices());
        assert_eq!(red.csr().num_edges(), g.num_edges());
        for v in 0..g.num_vertices() as u32 {
            match red.state(v) {
                VertexState::Retained { h, omega } => {
                    assert_eq!(h, v);
                    assert_eq!(omega, 1);
                }
                s => panic!("{s:?}"),
            }
            assert_eq!(red.csr().neighbors(v), g.neighbors(v));
        }
    }

    #[test]
    fn weighted_collapse_is_refused_but_prune_works() {
        let g = generators::path(5).map_weights(|_, _| 2.0).unwrap();
        assert_eq!(reduce(&g, ReduceLevel::Full).err(), Some(ReduceError::WeightedCollapse));
        let red = reduce(&g, ReduceLevel::Prune).unwrap();
        assert_eq!(red.csr().num_vertices(), 1);
        assert_eq!(red.corrections()[2], 8.0); // centre of the 5-path
    }

    #[test]
    fn disconnected_components_count_pairs_separately() {
        // Two 3-paths: the middle of each has raw BC 2 within its own
        // component (pairs across components do not exist).
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]).unwrap();
        let red = reduce(&g, ReduceLevel::Prune).unwrap();
        assert_eq!(red.corrections()[1], 2.0);
        assert_eq!(red.corrections()[4], 2.0);
        assert_eq!(red.csr().num_vertices(), 2);
    }

    #[test]
    fn degree_zero_vertices_never_collapse_together() {
        let g = CsrGraph::from_edges(4, &[(0, 1)]).unwrap(); // 2 and 3 isolated
        let red = reduce(&g, ReduceLevel::Full).unwrap();
        // 0-1 prunes to one vertex; 2 and 3 stay separate classes.
        assert_eq!(red.csr().num_vertices(), 3);
    }

    #[test]
    fn relabel_is_a_bijection_and_stats_add_up() {
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        let g = generators::barabasi_albert(200, 2, &mut rng);
        let red = reduce(&g, ReduceLevel::Full).unwrap();
        let s = red.stats();
        assert_eq!(s.orig_vertices, 200);
        assert_eq!(s.pruned_vertices + s.collapsed_vertices + s.reduced_vertices, 200);
        // Every reduced id is hit by at least one member, weights total n.
        let total: f64 = (0..red.csr().num_vertices() as u32).map(|z| red.weight(z)).sum();
        assert_eq!(total, 200.0);
        let members: usize =
            (0..red.csr().num_vertices() as u32).map(|z| red.members(z).len()).sum();
        assert_eq!(members, 200 - s.pruned_vertices);
        assert!(s.work_ratio() >= 1.0);
    }

    #[test]
    fn one_fingerprint_run_still_splits_non_twins_exactly() {
        // A constant fingerprint and degree put every vertex in one run;
        // exact comparison alone must then reproduce the real grouping.
        use rand::{rngs::SmallRng, SeedableRng};
        let g = generators::duplication_divergence(300, 0.5, &mut SmallRng::seed_from_u64(3));
        let open: Vec<u32> = g.vertices().filter(|&v| g.degree(v) > 0).collect();
        let same = |a: u32, b: u32| g.neighbors(a) == g.neighbors(b);
        let fp = |v: u32| g.neighbors(v).iter().fold(0, |h: u64, &u| h.wrapping_add(mix(u)));
        let deg = |v: u32| g.degree(v) as u32;
        let bucketed = twin_leaders(g.num_vertices(), &open, fp, deg, same);
        let one_run = twin_leaders(g.num_vertices(), &open, |_| 0, |_| 0, same);
        assert_eq!(bucketed, one_run);
        for &a in &open {
            for &b in open.iter().filter(|&&b| b != a) {
                let l = bucketed[a as usize];
                assert_eq!(l != u32::MAX && l == bucketed[b as usize], same(a, b), "{a} {b}");
            }
        }
        let classes = open.iter().filter(|&&v| bucketed[v as usize] == v).count();
        assert!(classes >= 2, "the graph should hold several twin classes");
    }

    #[test]
    fn level_parsing_round_trips() {
        for l in [ReduceLevel::Off, ReduceLevel::Prune, ReduceLevel::Full] {
            assert_eq!(ReduceLevel::parse(l.as_str()), Some(l));
        }
        assert_eq!(ReduceLevel::parse("bogus"), None);
    }
}
