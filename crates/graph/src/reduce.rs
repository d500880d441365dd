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
//! [`ReduceLevel::Full`], two sorts for each twin kind. Each live
//! neighbourhood gets an order-independent 64-bit fingerprint (a wrapping
//! sum of mixed neighbour ids). Twins share a fingerprint, so sorting the
//! bare fingerprints finds the values that repeat, and only the vertices
//! holding one are sorted again by `(fingerprint, degree, id)`. That second
//! sort only *buckets* candidate twins: an exact comparison of the
//! neighbourhoods decides inside each bucket, so a fingerprint collision
//! costs time, never a wrong class. H is built once, already relabelled:
//! its CSR is assembled by transposition straight from `g` through the
//! composed map (class, then BFS position), each class's neighbours read
//! around one of its members. The row groups take one sort of the pruned
//! vertices' `(attachment, branch, id)` keys, plus one per class of several
//! members; nothing is hashed.
//!
//! [`reduce`] runs in two steps. [`plan`] prunes and finds the twin classes,
//! which already fix the exact [`ReduceStats`] (the reduced edge count is
//! counted, not built) and the pruned vertices' closed forms;
//! [`ReducePlan::assemble`] then builds the CSR, relabels it and fills the
//! maps. A caller that may discard the reduction decides from the plan, so
//! the plan allocates only what its result needs. The pendant weights and
//! the pruning credits exist only when something was pruned; otherwise
//! `assemble` fills in the defaults (every weight 1, every credit 0). On
//! the 262k-vertex, 1.05M-edge BA graph of the `offcache-estimate`
//! benchmark, where nothing prunes or collapses, planning `full` takes about
//! 20 ms and its heap peaks about 21 bytes per vertex (5.25 MiB) above the
//! graph: the fingerprints and their sort, 8 bytes each, and the class ids.
//!
//! `assemble` consumes the plan and frees each array after its last
//! reader. While it builds H it holds, beside the plan and the growing
//! result, at most five `u32` per reduced vertex: a representative member,
//! the degree, a dedup stamp (only when twins collapsed), the BFS
//! permutation and its inverse. The plan's class ids become the final ids
//! in place. The row groups then sort a 12-byte key per pruned vertex. On
//! the `reduced-parallel` benchmark's duplication–divergence graph
//! (n = 65,536, m = 212,458, reduced to 39,530 vertices and 180,193
//! edges), assembling `full` peaks 66 bytes per vertex (4.14 MiB) above the
//! graph, the plan it consumes included, below the plan's own 69; the
//! reduction keeps 62 (3.89 MiB; see [`ReducedGraph`] for what). Sampling
//! with two threads then adds about 2 MiB.
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
///
/// It stores what an SPD pass and the density mapping read on every
/// proposal: H, `μ` and `Ω` as `f64` and the [`TwinKind`] per reduced
/// vertex, the members (`u32` offsets and ids), and per original vertex its
/// [`VertexState`] (8 bytes), credit and row group. On the
/// `reduced-parallel` benchmark's graph that is 62 bytes per original
/// vertex (the module docs' "Cost" says what building it allocates).
/// [`sum_w2`], [`wdeg`] and [`comp_total`], read only by the exact
/// all-vertices path and by one branch each of the density mapping, are
/// computed on demand — in `O(μ(z))`, `O(deg_H(z))`, and `O(1)` on a
/// connected graph — bit for bit the values a stored array would hold.
///
/// [`sum_w2`]: ReducedGraph::sum_w2
/// [`wdeg`]: ReducedGraph::wdeg
/// [`comp_total`]: ReducedGraph::comp_total
#[derive(Debug, Clone)]
pub struct ReducedGraph {
    level: ReduceLevel,
    csr: CsrGraph,
    orig_n: usize,
    // Per reduced vertex.
    mult: Box<[f64]>,
    weight: Box<[f64]>,
    kind: Box<[TwinKind]>,
    /// Whether H (and so the original graph) has at most one component.
    connected: bool,
    member_offsets: Box<[u32]>,
    member_ids: Box<[Vertex]>,
    // Per original vertex.
    state: Box<[PackedState]>,
    corrections: Box<[f64]>,
    row_group: Box<[u32]>,
    stats: ReduceStats,
}

/// A [`VertexState`] in two words: `h` or `att`, with [`PRUNED`] set for a
/// pruned vertex, then `omega` or `branch`. Ids stay below `2^31`: [`plan`]
/// refuses larger graphs.
#[derive(Debug, Clone, Copy)]
struct PackedState([u32; 2]);

/// The tag bit of a pruned vertex's [`PackedState`].
const PRUNED: u32 = 1 << 31;

impl PackedState {
    fn retained(h: Vertex, omega: u32) -> Self {
        PackedState([h, omega])
    }

    fn pruned(att: Vertex, branch: u32) -> Self {
        PackedState([att | PRUNED, branch])
    }

    #[inline]
    fn get(self) -> VertexState {
        let [id, size] = self.0;
        if id & PRUNED == 0 {
            VertexState::Retained { h: id, omega: size }
        } else {
            VertexState::Pruned { att: id & !PRUNED, branch: size }
        }
    }
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

    /// `Σ_{x ∈ class} ω(x)²` (used by the exact all-vertices path), summed
    /// over the members in ascending order. `O(μ(z))`.
    pub fn sum_w2(&self, z: Vertex) -> f64 {
        let mut sum = 0.0;
        for &m in self.members(z) {
            let VertexState::Retained { omega, .. } = self.state(m) else {
                unreachable!("members are retained")
            };
            let w = omega as f64;
            sum += w * w;
        }
        sum
    }

    /// Multiplicity-weighted degree `Σ_{u ∈ N_H(z)} μ(u)` — the number of
    /// common neighbours two false twins of class `z` share in the pruned
    /// graph. `O(deg_H(z))`.
    pub fn wdeg(&self, z: Vertex) -> f64 {
        self.csr.neighbors(z).iter().map(|&u| self.mult[u as usize]).sum()
    }

    /// What kind of class `z` is.
    #[inline]
    pub fn kind(&self, z: Vertex) -> TwinKind {
        self.kind[z as usize]
    }

    /// Original size of the connected component `z` belongs to: the
    /// original vertex count when the graph is connected, and otherwise the
    /// total weight `Ω` of `z`'s component of H, found by a breadth-first
    /// search (every original vertex of a component is counted by exactly
    /// one class of it).
    pub fn comp_total(&self, z: Vertex) -> f64 {
        if self.connected {
            return self.orig_n as f64;
        }
        let mut seen = vec![false; self.csr.num_vertices()];
        seen[z as usize] = true;
        let mut queue = vec![z];
        let mut total = 0.0;
        while let Some(y) = queue.pop() {
            total += self.weight[y as usize];
            for &u in self.csr.neighbors(y) {
                if !std::mem::replace(&mut seen[u as usize], true) {
                    queue.push(u);
                }
            }
        }
        total
    }

    /// The retained original vertices collapsed into `z`.
    #[inline]
    pub fn members(&self, z: Vertex) -> &[Vertex] {
        let z = z as usize;
        &self.member_ids[self.member_offsets[z] as usize..self.member_offsets[z + 1] as usize]
    }

    /// Where original vertex `v` went.
    #[inline]
    pub fn state(&self, v: Vertex) -> VertexState {
        self.state[v as usize].get()
    }

    /// Whether original vertex `v` survives in the reduced graph.
    #[inline]
    pub fn is_retained(&self, v: Vertex) -> bool {
        matches!(self.state(v), VertexState::Retained { .. })
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
        match self.state(v) {
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
///
/// A plan holds one class id per vertex (`u32`) and one [`TwinKind`] per
/// class. Only a non-empty pendant forest adds the per-vertex pruning
/// arrays (the forest itself, `ω` as a `u32` and the credits); a plan with
/// nothing to prune carries none of them.
#[derive(Debug)]
pub struct ReducePlan<'g> {
    g: &'g CsrGraph,
    level: ReduceLevel,
    /// The pruning's credits; `None` when nothing was pruned (every `ω` is
    /// 1 and every credit 0, which `assemble` fills in).
    pruning: Option<Pruning>,
    /// The pruning: which vertices went, into which neighbour, in what order.
    forest: PendantForest,
    /// Pre-relabel class of each retained vertex (`u32::MAX` if pruned).
    class_pre: Vec<u32>,
    kinds: Vec<TwinKind>,
    stats: ReduceStats,
}

/// What a non-empty pendant forest credits, per original vertex.
#[derive(Debug)]
struct Pruning {
    /// Pendant weight `ω(v)`: `v` plus the vertices pruned into it.
    omega: Vec<u32>,
    /// Raw pair-count credits `c(v)`.
    corrections: Vec<f64>,
}

impl Pruning {
    /// Credits `forest`'s removals in its removal order. The credits are
    /// floating-point sums taken in that order, which fixes how they
    /// round; they count pairs inside the pruned vertex's component, whose
    /// labels are dropped once the credits are in.
    fn credit(g: &CsrGraph, forest: &PendantForest) -> Self {
        let n = g.num_vertices();
        let comps = connected_components(g);
        let sizes = comps.sizes();
        let mut omega = vec![1u32; n];
        let mut corrections = vec![0.0f64; n];
        for &v in forest.order() {
            let (vu, uu) =
                (v as usize, forest.parent(v).expect("pruned vertices have a parent") as usize);
            let c = sizes[comps.labels[vu] as usize] as u64;
            let (wv, wu) = (omega[vu] as u64, omega[uu] as u64);
            corrections[uu] += 2.0 * wv as f64 * (c - wv - wu) as f64;
            omega[uu] += omega[vu];
        }
        Pruning { omega, corrections }
    }
}

/// Plans the reduction of `g` at `level`: prunes, finds the twin classes
/// and counts the reduced graph, without building it. Errors as
/// [`reduce`] does.
///
/// Besides the plan's own arrays (see [`ReducePlan`]), the scratch it
/// frees before returning is: at [`ReduceLevel::Full`], one `u64`
/// fingerprint per vertex, the twin search's sorts (one `u64` per
/// candidate, then one 16-byte key per candidate whose fingerprint
/// repeats) and a `u32` leader per vertex; the peel's degree copy, the
/// component labels the credits count in, and at `Full` a retained-only
/// copy of the adjacency, when something prunes;
/// and two `u32` per class to count the reduced edges when something
/// prunes or collapses.
///
/// # Panics
/// On a graph of more than `2^31` vertices: a reduction stores each
/// vertex's state in two `u32`, tagging pruned vertices in the id's top
/// bit.
pub fn plan(g: &CsrGraph, level: ReduceLevel) -> Result<ReducePlan<'_>, ReduceError> {
    if g.is_weighted() && level == ReduceLevel::Full {
        return Err(ReduceError::WeightedCollapse);
    }
    let n = g.num_vertices();
    assert!(n <= PRUNED as usize, "a reduction addresses at most 2^31 vertices");

    // ---- Degree-1 pruning to fixpoint --------------------------------
    let forest =
        if level == ReduceLevel::Off { PendantForest::default() } else { PendantForest::peel(g) };
    let pruned_count = forest.order().len();
    let pruning = (pruned_count > 0).then(|| Pruning::credit(g, &forest));
    let forest_ref = &forest;
    let retained = || (0..n as Vertex).filter(move |&v| !forest_ref.is_pruned(v));

    // ---- Twin classes over the retained subgraph ----------------------
    // class_pre[v]: pre-relabel class id of retained v. Off / Prune keep
    // singleton classes in ascending retained order; Full numbers false
    // classes first (by smallest member), then true and singleton classes
    // in retained order.
    let mut class_pre = vec![u32::MAX; n];
    let mut kinds: Vec<TwinKind> = Vec::with_capacity(n - pruned_count);
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
                if !forest.is_pruned(v) {
                    tgt.extend(g.neighbors(v).iter().filter(|&&u| !forest.is_pruned(u)));
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
        let open = || retained().filter(|&v| !live(v).is_empty());
        {
            let lead = twin_leaders(
                n,
                open(),
                |v| open_fp[v as usize],
                |v| live(v).len() as u32,
                |a, b| live(a) == live(b),
            );
            for (v, &l) in lead.iter().enumerate() {
                if l != u32::MAX {
                    class_pre[v] = if l as usize == v {
                        new_class(TwinKind::False)
                    } else {
                        class_pre[l as usize]
                    };
                }
            }
        }
        // True twins among the rest: identical closed neighbourhoods, whose
        // fingerprint adds the vertex's own mix to its open one.
        let closed = |v: u32| {
            let nb = live(v);
            let (lo, hi) = nb.split_at(nb.partition_point(|&u| u < v));
            lo.iter().copied().chain([v]).chain(hi.iter().copied())
        };
        let lead = twin_leaders(
            n,
            open().filter(|&v| class_pre[v as usize] == u32::MAX),
            |v| open_fp[v as usize].wrapping_add(mix(v)),
            |v| live(v).len() as u32,
            |a, b| closed(a).eq(closed(b)),
        );
        for v in retained() {
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
        for v in retained() {
            class_pre[v as usize] = new_class(TwinKind::Single);
        }
    }
    let h_n = kinds.len();
    let stats = ReduceStats {
        orig_vertices: n,
        orig_edges: g.num_edges(),
        pruned_vertices: pruned_count,
        collapsed_vertices: n - pruned_count - h_n,
        reduced_vertices: h_n,
        // `g` itself is H when nothing was pruned or collapsed.
        reduced_edges: if h_n == n { g.num_edges() } else { count_class_edges(g, &class_pre, h_n) },
    };
    Ok(ReducePlan { g, level, pruning, forest, class_pre, kinds, stats })
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
        if !self.forest.is_pruned(v) {
            return None;
        }
        let pruning = self.pruning.as_ref().expect("a pruned vertex was credited");
        Some(closed_form(pruning.corrections[v as usize], self.g.num_vertices()))
    }

    /// The twin class of a retained vertex: its pre-relabel id and kind;
    /// `None` if `v` was pruned. Classes are numbered as
    /// [`assemble`](Self::assemble) meets them before relabelling: at
    /// [`ReduceLevel::Full`] false-twin classes first, by smallest member,
    /// then true-twin and singleton classes by smallest member; at the
    /// other levels every retained vertex is its own class, in ascending
    /// order.
    pub fn class(&self, v: Vertex) -> Option<(u32, TwinKind)> {
        let c = self.class_pre[v as usize];
        (c != u32::MAX).then(|| (c, self.kinds[c as usize]))
    }
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
/// Twins share a fingerprint, so a sort of the candidates' bare
/// fingerprints first finds the values that repeat; only the candidates
/// holding one get a `(fingerprint, degree, id)` key. One sort of those
/// keys buckets them, and `same` decides inside each run of equal
/// `(fingerprint, degree)` by exact comparison against each class found so
/// far in the run (members in ascending id), so a fingerprint collision
/// costs comparisons, never a wrong class.
fn twin_leaders(
    n: usize,
    cands: impl Iterator<Item = Vertex> + Clone,
    fingerprint: impl Fn(Vertex) -> u64,
    degree: impl Fn(Vertex) -> u32,
    same: impl Fn(Vertex, Vertex) -> bool,
) -> Vec<u32> {
    // The repeated fingerprints, ascending and distinct.
    let repeated = {
        let mut fps: Vec<u64> = cands.clone().map(&fingerprint).collect();
        fps.sort_unstable();
        fps.chunk_by(|a, b| a == b)
            .filter(|run| run.len() > 1)
            .map(|run| run[0])
            .collect::<Vec<_>>()
    };
    let mut keys: Vec<(u64, u32, Vertex)> = cands
        .filter_map(|v| {
            let fp = fingerprint(v);
            repeated.binary_search(&fp).is_ok().then(|| (fp, degree(v), v))
        })
        .collect();
    drop(repeated);
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
    /// with the per-vertex maps (module docs, "Cost", for what it
    /// allocates).
    pub fn assemble(self) -> ReducedGraph {
        let ReducePlan { g, level, pruning, forest, class_pre, kinds, stats: planned } = self;
        let n = g.num_vertices();
        let h_n = kinds.len();
        let (omega, corrections) = match pruning {
            Some(Pruning { omega, corrections }) => (Some(omega), corrections),
            None => (None, vec![0.0; n]),
        };
        let omega_of = |v: usize| omega.as_ref().map_or(1, |o| o[v]);

        // ---- H's adjacency, read through `g` ----------------------------
        // The smallest member of each class (`rep`) stands for it, and
        // `degree` counts its neighbours in H.
        let mut adjacency = ClassAdjacency::new(g, planned.collapsed_vertices > 0, h_n);
        let mut rep = vec![u32::MAX; h_n];
        let mut degree = vec![0u32; h_n];
        for v in 0..n as u32 {
            let c = class_pre[v as usize];
            if c != u32::MAX && rep[c as usize] == u32::MAX {
                rep[c as usize] = v;
                adjacency.for_each(&class_pre, c, v, |_, _| degree[c as usize] += 1);
            }
        }

        // ---- Relabel -----------------------------------------------------
        // BFS order from the highest-degree vertex of each component
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
        // scrambled, or cluster-interleaved layouts are rewritten. Never for
        // `Off`. The search also counts H's components. `order` (final id ->
        // pre id) is the inverse of `perm`, which marks the classes met.
        let mut perm = vec![u32::MAX; h_n];
        let mut order: Vec<u32> = Vec::with_capacity(h_n);
        let mut components = 0;
        {
            let top = degree.iter().copied().max().unwrap_or(0);
            let (_, by_degree) = bucket(
                top as usize + 1,
                (0..h_n as u32).map(|c| ((top - degree[c as usize]) as usize, c)),
            );
            adjacency.reset();
            // `order` doubles as the BFS queue: `order[head..]` is the frontier.
            let mut head = 0;
            for root in by_degree {
                if perm[root as usize] != u32::MAX {
                    continue;
                }
                components += 1;
                perm[root as usize] = order.len() as u32;
                order.push(root);
                while let Some(&z) = order.get(head) {
                    head += 1;
                    let met = order.len();
                    adjacency.for_each(&class_pre, z, rep[z as usize], |d, _| {
                        if perm[d as usize] == u32::MAX {
                            perm[d as usize] = 0;
                            order.push(d);
                        }
                    });
                    order[met..].sort_unstable();
                    for (i, &d) in order.iter().enumerate().skip(met) {
                        perm[d as usize] = i as u32;
                    }
                }
            }
        }
        let local_steps = order.windows(2).filter(|w| w[0].abs_diff(w[1]) <= 16).count();
        if level == ReduceLevel::Off || 2 * local_steps >= h_n.saturating_sub(1) {
            for (z, (p, o)) in perm.iter_mut().zip(&mut order).enumerate() {
                (*p, *o) = (z as u32, z as u32);
            }
        }
        // The composed map, written over the class ids: each retained
        // vertex's final id.
        let mut class_final = class_pre;
        for c in class_final.iter_mut().filter(|c| **c != u32::MAX) {
            *c = perm[*c as usize];
        }
        drop(perm);
        let kind: Box<[TwinKind]> = order.iter().map(|&c| kinds[c as usize]).collect();
        drop(kinds);

        // H in final ids by transposition: visiting sources in final-id order
        // and appending each to its neighbours' slices fills every slice in
        // ascending order (H is symmetric), with no sort. While it fills,
        // `off[t + 1]` is slice `t`'s cursor, which ends at its end.
        let mut off = vec![0u32; h_n + 1];
        for z in 1..h_n {
            off[z + 1] = off[z] + degree[order[z - 1] as usize];
        }
        let edge_ends =
            off[h_n] as usize + order.last().map_or(0, |&c| degree[c as usize] as usize);
        drop(degree);
        let mut tgt = vec![0u32; edge_ends];
        let g_w = g.weights.as_deref();
        let mut wts = vec![0.0f64; if g_w.is_some() { edge_ends } else { 0 }];
        adjacency.reset();
        for (s, &c) in order.iter().enumerate() {
            adjacency.for_each(&class_final, s as u32, rep[c as usize], |t, i| {
                let cursor = &mut off[t as usize + 1];
                tgt[*cursor as usize] = s as u32;
                if let Some(w) = g_w {
                    wts[*cursor as usize] = w[i];
                }
                *cursor += 1;
            });
        }
        drop((rep, order, adjacency));
        let csr = CsrGraph::from_sorted_parts(off, tgt, g_w.map(|_| wts));

        // ---- Per original vertex -----------------------------------------
        // A pendant vertex inherits its parent's attachment and branch, and
        // the branch a removed child of the attachment roots has its `ω`
        // members; the removal order, reversed, meets parents first.
        let mut state = vec![PackedState::retained(0, 1); n];
        for (v, &h) in class_final.iter().enumerate() {
            if h != u32::MAX {
                state[v] = PackedState::retained(h, omega_of(v));
            }
        }
        for &v in forest.order().iter().rev() {
            let p = forest.parent(v).expect("pruned vertices have a parent");
            state[v as usize] = if forest.is_pruned(p) {
                state[p as usize]
            } else {
                PackedState::pruned(p, omega_of(v as usize))
            };
        }
        drop((class_final, forest, omega));

        // ---- Per reduced vertex: members (ascending), `μ` and `Ω` --------
        let (member_offsets, member_ids) = bucket(
            h_n,
            state.iter().enumerate().filter_map(|(v, s)| match s.get() {
                VertexState::Retained { h, .. } => Some((h as usize, v as u32)),
                VertexState::Pruned { .. } => None,
            }),
        );
        let omega_at = |m: u32| match state[m as usize].get() {
            VertexState::Retained { omega, .. } => omega,
            VertexState::Pruned { .. } => unreachable!("members are retained"),
        };
        let mut mult = Vec::with_capacity(h_n);
        let mut weight = Vec::with_capacity(h_n);
        for w in member_offsets.windows(2) {
            let ms = &member_ids[w[0] as usize..w[1] as usize];
            mult.push(ms.len() as f64);
            weight.push(ms.iter().fold(0.0, |sum, &m| sum + omega_at(m) as f64));
        }

        // ---- Row groups --------------------------------------------------
        // Row groups number the keys `(h, ω(v))` of retained and
        // `(att(v), branch size)` of pruned vertices in order of first
        // appearance. `row_group[v]` first holds the smallest vertex sharing
        // v's key, then, ascending, becomes that vertex's group.
        let mut row_group: Vec<u32> = (0..n as u32).collect();
        let mut first_of_each_key = |by_key: &mut [(u32, u32, u32)]| {
            by_key.sort_unstable();
            for run in by_key.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
                for &(_, _, v) in run {
                    row_group[v as usize] = run[0].2;
                }
            }
        };
        let mut by_key = Vec::new();
        for (z, w) in member_offsets.windows(2).enumerate() {
            let ms = &member_ids[w[0] as usize..w[1] as usize];
            if ms.len() > 1 {
                by_key.clear();
                by_key.extend(ms.iter().map(|&m| (z as u32, omega_at(m), m)));
                first_of_each_key(&mut by_key);
            }
        }
        let mut by_key = Vec::with_capacity(planned.pruned_vertices);
        by_key.extend(state.iter().enumerate().filter_map(|(v, s)| match s.get() {
            VertexState::Pruned { att, branch } => Some((att, branch, v as u32)),
            VertexState::Retained { .. } => None,
        }));
        first_of_each_key(&mut by_key);
        drop(by_key);
        let mut groups = 0u32;
        for v in 0..n {
            let r = row_group[v] as usize;
            row_group[v] = if r == v {
                groups += 1;
                groups - 1
            } else {
                row_group[r]
            };
        }

        let retained = member_ids.len();
        let stats = ReduceStats {
            orig_vertices: n,
            orig_edges: g.num_edges(),
            pruned_vertices: n - retained,
            collapsed_vertices: retained - h_n,
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
            kind,
            connected: components <= 1,
            member_offsets: member_offsets.into_boxed_slice(),
            member_ids: member_ids.into_boxed_slice(),
            state: state.into_boxed_slice(),
            corrections: corrections.into_boxed_slice(),
            row_group: row_group.into_boxed_slice(),
            stats,
        }
    }
}

/// H's adjacency read through `g`, so that H is never materialised in
/// pre-relabel ids. Members of a class share their neighbourhood outside it
/// (twins are interchangeable), so the distinct classes around any one
/// member are the class's neighbours in H.
struct ClassAdjacency<'g> {
    off: &'g [u32],
    tgt: &'g [Vertex],
    /// `stamp[d] == c`: class `d` was already met around class `c`. Empty
    /// when no class has two members: distinct neighbours are then distinct
    /// classes.
    stamp: Vec<u32>,
}

impl<'g> ClassAdjacency<'g> {
    fn new(g: &'g CsrGraph, collapsed: bool, classes: usize) -> Self {
        let (off, tgt) = g.csr();
        ClassAdjacency { off, tgt, stamp: vec![u32::MAX; if collapsed { classes } else { 0 }] }
    }

    /// Forgets the classes met, before a pass that numbers them afresh.
    fn reset(&mut self) {
        self.stamp.fill(u32::MAX);
    }

    /// Calls `f(d, i)` once for each class `d` of H adjacent to class `c`,
    /// found around its member `member`: `map` sends the neighbour
    /// `tgt[i]` to `d` (`u32::MAX` for a pruned vertex). Each class is
    /// visited at most once per pass.
    #[inline]
    fn for_each(&mut self, map: &[u32], c: u32, member: Vertex, mut f: impl FnMut(u32, usize)) {
        let m = member as usize;
        for i in self.off[m] as usize..self.off[m + 1] as usize {
            let d = map[self.tgt[i] as usize];
            if d == u32::MAX || d == c {
                continue;
            }
            if let Some(stamp) = self.stamp.get_mut(d as usize) {
                if *stamp == c {
                    continue;
                }
                *stamp = c;
            }
            f(d, i);
        }
    }
}

/// Counting sort of `(bucket, id)` pairs into `buckets` flat lists, each
/// keeping its ids in arrival order: bucket `b` is
/// `ids[offsets[b]..offsets[b + 1]]`. While the ids go in, `offsets[b + 1]`
/// is bucket `b`'s cursor, which ends at its end.
fn bucket(
    buckets: usize,
    pairs: impl Iterator<Item = (usize, u32)> + Clone,
) -> (Vec<u32>, Vec<u32>) {
    let mut offsets = vec![0u32; buckets + 1];
    for (b, _) in pairs.clone() {
        offsets[b + 1] += 1;
    }
    let mut start = 0;
    for count in &mut offsets[1..] {
        (*count, start) = (start, start + *count);
    }
    let mut ids = vec![0u32; start as usize];
    for (b, id) in pairs {
        ids[offsets[b + 1] as usize] = id;
        offsets[b + 1] += 1;
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
        let bucketed = twin_leaders(g.num_vertices(), open.iter().copied(), fp, deg, same);
        let one_run = twin_leaders(g.num_vertices(), open.iter().copied(), |_| 0, |_| 0, same);
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
    fn constant_fingerprint_verifies_every_closed_neighbourhood() {
        // Every vertex of a sparse random graph becomes a clique of 1-3
        // true twins. With one fingerprint for all, every candidate repeats
        // it and gets a key, so exact comparison decides every vertex; the
        // leaders must be the smallest vertex of equal closed neighbourhood.
        use rand::{rngs::SmallRng, RngExt, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(5);
        let base = generators::erdos_renyi_gnp(60, 0.06, &mut rng);
        let mut copies = Vec::new();
        let (mut edges, mut n) = (Vec::new(), 0u32);
        for _ in 0..60 {
            let k = rng.random_range(1..=3u32);
            for a in n..n + k {
                edges.extend((a + 1..n + k).map(|b| (a, b)));
            }
            copies.push(n..n + k);
            n += k;
        }
        for (u, v, _) in base.edges() {
            for a in copies[u as usize].clone() {
                edges.extend(copies[v as usize].clone().map(|b| (a, b)));
            }
        }
        let g = CsrGraph::from_edges(n as usize, &edges).unwrap();
        let closed = |v: u32| {
            let mut nb = g.neighbors(v).to_vec();
            nb.push(v);
            nb.sort_unstable();
            nb
        };
        let cands = || (0..n).filter(|&v| g.degree(v) > 0);
        let lead = twin_leaders(
            n as usize,
            cands(),
            |_| 7,
            |v| g.degree(v) as u32,
            |a, b| closed(a) == closed(b),
        );
        for v in g.vertices() {
            let twins: Vec<u32> = cands().filter(|&u| closed(u) == closed(v)).collect();
            let expected = if g.degree(v) > 0 && twins.len() > 1 { twins[0] } else { u32::MAX };
            assert_eq!(lead[v as usize], expected, "vertex {v}");
        }
        assert!(
            lead.iter().filter(|&&l| l != u32::MAX).count() > 20,
            "the graph should hold twins"
        );
    }

    #[test]
    fn level_parsing_round_trips() {
        for l in [ReduceLevel::Off, ReduceLevel::Prune, ReduceLevel::Full] {
            assert_eq!(ReduceLevel::parse(l.as_str()), Some(l));
        }
        assert_eq!(ReduceLevel::parse("bogus"), None);
    }
}
