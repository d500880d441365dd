//! BFS shortest-path DAGs for unweighted graphs.
//!
//! This is the hot kernel of the whole suite: every Metropolis–Hastings
//! proposal costs one pass here (§4.1), so the implementation is tuned as a
//! direction-optimizing (top-down/bottom-up hybrid) frontier BFS with
//! epoch-stamped state over the compact `u32` CSR. See [`BfsSpd`] for the
//! invariants and [`KernelMode`] for the strategy knob.

use mhbc_graph::{CsrGraph, Vertex, VisitBitset};

/// Sentinel for unreachable vertices in [`BfsSpd::dist`].
pub const UNREACHED: u32 = u32::MAX;

/// Bits of a packed distance entry that hold the BFS level.
const LEVEL_BITS: u32 = 24;
/// Mask extracting the level from a packed entry.
const LEVEL_MASK: u32 = (1 << LEVEL_BITS) - 1;
/// Number of epochs before the stamp space wraps and a full reset runs.
const EPOCH_PERIOD: u32 = 1 << (32 - LEVEL_BITS);

/// Default α of the direction switch: a level runs bottom-up when
/// `frontier_edges · α > 8 · (unexplored_edges + n/β)` — α = 8 is the
/// break-even cost comparison (see [`BfsSpd::set_hybrid_params`] for why
/// σ-counting BFS needs a much later switch than plain BFS).
const DEFAULT_ALPHA: u32 = 8;
/// Default β of the direction switch: `n/β` is the charge for (re)building
/// the unsettled-candidates list when a bottom-up phase starts.
const DEFAULT_BETA: u32 = 8;
/// Guard of the targeted backward scan: once the marked share of a level
/// reaches `1 / FULL_SCAN_SHARE`, that level and every deeper one are
/// scanned in full instead of marked (see "Targeted backward scan" in
/// [`BfsSpd`]'s docs).
const FULL_SCAN_SHARE: usize = 4;

/// Forward-pass strategy of [`BfsSpd`].
///
/// Every mode produces **bit-identical** `dist`/σ/settle-order — and
/// therefore bit-identical dependency scores and downstream betweenness
/// sums — because the kernel canonicalises the within-level settle order
/// (ascending vertex id) and both directions visit each vertex's parents in
/// ascending id order (see [`BfsSpd`]'s kernel-design docs). The mode is
/// purely a performance choice, which is why `Auto` can pick per graph
/// without perturbing any sampler output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// Classic top-down (push) BFS on every level.
    TopDown,
    /// Direction-optimizing BFS: per level, the α/β heuristics pick
    /// top-down (push) or bottom-up (pull) from the frontier's edge count —
    /// a deterministic, pure function of `(graph, source)`.
    Hybrid,
    /// Resolve per graph: `Hybrid` when the graph can profit from pull
    /// levels (average degree ≥ 4, i.e. `2m ≥ 4n`), `TopDown` otherwise —
    /// below that, traversals are deep and narrow (trees, paths, 2D
    /// grids), the switch condition never engages, and skipping the
    /// frontier-edge bookkeeping is free speed. The default.
    #[default]
    Auto,
}

impl KernelMode {
    /// Parses a CLI-style mode name (`auto`, `topdown`, `hybrid`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "auto" => Some(KernelMode::Auto),
            "topdown" => Some(KernelMode::TopDown),
            "hybrid" => Some(KernelMode::Hybrid),
            _ => None,
        }
    }

    /// The CLI-style mode name.
    pub fn as_str(&self) -> &'static str {
        match self {
            KernelMode::TopDown => "topdown",
            KernelMode::Hybrid => "hybrid",
            KernelMode::Auto => "auto",
        }
    }
}

/// The shortest-path DAG (SPD, §2.1) rooted at a source vertex of an
/// unweighted graph: distances, shortest-path counts σ, and the BFS
/// settle order (sources first) used for backward dependency accumulation.
///
/// The struct doubles as a reusable workspace: allocate once with
/// [`BfsSpd::new`] and call [`BfsSpd::compute`] per source. Predecessors are
/// not materialised; parent tests use the distance condition
/// `d(s, u) + 1 == d(s, w)` on demand (saves one `O(m)` array per pass and
/// keeps the kernel allocation-free).
///
/// # Kernel design and invariants
///
/// The forward pass is a *direction-optimizing* frontier BFS: the
/// settle-order array itself stores the frontiers (each level is the slice
/// `order[level_starts[l]..level_starts[l + 1]]`), and each level is built
/// either **top-down** ("push": every frontier vertex scans its adjacency,
/// discovering and σ-feeding the next level) or **bottom-up** ("pull":
/// every *undiscovered* vertex scans its own adjacency for parents in the
/// current frontier — tested against a one-bit-per-vertex frontier bitmap —
/// and sums σ over them). Pull wins on the large mid-BFS frontiers of
/// low-diameter graphs, where it reads each undiscovered vertex's edges
/// once instead of pushing every frontier edge; the α/β heuristics of
/// Beamer et al. choose the direction per level from exact frontier-edge
/// counts, so the whole decision sequence is a pure function of
/// `(graph, source)` and runs are reproducible.
///
/// ## Canonical settle order
///
/// Within each level, vertices settle in **ascending vertex id** — push
/// levels sort their freshly discovered slice, pull levels produce it
/// sorted for free. This canonicalisation is what makes every
/// [`KernelMode`] bit-identical, not merely equivalent:
///
/// - levels and distances are direction-independent by BFS correctness;
/// - σ sums accumulate **in ascending parent id** in both directions (push
///   scans an ascending frontier; pull scans a sorted adjacency list), so
///   every floating-point σ is the same rounded sum;
/// - the backward scans walk the recorded order, so δ accumulates in the
///   same order too.
///
/// The legacy queue kernel ([`crate::legacy`]) offers the same canonical
/// order through an explicit `canonicalize_order` step (kept out of its
/// timed loops), keeping the legacy-equivalence property tests bitwise.
///
/// ## Epoch-stamped distances
///
/// Distances are *epoch-stamped*: each `u32` entry of the internal distance
/// array packs `(epoch << 24) | level`, and a pass begins by bumping the
/// epoch — every stale entry is implicitly "unreached" because its high
/// bits no longer match (the 8-bit epoch space wraps every 256 passes, at
/// which point one full reset runs; amortised `O(n / 256)` per pass). This
/// removes the per-pass clearing loop, keeps distance loads at 4 bytes
/// (random-access bandwidth is what bounds this kernel — which is also why
/// the CSR offsets it streams are `u32`, see [`CsrGraph::csr`]), and makes
/// the two hot tests single-load comparisons:
///
/// - forward discovery: `packed < epoch << 24` ⇔ not yet reached this pass;
/// - parent test: `packed == (epoch << 24) | (level - 1)` ⇔ `u` is one
///   level above `w`, with no possibility of a stale false positive.
///
/// σ needs no reset either: it is *assigned* on discovery and only
/// accumulated afterwards, and is read only for vertices proven reached via
/// the stamped distance.
///
/// The backward scan ([`BfsSpd::accumulate_dependencies`]) walks the
/// recorded level boundaries deepest-first (reverse order within each
/// level, i.e. exactly the reverse of the canonical settle order). The
/// parent test against the packed key of `level - 1` costs one distance
/// load per edge.
///
/// ## Targeted backward scan
///
/// A sampler reads a pass at one to a few probe vertices, and by Brandes'
/// recursion `δ(r)` depends only on the SPD *descendants* of `r`.
/// [`BfsSpd::accumulate_dependencies_at`] (and its collapsed twin) first
/// marks the reached non-source probes in the frontier bitmap, which is
/// empty between passes, and propagates the marks one level down along
/// child edges (`packed == base | (l + 1)`) from the shallowest probe's
/// level; each level's marks are sorted ascending. The scan then runs
/// deepest level first as usual, but over the marked vertices only. Cost:
/// twice the degree sum of the descendants instead of every reached
/// vertex's edges (plus the `O(n)` clearing of the output row). On a
/// 262k-vertex, m = 4 BA graph (one Xeon core) the full scan takes ~15 ms;
/// a probe of degree ≤ 44 takes ≤ 0.12 ms, and the top hub ~8 ms.
///
/// It is exact, not approximate: a child of a descendant is a descendant,
/// so every probe's `δ` receives the same terms, from the same children,
/// in the same reverse canonical order as in the full scan — and the same
/// holds for *any* superset of the descendants. That makes the guard
/// exact too: once the marked share of a level above the deepest reaches
/// `1 / FULL_SCAN_SHARE` (1/4), marking stops and that level and every
/// deeper one are scanned in full, so a hub probe whose descendants cover
/// most of the graph never pays for marking on top of the full scan.
/// [`BfsSpd::backward_edges`] counts the edges either branch examined.
///
/// BFS levels are limited to `2^24 - 2` (graphs of diameter beyond ~16.7M
/// panic); vertex counts are unrestricted.
#[derive(Debug, Clone)]
pub struct BfsSpd {
    /// `(epoch << 24) | level` per vertex; stale epochs mean unreached.
    packed: Vec<u32>,
    /// `sigma[v]` = number of shortest `s`–`v` paths; valid only for
    /// vertices reached in the current epoch.
    sigma: Vec<f64>,
    /// Vertices in nondecreasing-distance order, ascending id within each
    /// level (the canonical settle order); only reached ones.
    order: Vec<Vertex>,
    /// `level_starts[l]..level_starts[l + 1]` indexes level `l` in `order`;
    /// the last entry is `order.len()`.
    level_starts: Vec<usize>,
    /// Frontier membership bitmap for bottom-up levels (empty between
    /// passes).
    frontier: VisitBitset,
    /// Still-undiscovered vertices, ascending, maintained by in-place
    /// compaction across consecutive bottom-up levels (stale between
    /// passes; rebuilt when a bottom-up phase starts).
    candidates: Vec<Vertex>,
    epoch: u32,
    source: Vertex,
    mode: KernelMode,
    alpha: u32,
    beta: u32,
    /// How many levels of the last pass ran bottom-up.
    pull_levels: u32,
    /// Edges examined by the last dependency accumulation.
    backward_edges: u64,
}

impl BfsSpd {
    /// Workspace for graphs with `n` vertices, in [`KernelMode::Auto`].
    pub fn new(n: usize) -> Self {
        Self::with_mode(n, KernelMode::Auto)
    }

    /// Workspace with an explicit forward-pass strategy.
    pub fn with_mode(n: usize, mode: KernelMode) -> Self {
        BfsSpd {
            packed: vec![0; n],
            sigma: vec![0.0; n],
            order: Vec::with_capacity(n),
            level_starts: Vec::new(),
            frontier: VisitBitset::new(n),
            candidates: Vec::new(),
            // Epoch 1 with all-zero stamps (epoch field 0): a fresh
            // workspace reports every vertex unreached, matching the legacy
            // kernel's UNREACHED-initialised fields.
            epoch: 1,
            source: 0,
            mode,
            alpha: DEFAULT_ALPHA,
            beta: DEFAULT_BETA,
            pull_levels: 0,
            backward_edges: 0,
        }
    }

    /// The forward-pass strategy.
    pub fn mode(&self) -> KernelMode {
        self.mode
    }

    /// Switches the forward-pass strategy; results are bit-identical either
    /// way (see [`KernelMode`]), so this is safe mid-stream on a reused
    /// workspace — the epoch stamps carry across mode switches.
    pub fn set_mode(&mut self, mode: KernelMode) {
        self.mode = mode;
    }

    /// Overrides the α/β direction-switch thresholds (defaults 8/8): a
    /// level runs bottom-up iff
    ///
    /// ```text
    /// frontier_edges · α > 8 · (unexplored_edges + n/β)
    /// ```
    ///
    /// i.e. at the defaults, iff the push cost (scanning every frontier
    /// edge) outweighs the pull cost (scanning every edge of every
    /// undiscovered vertex, plus `n/β` charged for building the
    /// candidates list). Unlike plain BFS — where Beamer's classical
    /// `α = 14` pays because bottom-up stops at the *first* parent — the
    /// σ-counting pull must visit **every** parent of each vertex, so its
    /// cost is the full unexplored edge count and the profitable switch
    /// point comes much later: essentially only the last big level(s) of a
    /// low-diameter traversal. Raising α makes pull more eager; `α =
    /// u32::MAX` forces bottom-up whenever `frontier_edges · u32::MAX`
    /// clears the right-hand side — from level 1 on every graph the test
    /// suite uses, though on graphs beyond ~2^28 edge endpoints a
    /// degree-1 source's first level can still push (the tests assert
    /// `pull_levels() > 0` rather than trusting this recipe); results
    /// stay bit-identical for every setting.
    pub fn set_hybrid_params(&mut self, alpha: u32, beta: u32) {
        self.alpha = alpha;
        self.beta = beta.max(1);
    }

    /// How many levels of the last pass ran bottom-up (0 in pure top-down).
    pub fn pull_levels(&self) -> u32 {
        self.pull_levels
    }

    /// Edges examined by the last dependency accumulation: descendant
    /// marking plus the backward scan proper. A pure function of `(graph,
    /// source, probes)`, whatever the [`KernelMode`]; for an unrestricted
    /// scan it is the degree sum of the reached vertices at levels ≥ 2.
    pub fn backward_edges(&self) -> u64 {
        self.backward_edges
    }

    /// The source of the last `compute` call.
    pub fn source(&self) -> Vertex {
        self.source
    }

    /// Base stamp of the current epoch; entries below it are stale.
    #[inline(always)]
    fn base(&self) -> u32 {
        self.epoch << LEVEL_BITS
    }

    /// `dist[v]` = `d(s, v)`, or [`UNREACHED`] if `v` was not reached by the
    /// last [`BfsSpd::compute`] call.
    #[inline]
    pub fn dist(&self, v: Vertex) -> u32 {
        let p = self.packed[v as usize];
        if p >> LEVEL_BITS == self.epoch {
            p & LEVEL_MASK
        } else {
            UNREACHED
        }
    }

    /// `σ_{sv}`: number of shortest `s`–`v` paths (0 if unreached).
    #[inline]
    pub fn sigma(&self, v: Vertex) -> f64 {
        if self.packed[v as usize] >> LEVEL_BITS == self.epoch {
            self.sigma[v as usize]
        } else {
            0.0
        }
    }

    /// Vertices in the canonical settle order (source first, ascending id
    /// within each level); only reached ones.
    #[inline]
    pub fn order(&self) -> &[Vertex] {
        &self.order
    }

    /// Level boundaries into [`BfsSpd::order`]: level `l` is
    /// `order[level_starts()[l]..level_starts()[l + 1]]`, and the number of
    /// BFS levels is `level_starts().len() - 1`.
    #[inline]
    pub fn level_starts(&self) -> &[usize] {
        &self.level_starts
    }

    /// Computes the SPD rooted at `s` in `O(|V| + |E|)`.
    ///
    /// # Panics
    /// If the workspace size does not match `g`, if `s` is out of range, or
    /// if the BFS exceeds `2^24 - 2` levels.
    pub fn compute(&mut self, g: &CsrGraph, s: Vertex) {
        self.forward::<false>(g, s, &[]);
    }

    /// Multiplicity-aware SPD for *collapsed* graphs (see
    /// `mhbc_graph::reduce`): vertex `z` stands for `mult[z]` interchangeable
    /// twins of the underlying (pruned) graph, and σ counts shortest paths
    /// between **single members** of the source and target classes.
    ///
    /// The recurrence is the standard one with every traversal *through* an
    /// intermediate class multiplied by its member count:
    ///
    /// ```text
    /// σ̃(src) = 1,     σ̃(v) = Σ_{u ∈ parents(v)} m(u) · σ̃(u)
    /// ```
    ///
    /// where `m(u) = mult[u]` except `m(src) = 1` — of the source class,
    /// only the one member acting as the source lies on any shortest path
    /// (its twins sit at distance 1 or 2 and can never be interior, since
    /// they share the source's distances to everything else). Levels,
    /// order, and `dist` are exactly as in [`BfsSpd::compute`], the
    /// direction-optimizing machinery (including bottom-up levels) applies
    /// identically, and with all multiplicities 1 the pass degenerates to
    /// the plain kernel bit for bit.
    ///
    /// # Panics
    /// As [`BfsSpd::compute`], plus if `mult.len()` mismatches the graph.
    pub fn compute_collapsed(&mut self, g: &CsrGraph, s: Vertex, mult: &[f64]) {
        assert_eq!(mult.len(), g.num_vertices(), "multiplicities sized for a different graph");
        self.forward::<true>(g, s, mult);
    }

    /// The one forward pass behind [`BfsSpd::compute`] (`COLLAPSED = false`,
    /// `mult` ignored) and [`BfsSpd::compute_collapsed`] (`COLLAPSED =
    /// true`). Monomorphised per variant so the plain hot loop carries no
    /// multiplicity arithmetic.
    fn forward<const COLLAPSED: bool>(&mut self, g: &CsrGraph, s: Vertex, mult: &[f64]) {
        let n = g.num_vertices();
        assert_eq!(self.packed.len(), n, "workspace sized for a different graph");
        assert!((s as usize) < n, "source {s} out of range");

        // Epoch bump replaces the per-pass clearing loop. On the wrap —
        // once every EPOCH_PERIOD passes — one full reset runs so stale
        // stamps from a reused epoch value cannot alias.
        self.epoch += 1;
        if self.epoch == EPOCH_PERIOD {
            self.packed.iter_mut().for_each(|p| *p = 0);
            self.epoch = 1;
        }
        let base = self.base();
        let mut order = std::mem::take(&mut self.order);
        let mut level_starts = std::mem::take(&mut self.level_starts);
        order.clear();
        level_starts.clear();
        self.source = s;
        self.pull_levels = 0;

        let packed = &mut self.packed[..];
        let sigma = &mut self.sigma[..];
        let frontier = &mut self.frontier;
        let candidates = &mut self.candidates;
        packed[s as usize] = base;
        sigma[s as usize] = 1.0;
        order.push(s);
        level_starts.push(0);
        level_starts.push(1);

        let (offsets, targets) = g.csr();
        let degrees = g.degrees();
        let hybrid = match self.mode {
            KernelMode::TopDown => false,
            KernelMode::Hybrid => true,
            KernelMode::Auto => g.degree_sum() >= 4 * n,
        };
        let alpha = self.alpha as u128;
        // The candidates-rebuild charge of the switch condition (see
        // `set_hybrid_params`).
        let rebuild_term = (n / self.beta.max(1) as usize) as u64;
        // Frontier-edge bookkeeping for the direction switch (hybrid mode
        // only): degree sums of the current frontier and of all
        // still-undiscovered vertices, maintained exactly — the switch must
        // be a pure function of (graph, source).
        let mut frontier_deg = degrees[s as usize] as u64;
        let mut unexplored_deg = g.degree_sum() as u64 - frontier_deg;
        // Whether `candidates` lists exactly the vertices undiscovered at
        // the current level (true across consecutive bottom-up levels).
        let mut candidates_synced = false;
        let mut pull_levels = 0u32;

        let s_usize = s as usize;
        let mut level: u32 = 0;
        let mut lo = 0usize;
        while lo < order.len() {
            let hi = order.len();
            assert!(level < LEVEL_MASK - 1, "BFS level overflow (diameter > 2^24 - 2)");
            let child_key = base | (level + 1);
            // Direction choice: bottom-up iff pushing this frontier's edges
            // costs more than scanning every undiscovered vertex's edges
            // (plus the candidates-rebuild charge) — evaluated per level
            // from exact counts, so the whole decision sequence is
            // deterministic for (graph, source).
            let in_pull = hybrid
                && frontier_deg as u128 * alpha
                    > 8 * (unexplored_deg as u128 + rebuild_term as u128);
            // Whether this push level should canonicalise via the frontier
            // bitmap (mark on discovery, drain ascending) instead of a
            // sort: worthwhile only when the discovered set will be large,
            // predicted from the scanned frontier's size so deep
            // small-frontier traversals (grids, paths) never pay for
            // bitmap upkeep. Deterministic — a pure function of the level
            // sizes.
            let track_bits = hybrid && (hi - lo) * 16 >= n;
            let mut new_deg = 0u64;
            if in_pull {
                pull_levels += 1;
                // Bottom-up: each undiscovered vertex scans its adjacency
                // for parents in the current frontier (bitmap test) and
                // sums σ over them in ascending parent id — the same
                // summation order the push direction produces against the
                // ascending frontier, hence bit-identical σ. Iterating the
                // ascending candidates list yields the canonical settle
                // order for free, and compacting it in place means
                // consecutive bottom-up levels never rescan settled
                // vertices.
                if !candidates_synced {
                    candidates.clear();
                    for v in 0..n as Vertex {
                        if packed[v as usize].wrapping_sub(base) > level {
                            candidates.push(v);
                        }
                    }
                    candidates_synced = true;
                }
                for &u in &order[lo..hi] {
                    frontier.insert(u);
                }
                let mut write = 0usize;
                for read in 0..candidates.len() {
                    // SAFETY: `read`/`write` stay below `candidates.len()`,
                    // every vertex id in `candidates`/`targets` is
                    // validated `< n` at graph construction, `offsets` has
                    // length `n + 1` with `offsets[v] <= offsets[v + 1] <=
                    // targets.len()`, `packed`/`sigma`/`degrees` have
                    // length `n` (asserted on entry / by CSR invariant),
                    // and the bitset capacity covers `0..n`. Eliding the
                    // per-edge bounds checks is part of this kernel's
                    // speedup budget.
                    unsafe {
                        let v = *candidates.get_unchecked(read);
                        let (a, b) = (
                            *offsets.get_unchecked(v as usize) as usize,
                            *offsets.get_unchecked(v as usize + 1) as usize,
                        );
                        let mut sum = 0.0f64;
                        let mut found = false;
                        for &u in targets.get_unchecked(a..b) {
                            if frontier.contains_unchecked(u) {
                                let su = *sigma.get_unchecked(u as usize);
                                sum += if COLLAPSED && u as usize != s_usize {
                                    su * *mult.get_unchecked(u as usize)
                                } else {
                                    su
                                };
                                found = true;
                            }
                        }
                        if found {
                            *packed.get_unchecked_mut(v as usize) = child_key;
                            *sigma.get_unchecked_mut(v as usize) = sum;
                            order.push(v);
                            new_deg += *degrees.get_unchecked(v as usize) as u64;
                        } else {
                            *candidates.get_unchecked_mut(write) = v;
                            write += 1;
                        }
                    }
                }
                candidates.truncate(write);
                for &u in &order[lo..hi] {
                    frontier.remove(u);
                }
            } else {
                candidates_synced = false;
                for i in lo..hi {
                    // SAFETY: `i < hi <= order.len()`, and the slice-length
                    // argument of the pull branch applies verbatim.
                    unsafe {
                        let u = *order.get_unchecked(i) as usize;
                        // Paths continue through all `mult[u]` members of an
                        // interior class, but only through the source member
                        // itself at the root.
                        let su = if COLLAPSED && u != s_usize {
                            *sigma.get_unchecked(u) * *mult.get_unchecked(u)
                        } else {
                            *sigma.get_unchecked(u)
                        };
                        let (a, b) = (
                            *offsets.get_unchecked(u) as usize,
                            *offsets.get_unchecked(u + 1) as usize,
                        );
                        for &v in targets.get_unchecked(a..b) {
                            let v = v as usize;
                            // One distance load classifies the edge. Relative
                            // to the epoch base: `rel <= level` means already
                            // settled at this or an earlier level (the common
                            // no-op — one compare), `rel == level + 1` is
                            // another shortest path, and anything larger is a
                            // stale stamp from a previous pass (discovery) —
                            // stale stamps wrap to `>= 2^24 > level + 1`.
                            let rel = (*packed.get_unchecked(v)).wrapping_sub(base);
                            if rel <= level {
                                continue;
                            }
                            if rel == level + 1 {
                                *sigma.get_unchecked_mut(v) += su;
                            } else {
                                *packed.get_unchecked_mut(v) = child_key;
                                *sigma.get_unchecked_mut(v) = su;
                                order.push(v as Vertex);
                                if hybrid {
                                    new_deg += *degrees.get_unchecked(v) as u64;
                                    if track_bits {
                                        frontier.insert(v as Vertex);
                                    }
                                }
                            }
                        }
                    }
                }
                // Canonicalise the freshly discovered level: push appends in
                // parent-scan order, which is not ascending in general. σ is
                // already complete for the level (all its parents were just
                // scanned), so reordering only permutes the settle order.
                // When the (otherwise idle) frontier bitmap tracked the
                // discoveries, large levels are rewritten by an ascending
                // bitmap drain — `O(n/64 + f)` beats the `O(f log f)` sort
                // for large f; otherwise un-mark (if tracked) and sort.
                let f = order.len() - hi;
                if track_bits && f * 16 >= n {
                    let mut w = hi;
                    frontier.drain_ascending(|v| {
                        order[w] = v;
                        w += 1;
                    });
                } else {
                    if track_bits {
                        for &v in &order[hi..] {
                            frontier.remove(v);
                        }
                    }
                    order[hi..].sort_unstable();
                }
            }
            lo = hi;
            level += 1;
            if order.len() > hi {
                level_starts.push(order.len());
            }
            if hybrid {
                frontier_deg = new_deg;
                unexplored_deg -= new_deg;
            }
            // Once every vertex is discovered, the remaining (deepest)
            // frontier's scan is provably all no-ops: it can discover
            // nothing, and a σ-contribution would need a neighbour one
            // level deeper, which cannot exist. Skipping it drops a large
            // share of edge visits on small-diameter graphs.
            if order.len() == n {
                break;
            }
        }
        self.order = order;
        self.level_starts = level_starts;
        self.pull_levels = pull_levels;
    }

    /// Whether `u` is a predecessor (parent) of `w` in this SPD, i.e.
    /// `u ∈ P_s(w)` in the paper's notation.
    #[inline]
    pub fn is_parent(&self, u: Vertex, w: Vertex) -> bool {
        let (pu, pw) = (self.packed[u as usize], self.packed[w as usize]);
        let base = self.base();
        // Reached entries of the current epoch are exactly those >= base
        // (no larger epoch exists), and levels never saturate the low bits,
        // so pu + 1 cannot carry into the epoch field.
        pu >= base && pw >= base && pu + 1 == pw
    }

    /// Number of vertices reached (including the source).
    pub fn reached(&self) -> usize {
        self.order.len()
    }

    /// Accumulates Brandes dependency scores `δ_{s•}(v)` (Eq 2/4) into
    /// `delta`, which is cleared and resized to `n`.
    ///
    /// Runs in `O(|E|)` by scanning the recorded levels deepest-first and
    /// applying `δ_{s•}(u) += σ_su / σ_sw · (1 + δ_{s•}(w))` over each SPD
    /// edge; the parent test is one packed-distance comparison per edge.
    /// The scan order is the reverse of the canonical settle order, so the
    /// accumulated floating-point sums are identical whichever
    /// [`KernelMode`] produced the forward pass.
    ///
    /// # Panics
    /// If `g` does not match the workspace size (the graph-match assertion
    /// also guards the unchecked indexing below).
    pub fn accumulate_dependencies(&mut self, g: &CsrGraph, delta: &mut Vec<f64>) {
        self.backward::<false>(g, &[], &[], None, delta);
    }

    /// [`BfsSpd::accumulate_dependencies`] restricted to what the entries at
    /// `probes` depend on: `delta[p]` is bit-identical to the full row's for
    /// every `p` in `probes` (0 for the source and for unreached vertices);
    /// every other entry is unspecified. See "Targeted backward scan" in the
    /// type docs.
    ///
    /// # Panics
    /// As [`BfsSpd::accumulate_dependencies`], plus if a probe is out of
    /// range.
    pub fn accumulate_dependencies_at(
        &mut self,
        g: &CsrGraph,
        probes: &[Vertex],
        delta: &mut Vec<f64>,
    ) {
        self.backward::<false>(g, &[], &[], Some(probes), delta);
    }

    /// Backward accumulation matching [`BfsSpd::compute_collapsed`]: the
    /// class-level Brandes recurrence with per-class target seeds.
    ///
    /// Grouping the vertex-weighted Brandes recurrence
    /// `δ(x) = Σ_{w ∈ children(x)} σ(x)/σ(w) · (ω(w) + δ(w))` over twin
    /// classes (all `mult[w]` members of a child class share `σ̃`, `δ`, and
    /// a total seed `seeds[w] = Σ_members ω`) gives
    ///
    /// ```text
    /// δ(x) = Σ_{w ∈ child classes} σ̃(x)/σ̃(w) · (seeds[w] + mult[w] · δ(w))
    /// ```
    ///
    /// where `δ(z)` is the accumulated dependency of **one member** of
    /// class `z` over all single-member targets, each weighted by its seed.
    /// With unit seeds and multiplicities this is exactly
    /// [`BfsSpd::accumulate_dependencies`].
    ///
    /// # Panics
    /// If `g`, `mult`, or `seeds` mismatch the workspace size.
    pub fn accumulate_dependencies_collapsed(
        &mut self,
        g: &CsrGraph,
        mult: &[f64],
        seeds: &[f64],
        delta: &mut Vec<f64>,
    ) {
        self.backward::<true>(g, mult, seeds, None, delta);
    }

    /// [`BfsSpd::accumulate_dependencies_collapsed`] restricted to the
    /// entries at `probes`, with the guarantees of
    /// [`BfsSpd::accumulate_dependencies_at`].
    ///
    /// # Panics
    /// As [`BfsSpd::accumulate_dependencies_collapsed`], plus if a probe is
    /// out of range.
    pub fn accumulate_dependencies_collapsed_at(
        &mut self,
        g: &CsrGraph,
        mult: &[f64],
        seeds: &[f64],
        probes: &[Vertex],
        delta: &mut Vec<f64>,
    ) {
        self.backward::<true>(g, mult, seeds, Some(probes), delta);
    }

    /// The one backward scan behind the four `accumulate_dependencies*`
    /// entry points: plain (`COLLAPSED = false`, `mult`/`seeds` ignored) or
    /// multiplicity-aware coefficients, over every reached vertex (`probes
    /// = None`) or only over what the probes' entries depend on.
    fn backward<const COLLAPSED: bool>(
        &mut self,
        g: &CsrGraph,
        mult: &[f64],
        seeds: &[f64],
        probes: Option<&[Vertex]>,
        delta: &mut Vec<f64>,
    ) {
        let n = self.packed.len();
        assert_eq!(g.num_vertices(), n, "graph does not match workspace");
        if COLLAPSED {
            assert_eq!(mult.len(), n, "multiplicities do not match workspace");
            assert_eq!(seeds.len(), n, "seeds do not match workspace");
        }
        // 0 before the first compute call: accumulate nothing (all zeros).
        let levels = self.level_starts.len().saturating_sub(1);
        let mut marks = std::mem::take(&mut self.candidates);
        marks.clear();
        let (cut, mut edges) = match probes {
            None => (0, 0),
            Some(probes) => self.mark_descendants(g, probes, &mut marks),
        };
        delta.clear();
        delta.resize(n, 0.0);
        let delta = &mut delta[..];
        let (offsets, targets) = g.csr();
        let step = BackwardStep {
            packed: &self.packed,
            sigma: &self.sigma,
            offsets,
            targets,
            mult,
            seeds,
        };
        let base = self.base();
        // Level 1 is skipped: its vertices' only parent is the source, so
        // its whole scan would accumulate into `delta[source]`, which is
        // zeroed below anyway (the legacy kernel pays for that scan).
        for lvl in (cut.max(2)..levels).rev() {
            let parent_key = base | (lvl as u32 - 1);
            let (start, end) = (self.level_starts[lvl], self.level_starts[lvl + 1]);
            for &w in self.order[start..end].iter().rev() {
                // SAFETY: as in `forward` — all vertex ids are < n and the
                // arrays have length n / n + 1 (`mult`/`seeds` asserted).
                edges += unsafe { step.run::<COLLAPSED>(delta, w as usize, parent_key) };
            }
        }
        // The marked vertices above the cut, deepest level first and
        // descending id within a level: the full scan's order, thinned.
        for &w in marks.iter().rev() {
            let w = w as usize;
            // SAFETY: marks are reached vertex ids (< n); see above.
            unsafe {
                let parent_key = *self.packed.get_unchecked(w) - 1;
                if parent_key == base {
                    break; // level 1 and shallower, skipped as above
                }
                edges += step.run::<COLLAPSED>(delta, w, parent_key);
            }
        }
        delta[self.source as usize] = 0.0;
        self.candidates = marks;
        self.backward_edges = edges;
    }

    /// Marks the reached non-source `probes` and their SPD descendants for
    /// a targeted backward scan, level by level from the shallowest probe,
    /// until the marked share of a level above the deepest reaches
    /// `1 / FULL_SCAN_SHARE`. Returns `(cut, edges examined)`: levels
    /// `>= cut` are to be scanned in full, and `marks` receives the marked
    /// vertices of the shallower levels — ascending level, ascending id
    /// within a level. Leaves `frontier` empty again.
    fn mark_descendants(
        &mut self,
        g: &CsrGraph,
        probes: &[Vertex],
        marks: &mut Vec<Vertex>,
    ) -> (usize, u64) {
        let levels = self.level_starts.len().saturating_sub(1);
        let base = self.base();
        let (packed, level_starts) = (&self.packed[..], &self.level_starts[..]);
        let frontier = &mut self.frontier;
        let (offsets, targets) = g.csr();
        // The level of a reached non-source probe (stale stamps wrap to
        // `>= 2^24 >= levels`).
        let level_of = |p: Vertex| {
            let rel = packed[p as usize].wrapping_sub(base) as usize;
            (rel != 0 && rel < levels).then_some(rel)
        };
        let deeper_probe =
            |l: usize| probes.iter().filter_map(|&p| level_of(p)).filter(|&d| d > l).min();
        let mut next = deeper_probe(0);
        let Some(mut lvl) = next else {
            return (levels, 0);
        };
        let mut edges = 0u64;
        // `marks[lo..]` holds the marks of level `lvl`.
        let mut lo = 0;
        let cut = loop {
            if next == Some(lvl) {
                for &p in probes {
                    if level_of(p) == Some(lvl) && !frontier.contains(p) {
                        frontier.insert(p);
                        marks.push(p);
                    }
                }
                next = deeper_probe(lvl);
            }
            let marked = marks.len() - lo;
            if marked == 0 {
                match next {
                    Some(l) => {
                        lvl = l;
                        continue;
                    }
                    None => break levels,
                }
            }
            // The deepest level marks nothing below it, so it never trips
            // the guard: scanning its marks alone is always cheaper.
            let deepest = lvl + 1 == levels;
            if !deepest && marked * FULL_SCAN_SHARE >= level_starts[lvl + 1] - level_starts[lvl] {
                break lvl;
            }
            marks[lo..].sort_unstable();
            if deepest {
                break levels;
            }
            let child_key = base | (lvl as u32 + 1);
            let hi = marks.len();
            for i in lo..hi {
                // SAFETY: `backward` asserted `g` has the workspace's `n`
                // vertices; every mark is a probe that `level_of` indexed
                // with bounds checks or a CSR target (validated `< n` at
                // graph construction), so `offsets`, `targets`, `packed`
                // and the bitset are all indexed in range. Unchecked
                // indexing saves ~10% of a hub probe's targeted scan.
                unsafe {
                    let w = *marks.get_unchecked(i) as usize;
                    let (a, b) = (
                        *offsets.get_unchecked(w) as usize,
                        *offsets.get_unchecked(w + 1) as usize,
                    );
                    edges += (b - a) as u64;
                    for &u in targets.get_unchecked(a..b) {
                        if *packed.get_unchecked(u as usize) == child_key
                            && !frontier.contains_unchecked(u)
                        {
                            frontier.insert(u);
                            marks.push(u);
                        }
                    }
                }
            }
            lo = hi;
            lvl += 1;
        };
        for &v in marks.iter() {
            frontier.remove(v);
        }
        if cut < levels {
            // The cut level is scanned in full instead.
            marks.truncate(lo);
        }
        (cut, edges)
    }
}

/// The read-only inputs of one backward step (see `BfsSpd::backward`).
struct BackwardStep<'a> {
    packed: &'a [u32],
    sigma: &'a [f64],
    offsets: &'a [u32],
    targets: &'a [Vertex],
    mult: &'a [f64],
    seeds: &'a [f64],
}

impl BackwardStep<'_> {
    /// Folds `δ(w)` into the entries of `w`'s parents (the vertices stamped
    /// `parent_key`) with the plain or collapsed coefficient, and returns
    /// `deg(w)`, the edges examined.
    ///
    /// # Safety
    /// `w` must be below `n`, with `packed`, `sigma` and `delta` of length
    /// `n` (and `mult`, `seeds` too when `COLLAPSED`), and `offsets`/
    /// `targets` a valid CSR over `0..n`.
    #[inline(always)]
    unsafe fn run<const COLLAPSED: bool>(
        &self,
        delta: &mut [f64],
        w: usize,
        parent_key: u32,
    ) -> u64 {
        let coeff = if COLLAPSED {
            (*self.seeds.get_unchecked(w) + *self.mult.get_unchecked(w) * *delta.get_unchecked(w))
                / *self.sigma.get_unchecked(w)
        } else {
            (1.0 + *delta.get_unchecked(w)) / *self.sigma.get_unchecked(w)
        };
        let (a, b) =
            (*self.offsets.get_unchecked(w) as usize, *self.offsets.get_unchecked(w + 1) as usize);
        for &u in self.targets.get_unchecked(a..b) {
            let u = u as usize;
            if *self.packed.get_unchecked(u) == parent_key {
                *delta.get_unchecked_mut(u) += *self.sigma.get_unchecked(u) * coeff;
            }
        }
        (b - a) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhbc_graph::generators;

    #[test]
    fn kernel_mode_parse_roundtrip() {
        for mode in [KernelMode::Auto, KernelMode::TopDown, KernelMode::Hybrid] {
            assert_eq!(KernelMode::parse(mode.as_str()), Some(mode));
        }
        assert_eq!(KernelMode::parse("bottomup"), None);
        assert_eq!(KernelMode::default(), KernelMode::Auto);
    }

    #[test]
    fn path_graph_sigma_and_dist() {
        let g = generators::path(5);
        let mut spd = BfsSpd::new(5);
        spd.compute(&g, 0);
        for v in 0..5 {
            assert_eq!(spd.dist(v), v);
            assert_eq!(spd.sigma(v), 1.0);
        }
        assert_eq!(spd.order().len(), 5);
        assert_eq!(spd.level_starts(), &[0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn diamond_counts_two_paths() {
        // 0 - 1, 0 - 2, 1 - 3, 2 - 3: two shortest paths 0 -> 3.
        let g = CsrGraphFixture::diamond();
        let mut spd = BfsSpd::new(4);
        spd.compute(&g, 0);
        assert_eq!(spd.dist(3), 2);
        assert_eq!(spd.sigma(3), 2.0);
        assert!(spd.is_parent(1, 3));
        assert!(spd.is_parent(2, 3));
        assert!(!spd.is_parent(0, 3));
        assert_eq!(spd.level_starts(), &[0, 1, 3, 4]);
    }

    #[test]
    fn workspace_reuse_is_clean() {
        let g = generators::star(6);
        let mut spd = BfsSpd::new(6);
        spd.compute(&g, 0);
        assert_eq!(spd.reached(), 6);
        spd.compute(&g, 1);
        assert_eq!(spd.dist(1), 0);
        assert_eq!(spd.dist(0), 1);
        assert_eq!(spd.dist(2), 2);
        assert_eq!(spd.sigma(2), 1.0);
    }

    #[test]
    fn disconnected_vertices_unreached() {
        let g = mhbc_graph::CsrGraph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let mut spd = BfsSpd::new(4);
        spd.compute(&g, 0);
        assert_eq!(spd.dist(2), UNREACHED);
        assert_eq!(spd.sigma(2), 0.0);
        assert_eq!(spd.reached(), 2);
    }

    #[test]
    fn stale_epochs_never_alias_parent_tests() {
        // Pass 1 reaches {2, 3}; pass 2 reaches {0, 1}. Stale stamps for
        // 2 and 3 (dist 0 and 1 in the old epoch) must not satisfy the
        // parent test or report as reached.
        let g = mhbc_graph::CsrGraph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let mut spd = BfsSpd::new(4);
        spd.compute(&g, 2);
        assert_eq!(spd.dist(3), 1);
        spd.compute(&g, 0);
        assert_eq!(spd.dist(2), UNREACHED);
        assert_eq!(spd.dist(3), UNREACHED);
        assert!(!spd.is_parent(2, 3));
        assert!(!spd.is_parent(2, 1));
        assert!(spd.is_parent(0, 1));
    }

    #[test]
    fn fresh_workspace_reports_nothing_reached() {
        let g = generators::path(4);
        let mut spd = BfsSpd::new(4);
        assert_eq!(spd.reached(), 0);
        for v in 0..4 {
            assert_eq!(spd.dist(v), UNREACHED, "vertex {v}");
            assert_eq!(spd.sigma(v), 0.0, "vertex {v}");
            assert!(!spd.is_parent(v, (v + 1) % 4));
        }
        // Accumulating before any compute yields all zeros, like the legacy
        // kernel did.
        let mut delta = vec![9.9];
        spd.accumulate_dependencies(&g, &mut delta);
        assert_eq!(delta, vec![0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "graph does not match workspace")]
    fn accumulate_rejects_mismatched_graph() {
        let big = generators::path(8);
        let small = generators::path(3);
        let mut spd = BfsSpd::new(8);
        spd.compute(&big, 0);
        let mut delta = Vec::new();
        spd.accumulate_dependencies(&small, &mut delta);
    }

    #[test]
    fn epoch_wraparound_resets_cleanly() {
        // Drive the 8-bit epoch space through several wraps and check
        // results stay correct throughout.
        let g = mhbc_graph::CsrGraph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let mut spd = BfsSpd::new(5);
        for pass in 0..(3 * super::EPOCH_PERIOD as usize + 7) {
            let (s, expect_reached) = if pass % 2 == 0 { (0u32, 3) } else { (3u32, 2) };
            spd.compute(&g, s);
            assert_eq!(spd.reached(), expect_reached, "pass {pass}");
            assert_eq!(spd.dist(s), 0, "pass {pass}");
            if pass % 2 == 0 {
                assert_eq!(spd.dist(2), 2);
                assert_eq!(spd.dist(4), UNREACHED);
            } else {
                assert_eq!(spd.dist(4), 1);
                assert_eq!(spd.dist(0), UNREACHED);
            }
        }
    }

    #[test]
    fn dependencies_on_path_match_hand_computation() {
        // Path 0-1-2-3-4, source 0: delta_0(v) = number of targets beyond v.
        let g = generators::path(5);
        let mut spd = BfsSpd::new(5);
        spd.compute(&g, 0);
        let mut delta = Vec::new();
        spd.accumulate_dependencies(&g, &mut delta);
        assert_eq!(delta, vec![0.0, 3.0, 2.0, 1.0, 0.0]);
    }

    #[test]
    fn dependencies_split_across_diamond() {
        let g = CsrGraphFixture::diamond();
        let mut spd = BfsSpd::new(4);
        spd.compute(&g, 0);
        let mut delta = Vec::new();
        spd.accumulate_dependencies(&g, &mut delta);
        // Vertices 1 and 2 each carry half of the single dependent target 3.
        assert_eq!(delta[1], 0.5);
        assert_eq!(delta[2], 0.5);
        assert_eq!(delta[0], 0.0);
        assert_eq!(delta[3], 0.0);
    }

    #[test]
    fn matches_legacy_kernel_bitwise_on_generators() {
        use crate::legacy::LegacyBfsSpd;
        for g in [
            generators::barbell(6, 3),
            generators::grid(7, 5, false),
            generators::lollipop(5, 4),
            generators::star(12),
        ] {
            let n = g.num_vertices();
            let mut new = BfsSpd::new(n);
            let mut old = LegacyBfsSpd::new(n);
            for s in 0..n as Vertex {
                new.compute(&g, s);
                old.compute(&g, s);
                old.canonicalize_order();
                assert_eq!(new.order(), &old.order[..], "order, source {s}");
                for v in 0..n as Vertex {
                    assert_eq!(new.dist(v), old.dist[v as usize], "dist {v}, source {s}");
                    assert_eq!(
                        new.sigma(v).to_bits(),
                        old.sigma[v as usize].to_bits(),
                        "sigma {v}, source {s}"
                    );
                }
                let (mut d1, mut d2) = (Vec::new(), Vec::new());
                new.accumulate_dependencies(&g, &mut d1);
                old.accumulate_dependencies(&g, &mut d2);
                for v in 0..n {
                    assert_eq!(d1[v].to_bits(), d2[v].to_bits(), "delta {v}, source {s}");
                }
            }
        }
    }

    /// Forced bottom-up levels reproduce top-down bit for bit, including
    /// settle order and level boundaries.
    #[test]
    fn forced_pull_matches_topdown_bitwise() {
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(23);
        for g in [
            generators::barabasi_albert(200, 3, &mut rng),
            generators::grid(9, 7, true),
            generators::wheel(17),
            mhbc_graph::CsrGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]).unwrap(),
        ] {
            let n = g.num_vertices();
            let mut push = BfsSpd::with_mode(n, KernelMode::TopDown);
            let mut pull = BfsSpd::with_mode(n, KernelMode::Hybrid);
            pull.set_hybrid_params(u32::MAX, u32::MAX); // pull from level 1 on
            let (mut d1, mut d2) = (Vec::new(), Vec::new());
            for s in 0..n as Vertex {
                push.compute(&g, s);
                pull.compute(&g, s);
                assert!(pull.pull_levels() > 0 || pull.reached() <= 1, "source {s}");
                assert_eq!(push.order(), pull.order(), "order, source {s}");
                assert_eq!(push.level_starts(), pull.level_starts(), "levels, source {s}");
                for v in 0..n as Vertex {
                    assert_eq!(push.dist(v), pull.dist(v), "dist {v}, source {s}");
                    assert_eq!(
                        push.sigma(v).to_bits(),
                        pull.sigma(v).to_bits(),
                        "sigma {v}, source {s}"
                    );
                }
                push.accumulate_dependencies(&g, &mut d1);
                pull.accumulate_dependencies(&g, &mut d2);
                for v in 0..n {
                    assert_eq!(d1[v].to_bits(), d2[v].to_bits(), "delta {v}, source {s}");
                }
            }
        }
    }

    /// The collapsed kernel agrees across directions with non-trivial
    /// multiplicities.
    #[test]
    fn forced_pull_matches_topdown_collapsed() {
        let g = generators::wheel(13);
        let n = g.num_vertices();
        let mult: Vec<f64> = (0..n).map(|v| 1.0 + (v % 3) as f64).collect();
        let seeds: Vec<f64> = (0..n).map(|v| 1.0 + (v % 2) as f64).collect();
        let mut push = BfsSpd::with_mode(n, KernelMode::TopDown);
        let mut pull = BfsSpd::with_mode(n, KernelMode::Hybrid);
        pull.set_hybrid_params(u32::MAX, u32::MAX);
        let (mut d1, mut d2) = (Vec::new(), Vec::new());
        for s in 0..n as Vertex {
            push.compute_collapsed(&g, s, &mult);
            pull.compute_collapsed(&g, s, &mult);
            assert!(pull.pull_levels() > 0, "source {s}");
            assert_eq!(push.order(), pull.order(), "order, source {s}");
            for v in 0..n as Vertex {
                assert_eq!(
                    push.sigma(v).to_bits(),
                    pull.sigma(v).to_bits(),
                    "sigma {v}, source {s}"
                );
            }
            push.accumulate_dependencies_collapsed(&g, &mult, &seeds, &mut d1);
            pull.accumulate_dependencies_collapsed(&g, &mult, &seeds, &mut d2);
            for v in 0..n {
                assert_eq!(d1[v].to_bits(), d2[v].to_bits(), "delta {v}, source {s}");
            }
        }
    }

    /// The default α/β heuristics actually enter pull mode on a
    /// low-diameter, edge-rich graph.
    #[test]
    fn heuristics_trigger_pull_on_dense_graphs() {
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        let g = generators::barabasi_albert(600, 4, &mut rng);
        let mut spd = BfsSpd::with_mode(g.num_vertices(), KernelMode::Hybrid);
        let mut saw_pull = false;
        for s in 0..20u32 {
            spd.compute(&g, s);
            saw_pull |= spd.pull_levels() > 0;
        }
        assert!(saw_pull, "default thresholds never engaged bottom-up on a BA graph");
    }

    /// Mode switches on one reused workspace never corrupt the epoch-stamped
    /// state: alternating modes equals a fresh workspace every pass.
    #[test]
    fn mode_switches_mid_workspace_stay_clean() {
        let g = generators::barbell(7, 2);
        let n = g.num_vertices();
        let modes = [KernelMode::TopDown, KernelMode::Hybrid, KernelMode::Auto];
        let mut reused = BfsSpd::new(n);
        let (mut d1, mut d2) = (Vec::new(), Vec::new());
        for pass in 0..60u32 {
            let s = (pass * 5) % n as u32;
            reused.set_mode(modes[pass as usize % 3]);
            if pass % 3 == 1 {
                reused.set_hybrid_params(u32::MAX, u32::MAX);
            } else {
                reused.set_hybrid_params(14, 24);
            }
            reused.compute(&g, s);
            reused.accumulate_dependencies(&g, &mut d1);
            let mut fresh = BfsSpd::new(n);
            fresh.compute(&g, s);
            fresh.accumulate_dependencies(&g, &mut d2);
            assert_eq!(reused.order(), fresh.order(), "pass {pass}");
            for v in 0..n {
                assert_eq!(d1[v].to_bits(), d2[v].to_bits(), "delta {v}, pass {pass}");
            }
        }
    }

    /// The targeted scan from `s` agrees bit for bit with the full row at
    /// every probe and leaves the frontier bitmap empty; returns the edges
    /// it examined.
    fn targeted_edges(g: &CsrGraph, s: Vertex, probes: &[Vertex]) -> u64 {
        let mut spd = BfsSpd::new(g.num_vertices());
        spd.compute(g, s);
        let (mut full, mut part) = (Vec::new(), Vec::new());
        spd.accumulate_dependencies(g, &mut full);
        spd.accumulate_dependencies_at(g, probes, &mut part);
        for &p in probes {
            assert_eq!(part[p as usize].to_bits(), full[p as usize].to_bits(), "probe {p}");
        }
        assert_eq!(spd.frontier.count(), 0, "marks left behind");
        spd.backward_edges()
    }

    /// Edges examined by the unrestricted scan from `s`.
    fn full_edges(g: &CsrGraph, s: Vertex) -> u64 {
        let mut spd = BfsSpd::new(g.num_vertices());
        spd.compute(g, s);
        spd.accumulate_dependencies(g, &mut Vec::new());
        spd.backward_edges()
    }

    #[test]
    fn unrestricted_scan_counts_degree_sum_of_levels_two_and_deeper() {
        for g in [
            generators::barbell(5, 3),
            generators::grid(6, 4, false),
            generators::star(9),
            generators::lollipop(4, 5),
            mhbc_graph::CsrGraph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)]).unwrap(),
        ] {
            let n = g.num_vertices();
            let mut spd = BfsSpd::new(n);
            let mult = vec![1.0; n];
            let mut delta = Vec::new();
            for s in 0..n as Vertex {
                spd.compute(&g, s);
                let want: u64 = (0..n as Vertex)
                    .filter(|&v| spd.dist(v) != UNREACHED && spd.dist(v) >= 2)
                    .map(|v| g.degree(v) as u64)
                    .sum();
                spd.accumulate_dependencies(&g, &mut delta);
                assert_eq!(spd.backward_edges(), want, "plain, source {s}");
                spd.accumulate_dependencies_collapsed(&g, &mult, &mult, &mut delta);
                assert_eq!(spd.backward_edges(), want, "collapsed, source {s}");
            }
        }
    }

    /// A far-end probe has no descendants: only its own edges are read.
    #[test]
    fn targeted_scan_restricted_branch_alone_on_path() {
        let g = generators::path(9);
        assert_eq!(full_edges(&g, 0), 13);
        assert_eq!(targeted_edges(&g, 0, &[8]), 1);
        // From the centre the deepest level is {0, 8}: half marked, yet the
        // deepest level never trips the guard.
        assert_eq!(full_edges(&g, 4), 10);
        assert_eq!(targeted_edges(&g, 4, &[8]), 1);
    }

    /// The centre of a star, seen from a leaf, is its whole level 1: the
    /// guard trips at once and the scan is the full one.
    #[test]
    fn targeted_scan_guard_trips_on_star_centre() {
        let g = generators::star(12);
        assert_eq!(full_edges(&g, 1), 10);
        assert_eq!(targeted_edges(&g, 1, &[0]), 10);
    }

    /// Marks run for two levels, then the guard trips at level 3.
    #[test]
    fn targeted_scan_marks_then_trips_guard() {
        // Level 1: 1..=5; level 2: 6..=15 (1 -> 6, 7); level 3: 16 (under 6
        // and 7) and 17 (under 8); level 4: 18 (under 16).
        let mut edges: Vec<(Vertex, Vertex)> = (1..=5).map(|v| (0, v)).collect();
        edges.extend([(1, 6), (1, 7), (2, 8), (2, 9), (3, 10), (3, 11), (4, 12), (4, 13)]);
        edges.extend([(5, 14), (5, 15), (6, 16), (7, 16), (8, 17), (16, 18)]);
        let g = mhbc_graph::CsrGraph::from_edges(19, &edges).unwrap();
        assert_eq!(full_edges(&g, 0), 18);
        // Marking reads deg(1) + deg(6) + deg(7) = 3 + 2 + 2; {16} is half
        // of level 3, so levels 3 and 4 are scanned in full (3 + 1 + 1);
        // then the marks 7 and 6 (2 + 2). Vertex 1 is at level 1: skipped.
        assert_eq!(targeted_edges(&g, 0, &[1]), 16);
        let mut spd = BfsSpd::new(19);
        spd.compute(&g, 0);
        let mut delta = Vec::new();
        spd.accumulate_dependencies_at(&g, &[1], &mut delta);
        assert_eq!(delta[1], 4.0); // targets 6, 7, 16, 18
    }

    /// Marks discovered out of id order must be scanned in the canonical
    /// order: here `δ(3)` rounds differently if level 2's marks are left in
    /// discovery order (0.7499999999999999 instead of 0.75).
    #[test]
    fn targeted_scan_visits_marks_in_canonical_order() {
        #[rustfmt::skip]
        let edges = [
            (0, 2), (0, 4), (0, 5), (0, 6), (0, 11), (1, 2), (1, 3), (1, 7), (1, 9), (2, 3),
            (2, 4), (2, 5), (2, 7), (2, 10), (2, 11), (2, 12), (3, 4), (3, 5), (3, 6), (3, 7),
            (3, 8), (3, 9), (4, 5), (4, 6), (4, 7), (4, 10), (4, 11), (4, 12), (5, 7), (5, 8),
            (5, 11), (5, 12), (6, 7), (6, 8), (6, 9), (6, 11), (6, 12), (7, 8), (7, 10), (7, 12),
            (8, 9), (8, 11), (8, 12), (9, 10), (9, 11), (10, 11), (10, 12), (11, 12),
        ];
        let g = mhbc_graph::CsrGraph::from_edges(13, &edges).unwrap();
        targeted_edges(&g, 4, &[5, 3]);
        let mut spd = BfsSpd::new(13);
        spd.compute(&g, 4);
        let mut delta = Vec::new();
        spd.accumulate_dependencies_at(&g, &[5, 3], &mut delta);
        assert_eq!(delta[3], 0.75);
    }

    /// Sources and unreached probes need no scan at all, and read 0.
    #[test]
    fn targeted_scan_without_reached_probes_is_free() {
        let g = mhbc_graph::CsrGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]).unwrap();
        assert_eq!(targeted_edges(&g, 0, &[0, 4, 0]), 0);
        let mut spd = BfsSpd::new(6);
        spd.compute(&g, 3);
        let mut delta = Vec::new();
        spd.accumulate_dependencies_at(&g, &[3, 1, 2], &mut delta);
        assert_eq!((delta[3], delta[1], delta[2]), (0.0, 0.0, 0.0));
    }

    struct CsrGraphFixture;
    impl CsrGraphFixture {
        fn diamond() -> mhbc_graph::CsrGraph {
            mhbc_graph::CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
        }
    }
}
