//! # mhbc-spd
//!
//! Shortest-path DAGs (SPDs), Brandes dependency accumulation, exact
//! betweenness, and shortest-path samplers.
//!
//! This crate implements the machinery of §2.1 of the paper:
//!
//! - [`BfsSpd`] / [`DijkstraSpd`] — the shortest-path DAG rooted at a source
//!   `s`, i.e. distances `d(s, ·)`, path counts `σ_{s·}`, and a traversal
//!   order supporting backward accumulation. `O(|E|)` for unweighted graphs
//!   and `O(|E| + |V| log |V|)` for positively weighted graphs, exactly the
//!   per-sample costs quoted in §4.1. The unweighted forward pass is
//!   direction-optimizing ([`KernelMode`]: top-down, bottom-up-hybrid, or
//!   auto), with every mode bit-identical by the canonical settle order.
//! - [`DependencyCalculator`] — the per-sample kernel: dependency scores
//!   `δ_{s•}(v)` for all `v` via Brandes's recursion (Eq 4), or only what a
//!   few probes' scores depend on (their shortest-path descendants),
//!   dispatching on graph weightedness, with reusable buffers (no per-call
//!   allocation).
//! - [`exact_betweenness`] / [`exact_betweenness_par`] — exact Brandes over
//!   all sources (ground truth for every experiment).
//! - [`dependency_profile`] / [`dependency_profile_par`] — `δ_{v•}(r)` for
//!   **all** sources `v` at a fixed probe vertex `r`: the normalisation
//!   constant of the optimal distribution (Eq 5), the exact `BC(r)`, and
//!   `µ(r)` (Theorem 1) all derive from this profile.
//! - [`path_sampler`] — σ-weighted uniform shortest-path sampling from an
//!   SPD (the RK baseline's primitive \[30\]).
//! - [`bidirectional`] — balanced bidirectional BFS `(s, t)` path counting
//!   and sampling (the KADABRA baseline's primitive \[7\]).
//! - [`naive`] — independent `O(n³)` reference implementations used by the
//!   test suites to cross-validate everything above.
//! - [`SpdView`] / [`ReducedCalculator`] / [`ViewCalculator`] — dependency
//!   evaluation *through a reduced graph* (`mhbc_graph::reduce`): pruning,
//!   twin collapsing, and relabelling shrink the per-sample pass while the
//!   mapping back to original vertex ids stays exact (see the `reduced`
//!   module docs for the formulas).
//! - [`exact_betweenness_preprocessed`] — exact Brandes through a
//!   reduction (`n_H` collapsed passes instead of `n` full ones).
//! - [`legacy`] — the pre-rewrite `VecDeque` BFS kernel, kept only as the
//!   bitwise test reference for the frontier kernel.
//!
//! ## Conventions
//!
//! Betweenness is normalised as in Eq 1: `BC(v) = (1 / (n (n-1))) Σ_{s,t}
//! σ_st(v) / σ_st`, with `σ_st(v) = 0` whenever `v ∈ {s, t}`. Path counts σ
//! are `f64` (ratios stay exact until counts exceed 2^53; see DESIGN.md §3).
//!
//! ```
//! use mhbc_graph::generators;
//! use mhbc_spd::{exact_betweenness, BfsSpd};
//!
//! // Path 0-1-2-3: only the interior vertices carry betweenness, and by
//! // symmetry they carry the same amount (4 ordered pairs of 12 => 1/3).
//! let g = generators::path(4);
//! let bc = exact_betweenness(&g);
//! assert_eq!(bc[0], 0.0);
//! assert!((bc[1] - 1.0 / 3.0).abs() < 1e-12);
//! assert_eq!(bc[1], bc[2]);
//!
//! // The SPD rooted at 0 sees one shortest path to each vertex.
//! let mut spd = BfsSpd::new(g.num_vertices());
//! spd.compute(&g, 0);
//! assert_eq!(spd.dist(3), 3);
//! assert_eq!(spd.sigma(3), 1.0);
//! ```

pub mod bidirectional;
mod brandes;
mod dependency;
pub mod legacy;
pub mod naive;
pub mod path_sampler;
mod reduced;
mod unweighted;
mod weighted;

pub use brandes::{
    dependency_profile, dependency_profile_par, exact_betweenness, exact_betweenness_of,
    exact_betweenness_par, DependencyProfile,
};
pub use dependency::DependencyCalculator;
pub use reduced::{
    dependency_profile_view_par, exact_betweenness_preprocessed, exact_betweenness_reduced,
    ReducedCalculator, RowKeys, SpdView, ViewCalculator,
};
pub use unweighted::{BfsSpd, KernelMode, UNREACHED};
pub use weighted::DijkstraSpd;

/// Relative tolerance for deciding "equal length" shortest paths on weighted
/// graphs; see [`DijkstraSpd`] docs.
pub const WEIGHT_TIE_RELATIVE_EPS: f64 = 1e-12;
