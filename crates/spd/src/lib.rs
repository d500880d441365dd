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
//! - [`ViewCalculator`] — the per-sample kernel: dependency scores
//!   `δ_{s•}(v)` via Brandes's recursion (Eq 4) from one SPD pass, the full
//!   row or only what a few probes' scores depend on (their shortest-path
//!   descendants), dispatching on graph weightedness, with buffers reused
//!   across calls. It evaluates through an [`SpdView`]: the
//!   graph itself, or a reduction of it (`mhbc_graph::reduce`), whose
//!   pruning, twin collapsing and relabelling shrink the pass while the
//!   mapping back to original vertex ids stays exact (see the `reduced`
//!   module docs for the formulas).
//! - [`exact_betweenness_par`] — exact Brandes over all sources (ground
//!   truth for every experiment); [`exact_betweenness`] is its 1-thread
//!   case, bit for bit.
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
//! - [`exact_betweenness_reduced`] — exact Brandes through a reduction
//!   (`n_H` collapsed passes instead of `n` full ones).
//! - [`legacy`] — the pre-rewrite `VecDeque` BFS kernel, kept only as the
//!   bitwise test reference for the frontier kernel.
//! - [`sweep`] — the one fork-join behind every parallel SPD job (exact
//!   Brandes's source chunks, a profile's rows, the oracle's prefetch): one
//!   workspace per thread, results in item order.
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
pub use dependency::ViewCalculator;
pub use reduced::{dependency_profile_view_par, exact_betweenness_reduced, RowKeys, SpdView};
pub use unweighted::{BfsSpd, KernelMode, UNREACHED};
pub use weighted::DijkstraSpd;

/// Relative tolerance for deciding "equal length" shortest paths on weighted
/// graphs; see [`DijkstraSpd`] docs.
pub const WEIGHT_TIE_RELATIVE_EPS: f64 = 1e-12;

/// Runs `f(worker, item)` for every item, fanning the items out over
/// `workers` on scoped threads: one contiguous share per worker (at most
/// `items.len()` workers), the calling thread running the first share with
/// `workers[0]`. Results come back in item order, so a caller whose `f` is
/// a pure function of its item gets the same output at every worker
/// count. One worker, or no items, spawns nothing.
///
/// Every parallel SPD job here goes through it: exact Brandes's source
/// chunks, a dependency profile's rows and the oracle's prefetch.
///
/// # Panics
/// If there are items but no workers, or if `f` panics.
pub fn sweep<W: Send, I: Sync, T: Send>(
    workers: &mut [W],
    items: &[I],
    f: impl Fn(&mut W, &I) -> T + Sync,
) -> Vec<T> {
    if items.is_empty() {
        return Vec::new();
    }
    assert!(!workers.is_empty(), "sweep needs at least one worker");
    let len = items.len().div_ceil(workers.len().min(items.len()));
    let f = &f;
    let run = move |w: &mut W, share: &[I]| share.iter().map(|i| f(w, i)).collect::<Vec<_>>();
    let mut shares = items.chunks(len).zip(workers);
    let (own, own_worker) = shares.next().expect("at least one share");
    std::thread::scope(|s| {
        let handles: Vec<_> = shares.map(|(share, w)| s.spawn(move || run(w, share))).collect();
        let mut out = run(own_worker, own);
        for h in handles {
            out.extend(h.join().expect("sweep worker panicked"));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::sweep;

    #[test]
    fn sweep_returns_results_in_item_order() {
        let items: Vec<u32> = (0..5).collect();
        // More workers than items: one item per share, the rest idle.
        let mut calls = vec![0usize; 8];
        let out = sweep(&mut calls, &items, |c, &i| {
            *c += 1;
            i * 10
        });
        assert_eq!(out, [0, 10, 20, 30, 40]);
        assert_eq!(calls, [1, 1, 1, 1, 1, 0, 0, 0]);

        // Fewer workers than items: contiguous shares, first share largest.
        let mut calls = vec![0usize; 2];
        let out = sweep(&mut calls, &items, |c, &i| {
            *c += 1;
            i
        });
        assert_eq!(out, items);
        assert_eq!(calls, [3, 2]);

        // No items: nothing runs, even with no workers.
        assert!(sweep(&mut calls, &[] as &[u32], |_, &i| i).is_empty());
        assert!(sweep(&mut [] as &mut [usize], &[] as &[u32], |_, &i| i).is_empty());

        // One worker: every item on the calling thread.
        let caller = std::thread::current().id();
        let mut calls = vec![0usize];
        let out = sweep(&mut calls, &items, |c, &i| {
            assert_eq!(std::thread::current().id(), caller);
            *c += 1;
            i + 1
        });
        assert_eq!(out, [1, 2, 3, 4, 5]);
        assert_eq!(calls, [5]);
    }
}
