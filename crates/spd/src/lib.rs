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
//!   workspace per thread, each claiming the next item when it finishes
//!   one, results in item order.
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

use std::sync::atomic::{AtomicUsize, Ordering};

/// Relative tolerance for deciding "equal length" shortest paths on weighted
/// graphs; see [`DijkstraSpd`] docs.
pub const WEIGHT_TIE_RELATIVE_EPS: f64 = 1e-12;

/// Runs `f(worker, item)` for every item, fanning the items out over
/// `workers` on scoped threads (at most `items.len()` of them, the calling
/// thread running `workers[0]`). Each worker claims the next unclaimed item
/// from a shared counter until none is left, so a worker on a slow core
/// simply takes fewer items and none waits on another's fixed share.
/// Results come back in item order whoever computed them, so a caller
/// whose `f` is a pure function of its item gets the same output at every
/// worker count. One worker, or no items, spawns nothing.
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
    let next = AtomicUsize::new(0);
    let (f, next) = (&f, &next);
    // Claims items until none is left; returns `(index, result)` pairs.
    // The counter publishes no data (results travel back through `join`),
    // so `Relaxed` suffices.
    let run = move |w: &mut W| {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { return done };
            done.push((i, f(w, item)));
        }
    };
    let active = workers.len().min(items.len());
    let (own, others) = workers[..active].split_first_mut().expect("at least one worker");
    let mut done = std::thread::scope(|s| {
        let handles: Vec<_> = others.iter_mut().map(|w| s.spawn(move || run(w))).collect();
        let mut done = run(own);
        for h in handles {
            done.extend(h.join().expect("sweep worker panicked"));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::sweep;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn sweep_returns_results_in_item_order() {
        let items: Vec<u32> = (0..5).collect();
        // More workers than items: only as many workers as items take part.
        let mut calls = vec![0usize; 8];
        let out = sweep(&mut calls, &items, |c, &i| {
            *c += 1;
            i * 10
        });
        assert_eq!(out, [0, 10, 20, 30, 40]);
        assert_eq!(calls.iter().sum::<usize>(), 5);
        assert!(calls[5..].iter().all(|&c| c == 0), "{calls:?}");

        // Fewer workers than items: whoever computed them, in item order.
        let mut calls = vec![0usize; 2];
        let out = sweep(&mut calls, &items, |c, &i| {
            *c += 1;
            i
        });
        assert_eq!(out, items);
        assert_eq!(calls.iter().sum::<usize>(), 5);

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

    #[test]
    fn a_stalled_worker_leaves_the_items_to_the_others() {
        // Worker 0 stalls on the first item it claims until every other
        // item is done: the other worker must claim all of them, since no
        // item is bound to a worker in advance.
        let items: Vec<usize> = (0..20).collect();
        let finished = AtomicUsize::new(0);
        let mut workers = [(0usize, 0usize), (1, 0)];
        let out = sweep(&mut workers, &items, |(id, calls), &i| {
            *calls += 1;
            if *id == 0 && *calls == 1 {
                while finished.load(Ordering::Acquire) < items.len() - 1 {
                    std::thread::yield_now();
                }
            } else {
                finished.fetch_add(1, Ordering::Release);
            }
            i * 2
        });
        assert_eq!(out, items.iter().map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(workers, [(0, 1), (1, 19)]);
    }
}
