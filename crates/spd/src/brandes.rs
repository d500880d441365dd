//! Exact betweenness (Brandes \[8\]) and fixed-probe dependency profiles.

use crate::{SpdView, ViewCalculator};
use mhbc_graph::{CsrGraph, Vertex};

/// Exact betweenness centrality of every vertex, normalised as in Eq 1
/// (divide raw dependency sums by `n (n - 1)`): [`exact_betweenness_par`]
/// on one thread, so the two are **bitwise identical** at every thread
/// count.
///
/// `O(nm)` unweighted / `O(nm + n² log n)` weighted — the §1 cost that makes
/// exact computation impractical on large graphs and motivates the paper.
pub fn exact_betweenness(g: &CsrGraph) -> Vec<f64> {
    exact_betweenness_par(g, 1)
}

/// Fewest sources a worker thread must have to be worth spawning: below
/// this, thread startup and the per-thread `O(n)` accumulator dominate the
/// actual SPD work, so `effective_threads` clamps the thread count on
/// tiny graphs rather than fanning out for nothing.
const MIN_SOURCES_PER_THREAD: usize = 32;

/// Chunks per thread in one wave of `exact_betweenness_par`. Workers claim
/// a wave's chunks one at a time, so only a wave's last chunks can leave a
/// thread idle at its end; more chunks per wave idle less often but hold
/// more partials at once.
const WAVE_CHUNKS_PER_THREAD: usize = 4;

/// Source-chunk size of the deterministic parallel reduction — a pure
/// function of `n` (never of the thread count), so the chunk partial sums
/// and their left-to-right fold associate identically at every thread
/// count: `exact_betweenness_par` is **bit-identical** across
/// `threads = 1, 2, 8, …`. Scales with `n` to cap the chunk count at ~128.
fn source_chunk(n: usize) -> usize {
    MIN_SOURCES_PER_THREAD.max(n.div_ceil(128))
}

/// Parallel exact betweenness: the source range is cut into fixed chunks
/// (see `source_chunk`), each wave of up to `4 · threads` chunks is computed
/// by [`crate::sweep`] with one SPD workspace per thread (a thread claims
/// the wave's next chunk whenever it finishes one), and the chunk partials
/// are folded in chunk order — making the result a pure function of the
/// graph, identical bit for bit at every thread count. Memory stays
/// `O(threads · n)`: one partial per chunk of the current wave.
///
/// `threads = 0` means "use available parallelism"; the count is clamped so
/// every thread gets at least `MIN_SOURCES_PER_THREAD` sources — tiny
/// graphs never pay for threads they cannot feed.
pub fn exact_betweenness_par(g: &CsrGraph, threads: usize) -> Vec<f64> {
    let n = g.num_vertices();
    if n < 2 {
        return vec![0.0; n];
    }
    let threads = effective_threads(threads, n);
    let chunk = source_chunk(n);
    let chunks: Vec<usize> = (0..n.div_ceil(chunk)).collect();
    let mut calcs: Vec<_> = (0..threads).map(|_| ViewCalculator::new(SpdView::direct(g))).collect();
    let mut bc = vec![0.0f64; n];
    for wave in chunks.chunks(threads * WAVE_CHUNKS_PER_THREAD) {
        let partials = crate::sweep(&mut calcs, wave, |calc, &c| {
            chunk_partial(calc, c * chunk..n.min((c + 1) * chunk))
        });
        for part in partials {
            for (b, p) in bc.iter_mut().zip(&part) {
                *b += p;
            }
        }
    }
    let norm = (n * (n - 1)) as f64;
    for b in &mut bc {
        *b /= norm;
    }
    bc
}

/// Dependency sums of `sources`, accumulated in source order.
fn chunk_partial(calc: &mut ViewCalculator<'_>, sources: std::ops::Range<usize>) -> Vec<f64> {
    let mut acc = vec![0.0f64; calc.view().num_vertices()];
    for s in sources {
        let delta = calc.dependencies(s as Vertex);
        for (a, d) in acc.iter_mut().zip(delta) {
            *a += d;
        }
    }
    acc
}

/// The dependency profile of a probe vertex `r`: `δ_{v•}(r)` for every
/// source `v`, plus the derived quantities the paper's analysis needs.
///
/// The profile is the ground-truth object behind §4.1: its normalised form
/// is the optimal sampling distribution `P_r[v]` (Eq 5), its sum is
/// `n (n-1) BC(r)`, and its max/mean ratio is `µ(r)` (Theorem 1).
#[derive(Debug, Clone)]
pub struct DependencyProfile {
    /// `profile[v] = δ_{v•}(r)`.
    pub profile: Vec<f64>,
    /// The probe vertex.
    pub r: Vertex,
}

impl DependencyProfile {
    /// Sum `Σ_v δ_{v•}(r)` — the normalisation constant of Eq 5.
    pub fn total(&self) -> f64 {
        self.profile.iter().sum()
    }

    /// Exact `BC(r)` under the Eq 1 normalisation.
    pub fn betweenness(&self) -> f64 {
        let n = self.profile.len();
        if n < 2 {
            return 0.0;
        }
        self.total() / (n * (n - 1)) as f64
    }

    /// The optimal sampling distribution `P_r[v] = δ_{v•}(r) / Σ δ` (Eq 5).
    /// Returns `None` when `BC(r) = 0` (the distribution is undefined).
    pub fn optimal_distribution(&self) -> Option<Vec<f64>> {
        let total = self.total();
        if total <= 0.0 {
            return None;
        }
        Some(self.profile.iter().map(|d| d / total).collect())
    }

    /// `µ(r)`: the smallest constant with `δ_{v•}(r) ≤ µ(r) · δ̄(r)` for all
    /// `v` (Ineq 11), i.e. `n · max_v δ_{v•}(r) / Σ_v δ_{v•}(r)`.
    /// Returns `None` when `BC(r) = 0`.
    pub fn mu(&self) -> Option<f64> {
        let total = self.total();
        if total <= 0.0 {
            return None;
        }
        let max = self.profile.iter().cloned().fold(0.0f64, f64::max);
        Some(self.profile.len() as f64 * max / total)
    }
}

/// Computes the dependency profile of `r` by running the kernel from every
/// source (`n` SPD passes — same asymptotic cost as full Brandes, but only
/// needed for ground truth and diagnostics, never inside the samplers).
pub fn dependency_profile(g: &CsrGraph, r: Vertex) -> DependencyProfile {
    dependency_profile_par(g, r, 1)
}

/// Parallel [`dependency_profile`]: [`crate::dependency_profile_view_par`]
/// on the direct view. `threads = 0` uses available parallelism.
pub fn dependency_profile_par(g: &CsrGraph, r: Vertex, threads: usize) -> DependencyProfile {
    crate::dependency_profile_view_par(SpdView::direct(g), r, threads)
}

/// Exact `BC(r)` for a single probe vertex (via its dependency profile,
/// parallelised). Equivalent to `exact_betweenness(g)[r]` but with `O(n)`
/// memory instead of `O(n)` per-thread accumulators.
pub fn exact_betweenness_of(g: &CsrGraph, r: Vertex) -> f64 {
    dependency_profile_par(g, r, 0).betweenness()
}

/// Resolves a requested thread count (0 = hardware parallelism), clamped so
/// each thread owns at least [`MIN_SOURCES_PER_THREAD`] work items — on a
/// 40-vertex graph, asking for 8 threads runs 1, not 8 threads with 5
/// sources each.
pub(crate) fn effective_threads(requested: usize, work_items: usize) -> usize {
    let hw = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let t = if requested == 0 { hw } else { requested };
    t.clamp(1, (work_items / MIN_SOURCES_PER_THREAD).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhbc_graph::generators;

    /// Closed form: on a path of n vertices, the i-th vertex (0-based) lies
    /// on all s-t pairs with s < i < t, so raw BC = 2 * i * (n - 1 - i) and
    /// normalised BC = 2 i (n-1-i) / (n (n-1)).
    fn path_bc(n: usize, i: usize) -> f64 {
        (2 * i * (n - 1 - i)) as f64 / (n * (n - 1)) as f64
    }

    #[test]
    fn path_betweenness_closed_form() {
        let n = 9;
        let bc = exact_betweenness(&generators::path(n));
        for (i, &b) in bc.iter().enumerate() {
            assert!((b - path_bc(n, i)).abs() < 1e-12, "vertex {i}");
        }
    }

    #[test]
    fn star_centre_betweenness() {
        // Star K_{1,n-1}: centre lies on all (n-1)(n-2) ordered leaf pairs.
        let n = 7;
        let bc = exact_betweenness(&generators::star(n));
        let expect = ((n - 1) * (n - 2)) as f64 / (n * (n - 1)) as f64;
        assert!((bc[0] - expect).abs() < 1e-12);
        for &leaf_bc in &bc[1..] {
            assert_eq!(leaf_bc, 0.0);
        }
    }

    #[test]
    fn complete_graph_is_all_zero() {
        let bc = exact_betweenness(&generators::complete(6));
        assert!(bc.iter().all(|&b| b == 0.0));
    }

    #[test]
    fn cycle_betweenness_uniform() {
        let bc = exact_betweenness(&generators::cycle(8));
        for &b in &bc {
            assert!((b - bc[0]).abs() < 1e-12);
        }
        assert!(bc[0] > 0.0);
    }

    #[test]
    fn parallel_matches_serial() {
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(5);
        let g = generators::barabasi_albert(150, 3, &mut rng);
        let serial = exact_betweenness(&g);
        let parallel = exact_betweenness_par(&g, 4);
        for v in 0..150 {
            assert!((serial[v] - parallel[v]).abs() < 1e-12, "vertex {v}");
        }
    }

    #[test]
    fn parallel_bit_identical_across_thread_counts() {
        // The chunked fold makes the parallel reduction a pure function of
        // the graph: the sequential entry point, 1-thread, and N-thread
        // runs all agree bit for bit.
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(41);
        for g in [
            generators::barabasi_albert(170, 3, &mut rng),
            generators::grid(13, 11, false),
            generators::barbell(20, 6),
        ] {
            let one = exact_betweenness_par(&g, 1);
            let seq = exact_betweenness(&g);
            for v in 0..g.num_vertices() {
                assert_eq!(one[v].to_bits(), seq[v].to_bits(), "vertex {v} vs sequential");
            }
            for threads in [2usize, 8] {
                let many = exact_betweenness_par(&g, threads);
                for v in 0..g.num_vertices() {
                    assert_eq!(
                        one[v].to_bits(),
                        many[v].to_bits(),
                        "vertex {v} at {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn tiny_graphs_clamp_to_one_thread() {
        // 40 sources / MIN_SOURCES_PER_THREAD = 1: an 8-thread request on a
        // tiny graph must not fan out (and must still be exact).
        assert_eq!(super::effective_threads(8, 40), 1);
        assert_eq!(super::effective_threads(8, 64), 2);
        assert_eq!(super::effective_threads(0, 10), 1);
        assert_eq!(super::effective_threads(1, 1_000_000), 1);
        let g = generators::barbell(6, 2);
        let one = exact_betweenness_par(&g, 1);
        let clamped = exact_betweenness_par(&g, 8);
        for v in 0..g.num_vertices() {
            assert_eq!(one[v].to_bits(), clamped[v].to_bits(), "vertex {v}");
        }
    }

    #[test]
    fn profile_betweenness_matches_full_brandes() {
        let g = generators::barbell(4, 3);
        let full = exact_betweenness(&g);
        for r in 0..g.num_vertices() as Vertex {
            let p = dependency_profile(&g, r);
            assert!((p.betweenness() - full[r as usize]).abs() < 1e-12, "probe {r}");
        }
    }

    #[test]
    fn profile_parallel_matches_serial() {
        let g = generators::barbell(5, 2);
        let r = 5; // a path vertex
        let a = dependency_profile(&g, r);
        let b = dependency_profile_par(&g, r, 3);
        assert_eq!(a.profile, b.profile);

        // Enough distinct row keys that `effective_threads` grants 2 and 4
        // workers, through the direct view and through a full reduction.
        use crate::{dependency_profile_view_par, SpdView};
        use mhbc_graph::reduce::{reduce, ReduceLevel};
        use rand::{rngs::SmallRng, SeedableRng};
        let g = generators::duplication_divergence(1024, 0.4, &mut SmallRng::seed_from_u64(16));
        let red = reduce(&g, ReduceLevel::Full).unwrap();
        let r = g.vertices().filter(|&v| red.is_retained(v)).max_by_key(|&v| g.degree(v)).unwrap();
        for view in [SpdView::direct(&g), SpdView::preprocessed(&g, &red)] {
            let keys = view.row_keys(&[r]);
            let distinct: std::collections::HashSet<u64> =
                g.vertices().map(|v| keys.key(v)).collect();
            assert!(distinct.len() >= 4 * MIN_SOURCES_PER_THREAD, "{} keys", distinct.len());
            let bits = |threads| -> Vec<u64> {
                let p = dependency_profile_view_par(view, r, threads).profile;
                p.iter().map(|d| d.to_bits()).collect()
            };
            let one = bits(1);
            assert_eq!(one, bits(2), "2 threads, reduced: {}", view.reduced().is_some());
            assert_eq!(one, bits(4), "4 threads, reduced: {}", view.reduced().is_some());
        }
    }

    #[test]
    fn optimal_distribution_sums_to_one() {
        let g = generators::barbell(4, 1);
        let p = dependency_profile(&g, 4); // the bridge vertex
        let dist = p.optimal_distribution().expect("bridge has positive BC");
        let sum: f64 = dist.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(dist.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn mu_is_at_most_two_for_balanced_separator() {
        // Barbell bridge vertex with equal cliques: Theorem 2 with K = 1
        // gives mu(r) <= 1 + 1/K = 2 asymptotically.
        let g = generators::barbell(20, 1);
        let p = dependency_profile(&g, 20);
        let mu = p.mu().unwrap();
        assert!(mu < 2.2, "mu = {mu} should be near 2 for a balanced separator");
    }

    #[test]
    fn zero_betweenness_vertex_has_no_distribution() {
        let g = generators::star(5);
        let p = dependency_profile(&g, 3); // a leaf
        assert_eq!(p.betweenness(), 0.0);
        assert!(p.optimal_distribution().is_none());
        assert!(p.mu().is_none());
    }

    #[test]
    fn weighted_brandes_respects_weights() {
        // Triangle where the direct edge 0-2 is more expensive than 0-1-2:
        // vertex 1 gains betweenness.
        let g =
            mhbc_graph::CsrGraph::from_weighted_edges(3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)])
                .unwrap();
        let bc = exact_betweenness(&g);
        assert!(bc[1] > 0.0);
        assert_eq!(bc[0], 0.0);
        assert_eq!(bc[2], 0.0);
    }

    #[test]
    fn tiny_graphs_do_not_panic() {
        assert!(exact_betweenness(&generators::path(1)).iter().all(|&b| b == 0.0));
        assert_eq!(exact_betweenness(&generators::path(2)), vec![0.0, 0.0]);
        let empty = mhbc_graph::CsrGraph::from_edges(0, &[]).unwrap();
        assert!(exact_betweenness(&empty).is_empty());
        assert!(exact_betweenness_par(&empty, 4).is_empty());
    }
}
