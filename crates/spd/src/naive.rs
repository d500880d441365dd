//! Independent `O(n³)`-ish reference implementations.
//!
//! These deliberately avoid Brandes's recursion: betweenness and dependency
//! scores are computed straight from the definitions (Eq 1–3) using the
//! pair-count identity `σ_st(v) = σ_sv · σ_vt` iff `d(s,v) + d(v,t) =
//! d(s,t)`. They exist purely to cross-validate the fast implementations on
//! small graphs and are exported so that downstream crates' tests can reuse
//! them.

use crate::{BfsSpd, DijkstraSpd, WEIGHT_TIE_RELATIVE_EPS};
use mhbc_graph::{CsrGraph, Vertex};

/// All-pairs distances and shortest-path counts of an unweighted graph
/// (`dist[s][t]`, `sigma[s][t]`); `u32::MAX` marks unreachable pairs.
pub fn all_pairs_unweighted(g: &CsrGraph) -> (Vec<Vec<u32>>, Vec<Vec<f64>>) {
    let n = g.num_vertices();
    let mut dist = Vec::with_capacity(n);
    let mut sigma = Vec::with_capacity(n);
    let mut spd = BfsSpd::new(n);
    for s in 0..n as Vertex {
        spd.compute(g, s);
        dist.push((0..n as Vertex).map(|v| spd.dist(v)).collect());
        sigma.push((0..n as Vertex).map(|v| spd.sigma(v)).collect());
    }
    (dist, sigma)
}

/// All-pairs weighted distances and counts (`f64::INFINITY` = unreachable).
pub fn all_pairs_weighted(g: &CsrGraph) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let n = g.num_vertices();
    let mut dist = Vec::with_capacity(n);
    let mut sigma = Vec::with_capacity(n);
    let mut spd = DijkstraSpd::new(n);
    for s in 0..n as Vertex {
        spd.compute(g, s);
        dist.push((0..n as Vertex).map(|v| spd.dist(v)).collect());
        sigma.push((0..n as Vertex).map(|v| spd.sigma(v)).collect());
    }
    (dist, sigma)
}

/// Definition-level betweenness (Eq 1) for every vertex of an unweighted
/// graph. `O(n³)`; use only on test-scale graphs.
pub fn betweenness_naive(g: &CsrGraph) -> Vec<f64> {
    let n = g.num_vertices();
    let mut bc = vec![0.0; n];
    if n < 2 {
        return bc;
    }
    let (dist, sigma) = all_pairs_unweighted(g);
    for s in 0..n {
        for t in 0..n {
            if s == t || dist[s][t] == u32::MAX {
                continue;
            }
            for v in 0..n {
                if v == s || v == t {
                    continue;
                }
                if dist[s][v] != u32::MAX
                    && dist[v][t] != u32::MAX
                    && dist[s][v] + dist[v][t] == dist[s][t]
                {
                    bc[v] += sigma[s][v] * sigma[v][t] / sigma[s][t];
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

/// Definition-level betweenness for weighted graphs, merging path lengths
/// equal up to the crate-wide tie tolerance.
pub fn betweenness_naive_weighted(g: &CsrGraph) -> Vec<f64> {
    let n = g.num_vertices();
    let mut bc = vec![0.0; n];
    if n < 2 {
        return bc;
    }
    let ties =
        |a: f64, b: f64| (a - b).abs() <= WEIGHT_TIE_RELATIVE_EPS * a.abs().max(b.abs()).max(1.0);
    let (dist, sigma) = all_pairs_weighted(g);
    for s in 0..n {
        for t in 0..n {
            if s == t || !dist[s][t].is_finite() {
                continue;
            }
            for v in 0..n {
                if v == s || v == t {
                    continue;
                }
                if dist[s][v].is_finite()
                    && dist[v][t].is_finite()
                    && ties(dist[s][v] + dist[v][t], dist[s][t])
                {
                    bc[v] += sigma[s][v] * sigma[v][t] / sigma[s][t];
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

/// Definition-level dependency scores `δ_{s•}(v)` (Eq 2) for a fixed source
/// of an unweighted graph.
pub fn dependencies_naive(g: &CsrGraph, s: Vertex) -> Vec<f64> {
    let n = g.num_vertices();
    let (dist, sigma) = all_pairs_unweighted(g);
    let s = s as usize;
    let mut delta = vec![0.0; n];
    for v in 0..n {
        if v == s {
            continue;
        }
        for t in 0..n {
            if t == s || t == v || dist[s][t] == u32::MAX {
                continue;
            }
            if dist[s][v] != u32::MAX
                && dist[v][t] != u32::MAX
                && dist[s][v] + dist[v][t] == dist[s][t]
            {
                delta[v] += sigma[s][v] * sigma[v][t] / sigma[s][t];
            }
        }
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{exact_betweenness, SpdView, ViewCalculator};
    use mhbc_graph::generators;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn naive_matches_brandes_on_random_graphs() {
        let mut rng = SmallRng::seed_from_u64(71);
        for seed in 0..5u64 {
            let mut r = SmallRng::seed_from_u64(seed);
            let g = generators::ensure_connected(
                generators::erdos_renyi_gnp(30, 0.12, &mut r),
                &mut rng,
            );
            let fast = exact_betweenness(&g);
            let slow = betweenness_naive(&g);
            for v in 0..30 {
                assert!((fast[v] - slow[v]).abs() < 1e-10, "seed {seed}, vertex {v}");
            }
        }
    }

    #[test]
    fn naive_weighted_matches_brandes_weighted() {
        let mut rng = SmallRng::seed_from_u64(72);
        let base =
            generators::ensure_connected(generators::erdos_renyi_gnp(25, 0.15, &mut rng), &mut rng);
        let g = generators::assign_uniform_weights(&base, 1.0, 4.0, &mut rng);
        let fast = exact_betweenness(&g);
        let slow = betweenness_naive_weighted(&g);
        for v in 0..25 {
            assert!((fast[v] - slow[v]).abs() < 1e-9, "vertex {v}");
        }
    }

    #[test]
    fn naive_dependencies_match_accumulation() {
        let mut rng = SmallRng::seed_from_u64(73);
        let g = generators::barabasi_albert(40, 2, &mut rng);
        let mut calc = ViewCalculator::new(SpdView::direct(&g));
        for s in [0u32, 7, 23] {
            let fast = calc.dependencies(s).to_vec();
            let slow = dependencies_naive(&g, s);
            for v in 0..40 {
                assert!((fast[v] - slow[v]).abs() < 1e-10, "source {s}, vertex {v}");
            }
        }
    }

    #[test]
    fn all_pairs_symmetry() {
        let g = generators::barbell(3, 2);
        let (dist, sigma) = all_pairs_unweighted(&g);
        let n = g.num_vertices();
        for s in 0..n {
            for t in 0..n {
                assert_eq!(dist[s][t], dist[t][s]);
                assert_eq!(sigma[s][t], sigma[t][s]);
            }
        }
    }
}
