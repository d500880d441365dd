//! Distance-proportional source sampling (Chehreghani \[13\]).

use crate::BaselineEstimate;
use mhbc_graph::{algo, CsrGraph, Vertex};
use mhbc_spd::{SpdView, ViewCalculator};
use rand::{Rng, RngExt};

/// Chehreghani's non-uniform source sampler \[13\]: sources drawn with
/// `P[s] = d(r, s) / Σ_u d(r, u)` and importance-weighted,
/// `B̂C(r) = mean_t [ δ_{s_t•}(r) / (P[s_t] · n(n−1)) ]`.
///
/// Unbiased for any sampling distribution positive on the support; the
/// distance heuristic approximates the optimal `P[s] ∝ δ_{s•}(r)` (Eq 5)
/// because far-away sources tend to route more pairs through `r`. Costs one
/// BFS up-front (the distance table) plus one SPD pass per sample.
///
/// Defined for unweighted graphs (hop distances), matching \[13\].
pub struct DistanceSampler<'g> {
    graph: &'g CsrGraph,
    r: Vertex,
    calc: ViewCalculator<'g>,
    /// `cum[i]` = cumulative distance mass over vertices `0..=i`.
    cum: Vec<f64>,
    total_mass: f64,
    sum: f64,
    samples: u64,
}

impl<'g> DistanceSampler<'g> {
    /// Sampler for probe `r` on the unweighted connected graph `g`.
    ///
    /// # Panics
    /// If `g` is weighted, `r` is out of range, or no vertex has positive
    /// distance mass (single-vertex graph).
    pub fn new(graph: &'g CsrGraph, r: Vertex) -> Self {
        assert!(!graph.is_weighted(), "the [13] sampler is defined on unweighted graphs");
        assert!((r as usize) < graph.num_vertices(), "probe out of range");
        let dist = algo::bfs_distances(graph, r);
        let mut cum = Vec::with_capacity(dist.len());
        let mut acc = 0.0;
        for &d in &dist {
            // Unreachable vertices get zero mass (they also have zero
            // dependency on r, so excluding them preserves unbiasedness).
            if d != u32::MAX {
                acc += d as f64;
            }
            cum.push(acc);
        }
        assert!(acc > 0.0, "no sampling mass: graph too small");
        DistanceSampler {
            graph,
            r,
            calc: ViewCalculator::new(SpdView::direct(graph)),
            cum,
            total_mass: acc,
            sum: 0.0,
            samples: 0,
        }
    }

    /// Probability assigned to source `s`.
    pub fn probability(&self, s: Vertex) -> f64 {
        let i = s as usize;
        let prev = if i == 0 { 0.0 } else { self.cum[i - 1] };
        (self.cum[i] - prev) / self.total_mass
    }

    /// Draws one sample; returns the running estimate.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        let u = rng.random::<f64>() * self.total_mass;
        let s = self.cum.partition_point(|&c| c <= u).min(self.cum.len() - 1) as Vertex;
        let p = self.probability(s);
        debug_assert!(p > 0.0, "sampled a zero-mass vertex");
        let delta = self.calc.dependency_on(s, self.r);
        let n = self.graph.num_vertices() as f64;
        self.sum += delta / (p * n * (n - 1.0));
        self.samples += 1;
        self.estimate()
    }

    /// Current estimate (0 before any samples).
    pub fn estimate(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum / self.samples as f64
        }
    }

    /// Draws `count` samples and finalises.
    pub fn run<R: Rng + ?Sized>(mut self, count: u64, rng: &mut R) -> BaselineEstimate {
        for _ in 0..count {
            self.sample(rng);
        }
        BaselineEstimate {
            bc: self.estimate(),
            samples: self.samples,
            // +1 for the up-front distance BFS (charged as one pass).
            spd_passes: self.calc.passes() + 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhbc_graph::generators;
    use mhbc_spd::exact_betweenness_of;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn probabilities_sum_to_one_and_follow_distance() {
        let g = generators::path(6);
        let s = DistanceSampler::new(&g, 0);
        let total: f64 = (0..6).map(|v| s.probability(v)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // d(r, r) = 0, and mass grows linearly along the path: P[5] = 5/15.
        assert_eq!(s.probability(0), 0.0);
        assert!((s.probability(5) - 5.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn converges_to_exact_bc() {
        let g = generators::barbell(6, 2);
        let r = 6;
        let exact = exact_betweenness_of(&g, r);
        let mut rng = SmallRng::seed_from_u64(4);
        let est = DistanceSampler::new(&g, r).run(20_000, &mut rng);
        assert!((est.bc - exact).abs() < 0.02, "est {} vs exact {exact}", est.bc);
    }

    #[test]
    fn unbiased_over_many_short_runs() {
        let g = generators::lollipop(6, 3);
        let r = 7; // mid-path vertex
        let exact = exact_betweenness_of(&g, r);
        let mut total = 0.0;
        let runs = 3_000;
        for seed in 0..runs {
            let mut rng = SmallRng::seed_from_u64(seed);
            total += DistanceSampler::new(&g, r).run(10, &mut rng).bc;
        }
        let mean = total / runs as f64;
        assert!((mean - exact).abs() < 0.01, "mean {mean} vs exact {exact}");
    }

    #[test]
    #[should_panic(expected = "unweighted")]
    fn rejects_weighted_graphs() {
        let g = generators::path(4).map_weights(|_, _| 2.0).unwrap();
        let _ = DistanceSampler::new(&g, 0);
    }
}
