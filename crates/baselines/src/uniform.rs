//! Uniform source sampling (Bader et al. \[2\], Brandes–Pich \[9\]).

use crate::BaselineEstimate;
use mhbc_graph::{CsrGraph, Vertex};
use mhbc_spd::{SpdView, ViewCalculator};
use rand::{Rng, RngExt};

/// Samples source vertices uniformly and averages their dependency scores
/// on the probe: `B̂C(r) = mean_s δ_{s•}(r) / (n − 1)`.
///
/// Unbiased: `E_s[δ_{s•}(r)] = (1/n) Σ_s δ_{s•}(r) = (n−1) · BC(r)`.
/// One SPD pass per sample; the work-equal competitor to one MH iteration.
pub struct UniformSourceSampler<'g> {
    graph: &'g CsrGraph,
    r: Vertex,
    calc: ViewCalculator<'g>,
    sum: f64,
    samples: u64,
    trace: Option<Vec<f64>>,
}

impl<'g> UniformSourceSampler<'g> {
    /// Sampler for probe `r` on `g` (weighted or unweighted).
    ///
    /// # Panics
    /// If `r` is out of range or the graph has fewer than 2 vertices.
    pub fn new(graph: &'g CsrGraph, r: Vertex) -> Self {
        assert!((r as usize) < graph.num_vertices(), "probe out of range");
        assert!(graph.num_vertices() >= 2, "graph too small");
        UniformSourceSampler {
            graph,
            r,
            calc: ViewCalculator::new(SpdView::direct(graph)),
            sum: 0.0,
            samples: 0,
            trace: None,
        }
    }

    /// Enables recording of the running estimate after each sample.
    pub fn with_trace(mut self) -> Self {
        self.trace = Some(Vec::new());
        self
    }

    /// Draws one sample; returns the running estimate.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        let s = rng.random_range(0..self.graph.num_vertices() as Vertex);
        self.sum += self.calc.dependency_on(s, self.r);
        self.samples += 1;
        let est = self.estimate();
        if let Some(t) = &mut self.trace {
            t.push(est);
        }
        est
    }

    /// Current estimate (0 before any samples).
    pub fn estimate(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        self.sum / (self.samples as f64 * (self.graph.num_vertices() as f64 - 1.0))
    }

    /// Draws `count` samples and finalises.
    pub fn run<R: Rng + ?Sized>(mut self, count: u64, rng: &mut R) -> BaselineEstimate {
        for _ in 0..count {
            self.sample(rng);
        }
        self.finish()
    }

    /// Finalises into an estimate record.
    pub fn finish(self) -> BaselineEstimate {
        BaselineEstimate {
            bc: self.estimate(),
            samples: self.samples,
            spd_passes: self.calc.passes(),
        }
    }

    /// The running-estimate trace, if enabled.
    pub fn trace(&self) -> Option<&[f64]> {
        self.trace.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhbc_graph::generators;
    use mhbc_spd::exact_betweenness_of;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn converges_to_exact_bc() {
        let g = generators::barbell(6, 2);
        let r = 6;
        let exact = exact_betweenness_of(&g, r);
        let mut rng = SmallRng::seed_from_u64(1);
        let est = UniformSourceSampler::new(&g, r).run(20_000, &mut rng);
        assert!((est.bc - exact).abs() < 0.02, "est {} vs exact {exact}", est.bc);
        assert_eq!(est.samples, 20_000);
        assert_eq!(est.spd_passes, 20_000);
    }

    #[test]
    fn unbiased_over_many_short_runs() {
        // Mean of many independent 10-sample estimates must hit BC(r).
        let g = generators::lollipop(6, 3);
        let r = 6;
        let exact = exact_betweenness_of(&g, r);
        let mut total = 0.0;
        let runs = 3_000;
        for seed in 0..runs {
            let mut rng = SmallRng::seed_from_u64(seed);
            total += UniformSourceSampler::new(&g, r).run(10, &mut rng).bc;
        }
        let mean = total / runs as f64;
        assert!((mean - exact).abs() < 0.01, "mean of short runs {mean} vs exact {exact}");
    }

    #[test]
    fn zero_probe_estimates_zero() {
        let g = generators::star(8);
        let mut rng = SmallRng::seed_from_u64(2);
        let est = UniformSourceSampler::new(&g, 5).run(100, &mut rng);
        assert_eq!(est.bc, 0.0);
    }

    #[test]
    fn trace_length_matches_samples() {
        let g = generators::cycle(8);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut s = UniformSourceSampler::new(&g, 0).with_trace();
        for _ in 0..25 {
            s.sample(&mut rng);
        }
        assert_eq!(s.trace().unwrap().len(), 25);
    }
}
