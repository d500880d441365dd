//! The per-sample dependency kernel used by every sampler.

use crate::{BfsSpd, DijkstraSpd, KernelMode};
use mhbc_graph::{CsrGraph, Vertex};

enum Engine {
    Unweighted(BfsSpd),
    Weighted(DijkstraSpd),
}

/// Computes dependency scores `δ_{s•}(·)` for arbitrary sources, reusing all
/// buffers across calls — this is the `O(|E|)` (unweighted) /
/// `O(|E| + |V| log |V|)` (weighted) kernel whose cost §4.1 identifies as
/// the per-sample price of every estimator in the paper.
///
/// The calculator counts SPD passes, which the experiment harness uses to
/// compare samplers at *matched computational budgets* rather than matched
/// iteration counts.
pub struct DependencyCalculator {
    engine: Engine,
    delta: Vec<f64>,
    passes: u64,
}

impl DependencyCalculator {
    /// Creates a kernel matching `g`'s weightedness, in [`KernelMode::Auto`].
    pub fn new(g: &CsrGraph) -> Self {
        Self::with_kernel(g, KernelMode::Auto)
    }

    /// Creates a kernel with an explicit unweighted forward-pass strategy
    /// (weighted graphs always use Dijkstra; the mode is ignored there).
    /// Every mode yields bit-identical dependency rows — see [`KernelMode`].
    pub fn with_kernel(g: &CsrGraph, mode: KernelMode) -> Self {
        let n = g.num_vertices();
        let engine = if g.is_weighted() {
            Engine::Weighted(DijkstraSpd::new(n))
        } else {
            Engine::Unweighted(BfsSpd::with_mode(n, mode))
        };
        DependencyCalculator { engine, delta: Vec::with_capacity(n), passes: 0 }
    }

    /// Dependency scores of `source` on every vertex: returns the slice
    /// `δ_{source•}(·)` (valid until the next call). One SPD pass.
    pub fn dependencies(&mut self, g: &CsrGraph, source: Vertex) -> &[f64] {
        self.pass(g, source, None)
    }

    /// `δ_{source•}(r)`: the dependency of `source` on the probe vertex `r`.
    /// One SPD pass whose backward scan covers only `r`'s shortest-path
    /// descendants (see [`DependencyCalculator::dependency_on_many`]).
    pub fn dependency_on(&mut self, g: &CsrGraph, source: Vertex, r: Vertex) -> f64 {
        self.pass(g, source, Some(&[r]))[r as usize]
    }

    /// `δ_{source•}(r)` for several probe vertices at once — same single
    /// pass, used by the joint-space sampler to maintain all of `R`. On
    /// unweighted graphs the backward scan visits only what the probes'
    /// values depend on ([`BfsSpd::accumulate_dependencies_at`]); the values
    /// are bit-identical to the full row's.
    pub fn dependency_on_many(
        &mut self,
        g: &CsrGraph,
        source: Vertex,
        probes: &[Vertex],
        out: &mut Vec<f64>,
    ) {
        let delta = self.pass(g, source, Some(probes));
        out.clear();
        out.extend(probes.iter().map(|&r| delta[r as usize]));
    }

    /// One SPD pass from `source`: the full dependency row, or (`probes`
    /// given, unweighted graphs) a row exact at the probes only.
    fn pass(&mut self, g: &CsrGraph, source: Vertex, probes: Option<&[Vertex]>) -> &[f64] {
        self.passes += 1;
        match &mut self.engine {
            Engine::Unweighted(spd) => {
                spd.compute(g, source);
                match probes {
                    None => spd.accumulate_dependencies(g, &mut self.delta),
                    Some(probes) => spd.accumulate_dependencies_at(g, probes, &mut self.delta),
                }
            }
            Engine::Weighted(spd) => {
                spd.compute(g, source);
                spd.accumulate_dependencies(g, &mut self.delta);
            }
        }
        &self.delta
    }

    /// Number of SPD passes performed so far (the budget unit).
    pub fn passes(&self) -> u64 {
        self.passes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhbc_graph::generators;

    #[test]
    fn unweighted_dependency_on_path_centre() {
        let g = generators::path(5);
        let mut calc = DependencyCalculator::new(&g);
        // From source 0, delta_0(2) = 2 (targets 3 and 4 route through 2).
        assert_eq!(calc.dependency_on(&g, 0, 2), 2.0);
        // From source 2 itself the dependency on 2 is 0 by definition.
        assert_eq!(calc.dependency_on(&g, 2, 2), 0.0);
        assert_eq!(calc.passes(), 2);
    }

    #[test]
    fn weighted_engine_selected_automatically() {
        let g = generators::path(4).map_weights(|_, _| 2.0).unwrap();
        let mut calc = DependencyCalculator::new(&g);
        assert_eq!(calc.dependency_on(&g, 0, 1), 2.0);
    }

    #[test]
    fn dependency_on_many_matches_single_calls() {
        let g = generators::barbell(4, 2);
        let mut calc = DependencyCalculator::new(&g);
        let probes = [0u32, 4, 5, 9];
        let mut out = Vec::new();
        calc.dependency_on_many(&g, 1, &probes, &mut out);
        for (i, &r) in probes.iter().enumerate() {
            assert_eq!(out[i], calc.dependency_on(&g, 1, r));
        }
    }

    #[test]
    fn pass_counter_tracks_work() {
        let g = generators::cycle(6);
        let mut calc = DependencyCalculator::new(&g);
        let _ = calc.dependencies(&g, 0);
        let _ = calc.dependency_on(&g, 1, 2);
        let mut out = Vec::new();
        calc.dependency_on_many(&g, 3, &[0, 1], &mut out);
        assert_eq!(calc.passes(), 3);
    }
}
