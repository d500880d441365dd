//! The per-sample dependency kernel used by every sampler.

use crate::{BfsSpd, DijkstraSpd, SpdView, UNREACHED};
use mhbc_graph::reduce::{ReducedGraph, TwinKind, VertexState};
use mhbc_graph::Vertex;

/// The cheapest exact kernel variant for a view's evaluation graph. A
/// direct view, and a reduction with no twin classes and no pruned
/// pendants, need the plain kernel; a reduction with pendants but no twins
/// needs target seeds; twin classes need multiplicity arithmetic. So
/// "preprocess full" on an irreducible graph costs the same per pass as no
/// preprocessing at all (the variants degenerate to each other bit for
/// bit, so this is a pure dispatch optimisation).
#[derive(Clone, Copy)]
enum Variant {
    /// The plain kernel.
    Plain,
    /// Plain forward pass, seeded backward pass (the all-ones multiplicity
    /// slice makes `*_collapsed` the seeded accumulation).
    Seeded,
    /// Multiplicity-aware σ and δ. Weighted reductions never collapse
    /// (enforced at build time).
    Collapsed,
}

enum Spd {
    Bfs(BfsSpd),
    Dijkstra(DijkstraSpd),
}

/// The per-sample dependency kernel of every sampler, bound to an
/// [`SpdView`]: `δ_{s•}(r)` for original sources and probes, from one SPD
/// pass over the view's evaluation graph (the original CSR or the reduced
/// one), reusing all buffers across calls. This is the `O(|E|)`
/// (unweighted) / `O(|E| + |V| log |V|)` (weighted) kernel whose cost §4.1
/// identifies as the per-sample price of every estimator in the paper.
///
/// A direct view reads the pass at the probes; a reduced view maps it to
/// original ids by the density mapping of the `reduced` module docs. The calculator counts SPD passes,
/// which the experiment harness uses to compare samplers at *matched
/// computational budgets* rather than matched iteration counts.
pub struct ViewCalculator<'g> {
    view: SpdView<'g>,
    spd: Spd,
    variant: Variant,
    delta: Vec<f64>,
    /// The retained probes of the current pass, as reduced ids.
    h_probes: Vec<Vertex>,
    passes: u64,
}

impl<'g> ViewCalculator<'g> {
    /// A workspace for `view`, evaluating with the view's
    /// [`KernelMode`](crate::KernelMode) (weighted graphs always use
    /// Dijkstra, and ignore the mode).
    pub fn new(view: SpdView<'g>) -> Self {
        let (g, variant) = match view.reduced() {
            None => (view.graph(), Variant::Plain),
            Some(red) if red.mults().iter().any(|&m| m > 1.0) => (red.csr(), Variant::Collapsed),
            Some(red) if red.weights().iter().any(|&w| w > 1.0) => (red.csr(), Variant::Seeded),
            Some(red) => (red.csr(), Variant::Plain),
        };
        let n = g.num_vertices();
        let spd = if g.is_weighted() {
            Spd::Dijkstra(DijkstraSpd::new(n))
        } else {
            Spd::Bfs(BfsSpd::with_mode(n, view.kernel()))
        };
        let delta = Vec::with_capacity(n);
        ViewCalculator { view, spd, variant, delta, h_probes: Vec::new(), passes: 0 }
    }

    /// The view this workspace evaluates against.
    pub fn view(&self) -> SpdView<'g> {
        self.view
    }

    /// One SPD pass from `source`, a vertex of the evaluation graph: its
    /// whole dependency row, or (`probes` given, as original ids;
    /// unweighted graphs) a row exact at the retained probes only.
    pub(crate) fn pass(&mut self, source: Vertex, probes: Option<&[Vertex]>) -> &[f64] {
        self.passes += 1;
        let (g, mults, seeds, probes) = match self.view.reduced() {
            None => (self.view.graph(), &[][..], &[][..], probes),
            Some(red) => {
                let h_probes = probes.map(|probes| {
                    self.h_probes.clear();
                    self.h_probes.extend(probes.iter().filter_map(|&r| match red.state(r) {
                        VertexState::Retained { h, .. } => Some(h),
                        VertexState::Pruned { .. } => None,
                    }));
                    &self.h_probes[..]
                });
                (red.csr(), red.mults(), red.weights(), h_probes)
            }
        };
        let (variant, delta) = (self.variant, &mut self.delta);
        match &mut self.spd {
            Spd::Bfs(spd) => {
                match variant {
                    Variant::Collapsed => spd.compute_collapsed(g, source, mults),
                    _ => spd.compute(g, source),
                }
                match (variant, probes) {
                    (Variant::Plain, None) => spd.accumulate_dependencies(g, delta),
                    (Variant::Plain, Some(p)) => spd.accumulate_dependencies_at(g, p, delta),
                    // The all-ones multiplicity slice of a twin-free
                    // reduction makes the collapsed scan the seeded one.
                    (_, None) => spd.accumulate_dependencies_collapsed(g, mults, seeds, delta),
                    (_, Some(p)) => {
                        spd.accumulate_dependencies_collapsed_at(g, mults, seeds, p, delta)
                    }
                }
            }
            Spd::Dijkstra(spd) => {
                spd.compute(g, source);
                match variant {
                    Variant::Plain => spd.accumulate_dependencies(g, delta),
                    _ => spd.accumulate_dependencies_seeded(g, seeds, delta),
                }
            }
        }
        &self.delta
    }

    fn reached(&self, z: Vertex) -> bool {
        match &self.spd {
            Spd::Bfs(spd) => spd.dist(z) != UNREACHED,
            Spd::Dijkstra(spd) => spd.dist(z).is_finite(),
        }
    }

    /// Maps the class-level pass in `self.delta` (rooted at `h_src`, whose
    /// acting member is `src_orig` with pendant weight `omega_src`) to
    /// original-probe densities. `pruned` carries `(att, branch)` when the
    /// true source is a pendant vertex attached at `att`.
    #[allow(clippy::too_many_arguments)]
    fn fill(
        &self,
        red: &ReducedGraph,
        h_src: Vertex,
        omega_src: f64,
        src_orig: Vertex,
        pruned: Option<(Vertex, u32)>,
        probes: &[Vertex],
        out: &mut Vec<f64>,
    ) {
        out.clear();
        let same_class_base = if red.kind(h_src) == TwinKind::False {
            (red.weight(h_src) - omega_src) / red.wdeg(h_src)
        } else {
            0.0
        };
        for &r in probes {
            let VertexState::Retained { h: hr, omega: omega_r } = red.state(r) else {
                panic!(
                    "probe {r} was pruned into a pendant tree; reduced-mode sampling \
                     requires retained probes (pruned probes have exact closed-form BC)"
                );
            };
            let val = if let Some((a, branch)) = pruned {
                if r == a {
                    // The probe is the articulation point of the source's
                    // whole pendant branch.
                    red.comp_total(h_src) - 1.0 - branch as f64
                } else if !self.reached(hr) {
                    0.0
                } else {
                    self.mapped(red, h_src, hr, same_class_base, omega_r)
                }
            } else if r == src_orig || !self.reached(hr) {
                0.0
            } else {
                self.mapped(red, h_src, hr, same_class_base, omega_r)
            };
            out.push(val);
        }
    }

    /// The three-term mapping of the `reduced` module docs for a reached,
    /// retained, non-source probe.
    #[inline]
    fn mapped(
        &self,
        red: &ReducedGraph,
        h_src: Vertex,
        hr: Vertex,
        same_class_base: f64,
        omega_r: u32,
    ) -> f64 {
        let mut d = self.delta[hr as usize] + (omega_r as f64 - 1.0);
        if same_class_base != 0.0 && red.csr().has_edge(h_src, hr) {
            d += same_class_base;
        }
        d
    }

    /// `δ_{source•}(r)` for several original probes at once — one SPD pass,
    /// used by the joint-space sampler to maintain all of `R`. On
    /// unweighted graphs the backward scan covers only the probes (or their
    /// classes) and their shortest-path descendants
    /// ([`BfsSpd::accumulate_dependencies_at`]); the values are
    /// bit-identical to the full row's. A reduced view serves a pendant
    /// source with its attachment's pass.
    ///
    /// # Panics
    /// If a reduced view pruned a probe (validate with
    /// [`SpdView::is_retained`] first).
    pub fn dependency_on_many(&mut self, source: Vertex, probes: &[Vertex], out: &mut Vec<f64>) {
        let Some(red) = self.view.reduced() else {
            let delta = self.pass(source, Some(probes));
            out.clear();
            out.extend(probes.iter().map(|&r| delta[r as usize]));
            return;
        };
        match red.state(source) {
            VertexState::Retained { h, omega } => {
                self.pass(h, Some(probes));
                self.fill(red, h, omega as f64, source, None, probes, out);
            }
            VertexState::Pruned { att, branch } => {
                let VertexState::Retained { h: ha, omega: oa } = red.state(att) else {
                    unreachable!("attachment vertices are retained by construction");
                };
                self.pass(ha, Some(probes));
                self.fill(red, ha, oa as f64, att, Some((att, branch)), probes, out);
            }
        }
    }

    /// Single-probe convenience.
    pub fn dependency_on(&mut self, source: Vertex, r: Vertex) -> f64 {
        let mut out = Vec::with_capacity(1);
        self.dependency_on_many(source, &[r], &mut out);
        out[0]
    }

    /// Dependency scores of `source` on every vertex: the slice
    /// `δ_{source•}(·)`, valid until the next call. One SPD pass.
    ///
    /// # Panics
    /// On a reduced view, whose passes hold class-level rows (exact
    /// betweenness through a reduction is
    /// [`exact_betweenness_reduced`](crate::exact_betweenness_reduced)).
    pub fn dependencies(&mut self, source: Vertex) -> &[f64] {
        assert!(self.view.reduced().is_none(), "full dependency rows need a direct view");
        self.pass(source, None)
    }

    /// SPD passes performed so far, each over the view's evaluation graph
    /// (the budget unit).
    pub fn passes(&self) -> u64 {
        self.passes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhbc_graph::generators;
    use mhbc_graph::reduce::{reduce, ReduceLevel};

    #[test]
    fn unweighted_dependency_on_path_centre() {
        let g = generators::path(5);
        let mut calc = ViewCalculator::new(SpdView::direct(&g));
        // From source 0, delta_0(2) = 2 (targets 3 and 4 route through 2).
        assert_eq!(calc.dependency_on(0, 2), 2.0);
        // From source 2 itself the dependency on 2 is 0 by definition.
        assert_eq!(calc.dependency_on(2, 2), 0.0);
        assert_eq!(calc.passes(), 2);
    }

    #[test]
    fn weighted_engine_selected_automatically() {
        let g = generators::path(4).map_weights(|_, _| 2.0).unwrap();
        let mut calc = ViewCalculator::new(SpdView::direct(&g));
        assert_eq!(calc.dependency_on(0, 1), 2.0);
    }

    #[test]
    fn dependency_on_many_matches_single_calls() {
        let g = generators::barbell(4, 2);
        let mut calc = ViewCalculator::new(SpdView::direct(&g));
        let probes = [0u32, 4, 5, 9];
        let mut out = Vec::new();
        calc.dependency_on_many(1, &probes, &mut out);
        for (i, &r) in probes.iter().enumerate() {
            assert_eq!(out[i], calc.dependency_on(1, r));
        }
    }

    #[test]
    fn pass_counter_tracks_work() {
        let g = generators::cycle(6);
        let mut calc = ViewCalculator::new(SpdView::direct(&g));
        let _ = calc.dependencies(0);
        let _ = calc.dependency_on(1, 2);
        let mut out = Vec::new();
        calc.dependency_on_many(3, &[0, 1], &mut out);
        assert_eq!(calc.passes(), 3);
        // A reduced view counts one pass per call too, also for a pendant
        // source, which runs its attachment's pass.
        let g = generators::lollipop(5, 3);
        let red = reduce(&g, ReduceLevel::Full).unwrap();
        assert!(!red.is_retained(7));
        let mut calc = ViewCalculator::new(SpdView::preprocessed(&g, &red));
        let _ = calc.dependency_on(7, 4);
        let _ = calc.dependency_on(0, 4);
        calc.dependency_on_many(1, &[0, 4], &mut out);
        assert_eq!(calc.passes(), 3);
    }

    #[test]
    #[should_panic(expected = "full dependency rows need a direct view")]
    fn full_rows_are_rejected_on_reduced_views() {
        let g = generators::lollipop(5, 3);
        let red = reduce(&g, ReduceLevel::Prune).unwrap();
        let _ = ViewCalculator::new(SpdView::preprocessed(&g, &red)).dependencies(0);
    }
}
