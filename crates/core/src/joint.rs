//! The joint-space MCMC sampler (§4.3).

use crate::checkpoint::{self, CheckpointKind, Reader, Writer};
use crate::engine::{CheckpointDriver, EngineConfig, EngineDriver, EstimationEngine};
use crate::optimal::min_dependency_ratio;
use crate::oracle::{OracleStats, ProbeOracle};
use crate::pipeline::{self, PrefetchConfig};
use crate::CoreError;
use mhbc_graph::{CsrGraph, Vertex};
use mhbc_mcmc::{MetropolisHastings, Proposal, StreamSplit, TargetDensity};
use mhbc_spd::SpdView;
use rand::{rngs::SmallRng, Rng, RngExt, SeedableRng};

/// Chain state: `(probe index into R, source vertex)` — the pair `⟨r, v⟩`
/// of §4.3.
type JointState = (u32, Vertex);

/// Uniform independence proposal over `R × V(G)` (both coordinates drawn
/// uniformly, as in the paper).
struct JointProposal {
    k: u32,
    n: u32,
}

impl Proposal<JointState> for JointProposal {
    fn propose<R: Rng + ?Sized>(&mut self, _current: &JointState, rng: &mut R) -> JointState {
        (rng.random_range(0..self.k), rng.random_range(0..self.n))
    }

    fn ratio(&self, _current: &JointState, _proposed: &JointState) -> f64 {
        1.0
    }

    fn propose_iid<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<JointState> {
        Some((rng.random_range(0..self.k), rng.random_range(0..self.n)))
    }
}

/// Target density `f(⟨r, v⟩) = δ_{v•}(r)` — unnormalised Eq 18.
struct JointTarget<'g> {
    oracle: ProbeOracle<'g>,
}

impl TargetDensity for JointTarget<'_> {
    type State = JointState;

    fn density(&mut self, s: &JointState) -> f64 {
        self.oracle.dep(s.1, s.0 as usize)
    }
}

/// Configuration for [`JointSpaceSampler`].
#[derive(Debug, Clone)]
pub struct JointSpaceConfig {
    /// Number of MH iterations `T`.
    pub iterations: u64,
    /// RNG seed.
    pub seed: u64,
    /// Initial state `⟨r, v⟩` as (probe index, vertex); `None` = uniform.
    pub initial: Option<(usize, Vertex)>,
    /// Record, after every iteration, the running estimate of
    /// `BC_{r_j}(r_i)` for the pair `(i, j) = trace_pair` (F4 convergence
    /// curves).
    pub trace_pair: Option<(usize, usize)>,
}

impl JointSpaceConfig {
    /// Defaults: uniform initial state, no trace.
    pub fn new(iterations: u64, seed: u64) -> Self {
        JointSpaceConfig { iterations, seed, initial: None, trace_pair: None }
    }

    /// Sets the initial state (probe index, vertex).
    pub fn with_initial(mut self, probe_idx: usize, v: Vertex) -> Self {
        self.initial = Some((probe_idx, v));
        self
    }

    /// Enables convergence tracing for the relative score `BC_{r_j}(r_i)`.
    pub fn with_trace_pair(mut self, i: usize, j: usize) -> Self {
        self.trace_pair = Some((i, j));
        self
    }
}

/// Result of a joint-space run.
#[derive(Debug, Clone)]
pub struct JointSpaceEstimate {
    /// The probe set `R` (in the order supplied).
    pub probes: Vec<Vertex>,
    /// `counts[i] = |M(i)|`: samples whose `r` component was `r_i`.
    pub counts: Vec<u64>,
    /// `relative[i][j]` = estimated `BC_{r_j}(r_i)` (Eq 23): the mean of
    /// `min{1, δ_{v•}(r_i)/δ_{v•}(r_j)}` over `M(j)`. `NaN` when
    /// `M(j)` is empty.
    pub relative: Vec<Vec<f64>>,
    /// Iterations performed.
    pub iterations: u64,
    /// Fraction of proposals accepted.
    pub acceptance_rate: f64,
    /// SPD passes spent (distinct source vertices evaluated).
    pub spd_passes: u64,
    /// Oracle cache statistics.
    pub oracle_stats: OracleStats,
    /// Running trace of the configured pair's relative score.
    pub trace: Option<Vec<f64>>,
}

impl JointSpaceEstimate {
    /// Estimated betweenness ratio `BC(r_i) / BC(r_j)` via Eq 22:
    /// `B̂C_{r_j}(r_i) / B̂C_{r_i}(r_j)`. `NaN` if either multiset is empty.
    pub fn ratio(&self, i: usize, j: usize) -> f64 {
        self.relative[i][j] / self.relative[j][i]
    }
}

/// The Eq 22/23 estimator state.
struct JointAccumulator {
    k: usize,
    /// `acc[i * k + j]` accumulates `min{1, δ(r_i)/δ(r_j)}` over `M(j)`.
    acc: Vec<f64>,
    counts: Vec<u64>,
    trace: Vec<f64>,
    trace_pair: Option<(usize, usize)>,
}

impl JointAccumulator {
    fn new(k: usize, trace_pair: Option<(usize, usize)>) -> Self {
        JointAccumulator {
            k,
            acc: vec![0.0; k * k],
            counts: vec![0; k],
            trace: Vec::new(),
            trace_pair,
        }
    }

    /// Adds one occupied state to the estimator multisets: `j` is the probe
    /// index, `deps` the full dependency row `δ_{v•}(probes)` of its source.
    fn absorb(&mut self, j: usize, deps: &[f64]) {
        let den = deps[j];
        for (i, &dep) in deps.iter().enumerate() {
            self.acc[i * self.k + j] += min_dependency_ratio(dep, den);
        }
        self.counts[j] += 1;
        if let Some((ti, tj)) = self.trace_pair {
            self.trace.push(self.relative_estimate(ti, tj));
        }
    }

    /// Current estimate of `BC_{r_j}(r_i)`; `NaN` while `M(j)` is empty.
    fn relative_estimate(&self, i: usize, j: usize) -> f64 {
        if self.counts[j] == 0 {
            return f64::NAN;
        }
        self.acc[i * self.k + j] / self.counts[j] as f64
    }

    /// Finalises into the public estimate.
    fn finish(
        self,
        probes: Vec<Vertex>,
        iterations: u64,
        acceptance_rate: f64,
        spd_passes: u64,
        oracle_stats: OracleStats,
    ) -> JointSpaceEstimate {
        let k = self.k;
        let mut relative = vec![vec![f64::NAN; k]; k];
        for (i, row) in relative.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                if self.counts[j] > 0 {
                    *cell = self.acc[i * k + j] / self.counts[j] as f64;
                }
            }
        }
        JointSpaceEstimate {
            probes,
            counts: self.counts,
            relative,
            iterations,
            acceptance_rate,
            spd_passes,
            oracle_stats,
            trace: if self.trace_pair.is_some() { Some(self.trace) } else { None },
        }
    }
}

/// The paper's joint-space Metropolis–Hastings sampler (§4.3).
///
/// States are pairs `⟨r, v⟩ ∈ R × V(G)`; both coordinates are re-proposed
/// uniformly and independently each step, and moves are accepted with
/// probability `min{1, δ_{v'•}(r') / δ_{v•}(r)}` (Eq 17), giving the
/// stationary law `P[r, v] ∝ δ_{v•}(r)` (Eq 18). Samples with `r`-component
/// `r_j` form the multiset `M(j)`; relative scores and ratios follow
/// Eq 22/23. One SPD pass per *distinct* source vertex covers all probes
/// simultaneously (the backward accumulation yields the whole dependency
/// vector).
///
/// The sampler is its own [`EngineDriver`]: [`JointSpaceSampler::into_engine`]
/// runs it in segments, at any thread count (see [`crate::pipeline`]). The
/// monitored series is the occupied state's dependency `δ_{v•}(r_j)` — the
/// same series the single-space diagnostics use; a stderr target applies to
/// its normalised mean (a proxy for overall chain stability, since the
/// joint estimate is a matrix rather than one scalar).
pub struct JointSpaceSampler<'g> {
    chain: MetropolisHastings<JointTarget<'g>, JointProposal, SmallRng>,
    probes: Vec<Vertex>,
    config: JointSpaceConfig,
    iteration: u64,
    acc: JointAccumulator,
    prefetch: PrefetchConfig,
}

/// Validates a joint-space configuration, returning `(n, k)`.
fn validate_joint(
    view: &SpdView<'_>,
    probes: &[Vertex],
    config: &JointSpaceConfig,
) -> Result<(usize, usize), CoreError> {
    let n = view.num_vertices();
    if n < 3 {
        return Err(CoreError::GraphTooSmall { num_vertices: n });
    }
    if probes.len() < 2 {
        return Err(CoreError::ProbeSetTooSmall { len: probes.len() });
    }
    for (i, &p) in probes.iter().enumerate() {
        if p as usize >= n {
            return Err(CoreError::ProbeOutOfRange { probe: p, num_vertices: n });
        }
        if !view.is_retained(p) {
            return Err(CoreError::PrunedProbe { probe: p });
        }
        if probes[..i].contains(&p) {
            return Err(CoreError::DuplicateProbe { probe: p });
        }
    }
    if let Some((i, v)) = config.initial {
        if i >= probes.len() {
            return Err(CoreError::ProbeOutOfRange {
                probe: i as Vertex,
                num_vertices: probes.len(),
            });
        }
        if v as usize >= n {
            return Err(CoreError::ProbeOutOfRange { probe: v, num_vertices: n });
        }
    }
    if let Some((i, j)) = config.trace_pair {
        if i >= probes.len() || j >= probes.len() {
            return Err(CoreError::ProbeOutOfRange {
                probe: i.max(j) as Vertex,
                num_vertices: probes.len(),
            });
        }
    }
    Ok((n, probes.len()))
}

impl<'g> JointSpaceSampler<'g> {
    /// Builds a sampler for probe set `probes` on `g`.
    pub fn new(
        g: &'g CsrGraph,
        probes: &[Vertex],
        config: JointSpaceConfig,
    ) -> Result<Self, CoreError> {
        Self::for_view(SpdView::direct(g), probes, config)
    }

    /// Builds a sampler evaluating densities through `view`. As for
    /// [`crate::SingleSpaceSampler::for_view`], the joint state space stays
    /// `R × V(G)` in original ids and the target density `δ_{v•}(r)` is
    /// mapped exactly through the reduction, so the stationary law (Eq 18)
    /// needs no correction factor. Every probe must survive the reduction
    /// ([`CoreError::PrunedProbe`] otherwise).
    pub fn for_view(
        view: SpdView<'g>,
        probes: &[Vertex],
        config: JointSpaceConfig,
    ) -> Result<Self, CoreError> {
        let (n, k) = validate_joint(&view, probes, &config)?;
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let initial: JointState = match config.initial {
            Some((i, v)) => (i as u32, v),
            None => (rng.random_range(0..k as u32), rng.random_range(0..n as Vertex)),
        };
        let acc_rng = rng.split_stream();
        let target = JointTarget { oracle: ProbeOracle::for_view(view, probes) };
        let chain = MetropolisHastings::with_streams(
            target,
            JointProposal { k: k as u32, n: n as u32 },
            initial,
            rng,
            acc_rng,
        );

        let mut sampler = JointSpaceSampler {
            chain,
            probes: probes.to_vec(),
            acc: JointAccumulator::new(k, config.trace_pair),
            config,
            iteration: 0,
            prefetch: PrefetchConfig::sequential(),
        };
        sampler.absorb_current_state();
        Ok(sampler)
    }

    /// The probe set.
    pub fn probes(&self) -> &[Vertex] {
        &self.probes
    }

    /// The density oracle (its counters are the run's SPD-pass record).
    pub fn oracle(&self) -> &ProbeOracle<'g> {
        &self.chain.target().oracle
    }

    /// Adds the chain's current state to the estimator multisets.
    fn absorb_current_state(&mut self) {
        let (j, v) = *self.chain.state();
        // One cached lookup returns delta_v on every probe.
        let deps = self.chain.target_mut().oracle.deps(v);
        self.acc.absorb(j as usize, deps);
    }

    /// One MH iteration. Segments read the occupied density off the chain
    /// afterwards.
    fn step(&mut self) {
        self.chain.step();
        self.iteration += 1;
        self.absorb_current_state();
    }

    /// Runs the configured number of iterations and finalises.
    ///
    /// Since the engine refactor this is a thin configuration of
    /// [`EstimationEngine`] with [`mhbc_mcmc::StoppingRule::FixedIterations`] —
    /// bit-identical to the historical run-to-completion loop.
    pub fn run(self) -> JointSpaceEstimate {
        self.into_engine(EngineConfig::fixed()).run().0
    }

    /// Wraps the sampler in a segmented [`EstimationEngine`] for adaptive
    /// stopping and checkpointing.
    pub fn into_engine(self, engine: EngineConfig) -> EstimationEngine<Self> {
        let budget = self.config.iterations;
        EstimationEngine::new(self, budget, engine)
    }
}

impl EngineDriver for JointSpaceSampler<'_> {
    type Output = JointSpaceEstimate;

    fn prime(&mut self, out: &mut Vec<f64>) {
        // The constructor absorbed the initial state as sample 0.
        if self.iteration == 0 {
            out.push(self.chain.current_density());
        }
    }

    fn run_segment(&mut self, iters: u64, out: &mut Vec<f64>) {
        let (k, n) = (self.probes.len() as u32, self.oracle().view().num_vertices() as u32);
        for chunk in self.prefetch.chunks(iters) {
            if self.prefetch.is_parallel() {
                let chain = &mut self.chain;
                let upcoming =
                    pipeline::upcoming(JointProposal { k, n }, chain.proposal_rng().clone(), chunk);
                let sources = upcoming.map(|(_, v): JointState| v);
                chain.target_mut().oracle.prefetch(sources, self.prefetch.threads);
            }
            for _ in 0..chunk {
                self.step();
                out.push(self.chain.current_density());
            }
        }
    }

    fn set_prefetch(&mut self, prefetch: PrefetchConfig) {
        self.prefetch = prefetch;
    }

    fn iterations(&self) -> u64 {
        self.iteration
    }

    fn scale(&self) -> f64 {
        self.oracle().view().num_vertices() as f64 - 1.0
    }

    fn finish(self) -> JointSpaceEstimate {
        let acceptance_rate = self.chain.stats().acceptance_rate();
        let target = self.chain.into_target();
        self.acc.finish(
            self.probes,
            self.iteration,
            acceptance_rate,
            target.oracle.spd_passes(),
            target.oracle.stats(),
        )
    }
}

impl JointAccumulator {
    fn save_into(&self, w: &mut Writer) {
        w.u64(self.k as u64);
        w.f64s(&self.acc);
        w.u64(self.counts.len() as u64);
        for &c in &self.counts {
            w.u64(c);
        }
        w.f64s(&self.trace);
    }

    /// Reads an accumulator over `k` probes, the count already validated
    /// against the view. The saved arity is checked before anything is
    /// allocated, so a forged one cannot size the `k * k` matrix.
    fn restore_from(
        k: usize,
        trace_pair: Option<(usize, usize)>,
        r: &mut Reader<'_>,
    ) -> Result<Self, CoreError> {
        if r.u64()? != k as u64 {
            return Err(crate::checkpoint::corrupt("probe count does not match accumulator"));
        }
        let mut acc = JointAccumulator::new(k, trace_pair);
        acc.acc = r.f64s()?;
        if acc.acc.len() != k * k {
            return Err(crate::checkpoint::corrupt("joint accumulator arity mismatch"));
        }
        let nc = r.u64()? as usize;
        if nc != k {
            return Err(crate::checkpoint::corrupt("joint count arity mismatch"));
        }
        acc.counts = (0..nc).map(|_| r.u64()).collect::<Result<_, _>>()?;
        acc.trace = r.f64s()?;
        Ok(acc)
    }
}

impl CheckpointDriver for JointSpaceSampler<'_> {
    fn kind(&self) -> CheckpointKind {
        CheckpointKind::Joint
    }

    fn view(&self) -> SpdView<'_> {
        self.oracle().view()
    }

    fn save(&self, w: &mut Writer) {
        w.u64(self.probes.len() as u64);
        for &p in &self.probes {
            w.u32(p);
        }
        w.u64(self.config.iterations);
        w.u64(self.config.seed);
        match self.config.trace_pair {
            None => w.u8(0),
            Some((i, j)) => {
                w.u8(1);
                w.u64(i as u64);
                w.u64(j as u64);
            }
        }
        w.u64(self.iteration);
        checkpoint::save_chain(w, &self.chain.snapshot(), |w, &(j, v)| {
            w.u32(j);
            w.u32(v);
        });
        self.acc.save_into(w);
        self.oracle().save(w);
    }
}

impl<'g> JointSpaceSampler<'g> {
    /// Rebuilds a sampler from a checkpoint payload against `view` (see
    /// `SingleSpaceSampler::restore_from`): nothing is re-evaluated.
    pub(crate) fn restore_from(view: SpdView<'g>, r: &mut Reader<'_>) -> Result<Self, CoreError> {
        let np = r.u64()? as usize;
        if np > r.remaining() / 4 {
            return Err(crate::checkpoint::corrupt("probe list longer than the checkpoint"));
        }
        let probes: Vec<Vertex> = (0..np).map(|_| r.u32()).collect::<Result<_, _>>()?;
        let mut config = JointSpaceConfig::new(r.u64()?, r.u64()?);
        if r.u8()? != 0 {
            config.trace_pair = Some((r.u64()? as usize, r.u64()? as usize));
        }
        let (n, k) = validate_joint(&view, &probes, &config)?;
        let iteration = r.u64()?;
        let snap = checkpoint::read_chain(r, |r| Ok((r.u32()?, r.u32()?)))?;
        if snap.state.0 as usize >= k || snap.state.1 as usize >= n {
            return Err(checkpoint::corrupt("chain state out of range"));
        }
        let acc = JointAccumulator::restore_from(k, config.trace_pair, r)?;
        let mut oracle = ProbeOracle::for_view(view, &probes);
        oracle.restore(r)?;
        let chain = MetropolisHastings::restore(
            JointTarget { oracle },
            JointProposal { k: k as u32, n: n as u32 },
            snap,
        );
        let prefetch = PrefetchConfig::sequential();
        Ok(JointSpaceSampler { chain, probes, config, iteration, acc, prefetch })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimal::exact_relative_matrix;
    use mhbc_graph::generators;
    use mhbc_spd::exact_betweenness;

    #[test]
    fn relative_scores_converge_to_stationary_limits() {
        let g = generators::barbell(6, 3);
        // Probes: the three path vertices (distinct positive BC).
        let probes = [6u32, 7, 8];
        // The sampler's M(j)-averages converge to the P_rj-weighted scores
        // (see crate::optimal soundness note), which on this near-flat
        // family are also close to the Eq 23 uniform scores.
        let stationary = crate::optimal::stationary_relative_matrix(&g, &probes, 2);
        let uniform = exact_relative_matrix(&g, &probes, 2);
        let est =
            JointSpaceSampler::new(&g, &probes, JointSpaceConfig::new(60_000, 21)).unwrap().run();
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    (est.relative[i][j] - stationary[i][j]).abs() < 0.05,
                    "({i},{j}): est {} vs stationary limit {}",
                    est.relative[i][j],
                    stationary[i][j]
                );
                assert!(
                    (est.relative[i][j] - uniform[i][j]).abs() < 0.1,
                    "({i},{j}): est {} vs Eq 23 {}",
                    est.relative[i][j],
                    uniform[i][j]
                );
            }
        }
    }

    #[test]
    fn ratio_estimates_betweenness_ratio() {
        // Theorem 3: the ratio of relative scores equals BC(ri)/BC(rj).
        let g = generators::barbell(6, 3);
        let probes = [6u32, 7];
        let bc = exact_betweenness(&g);
        let truth = bc[6] / bc[7];
        let est =
            JointSpaceSampler::new(&g, &probes, JointSpaceConfig::new(80_000, 5)).unwrap().run();
        let ratio = est.ratio(0, 1);
        assert!((ratio - truth).abs() / truth < 0.1, "ratio {ratio} vs truth {truth}");
    }

    #[test]
    fn diagonal_relative_scores_are_one() {
        let g = generators::barbell(4, 2);
        let est =
            JointSpaceSampler::new(&g, &[4, 5], JointSpaceConfig::new(2_000, 9)).unwrap().run();
        for i in 0..2 {
            if est.counts[i] > 0 {
                assert!((est.relative[i][i] - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn counts_sum_to_samples() {
        let g = generators::barbell(4, 2);
        let t = 3_000;
        let est =
            JointSpaceSampler::new(&g, &[4, 5, 0], JointSpaceConfig::new(t, 2)).unwrap().run();
        // T iterations + the initial state.
        assert_eq!(est.counts.iter().sum::<u64>(), t + 1);
    }

    #[test]
    fn stationary_marginal_over_probes_proportional_to_bc() {
        // Eq 18: P[r] = BC-mass of r, so |M(i)|/|M(j)| -> BC(ri)/BC(rj).
        let g = generators::barbell(6, 3);
        let probes = [6u32, 7];
        let bc = exact_betweenness(&g);
        let est =
            JointSpaceSampler::new(&g, &probes, JointSpaceConfig::new(80_000, 13)).unwrap().run();
        let emp = est.counts[0] as f64 / est.counts[1] as f64;
        let truth = bc[6] / bc[7];
        assert!((emp - truth).abs() / truth < 0.1, "empirical {emp} vs {truth}");
    }

    #[test]
    fn trace_records_convergence() {
        let g = generators::barbell(4, 2);
        let cfg = JointSpaceConfig::new(500, 3).with_trace_pair(0, 1);
        let est = JointSpaceSampler::new(&g, &[4, 5], cfg).unwrap().run();
        let trace = est.trace.unwrap();
        assert_eq!(trace.len(), 501);
        let last = *trace.last().unwrap();
        assert!(
            (last - est.relative[0][1]).abs() < 1e-12
                || (last.is_nan() && est.relative[0][1].is_nan())
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let g = generators::barbell(4, 2);
        let run = |seed| {
            JointSpaceSampler::new(&g, &[4, 5], JointSpaceConfig::new(1_000, seed))
                .unwrap()
                .run()
                .relative
        };
        assert_eq!(run(4), run(4));
    }

    #[test]
    fn validation_errors() {
        let g = generators::path(10);
        assert!(matches!(
            JointSpaceSampler::new(&g, &[1], JointSpaceConfig::new(10, 0)),
            Err(CoreError::ProbeSetTooSmall { len: 1 })
        ));
        assert!(matches!(
            JointSpaceSampler::new(&g, &[1, 1], JointSpaceConfig::new(10, 0)),
            Err(CoreError::DuplicateProbe { probe: 1 })
        ));
        assert!(matches!(
            JointSpaceSampler::new(&g, &[1, 99], JointSpaceConfig::new(10, 0)),
            Err(CoreError::ProbeOutOfRange { probe: 99, .. })
        ));
        assert!(matches!(
            JointSpaceSampler::new(&g, &[1, 2], JointSpaceConfig::new(10, 0).with_trace_pair(0, 5)),
            Err(CoreError::ProbeOutOfRange { .. })
        ));
    }

    #[test]
    fn reduced_view_matches_direct_on_pendant_free_dyadic_graphs() {
        use mhbc_graph::reduce::{reduce, ReduceLevel};
        let g = generators::cycle(12);
        let red = reduce(&g, ReduceLevel::Full).unwrap();
        let probes = [0u32, 3, 7];
        let config = JointSpaceConfig::new(3_000, 23);
        let direct = JointSpaceSampler::new(&g, &probes, config.clone()).unwrap().run();
        let through = JointSpaceSampler::for_view(SpdView::preprocessed(&g, &red), &probes, config)
            .unwrap()
            .run();
        assert_eq!(direct.counts, through.counts);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(
                    direct.relative[i][j].to_bits(),
                    through.relative[i][j].to_bits(),
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn reduced_view_rejects_pruned_probes() {
        use mhbc_graph::reduce::{reduce, ReduceLevel};
        let g = generators::lollipop(5, 3);
        let red = reduce(&g, ReduceLevel::Prune).unwrap();
        assert!(matches!(
            JointSpaceSampler::for_view(
                SpdView::preprocessed(&g, &red),
                &[0, 6],
                JointSpaceConfig::new(10, 0)
            ),
            Err(CoreError::PrunedProbe { probe: 6 })
        ));
    }

    #[test]
    fn weighted_graphs_supported() {
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(31);
        let g = generators::assign_uniform_weights(&generators::barbell(5, 2), 1.0, 2.0, &mut rng);
        let est =
            JointSpaceSampler::new(&g, &[5, 6], JointSpaceConfig::new(5_000, 1)).unwrap().run();
        assert!(est.relative[0][1].is_finite());
    }
}
