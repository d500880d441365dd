//! The single-space MCMC sampler (§4.2).

use crate::checkpoint::{self, CheckpointKind, Reader, Writer};
use crate::engine::{CheckpointDriver, EngineConfig, EngineDriver, EstimationEngine};
use crate::oracle::{OracleStats, ProbeOracle};
use crate::pipeline::{self, PrefetchConfig};
use crate::CoreError;
use mhbc_graph::{CsrGraph, Vertex};
use mhbc_mcmc::{MetropolisHastings, StepOutcome, StreamSplit, TargetDensity, UniformProposal};
use mhbc_spd::SpdView;
use rand::{rngs::SmallRng, RngExt, SeedableRng};
use std::cell::{Ref, RefCell};
use std::rc::Rc;

/// Target density of the single-space chain: `f(v) = δ_{v•}(r)` — the
/// unnormalised form of the optimal distribution `P_r[v]` (Eq 5).
///
/// The oracle is this chain's own one-probe cache, or one the probe
/// scheduler shares among the chains of a whole probe set; either way the
/// chain reads column `idx` of its rows and counts its own cache traffic.
struct SingleTarget<'g> {
    oracle: Rc<RefCell<ProbeOracle<'g>>>,
    idx: usize,
    /// Rows this chain added to the cache (lookups and prefetches), plus
    /// the rows restored from a checkpoint.
    passes: u64,
    /// This chain's lookups.
    stats: OracleStats,
}

impl<'g> SingleTarget<'g> {
    /// A chain owning `oracle` (one probe, fresh or restored), whose
    /// counters are therefore the oracle's.
    fn private(oracle: ProbeOracle<'g>) -> Self {
        let (passes, stats) = (oracle.spd_passes(), oracle.stats());
        SingleTarget { oracle: Rc::new(RefCell::new(oracle)), idx: 0, passes, stats }
    }

    /// A chain reading probe `idx` of a shared `oracle`.
    fn shared(oracle: &Rc<RefCell<ProbeOracle<'g>>>, idx: usize) -> Self {
        SingleTarget { oracle: Rc::clone(oracle), idx, passes: 0, stats: OracleStats::default() }
    }

    fn prefetch(&mut self, sources: impl IntoIterator<Item = Vertex>, threads: usize) {
        self.passes += self.oracle.borrow_mut().prefetch(sources, threads);
    }
}

impl TargetDensity for SingleTarget<'_> {
    type State = Vertex;

    fn density(&mut self, v: &Vertex) -> f64 {
        let mut oracle = self.oracle.borrow_mut();
        let (row, computed) = oracle.lookup(*v);
        if computed {
            self.passes += 1;
            self.stats.misses += 1;
        } else {
            self.stats.hits += 1;
        }
        row[self.idx]
    }
}

/// Configuration for [`SingleSpaceSampler`].
#[derive(Debug, Clone)]
pub struct SingleSpaceConfig {
    /// Number of MH iterations `T` (the chain visits `T + 1` states).
    pub iterations: u64,
    /// RNG seed; every run is deterministic given the seed.
    pub seed: u64,
    /// Initial state; `None` draws it uniformly at random (the paper's
    /// default). Theorem 1 holds from *any* initial state.
    pub initial: Option<Vertex>,
    /// Iterations to discard before accumulating. The paper proves no
    /// burn-in is needed (remark after Theorem 1); nonzero values exist for
    /// the F6 ablation.
    pub burn_in: u64,
    /// `true` (default, and the reading consistent with Theorem 1): a
    /// rejected proposal re-counts the current state in the estimator
    /// multiset `M`. `false` reproduces the literal "accepted samples only"
    /// reading of Eq 7, which experiment F5 shows is biased.
    pub count_rejections: bool,
    /// Record the running estimate and per-step dependency after every
    /// iteration (costs two `Vec<f64>` of length `T`).
    pub record_trace: bool,
}

impl SingleSpaceConfig {
    /// Defaults: uniform initial state, no burn-in, rejections counted,
    /// no trace.
    pub fn new(iterations: u64, seed: u64) -> Self {
        SingleSpaceConfig {
            iterations,
            seed,
            initial: None,
            burn_in: 0,
            count_rejections: true,
            record_trace: false,
        }
    }

    /// Sets the initial state.
    pub fn with_initial(mut self, v: Vertex) -> Self {
        self.initial = Some(v);
        self
    }

    /// Sets a burn-in period (F6 ablation).
    pub fn with_burn_in(mut self, burn_in: u64) -> Self {
        self.burn_in = burn_in;
        self
    }

    /// Switches to the literal accepted-only multiset (F5 ablation).
    pub fn accepted_only(mut self) -> Self {
        self.count_rejections = false;
        self
    }

    /// Enables trace recording.
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }
}

/// Result of a single-space run.
#[derive(Debug, Clone)]
pub struct SingleSpaceEstimate {
    /// The estimated betweenness `B̂C(r)` — the paper's Eq 7 estimator,
    /// reproduced faithfully. **Caveat (see [`crate::optimal`])**: its true
    /// limit is the stationary mean [`crate::optimal::eq7_limit`], which
    /// upper-bounds `BC(r)` and coincides with it only for near-flat
    /// dependency profiles (the paper's Theorem 2 regime).
    pub bc: f64,
    /// Support-corrected unbiased estimate of `BC(r)` (reproduction
    /// extension): `BC(r) = Σδ/(n(n−1))` is recovered as
    /// `p̂ · |support-steps| / ((n−1) · Σ_t 1/δ_t)`, where `p̂` is the
    /// fraction of (uniform, i.i.d.) *proposals* with positive dependency
    /// — estimating `|supp δ|/n` — and the harmonic term estimates
    /// `E_{P_r}[1/δ] = |supp δ|/Σδ`. Unbiased in the limit but with heavier
    /// tails than Eq 7 when tiny positive dependencies exist.
    pub bc_corrected: f64,
    /// The probe vertex.
    pub r: Vertex,
    /// Iterations performed (`T`).
    pub iterations: u64,
    /// Fraction of proposals accepted.
    pub acceptance_rate: f64,
    /// SPD passes spent (distinct sources evaluated) — the true cost: the
    /// rows this chain added to its oracle, restored rows included. Chains
    /// sharing one oracle (the probe scheduler) split its rows between them.
    pub spd_passes: u64,
    /// This chain's oracle lookups.
    pub oracle_stats: OracleStats,
    /// Running estimate after each counted iteration (when traced).
    pub trace: Option<Vec<f64>>,
    /// Per-iteration dependency `δ_{v_t•}(r)` of the occupied state (when
    /// traced) — the series fed to the mixing diagnostics (F2).
    pub density_series: Option<Vec<f64>>,
}

/// Per-step report from the streaming API.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SingleStepInfo {
    /// Iterations done so far.
    pub iteration: u64,
    /// Whether this step's proposal was accepted.
    pub accepted: bool,
    /// Running estimate `B̂C(r)` including this step.
    pub estimate: f64,
}

/// The Eq 7 (and support-corrected) estimator state.
struct SingleAccumulator {
    n: usize,
    burn_in: u64,
    count_rejections: bool,
    record_trace: bool,
    iteration: u64,
    sum_delta: f64,
    counted: u64,
    proposals_support: u64,
    inv_delta_sum: f64,
    support_counted: u64,
    trace: Vec<f64>,
    density_series: Vec<f64>,
}

impl SingleAccumulator {
    fn new(config: &SingleSpaceConfig, n: usize) -> Self {
        SingleAccumulator {
            n,
            burn_in: config.burn_in,
            count_rejections: config.count_rejections,
            record_trace: config.record_trace,
            iteration: 0,
            sum_delta: 0.0,
            counted: 0,
            proposals_support: 0,
            inv_delta_sum: 0.0,
            support_counted: 0,
            trace: Vec::new(),
            density_series: Vec::new(),
        }
    }

    /// Absorbs the initial state (sample 0 of the multiset) unless burnt in.
    fn absorb_initial(&mut self, d0: f64) {
        if self.burn_in > 0 {
            return;
        }
        self.sum_delta += d0;
        self.counted = 1;
        if d0 > 0.0 {
            self.inv_delta_sum += 1.0 / d0;
            self.support_counted += 1;
        }
        if self.record_trace {
            self.density_series.push(d0);
            self.trace.push(self.estimate());
        }
    }

    /// Absorbs one chain step.
    fn absorb(&mut self, out: &StepOutcome) {
        self.iteration += 1;
        if out.proposed_density > 0.0 {
            self.proposals_support += 1;
        }
        if self.iteration > self.burn_in {
            if self.count_rejections || out.accepted {
                self.sum_delta += out.density;
            }
            self.counted += 1;
            if out.density > 0.0 {
                self.inv_delta_sum += 1.0 / out.density;
                self.support_counted += 1;
            }
            if self.record_trace {
                self.density_series.push(out.density);
                self.trace.push(self.estimate());
            }
        }
    }

    fn iteration(&self) -> u64 {
        self.iteration
    }

    fn estimate(&self) -> f64 {
        if self.counted == 0 {
            return 0.0;
        }
        self.sum_delta / (self.counted as f64 * (self.n as f64 - 1.0))
    }

    fn estimate_corrected(&self) -> f64 {
        if self.iteration == 0 || self.support_counted == 0 || self.inv_delta_sum <= 0.0 {
            return 0.0;
        }
        let p_hat = self.proposals_support as f64 / self.iteration as f64;
        p_hat * self.support_counted as f64 / ((self.n as f64 - 1.0) * self.inv_delta_sum)
    }

    /// Finalises into the public estimate.
    fn finish(
        self,
        r: Vertex,
        acceptance_rate: f64,
        spd_passes: u64,
        oracle_stats: OracleStats,
    ) -> SingleSpaceEstimate {
        let bc = self.estimate();
        let bc_corrected = self.estimate_corrected();
        SingleSpaceEstimate {
            bc,
            bc_corrected,
            r,
            iterations: self.iteration,
            acceptance_rate,
            spd_passes,
            oracle_stats,
            trace: if self.record_trace { Some(self.trace) } else { None },
            density_series: if self.record_trace { Some(self.density_series) } else { None },
        }
    }
}

/// Validates a single-space configuration, returning `n` (the *original*
/// vertex count — the sampler state space, whatever the view's reduction).
fn validate_single(
    view: &SpdView<'_>,
    r: Vertex,
    config: &SingleSpaceConfig,
) -> Result<usize, CoreError> {
    let n = view.num_vertices();
    if n < 3 {
        return Err(CoreError::GraphTooSmall { num_vertices: n });
    }
    if r as usize >= n {
        return Err(CoreError::ProbeOutOfRange { probe: r, num_vertices: n });
    }
    if !view.is_retained(r) {
        return Err(CoreError::PrunedProbe { probe: r });
    }
    if let Some(v0) = config.initial {
        if v0 as usize >= n {
            return Err(CoreError::ProbeOutOfRange { probe: v0, num_vertices: n });
        }
    }
    Ok(n)
}

/// Derives a single-space chain's `(initial state, proposal stream,
/// acceptance stream)` from its seed.
fn derive_streams(seed: u64, initial: Option<Vertex>, n: usize) -> (Vertex, SmallRng, SmallRng) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let initial = initial.unwrap_or_else(|| rng.random_range(0..n as Vertex));
    let accept_rng = rng.split_stream();
    (initial, rng, accept_rng)
}

/// The paper's single-space Metropolis–Hastings sampler (§4.2).
///
/// State space `V(G)`; proposal uniform over `V(G)` (independence MH);
/// acceptance `min{1, δ_{v'•}(r)/δ_{v•}(r)}` (Eq 6); estimator the chain
/// average of `δ_{v•}(r)/(|V|−1)` (Eq 7). Provides an `(ε, δ)`-guarantee
/// with `T ≥ µ(r)²/(2ε²) ln(2/δ)` iterations (Theorem 1 / Ineq 14); see
/// [`crate::planner`].
///
/// The sampler steps one iteration at a time ([`SingleSpaceSampler::step`])
/// and is its own [`EngineDriver`]: [`SingleSpaceSampler::into_engine`] runs
/// it in segments, and [`EstimationEngine::with_prefetch`] computes its
/// upcoming densities on several threads with bit-identical output (see
/// [`crate::pipeline`]). Segments also track the observed proposal-stream
/// maximum and mean for the planner's `µ(r)` refit (the proposals are
/// uniform i.i.d. draws, so `max/mean` is a plug-in for `n·max δ / Σ δ`).
pub struct SingleSpaceSampler<'g> {
    chain: MetropolisHastings<SingleTarget<'g>, UniformProposal, SmallRng>,
    r: Vertex,
    config: SingleSpaceConfig,
    acc: SingleAccumulator,
    proposal_sum: f64,
    max_proposed: f64,
    prefetch: PrefetchConfig,
}

impl<'g> SingleSpaceSampler<'g> {
    /// Builds a sampler for probe vertex `r` on `g` (weighted or not).
    pub fn new(g: &'g CsrGraph, r: Vertex, config: SingleSpaceConfig) -> Result<Self, CoreError> {
        Self::for_view(SpdView::direct(g), r, config)
    }

    /// Builds a sampler evaluating densities through `view` — directly on
    /// the graph, or through its reduction (`mhbc_graph::reduce`).
    ///
    /// # Stationary distribution under a reduction
    ///
    /// The chain's state space stays the **original** vertex set `V(G)`
    /// whatever the view: proposals are uniform over `V(G)`, and the target
    /// density of state `v` is `δ_{v•}(r)` mapped *exactly* through the
    /// reduction (`mhbc_spd::reduced` proves the mapping against direct
    /// Brandes). Since the density function is pointwise identical to the
    /// direct one, the acceptance ratios and therefore the stationary law
    /// `P_r[v] ∝ δ_{v•}(r)` (Eq 5) are preserved with **no sampling-space
    /// correction factor** — only the per-evaluation cost changes (one SPD
    /// pass over the reduced CSR, shared across structurally equivalent
    /// sources). The alternative design — running the chain on the reduced
    /// vertex set — would require reweighting proposals by class size
    /// `Ω(z)/n` to keep Eq 5; keeping the original space avoids that
    /// correction entirely and keeps seeds comparable across preprocess
    /// levels.
    ///
    /// Errors with [`CoreError::PrunedProbe`] if the reduction pruned `r`
    /// (its exact betweenness is already known in closed form).
    pub fn for_view(
        view: SpdView<'g>,
        r: Vertex,
        config: SingleSpaceConfig,
    ) -> Result<Self, CoreError> {
        let n = validate_single(&view, r, &config)?;
        let target = SingleTarget::private(ProbeOracle::for_view(view, &[r]));
        Ok(Self::with_target(target, r, config, n))
    }

    /// One sampler per probe of `probes`, all reading one shared oracle
    /// over the whole probe set, so a source that several chains visit
    /// costs one SPD pass; `config(i)` configures probe `i`'s chain. Each
    /// chain's values are bit-identical to its own
    /// [`SingleSpaceSampler::for_view`] run's (the targeted pass is exact at
    /// every probe). Probes must be distinct; every one is validated before
    /// the oracle is built.
    pub(crate) fn sharing_oracle(
        view: SpdView<'g>,
        probes: &[Vertex],
        config: impl Fn(usize) -> SingleSpaceConfig,
    ) -> Result<Vec<Self>, CoreError> {
        let configs: Vec<_> = (0..probes.len()).map(config).collect();
        for (&r, config) in probes.iter().zip(&configs) {
            validate_single(&view, r, config)?;
        }
        let n = view.num_vertices();
        let oracle = Rc::new(RefCell::new(ProbeOracle::for_view(view, probes)));
        let samplers = probes.iter().zip(configs).enumerate().map(|(i, (&r, config))| {
            Self::with_target(SingleTarget::shared(&oracle, i), r, config, n)
        });
        Ok(samplers.collect())
    }

    /// Starts the chain of probe `r` on `target` (`config` validated, `n`
    /// the state-space size).
    fn with_target(
        target: SingleTarget<'g>,
        r: Vertex,
        config: SingleSpaceConfig,
        n: usize,
    ) -> Self {
        let (initial, prop_rng, acc_rng) = derive_streams(config.seed, config.initial, n);
        let chain = MetropolisHastings::with_streams(
            target,
            UniformProposal::new(n),
            initial,
            prop_rng,
            acc_rng,
        );

        let mut acc = SingleAccumulator::new(&config, n);
        acc.absorb_initial(chain.current_density());
        SingleSpaceSampler {
            chain,
            r,
            config,
            acc,
            proposal_sum: 0.0,
            max_proposed: 0.0,
            prefetch: PrefetchConfig::sequential(),
        }
    }

    /// The probe vertex.
    pub fn probe(&self) -> Vertex {
        self.r
    }

    /// Current estimate `B̂C(r)` from the samples counted so far.
    pub fn estimate(&self) -> f64 {
        self.acc.estimate()
    }

    /// Current support-corrected estimate (see
    /// [`SingleSpaceEstimate::bc_corrected`]); 0 until proposals exist.
    pub fn estimate_corrected(&self) -> f64 {
        self.acc.estimate_corrected()
    }

    /// The density oracle (its counters are the run's SPD-pass record;
    /// under the probe scheduler, the record of every probe's chain).
    pub fn oracle(&self) -> Ref<'_, ProbeOracle<'g>> {
        self.chain.target().oracle.borrow()
    }

    /// Performs one MH iteration and updates the estimator.
    pub fn step(&mut self) -> SingleStepInfo {
        let out = self.step_raw();
        SingleStepInfo {
            iteration: self.acc.iteration(),
            accepted: out.accepted,
            estimate: self.acc.estimate(),
        }
    }

    /// One MH iteration, exposing the raw chain outcome (segments need the
    /// occupied-state and proposal densities).
    fn step_raw(&mut self) -> StepOutcome {
        let out = self.chain.step();
        self.acc.absorb(&out);
        out
    }

    /// Runs the configured number of iterations and finalises.
    ///
    /// Since the engine refactor this is a thin configuration of
    /// [`EstimationEngine`] with [`mhbc_mcmc::StoppingRule::FixedIterations`] —
    /// bit-identical to the historical run-to-completion loop.
    pub fn run(self) -> SingleSpaceEstimate {
        self.into_engine(EngineConfig::fixed()).run().0
    }

    /// Wraps the sampler in a segmented [`EstimationEngine`] for adaptive
    /// stopping and checkpointing; the iteration count in the sampler's
    /// config becomes the engine's budget (upper bound).
    pub fn into_engine(self, engine: EngineConfig) -> EstimationEngine<Self> {
        let budget = self.config.iterations;
        EstimationEngine::new(self, budget, engine)
    }

    /// Finalises early (fewer than `config.iterations` steps).
    pub fn finish(self) -> SingleSpaceEstimate {
        let acceptance_rate = self.chain.stats().acceptance_rate();
        let target = self.chain.into_target();
        self.acc.finish(self.r, acceptance_rate, target.passes, target.stats)
    }

    /// Rebuilds a sampler from a checkpoint payload against `view`
    /// (validated by the caller). Nothing is re-evaluated: the chain's
    /// cached density, the accumulators, and the memoised rows come back
    /// verbatim, so the resumed run is bit-identical to an uninterrupted
    /// one.
    pub(crate) fn restore_from(view: SpdView<'g>, r: &mut Reader<'_>) -> Result<Self, CoreError> {
        let probe = r.u32()?;
        let config = restore_config(r)?;
        let n = validate_single(&view, probe, &config)?;
        let snap = checkpoint::read_chain(r, |r| r.u32())?;
        if (snap.state as usize) >= n {
            return Err(checkpoint::corrupt("chain state out of range"));
        }
        let acc = SingleAccumulator::restore_from(&config, n, r)?;
        let proposal_sum = r.f64()?;
        let max_proposed = r.f64()?;
        let mut oracle = ProbeOracle::for_view(view, &[probe]);
        oracle.restore(r)?;
        let target = SingleTarget::private(oracle);
        let chain = MetropolisHastings::restore(target, UniformProposal::new(n), snap);
        Ok(SingleSpaceSampler {
            chain,
            r: probe,
            config,
            acc,
            proposal_sum,
            max_proposed,
            prefetch: PrefetchConfig::sequential(),
        })
    }
}

impl SingleAccumulator {
    fn save_into(&self, w: &mut Writer) {
        w.u64(self.iteration);
        w.f64(self.sum_delta);
        w.u64(self.counted);
        w.u64(self.proposals_support);
        w.f64(self.inv_delta_sum);
        w.u64(self.support_counted);
        w.f64s(&self.trace);
        w.f64s(&self.density_series);
    }

    fn restore_from(
        config: &SingleSpaceConfig,
        n: usize,
        r: &mut Reader<'_>,
    ) -> Result<Self, CoreError> {
        let mut acc = SingleAccumulator::new(config, n);
        acc.iteration = r.u64()?;
        acc.sum_delta = r.f64()?;
        acc.counted = r.u64()?;
        acc.proposals_support = r.u64()?;
        acc.inv_delta_sum = r.f64()?;
        acc.support_counted = r.u64()?;
        acc.trace = r.f64s()?;
        acc.density_series = r.f64s()?;
        Ok(acc)
    }
}

fn save_config(w: &mut Writer, config: &SingleSpaceConfig) {
    w.u64(config.iterations);
    w.u64(config.seed);
    w.u64(config.burn_in);
    w.u8(config.count_rejections as u8);
    w.u8(config.record_trace as u8);
}

fn restore_config(r: &mut Reader<'_>) -> Result<SingleSpaceConfig, CoreError> {
    let mut config = SingleSpaceConfig::new(r.u64()?, r.u64()?);
    config.burn_in = r.u64()?;
    config.count_rejections = r.u8()? != 0;
    config.record_trace = r.u8()? != 0;
    Ok(config)
}

impl EngineDriver for SingleSpaceSampler<'_> {
    type Output = SingleSpaceEstimate;

    fn prime(&mut self, out: &mut Vec<f64>) {
        // Mirror `absorb_initial`: a fresh, unburnt sampler counted the
        // initial state's density as sample 0.
        if self.acc.iteration() == 0 && self.acc.counted == 1 {
            out.push(self.chain.current_density());
        }
    }

    fn run_segment(&mut self, iters: u64, out: &mut Vec<f64>) {
        let burn_in = self.config.burn_in;
        for chunk in self.prefetch.chunks(iters) {
            if self.prefetch.is_parallel() {
                let chain = &mut self.chain;
                let proposal = UniformProposal::new(self.acc.n);
                let sources = pipeline::upcoming(proposal, chain.proposal_rng().clone(), chunk);
                chain.target_mut().prefetch(sources, self.prefetch.threads);
            }
            for _ in 0..chunk {
                let o = self.step_raw();
                self.proposal_sum += o.proposed_density;
                if o.proposed_density > self.max_proposed {
                    self.max_proposed = o.proposed_density;
                }
                if self.acc.iteration() > burn_in {
                    out.push(o.density);
                }
            }
        }
    }

    fn set_prefetch(&mut self, prefetch: PrefetchConfig) {
        self.prefetch = prefetch;
    }

    fn iterations(&self) -> u64 {
        self.acc.iteration()
    }

    fn scale(&self) -> f64 {
        self.acc.n as f64 - 1.0
    }

    fn observed_mu(&self) -> Option<f64> {
        let t = self.acc.iteration();
        if t == 0 || self.proposal_sum <= 0.0 {
            return None;
        }
        Some(self.max_proposed / (self.proposal_sum / t as f64))
    }

    fn finish(self) -> SingleSpaceEstimate {
        SingleSpaceSampler::finish(self)
    }
}

impl CheckpointDriver for SingleSpaceSampler<'_> {
    fn kind(&self) -> CheckpointKind {
        CheckpointKind::Single
    }

    fn view(&self) -> SpdView<'_> {
        self.oracle().view()
    }

    fn save(&self, w: &mut Writer) {
        w.u32(self.r);
        save_config(w, &self.config);
        checkpoint::save_chain(w, &self.chain.snapshot(), |w, &v| w.u32(v));
        self.acc.save_into(w);
        w.f64(self.proposal_sum);
        w.f64(self.max_proposed);
        // Only a chain that owns its oracle is ever checkpointed (the probe
        // scheduler's sharing chains are not), so the oracle's rows and
        // counters are this chain's.
        debug_assert_eq!(Rc::strong_count(&self.chain.target().oracle), 1);
        self.oracle().save(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhbc_graph::generators;
    use mhbc_spd::exact_betweenness_of;

    #[test]
    fn eq7_converges_to_its_stationary_limit_on_barbell_bridge() {
        let g = generators::barbell(8, 1);
        let r = 8; // the path vertex between the cliques
        let profile = mhbc_spd::dependency_profile_par(&g, r, 1);
        let limit = crate::optimal::eq7_limit(&profile);
        let est = SingleSpaceSampler::new(&g, r, SingleSpaceConfig::new(30_000, 42)).unwrap().run();
        assert!((est.bc - limit).abs() < 0.02, "estimate {} vs Eq 7 limit {limit}", est.bc);
        // In the balanced-separator regime the limit is close to BC(r), so
        // the paper's estimator is also close to the truth here.
        let exact = profile.betweenness();
        assert!((est.bc - exact).abs() < 0.05, "estimate {} vs exact {exact}", est.bc);
        assert_eq!(est.iterations, 30_000);
        assert!(est.acceptance_rate > 0.0 && est.acceptance_rate < 1.0);
    }

    #[test]
    fn eq7_converges_to_limit_and_correction_to_bc_on_star() {
        // Star n = 30: Eq 7 limit = 28/29, true BC = 28/30 — the cleanest
        // demonstration of the estimator's structural bias.
        let g = generators::star(30);
        let est = SingleSpaceSampler::new(&g, 0, SingleSpaceConfig::new(20_000, 7)).unwrap().run();
        assert!(
            (est.bc - 28.0 / 29.0).abs() < 0.01,
            "Eq 7 estimate {} should approach 28/29",
            est.bc
        );
        assert!(
            (est.bc_corrected - 28.0 / 30.0).abs() < 0.01,
            "corrected estimate {} should approach 28/30",
            est.bc_corrected
        );
    }

    #[test]
    fn corrected_estimator_unbiased_on_skewed_profile() {
        // Lollipop path vertex: skewed profile, so Eq 7 is visibly biased
        // while the corrected estimator recovers BC(r).
        let g = generators::lollipop(8, 4);
        let r = 8;
        let exact = exact_betweenness_of(&g, r);
        let profile = mhbc_spd::dependency_profile_par(&g, r, 1);
        let limit = crate::optimal::eq7_limit(&profile);
        assert!(limit - exact > 0.01, "test premise: visible bias");
        let est = SingleSpaceSampler::new(&g, r, SingleSpaceConfig::new(60_000, 19)).unwrap().run();
        assert!((est.bc - limit).abs() < 0.03, "Eq 7 {} vs limit {limit}", est.bc);
        assert!(
            (est.bc_corrected - exact).abs() < 0.03,
            "corrected {} vs exact {exact}",
            est.bc_corrected
        );
    }

    #[test]
    fn zero_betweenness_probe_estimates_zero() {
        let g = generators::star(10);
        // A leaf has BC = 0; every dependency is 0, so the estimate is 0.
        let est = SingleSpaceSampler::new(&g, 3, SingleSpaceConfig::new(500, 3)).unwrap().run();
        assert_eq!(est.bc, 0.0);
        assert_eq!(est.bc_corrected, 0.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let g = generators::barbell(5, 2);
        let run = |seed| {
            SingleSpaceSampler::new(&g, 5, SingleSpaceConfig::new(2_000, seed)).unwrap().run().bc
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn weighted_graph_supported() {
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(5);
        let g = generators::assign_uniform_weights(&generators::barbell(6, 1), 1.0, 3.0, &mut rng);
        let r = 6;
        let exact = exact_betweenness_of(&g, r);
        let est = SingleSpaceSampler::new(&g, r, SingleSpaceConfig::new(20_000, 11)).unwrap().run();
        assert!((est.bc - exact).abs() < 0.05, "estimate {} vs exact {exact}", est.bc);
    }

    #[test]
    fn trace_has_one_entry_per_counted_sample() {
        let g = generators::barbell(4, 1);
        let est = SingleSpaceSampler::new(&g, 4, SingleSpaceConfig::new(100, 1).with_trace())
            .unwrap()
            .run();
        // Initial state + 100 iterations.
        assert_eq!(est.trace.as_ref().unwrap().len(), 101);
        assert_eq!(est.density_series.as_ref().unwrap().len(), 101);
        // Final trace entry equals the reported estimate.
        assert_eq!(*est.trace.unwrap().last().unwrap(), est.bc);
    }

    #[test]
    fn burn_in_discards_early_samples() {
        let g = generators::barbell(4, 1);
        let cfg = SingleSpaceConfig::new(200, 2).with_burn_in(50).with_trace();
        let est = SingleSpaceSampler::new(&g, 4, cfg).unwrap().run();
        assert_eq!(est.trace.unwrap().len(), 150);
    }

    #[test]
    fn accepted_only_mode_differs() {
        let g = generators::barbell(8, 1);
        let standard =
            SingleSpaceSampler::new(&g, 8, SingleSpaceConfig::new(5_000, 3)).unwrap().run();
        let literal =
            SingleSpaceSampler::new(&g, 8, SingleSpaceConfig::new(5_000, 3).accepted_only())
                .unwrap()
                .run();
        // Same chain path (same seed), but the literal reading drops
        // rejected re-counts, deflating the estimate.
        assert!(literal.bc < standard.bc);
    }

    #[test]
    fn oracle_cache_bounds_spd_passes() {
        let g = generators::barbell(6, 1);
        let est = SingleSpaceSampler::new(&g, 6, SingleSpaceConfig::new(5_000, 4)).unwrap().run();
        // At most one pass per vertex: the state space has 13 vertices.
        assert!(est.spd_passes <= 13, "passes = {}", est.spd_passes);
        assert!(est.oracle_stats.hit_rate() > 0.9);
    }

    #[test]
    fn rejects_invalid_configs() {
        let g = generators::path(10);
        assert!(matches!(
            SingleSpaceSampler::new(&g, 99, SingleSpaceConfig::new(10, 0)),
            Err(CoreError::ProbeOutOfRange { .. })
        ));
        let tiny = generators::path(2);
        assert!(matches!(
            SingleSpaceSampler::new(&tiny, 0, SingleSpaceConfig::new(10, 0)),
            Err(CoreError::GraphTooSmall { .. })
        ));
        assert!(matches!(
            SingleSpaceSampler::new(&g, 0, SingleSpaceConfig::new(10, 0).with_initial(99)),
            Err(CoreError::ProbeOutOfRange { .. })
        ));
    }

    #[test]
    fn reduced_view_is_bit_identical_on_pendant_free_dyadic_graphs() {
        // Cycles have σ ∈ {1, 2} and dyadic dependency values, so the
        // reduced pass (relabelled, multiplicity-aware with all-unit
        // multiplicities) reproduces every density bit for bit — and
        // therefore the whole chain trajectory and estimate.
        use mhbc_graph::reduce::{reduce, ReduceLevel};
        for n in [15usize, 16] {
            let g = generators::cycle(n);
            let red = reduce(&g, ReduceLevel::Full).unwrap();
            assert_eq!(red.stats().pruned_vertices, 0);
            assert_eq!(red.stats().collapsed_vertices, 0);
            for seed in [3u64, 19] {
                let direct = SingleSpaceSampler::new(&g, 0, SingleSpaceConfig::new(2_000, seed))
                    .unwrap()
                    .run();
                let through = SingleSpaceSampler::for_view(
                    SpdView::preprocessed(&g, &red),
                    0,
                    SingleSpaceConfig::new(2_000, seed),
                )
                .unwrap()
                .run();
                assert_eq!(direct.bc.to_bits(), through.bc.to_bits(), "cycle({n}) seed {seed}");
                assert_eq!(direct.bc_corrected.to_bits(), through.bc_corrected.to_bits());
                assert_eq!(direct.acceptance_rate.to_bits(), through.acceptance_rate.to_bits());
            }
        }
    }

    #[test]
    fn reduced_view_converges_to_the_same_limit_on_pendant_graphs() {
        use mhbc_graph::reduce::{reduce, ReduceLevel};
        let g = generators::lollipop(8, 4);
        let r = 0; // a clique vertex (the pendant path prunes away entirely)
        let red = reduce(&g, ReduceLevel::Full).unwrap();
        assert!(red.stats().pruned_vertices > 0);
        assert!(red.is_retained(r));
        let direct =
            SingleSpaceSampler::new(&g, r, SingleSpaceConfig::new(40_000, 7)).unwrap().run();
        let through = SingleSpaceSampler::for_view(
            SpdView::preprocessed(&g, &red),
            r,
            SingleSpaceConfig::new(40_000, 7),
        )
        .unwrap()
        .run();
        assert!(
            (direct.bc - through.bc).abs() < 0.02,
            "direct {} vs reduced {}",
            direct.bc,
            through.bc
        );
        assert!((direct.bc_corrected - through.bc_corrected).abs() < 0.02);
        // The reduced run needs strictly fewer SPD passes: pendant sources
        // coalesce onto their attachment's row.
        assert!(
            through.spd_passes < direct.spd_passes,
            "reduced {} vs direct {}",
            through.spd_passes,
            direct.spd_passes
        );
    }

    #[test]
    fn pruned_probe_is_rejected_with_a_dedicated_error() {
        use mhbc_graph::reduce::{reduce, ReduceLevel};
        let g = generators::lollipop(5, 3);
        let red = reduce(&g, ReduceLevel::Prune).unwrap();
        let r = 7; // path tail: pruned
        assert!(!red.is_retained(r));
        assert!(matches!(
            SingleSpaceSampler::for_view(
                SpdView::preprocessed(&g, &red),
                r,
                SingleSpaceConfig::new(10, 0)
            ),
            Err(CoreError::PrunedProbe { probe: 7 })
        ));
        // The closed form is available instead.
        let exact = mhbc_spd::exact_betweenness_of(&g, r);
        assert_eq!(red.exact_pruned_bc(r), Some(exact));
    }

    #[test]
    fn initial_state_is_respected_and_counted() {
        let g = generators::path(10);
        let cfg = SingleSpaceConfig::new(0, 0).with_initial(5).with_trace();
        let sampler = SingleSpaceSampler::new(&g, 5, cfg).unwrap();
        // delta_5(5) = 0, so with zero iterations the estimate is 0.
        assert_eq!(sampler.estimate(), 0.0);
        let est = sampler.run();
        assert_eq!(est.iterations, 0);
        assert_eq!(est.trace.unwrap().len(), 1);
    }
}
