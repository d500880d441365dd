//! Multi-chain ensembles.
//!
//! Independence MH chains over the same target are embarrassingly parallel,
//! and — because the stationary law concentrates on the same
//! high-dependency sources — they share most of their density evaluations.
//! This module runs `k` chains over one [`ProbeOracle`], pools their Eq 7
//! and corrected estimates, and reports the Gelman–Rubin `R̂` statistic
//! across chains, the standard multi-chain convergence check that
//! complements the paper's single-chain guarantee.
//!
//! The ensemble executes in **segments**: every chain advances `segment`
//! iterations per round (each from its bit-exact
//! [`mhbc_mcmc::ChainSnapshot`]), the pooled observation series feeds the
//! streaming diagnostics, and a [`mhbc_mcmc::StoppingRule`] can end the run
//! at any boundary — where the whole ensemble state (all chains,
//! accumulators, diagnostics, shared cache) can also be checkpointed.
//!
//! Parallelism is the batch prefetch of [`crate::pipeline`], applied to all
//! chains at once: before each chunk of at most `depth` iterations, the
//! distinct uncached sources of *every* chain's upcoming proposals are split
//! across [`EnsembleConfig::prefetch`]`.threads` calculators, then the
//! chains step in chain order. Chain results depend only on seeds and
//! densities, so every estimate is bit-identical at any thread count.

use crate::checkpoint::{self, CheckpointKind};
use crate::engine::{
    open_checkpoint, AdaptiveReport, CheckpointDriver, CheckpointSink, EngineConfig, EngineDriver,
    EstimationEngine,
};
use crate::oracle::{OracleStats, ProbeOracle};
use crate::pipeline::{self, PrefetchConfig};
use crate::single::derive_streams;
use crate::CoreError;
use mhbc_graph::Vertex;
use mhbc_mcmc::diagnostics::RunningMoments;
use mhbc_mcmc::{fn_target, ChainSnapshot, ChainStats, MetropolisHastings, UniformProposal};
use mhbc_spd::SpdView;
use rand::rngs::SmallRng;

/// Configuration for [`run_ensemble_view`].
#[derive(Debug, Clone)]
pub struct EnsembleConfig {
    /// Number of independent chains.
    pub chains: usize,
    /// Iterations per chain (the per-chain budget under adaptive rules).
    pub iterations: u64,
    /// Base seed; chain `c` is seeded with `seed + c`.
    pub seed: u64,
    /// Batch prefetch across all chains (see the module docs); `threads` is
    /// the total thread count and `depth` the per-chain chunk length.
    pub prefetch: PrefetchConfig,
}

impl EnsembleConfig {
    /// `chains` chains prefetching on `chains` threads.
    pub fn new(chains: usize, iterations: u64, seed: u64) -> Self {
        EnsembleConfig { chains, iterations, seed, prefetch: PrefetchConfig::with_threads(chains) }
    }

    /// Overrides the prefetch setting.
    pub fn with_prefetch(mut self, prefetch: PrefetchConfig) -> Self {
        self.prefetch = prefetch;
        self
    }
}

/// One chain's resumable state between chunks: the bit-exact chain
/// snapshot plus its running estimator partials.
#[derive(Debug, Clone)]
struct ChainCell {
    snap: ChainSnapshot<Vertex>,
    sum_delta: f64,
    counted: u64,
    proposals_support: u64,
    inv_delta_sum: f64,
    support_counted: u64,
    /// Welford moments of the per-step dependency series (for R̂).
    moments: RunningMoments,
}

impl ChainCell {
    /// Advances the chain `iters` steps through `oracle` (restoring it from
    /// its snapshot — no density re-evaluation), appending its observations.
    fn advance(&mut self, oracle: &mut ProbeOracle<'_>, n: usize, iters: u64, out: &mut Vec<f64>) {
        let target = fn_target(|v: &Vertex| oracle.dep(*v, 0));
        let mut chain: MetropolisHastings<_, _, SmallRng> =
            MetropolisHastings::restore(target, UniformProposal::new(n), self.snap.clone());
        for _ in 0..iters {
            let out_step = chain.step();
            self.sum_delta += out_step.density;
            self.counted += 1;
            self.moments.push(out_step.density);
            if out_step.proposed_density > 0.0 {
                self.proposals_support += 1;
            }
            if out_step.density > 0.0 {
                self.inv_delta_sum += 1.0 / out_step.density;
                self.support_counted += 1;
            }
            out.push(out_step.density);
        }
        self.snap = chain.snapshot();
    }
}

/// Result of an ensemble run.
#[derive(Debug, Clone)]
pub struct EnsembleEstimate {
    /// Pooled Eq 7 estimate (average over all chains' counted samples).
    pub bc: f64,
    /// Pooled support-corrected estimate (see `SingleSpaceEstimate`).
    pub bc_corrected: f64,
    /// Per-chain Eq 7 estimates (for dispersion inspection).
    pub per_chain: Vec<f64>,
    /// Gelman–Rubin potential scale reduction factor across chains
    /// (≈ 1 indicates the chains agree; NaN with < 2 chains or degenerate
    /// variance).
    pub r_hat: f64,
    /// Acceptance rate pooled over chains.
    pub acceptance_rate: f64,
    /// Iterations each chain actually ran (≤ the configured budget under
    /// adaptive stopping).
    pub iterations_per_chain: u64,
    /// Distinct sources evaluated across the *shared* cache (the whole
    /// point: `k` chains cost barely more than one).
    pub spd_passes: u64,
    /// Shared-cache statistics.
    pub oracle_stats: OracleStats,
}

/// [`EngineDriver`] for the segmented ensemble: each `run_segment` advances
/// every chain `iters` steps, then re-snapshots. Iteration counts are
/// **per chain**: the engine budget bounds each chain's length, and the
/// monitored series concatenates the chains' segments in chain order
/// (deterministic, so adaptive stops are too).
pub struct EnsembleDriver<'g> {
    view: SpdView<'g>,
    r: Vertex,
    n: usize,
    seed: u64,
    prefetch: PrefetchConfig,
    oracle: ProbeOracle<'g>,
    cells: Vec<ChainCell>,
    done_per_chain: u64,
    budget: u64,
}

impl<'g> EnsembleDriver<'g> {
    /// Builds the driver and evaluates every chain's initial state (in
    /// chain order — deterministic cache history).
    pub(crate) fn create(
        view: SpdView<'g>,
        r: Vertex,
        config: &EnsembleConfig,
    ) -> Result<Self, CoreError> {
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
        assert!(config.chains >= 1, "need at least one chain");
        let mut oracle = ProbeOracle::for_view(view, &[r]);
        let cells = (0..config.chains)
            .map(|c| {
                let (initial, prop_rng, acc_rng) =
                    derive_streams(config.seed.wrapping_add(c as u64), None, n);
                let d0 = oracle.dep(initial, 0);
                let mut moments = RunningMoments::new();
                moments.push(d0);
                let (mut inv, mut support) = (0.0, 0);
                if d0 > 0.0 {
                    inv = 1.0 / d0;
                    support = 1;
                }
                ChainCell {
                    snap: ChainSnapshot {
                        state: initial,
                        density: d0,
                        stats: ChainStats::default(),
                        proposal_rng: prop_rng.state(),
                        accept_rng: acc_rng.state(),
                    },
                    sum_delta: d0,
                    counted: 1,
                    proposals_support: 0,
                    inv_delta_sum: inv,
                    support_counted: support,
                    moments,
                }
            })
            .collect();
        Ok(EnsembleDriver {
            view,
            r,
            n,
            seed: config.seed,
            prefetch: config.prefetch.clone(),
            oracle,
            cells,
            done_per_chain: 0,
            budget: config.iterations,
        })
    }

    /// The shared density oracle (its counters are the run's SPD-pass
    /// record).
    pub fn oracle(&self) -> &ProbeOracle<'g> {
        &self.oracle
    }
}

impl EngineDriver for EnsembleDriver<'_> {
    type Output = EnsembleEstimate;

    fn prime(&mut self, out: &mut Vec<f64>) {
        if self.done_per_chain == 0 {
            out.extend(self.cells.iter().map(|c| c.snap.density));
        }
    }

    fn run_segment(&mut self, iters: u64, out: &mut Vec<f64>) {
        let n = self.n;
        let mut series = vec![Vec::with_capacity(iters as usize); self.cells.len()];
        for chunk in self.prefetch.chunks(iters) {
            if self.prefetch.is_parallel() {
                let sources = self.cells.iter().flat_map(|c| {
                    let rng = SmallRng::from_state(c.snap.proposal_rng);
                    pipeline::upcoming(UniformProposal::new(n), rng, chunk)
                });
                self.oracle.prefetch(sources, self.prefetch.threads);
            }
            for (cell, s) in self.cells.iter_mut().zip(&mut series) {
                cell.advance(&mut self.oracle, n, chunk, s);
            }
        }
        out.extend(series.into_iter().flatten());
        self.done_per_chain += iters;
    }

    fn set_prefetch(&mut self, prefetch: PrefetchConfig) {
        self.prefetch = prefetch;
    }

    fn iterations(&self) -> u64 {
        self.done_per_chain
    }

    fn scale(&self) -> f64 {
        self.n as f64 - 1.0
    }

    fn finish(self) -> EnsembleEstimate {
        let per = self.cells;
        let chains = per.len();
        let iterations = self.done_per_chain;
        let norm = self.n as f64 - 1.0;
        let per_chain: Vec<f64> =
            per.iter().map(|c| c.sum_delta / (c.counted as f64 * norm)).collect();

        let total_counted: u64 = per.iter().map(|c| c.counted).sum();
        let bc = per.iter().map(|c| c.sum_delta).sum::<f64>() / (total_counted as f64 * norm);

        let total_proposals = chains as u64 * iterations;
        let support: u64 = per.iter().map(|c| c.proposals_support).sum();
        let inv_sum: f64 = per.iter().map(|c| c.inv_delta_sum).sum();
        let support_counted: u64 = per.iter().map(|c| c.support_counted).sum();
        let bc_corrected = if total_proposals == 0 || support_counted == 0 || inv_sum <= 0.0 {
            0.0
        } else {
            (support as f64 / total_proposals as f64) * support_counted as f64 / (norm * inv_sum)
        };

        // Gelman-Rubin across chains: W = mean within-chain variance,
        // B/n = variance of chain means; R^2 = ((m-1)/m W + B/m) / W with
        // m = samples per chain.
        let r_hat = if chains >= 2 {
            let m = (iterations + 1) as f64;
            let w = per.iter().map(|c| c.moments.variance()).sum::<f64>() / chains as f64;
            let mut mean_moments = RunningMoments::new();
            for c in &per {
                mean_moments.push(c.moments.mean());
            }
            let b_over_m = mean_moments.variance();
            if w > 0.0 {
                (((m - 1.0) / m) * w / w + b_over_m / w).sqrt()
            } else {
                f64::NAN
            }
        } else {
            f64::NAN
        };

        let accepted: u64 = per.iter().map(|c| c.snap.stats.accepted).sum();
        EnsembleEstimate {
            bc,
            bc_corrected,
            per_chain,
            r_hat,
            acceptance_rate: if total_proposals == 0 {
                0.0
            } else {
                accepted as f64 / total_proposals as f64
            },
            iterations_per_chain: iterations,
            spd_passes: self.oracle.spd_passes(),
            oracle_stats: self.oracle.stats(),
        }
    }
}

impl CheckpointDriver for EnsembleDriver<'_> {
    fn kind(&self) -> CheckpointKind {
        CheckpointKind::Ensemble
    }

    fn view(&self) -> SpdView<'_> {
        self.view
    }

    fn save(&self, w: &mut checkpoint::Writer) {
        w.u32(self.r);
        w.u64(self.cells.len() as u64);
        w.u64(self.budget);
        w.u64(self.seed);
        w.u64(self.done_per_chain);
        for cell in &self.cells {
            checkpoint::save_chain(w, &cell.snap, |w, &v| w.u32(v));
            w.f64(cell.sum_delta);
            w.u64(cell.counted);
            w.u64(cell.proposals_support);
            w.f64(cell.inv_delta_sum);
            w.u64(cell.support_counted);
            let (count, mean, m2) = cell.moments.to_raw();
            w.u64(count);
            w.u64(mean);
            w.u64(m2);
        }
        self.oracle.save(w);
    }
}

impl<'g> EnsembleDriver<'g> {
    /// Rebuilds a driver from a checkpoint payload (see
    /// `SingleDriver::restore_from`), prefetching sequentially until told
    /// otherwise.
    fn restore_from(view: SpdView<'g>, r: &mut checkpoint::Reader<'_>) -> Result<Self, CoreError> {
        let probe = r.u32()?;
        let chains = r.u64()? as usize;
        let budget = r.u64()?;
        let seed = r.u64()?;
        let done_per_chain = r.u64()?;
        let n = view.num_vertices();
        if probe as usize >= n || !view.is_retained(probe) || chains == 0 {
            return Err(checkpoint::corrupt("invalid ensemble header"));
        }
        if chains > r.remaining() / (14 * 8) {
            return Err(checkpoint::corrupt("chain table longer than the checkpoint"));
        }
        let cells: Vec<ChainCell> = (0..chains)
            .map(|_| -> Result<ChainCell, CoreError> {
                Ok(ChainCell {
                    snap: checkpoint::read_chain(r, |r| r.u32())?,
                    sum_delta: r.f64()?,
                    counted: r.u64()?,
                    proposals_support: r.u64()?,
                    inv_delta_sum: r.f64()?,
                    support_counted: r.u64()?,
                    moments: RunningMoments::from_raw((r.u64()?, r.u64()?, r.u64()?)),
                })
            })
            .collect::<Result<_, _>>()?;
        let mut oracle = ProbeOracle::for_view(view, &[probe]);
        oracle.restore(r)?;
        Ok(EnsembleDriver {
            view,
            r: probe,
            n,
            seed,
            prefetch: PrefetchConfig::sequential(),
            oracle,
            cells,
            done_per_chain,
            budget,
        })
    }
}

/// Runs `config.chains` independent single-space chains of
/// `config.iterations` steps each through `view` (direct or reduced),
/// sharing one dependency cache. Chains keep their original-id state
/// space, so estimates are bit-identical to the direct run whenever the
/// view's densities are (see [`crate::SingleSpaceSampler::for_view`]), and
/// the prefetch setting changes timing only, never any estimate.
pub fn run_ensemble_view(
    view: SpdView<'_>,
    r: Vertex,
    config: &EnsembleConfig,
) -> Result<EnsembleEstimate, CoreError> {
    run_ensemble_view_adaptive(view, r, config, EngineConfig::fixed(), None).map(|(est, _)| est)
}

/// The adaptive/checkpointable ensemble entry point: segmented execution
/// under `engine_cfg`, with a checkpoint written to `sink` at every segment
/// boundary when one is given.
pub fn run_ensemble_view_adaptive(
    view: SpdView<'_>,
    r: Vertex,
    config: &EnsembleConfig,
    engine_cfg: EngineConfig,
    sink: Option<&mut CheckpointSink<'_>>,
) -> Result<(EnsembleEstimate, AdaptiveReport), CoreError> {
    let driver = EnsembleDriver::create(view, r, config)?;
    EstimationEngine::new(driver, config.iterations, engine_cfg).run_checkpointed(sink)
}

/// Resumes a checkpointed ensemble run (see
/// [`crate::pipeline::resume_single_view`] for the identity guarantees)
/// with `prefetch` — a runtime knob that never changes any estimate.
pub fn resume_ensemble<'g>(
    view: SpdView<'g>,
    bytes: &[u8],
    prefetch: PrefetchConfig,
) -> Result<EstimationEngine<EnsembleDriver<'g>>, CoreError> {
    let (state, mut r) = open_checkpoint(&view, bytes, CheckpointKind::Ensemble)?;
    let driver = EnsembleDriver::restore_from(view, &mut r)?;
    let engine = EstimationEngine::with_state(
        driver,
        state.budget,
        state.config,
        state.monitor,
        state.segments,
    );
    Ok(engine.with_prefetch(prefetch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimal::eq7_limit;
    use mhbc_graph::generators;

    #[test]
    fn pooled_estimate_converges() {
        let g = generators::barbell(8, 1);
        let limit = eq7_limit(&mhbc_spd::dependency_profile_par(&g, 8, 0));
        let est = run_ensemble_view(SpdView::direct(&g), 8, &EnsembleConfig::new(4, 8_000, 3))
            .expect("valid config");
        assert!((est.bc - limit).abs() < 0.02, "pooled {} vs limit {limit}", est.bc);
        assert_eq!(est.per_chain.len(), 4);
        assert_eq!(est.iterations_per_chain, 8_000);
        let exact = mhbc_spd::exact_betweenness_of(&g, 8);
        assert!((est.bc_corrected - exact).abs() < 0.03);
    }

    #[test]
    fn r_hat_near_one_for_converged_chains() {
        // lollipop(8, 4), probe 9: clique-side sources depend 2 on the
        // probe, far path vertices depend 9 — a genuinely non-constant
        // density series, so within-chain variance is positive and R-hat
        // is defined.
        let g = generators::lollipop(8, 4);
        let est = run_ensemble_view(SpdView::direct(&g), 9, &EnsembleConfig::new(4, 20_000, 5))
            .expect("valid config");
        assert!(
            est.r_hat.is_finite() && (est.r_hat - 1.0).abs() < 0.05,
            "R-hat {} should be near 1",
            est.r_hat
        );
    }

    #[test]
    fn shared_cache_bounds_total_passes() {
        let g = generators::barbell(6, 2);
        let est = run_ensemble_view(SpdView::direct(&g), 6, &EnsembleConfig::new(6, 3_000, 7))
            .expect("valid config");
        // 6 chains x 3000 iterations, but the state space has only 16
        // vertices: the shared cache caps the distinct SPD passes.
        assert!(
            est.spd_passes <= g.num_vertices() as u64,
            "passes {} should be <= n",
            est.spd_passes
        );
        assert!(est.oracle_stats.hit_rate() > 0.99);
    }

    #[test]
    fn prefetch_squads_do_not_change_any_estimate() {
        let g = generators::lollipop(6, 3);
        let base = EnsembleConfig::new(3, 2_000, 11).with_prefetch(PrefetchConfig::sequential());
        let seq = run_ensemble_view(SpdView::direct(&g), 7, &base).expect("valid config");
        let pre = run_ensemble_view(
            SpdView::direct(&g),
            7,
            &base.clone().with_prefetch(PrefetchConfig::with_threads(3)),
        )
        .expect("valid config");
        assert_eq!(seq.bc.to_bits(), pre.bc.to_bits());
        assert_eq!(seq.bc_corrected.to_bits(), pre.bc_corrected.to_bits());
        assert_eq!(seq.acceptance_rate.to_bits(), pre.acceptance_rate.to_bits());
        assert_eq!(seq.spd_passes, pre.spd_passes);
        for (a, b) in seq.per_chain.iter().zip(&pre.per_chain) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(seq.r_hat.to_bits(), pre.r_hat.to_bits());
    }

    #[test]
    fn segment_length_never_changes_estimates() {
        // Segmentation interleaves diagnostics between iterations but never
        // perturbs any chain: estimates are invariant to the segment knob.
        let g = generators::lollipop(6, 3);
        let config = EnsembleConfig::new(3, 2_500, 13);
        let run_with_segment = |segment: u64| {
            run_ensemble_view_adaptive(
                SpdView::direct(&g),
                7,
                &config,
                EngineConfig::fixed().with_segment(segment),
                None,
            )
            .expect("valid config")
        };
        let (a, ra) = run_with_segment(64);
        let (b, rb) = run_with_segment(1024);
        assert_eq!(a.bc.to_bits(), b.bc.to_bits());
        assert_eq!(a.bc_corrected.to_bits(), b.bc_corrected.to_bits());
        assert_eq!(a.r_hat.to_bits(), b.r_hat.to_bits());
        assert_eq!(a.spd_passes, b.spd_passes);
        assert!(ra.segments > rb.segments);
    }

    #[test]
    fn adaptive_ensemble_stops_early_on_easy_targets() {
        use mhbc_mcmc::StoppingRule;
        let g = generators::lollipop(8, 4);
        let config = EnsembleConfig::new(2, 50_000, 3);
        let (est, report) = run_ensemble_view_adaptive(
            SpdView::direct(&g),
            9,
            &config,
            EngineConfig::adaptive(StoppingRule::TargetStderr { epsilon: 0.05, delta: 0.05 }),
            None,
        )
        .expect("valid config");
        assert!(
            report.iterations < 50_000,
            "loose target should stop early, ran {}",
            report.iterations
        );
        assert_eq!(report.reason, crate::engine::StopReason::TargetReached);
        assert_eq!(est.iterations_per_chain, report.iterations);
        // The pooled estimate is still sane.
        let limit = eq7_limit(&mhbc_spd::dependency_profile_par(&g, 9, 0));
        assert!((est.bc - limit).abs() < 0.2, "{} vs {limit}", est.bc);
    }

    #[test]
    fn ensemble_checkpoint_resume_is_bit_identical() {
        let g = generators::lollipop(6, 3);
        let config = EnsembleConfig::new(3, 2_000, 11);
        let view = SpdView::direct(&g);
        let uninterrupted = run_ensemble_view(view, 7, &config).expect("valid config");

        // Capture a checkpoint a few segments in, then resume it.
        let engine_cfg = EngineConfig::fixed().with_segment(256);
        let mut saved: Option<Vec<u8>> = None;
        let mut count = 0;
        let mut sink = |bytes: Vec<u8>| {
            count += 1;
            if count == 3 {
                saved = Some(bytes);
            }
            Ok(())
        };
        let _ = run_ensemble_view_adaptive(view, 7, &config, engine_cfg, Some(&mut sink))
            .expect("valid config");
        let bytes = saved.expect("checkpoint captured");

        for prefetch in [PrefetchConfig::sequential(), PrefetchConfig::with_threads(3)] {
            let engine = resume_ensemble(view, &bytes, prefetch).expect("resumable");
            assert_eq!(engine.iterations(), 3 * 256);
            let (resumed, _) = engine.run();
            assert_eq!(uninterrupted.bc.to_bits(), resumed.bc.to_bits());
            assert_eq!(uninterrupted.bc_corrected.to_bits(), resumed.bc_corrected.to_bits());
            assert_eq!(uninterrupted.r_hat.to_bits(), resumed.r_hat.to_bits());
            assert_eq!(uninterrupted.spd_passes, resumed.spd_passes);
            assert_eq!(uninterrupted.acceptance_rate.to_bits(), resumed.acceptance_rate.to_bits());
            for (a, b) in uninterrupted.per_chain.iter().zip(&resumed.per_chain) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn reduced_ensemble_is_deterministic_and_prefetch_invariant() {
        use mhbc_graph::reduce::{reduce, ReduceLevel};
        let g = generators::lollipop(6, 3);
        let red = reduce(&g, ReduceLevel::Full).unwrap();
        let view = SpdView::preprocessed(&g, &red);
        let base = EnsembleConfig::new(3, 1_500, 4).with_prefetch(PrefetchConfig::sequential());
        let seq = run_ensemble_view(view, 0, &base).expect("valid config");
        let pre = run_ensemble_view(
            view,
            0,
            &base.clone().with_prefetch(PrefetchConfig::with_threads(3)),
        )
        .expect("valid config");
        assert_eq!(seq.bc.to_bits(), pre.bc.to_bits());
        assert_eq!(seq.bc_corrected.to_bits(), pre.bc_corrected.to_bits());
        assert_eq!(seq.spd_passes, pre.spd_passes);
        // Pendant + twin structure caps distinct rows well below n.
        assert!(seq.spd_passes < g.num_vertices() as u64);
    }

    #[test]
    fn single_chain_has_nan_r_hat() {
        let g = generators::barbell(4, 1);
        let est = run_ensemble_view(SpdView::direct(&g), 4, &EnsembleConfig::new(1, 200, 1))
            .expect("valid config");
        assert!(est.r_hat.is_nan());
    }

    #[test]
    fn validation_errors() {
        let g = generators::path(10);
        assert!(matches!(
            run_ensemble_view(SpdView::direct(&g), 99, &EnsembleConfig::new(2, 10, 0)),
            Err(CoreError::ProbeOutOfRange { .. })
        ));
        let tiny = generators::path(2);
        assert!(matches!(
            run_ensemble_view(SpdView::direct(&tiny), 0, &EnsembleConfig::new(2, 10, 0)),
            Err(CoreError::GraphTooSmall { .. })
        ));
    }
}
