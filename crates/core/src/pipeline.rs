//! Batch density prefetch for the independence-chain samplers.
//!
//! Every MH iteration costs one SPD pass for the *proposed* source (§4.1),
//! and the paper's samplers are independence chains (`q(·|x)` uniform,
//! §4.2–4.3): the proposal at step `t` does not depend on the chain's
//! state, so the whole proposal sequence is a pure function of the seed.
//! Both samplers (single and joint) use that with one batch model, set per
//! engine by [`EstimationEngine::with_prefetch`]. Given a
//! [`PrefetchConfig`] with `threads = T ≥ 2` and `depth = K`, each segment
//! runs in chunks of at most `K` iterations, and each chunk takes four
//! steps:
//!
//! 1. replay the chain's next proposals from a copy of its proposal stream
//!    (the accept/reject stream is never touched);
//! 2. collect the distinct row keys that are not cached yet;
//! 3. compute those rows across `T` calculators with [`mhbc_spd::sweep`],
//!    the calling thread being one of them, and cache them
//!    ([`ProbeOracle::prefetch`] — no hit/miss counter moves);
//! 4. step the chain through the chunk exactly as at `T = 1`; every lookup
//!    is now a hit.
//!
//! So T threads split the distinct uncached sources of the next ≤ K
//! proposals, then the chain consumes them. The speedup is bounded by that
//! count: once a chain's working set is cached, a chunk has nothing left to
//! split and costs what it costs at `T = 1`.
//!
//! ## Determinism guarantee
//!
//! A chunk never crosses the segment the engine asked for, so the cache at
//! every segment boundary holds exactly the rows of the proposals consumed
//! so far. Rows are a pure function of the view and the row key, so a
//! prefetched row equals the row the chain would have computed itself, and
//! the chain code is the same at every `T`. Hence `bc`, `bc_corrected`,
//! acceptance, adaptive stopping points, checkpoints, and `spd_passes` (the
//! number of cached rows) agree bit for bit across `threads = 1, 2, 8, …` —
//! the property the `prefetch_determinism` integration tests pin down. Only
//! the hit/miss split differs: prefetched rows count as hits.
//!
//! [`EstimationEngine::with_prefetch`]: crate::EstimationEngine::with_prefetch
//! [`ProbeOracle::prefetch`]: crate::oracle::ProbeOracle::prefetch

use crate::engine::{AdaptiveReport, CheckpointSink, EngineConfig};
use crate::{
    CoreError, JointSpaceConfig, JointSpaceEstimate, JointSpaceSampler, SingleSpaceConfig,
    SingleSpaceEstimate, SingleSpaceSampler,
};
use mhbc_graph::Vertex;
use mhbc_mcmc::Proposal;
use mhbc_spd::SpdView;
use rand::rngs::SmallRng;

/// Threading knobs for the batch prefetch (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefetchConfig {
    /// Threads computing prefetched rows, the calling thread included. 0 or
    /// 1 disables prefetch: the chain computes each row on its first miss.
    pub threads: usize,
    /// Iterations per prefetch chunk: how far ahead of the chain rows are
    /// computed.
    pub depth: u64,
}

impl PrefetchConfig {
    /// Default chunk length.
    pub const DEFAULT_DEPTH: u64 = 1024;

    /// No prefetch.
    pub fn sequential() -> Self {
        PrefetchConfig { threads: 1, depth: Self::DEFAULT_DEPTH }
    }

    /// `threads` prefetch threads with the default chunk length.
    pub fn with_threads(threads: usize) -> Self {
        PrefetchConfig { threads, depth: Self::DEFAULT_DEPTH }
    }

    /// Overrides the chunk length.
    pub fn with_depth(mut self, depth: u64) -> Self {
        self.depth = depth;
        self
    }

    /// Whether this configuration prefetches at all.
    pub fn is_parallel(&self) -> bool {
        self.threads >= 2
    }

    /// Splits a segment of `iters` iterations into prefetch chunks: the
    /// whole segment when sequential, pieces of at most `depth` otherwise.
    pub(crate) fn chunks(&self, iters: u64) -> impl Iterator<Item = u64> {
        let size = if self.is_parallel() { self.depth.max(1) } else { iters.max(1) };
        (0..iters.div_ceil(size)).map(move |i| size.min(iters - i * size))
    }
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        Self::sequential()
    }
}

/// The next `count` proposals of an independence chain whose proposal
/// stream is in state `rng` (pass a copy: the chain's own stream must not
/// advance).
pub(crate) fn upcoming<S, P: Proposal<S>>(
    mut proposal: P,
    mut rng: SmallRng,
    count: u64,
) -> impl Iterator<Item = S> {
    (0..count).map(move |_| proposal.propose_iid(&mut rng).expect("independence proposal"))
}

/// Runs the single-space sampler (§4.2) through `view` with
/// `prefetch.threads` threads under a segmented engine: a
/// [`mhbc_mcmc::StoppingRule`] can end the run early, and `sink` receives a
/// checkpoint at every segment boundary when one is given. The chain, its
/// proposal stream, and the estimator all live in **original** vertex ids;
/// see [`SingleSpaceSampler::for_view`] for why a reduction needs no
/// stationary-distribution correction. Estimates, stopping point, and
/// `spd_passes` agree across all thread counts.
pub fn run_single_view_adaptive(
    view: SpdView<'_>,
    r: Vertex,
    config: &SingleSpaceConfig,
    engine_cfg: EngineConfig,
    prefetch: &PrefetchConfig,
    sink: Option<&mut CheckpointSink<'_>>,
) -> Result<(SingleSpaceEstimate, AdaptiveReport), CoreError> {
    SingleSpaceSampler::for_view(view, r, config.clone())?
        .into_engine(engine_cfg)
        .with_prefetch(prefetch.clone())
        .run_checkpointed(sink)
}

/// Runs the joint-space sampler (§4.3) through `view` for its full fixed
/// budget with `prefetch.threads` threads; every probe must survive the
/// reduction ([`CoreError::PrunedProbe`] otherwise). Bit-identical to
/// [`JointSpaceSampler::run`] at every thread count. For adaptive stopping
/// or checkpoints use [`JointSpaceSampler::into_engine`].
pub fn run_joint_view(
    view: SpdView<'_>,
    probes: &[Vertex],
    config: &JointSpaceConfig,
    prefetch: &PrefetchConfig,
) -> Result<JointSpaceEstimate, CoreError> {
    let engine = JointSpaceSampler::for_view(view, probes, config.clone())?
        .into_engine(EngineConfig::fixed())
        .with_prefetch(prefetch.clone());
    Ok(engine.run().0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhbc_graph::generators;

    fn fingerprint(e: &SingleSpaceEstimate) -> (u64, u64, u64, u64) {
        (e.bc.to_bits(), e.bc_corrected.to_bits(), e.acceptance_rate.to_bits(), e.spd_passes)
    }

    /// A fixed-budget run with no checkpoint sink.
    fn run_fixed(
        view: SpdView<'_>,
        r: Vertex,
        config: &SingleSpaceConfig,
        prefetch: &PrefetchConfig,
    ) -> Result<SingleSpaceEstimate, CoreError> {
        run_single_view_adaptive(view, r, config, EngineConfig::fixed(), prefetch, None)
            .map(|(est, _)| est)
    }

    #[test]
    fn pipelined_single_matches_sequential_bitwise() {
        let g = generators::barbell(6, 2);
        let config = SingleSpaceConfig::new(2_500, 97);
        let seq = SingleSpaceSampler::new(&g, 6, config.clone()).unwrap().run();
        for threads in [2usize, 3, 5] {
            let par =
                run_fixed(SpdView::direct(&g), 6, &config, &PrefetchConfig::with_threads(threads))
                    .unwrap();
            assert_eq!(fingerprint(&seq), fingerprint(&par), "threads {threads}");
        }
    }

    #[test]
    fn pipelined_joint_matches_sequential_bitwise() {
        let g = generators::barbell(5, 3);
        let probes = [5u32, 6, 7];
        let config = JointSpaceConfig::new(2_000, 41).with_trace_pair(0, 1);
        let seq = JointSpaceSampler::new(&g, &probes, config.clone()).unwrap().run();
        let par =
            run_joint_view(SpdView::direct(&g), &probes, &config, &PrefetchConfig::with_threads(3))
                .unwrap();
        assert_eq!(seq.counts, par.counts);
        assert_eq!(seq.spd_passes, par.spd_passes);
        assert_eq!(seq.acceptance_rate.to_bits(), par.acceptance_rate.to_bits());
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(seq.relative[i][j].to_bits(), par.relative[i][j].to_bits(), "({i},{j})");
            }
        }
        assert_eq!(seq.trace.as_ref().map(|t| t.len()), par.trace.as_ref().map(|t| t.len()));
    }

    #[test]
    fn sequential_fallback_for_thread_counts_below_two() {
        let g = generators::barbell(4, 1);
        let config = SingleSpaceConfig::new(300, 5);
        let seq = SingleSpaceSampler::new(&g, 4, config.clone()).unwrap().run();
        for threads in [0usize, 1] {
            let fb =
                run_fixed(SpdView::direct(&g), 4, &config, &PrefetchConfig::with_threads(threads))
                    .unwrap();
            assert_eq!(fingerprint(&seq), fingerprint(&fb));
        }
    }

    #[test]
    fn tiny_speculation_window_still_exact() {
        let g = generators::lollipop(5, 3);
        let config = SingleSpaceConfig::new(800, 13).with_trace();
        let seq = SingleSpaceSampler::new(&g, 5, config.clone()).unwrap().run();
        let par = run_fixed(
            SpdView::direct(&g),
            5,
            &config,
            &PrefetchConfig::with_threads(3).with_depth(1),
        )
        .unwrap();
        assert_eq!(fingerprint(&seq), fingerprint(&par));
        assert_eq!(seq.trace.unwrap(), par.trace.unwrap());
        assert_eq!(seq.density_series.unwrap(), par.density_series.unwrap());
    }

    #[test]
    fn pipelined_reduced_single_matches_sequential_bitwise() {
        use mhbc_graph::reduce::{reduce, ReduceLevel};
        let g = generators::lollipop(6, 3);
        let red = reduce(&g, ReduceLevel::Full).unwrap();
        let view = SpdView::preprocessed(&g, &red);
        let config = SingleSpaceConfig::new(1_500, 77);
        let seq = run_fixed(view, 0, &config, &PrefetchConfig::sequential()).unwrap();
        for threads in [2usize, 4] {
            let par = run_fixed(view, 0, &config, &PrefetchConfig::with_threads(threads)).unwrap();
            assert_eq!(fingerprint(&seq), fingerprint(&par), "threads {threads}");
        }
    }

    #[test]
    fn pipelined_reduced_run_rejects_pruned_probes() {
        use mhbc_graph::reduce::{reduce, ReduceLevel};
        let g = generators::lollipop(6, 3);
        let red = reduce(&g, ReduceLevel::Prune).unwrap();
        let view = SpdView::preprocessed(&g, &red);
        assert!(matches!(
            run_fixed(view, 8, &SingleSpaceConfig::new(10, 0), &PrefetchConfig::sequential()),
            Err(CoreError::PrunedProbe { probe: 8 })
        ));
    }

    #[test]
    fn adaptive_pipeline_bit_identical_across_thread_counts() {
        use mhbc_mcmc::StoppingRule;
        let g = generators::lollipop(8, 4);
        let view = SpdView::direct(&g);
        let config = SingleSpaceConfig::new(200_000, 5);
        let engine_cfg =
            EngineConfig::adaptive(StoppingRule::TargetStderr { epsilon: 0.01, delta: 0.05 })
                .with_segment(512);
        let (seq, seq_report) = run_single_view_adaptive(
            view,
            9,
            &config,
            engine_cfg,
            &PrefetchConfig::sequential(),
            None,
        )
        .unwrap();
        assert_eq!(seq_report.reason, crate::engine::StopReason::TargetReached);
        assert!(seq_report.iterations < 200_000);
        for threads in [2usize, 4] {
            let (par, par_report) = run_single_view_adaptive(
                view,
                9,
                &config,
                engine_cfg,
                &PrefetchConfig::with_threads(threads),
                None,
            )
            .unwrap();
            // Same stopping point, same estimates, same distinct SPD
            // passes: prefetch never reaches past the current segment, so
            // the early stop cannot inflate the cache.
            assert_eq!(seq_report.iterations, par_report.iterations, "threads {threads}");
            assert_eq!(fingerprint(&seq), fingerprint(&par), "threads {threads}");
            assert_eq!(seq_report.stderr.to_bits(), par_report.stderr.to_bits());
        }
    }

    #[test]
    fn parallel_resume_matches_uninterrupted_bitwise() {
        let g = generators::lollipop(8, 4);
        let view = SpdView::direct(&g);
        let config = SingleSpaceConfig::new(2_500, 17).with_trace();
        let seq = SingleSpaceSampler::for_view(view, 9, config.clone()).unwrap().run();

        // Checkpoint mid-run from a *parallel* execution…
        let engine_cfg = EngineConfig::fixed().with_segment(250);
        let mut saved: Option<Vec<u8>> = None;
        let mut count = 0;
        let mut sink = |bytes: Vec<u8>| {
            count += 1;
            if count == 4 {
                saved = Some(bytes);
            }
            Ok(())
        };
        let _ = run_single_view_adaptive(
            view,
            9,
            &config,
            engine_cfg,
            &PrefetchConfig::with_threads(3),
            Some(&mut sink),
        )
        .unwrap();
        let bytes = saved.expect("checkpoint captured");

        // …and resume it sequentially and in parallel: all bit-identical.
        for threads in [1usize, 2, 8] {
            let (resumed, _) = crate::resume_single(view, &bytes)
                .unwrap()
                .with_prefetch(PrefetchConfig::with_threads(threads))
                .run();
            assert_eq!(fingerprint(&seq), fingerprint(&resumed), "threads {threads}");
            assert_eq!(seq.trace, resumed.trace, "threads {threads}");
        }
    }

    #[test]
    fn pipeline_validates_like_the_sampler() {
        let g = generators::path(10);
        assert!(matches!(
            run_fixed(
                SpdView::direct(&g),
                99,
                &SingleSpaceConfig::new(10, 0),
                &PrefetchConfig::with_threads(2)
            ),
            Err(CoreError::ProbeOutOfRange { .. })
        ));
        let tiny = generators::path(2);
        assert!(matches!(
            run_fixed(
                SpdView::direct(&tiny),
                0,
                &SingleSpaceConfig::new(10, 0),
                &PrefetchConfig::with_threads(2)
            ),
            Err(CoreError::GraphTooSmall { .. })
        ));
    }

    /// Runs `engine` to its budget, returning the SPD passes its
    /// calculators performed and the `spd_passes` its estimate reports.
    fn passes<D: crate::engine::EngineDriver>(
        mut engine: crate::EstimationEngine<D>,
        computed: impl Fn(&D) -> u64,
        reported: impl Fn(&D::Output) -> u64,
    ) -> (u64, u64) {
        while engine.step_segment().is_none() {}
        let computed = computed(engine.driver());
        let (est, _) = engine.finalize(crate::StopReason::BudgetExhausted);
        (computed, reported(&est))
    }

    #[test]
    fn no_spd_pass_is_computed_twice() {
        use rand::{rngs::SmallRng, SeedableRng};
        // Large enough that every prefetch chunk splits hundreds of distinct
        // uncached sources across the threads.
        let g = generators::barabasi_albert(1_500, 3, &mut SmallRng::seed_from_u64(7));
        let view = SpdView::direct(&g);
        let r = (0..g.num_vertices() as Vertex).max_by_key(|&v| g.degree(v)).unwrap();
        let fixed = EngineConfig::fixed();
        for threads in [2usize, 4] {
            let prefetch = PrefetchConfig::with_threads(threads).with_depth(300);
            let single = SingleSpaceSampler::for_view(view, r, SingleSpaceConfig::new(3_000, 5))
                .unwrap()
                .into_engine(fixed)
                .with_prefetch(prefetch.clone());
            let (computed, reported) =
                passes(single, |d| d.oracle().computed_passes(), |e| e.spd_passes);
            assert!(reported > 1_000, "test premise: {reported} distinct rows");
            assert_eq!(computed, reported, "single, threads {threads}");

            let probes = [r, (r + 1) % 1_500, (r + 2) % 1_500];
            let joint = JointSpaceSampler::for_view(view, &probes, JointSpaceConfig::new(3_000, 5))
                .unwrap()
                .into_engine(fixed)
                .with_prefetch(prefetch);
            let (computed, reported) =
                passes(joint, |d| d.oracle().computed_passes(), |e| e.spd_passes);
            assert_eq!(computed, reported, "joint, threads {threads}");
        }
    }
}
