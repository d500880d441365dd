//! The segmented estimation engine: one control loop for every sampler.
//!
//! Before this module, each sampler (`single`, `joint`, and the prefetch
//! pipeline) ran a fixed iteration count chosen blind by the
//! a-priori planner, and the chain-quality diagnostics were offline helpers
//! nothing consumed. The [`EstimationEngine`] inverts that: execution
//! proceeds in **segments** (default 1024 iterations); after each segment
//! the observation series is fed into a streaming
//! [`DiagnosticsMonitor`], and a [`StoppingRule`] decides
//! continue/stop — so a `TargetStderr` or `TargetEss` run stops as soon as
//! the chain's *observed* variance supports the target, typically far
//! before the planner's worst-case `µ(r)` budget (experiment F3c measures
//! the overshoot; perfbench's `hot-adaptive` workload reports the share of
//! runs that reach their target).
//!
//! ## Bit-identity contract
//!
//! With [`StoppingRule::FixedIterations`] the engine is a pure refactor of
//! the old run-to-completion loops: the samplers step the *same* chains with
//! the *same* RNG streams and absorb into the *same* accumulators in the
//! same order, and segmentation only interleaves diagnostics bookkeeping
//! *between* iterations — every estimate is bit-identical to the
//! pre-engine code, at every thread count and kernel mode (pinned by the
//! `prefetch_determinism` suite). Adaptive rules are themselves
//! deterministic: stopping decisions are a pure function of the observation
//! series, which is itself a pure function of the seed.
//!
//! ## Checkpoint / resume
//!
//! At any segment boundary the engine's full state — chain RNG streams,
//! estimator accumulators, diagnostics monitor, segment counter, and the
//! memoised dependency rows — serialises to a versioned checkpoint (see
//! [`crate::checkpoint`]). [`resume_single`] / [`resume_joint`] rebuild the
//! engine against a fresh view; the resumed run is bit-identical to an
//! uninterrupted one, including `spd_passes`.

use crate::checkpoint::{
    self, read_header, validate_view, write_header, CheckpointKind, Reader, Writer,
};
use crate::pipeline::PrefetchConfig;
use crate::{CoreError, JointSpaceSampler, SingleSpaceSampler};
use mhbc_mcmc::{DiagnosticsMonitor, StoppingRule};
use mhbc_spd::SpdView;

/// Engine knobs: segment length and stopping rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Iterations per segment — the granularity of diagnostics updates,
    /// stopping decisions, and checkpoints. Smaller segments react faster
    /// but pay the (tiny) per-segment diagnostics cost more often.
    pub segment: u64,
    /// When to stop (the budget is always an upper bound).
    pub stopping: StoppingRule,
}

impl EngineConfig {
    /// Default segment length.
    pub const DEFAULT_SEGMENT: u64 = 1024;

    /// Fixed-budget execution (the pre-engine behaviour, bit for bit).
    pub fn fixed() -> Self {
        EngineConfig { segment: Self::DEFAULT_SEGMENT, stopping: StoppingRule::FixedIterations }
    }

    /// Adaptive execution under `rule`.
    pub fn adaptive(rule: StoppingRule) -> Self {
        EngineConfig { segment: Self::DEFAULT_SEGMENT, stopping: rule }
    }

    /// Overrides the segment length (clamped to ≥ 1).
    pub fn with_segment(mut self, segment: u64) -> Self {
        self.segment = segment.max(1);
        self
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::fixed()
    }
}

/// Why a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The iteration budget ran out (always the reason under
    /// [`StoppingRule::FixedIterations`]).
    BudgetExhausted,
    /// The adaptive stopping rule was satisfied before the budget.
    TargetReached,
}

/// What the engine observed: the "plan vs. actual" record reported next to
/// every adaptive estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveReport {
    /// Iterations actually run.
    pub iterations: u64,
    /// Iterations already done when this engine started (0 for a fresh
    /// run; the checkpoint's position for a resumed one).
    pub resumed_from: u64,
    /// The iteration budget (the fixed plan the adaptive rule undercuts).
    pub budget: u64,
    /// Segments executed (this run only; a resumed run continues the count).
    pub segments: u64,
    /// Why the run stopped.
    pub reason: StopReason,
    /// The stopping rule in force.
    pub stopping: StoppingRule,
    /// Batch-means standard error of the *estimate* at stop (`NaN` when
    /// fewer than two batches completed).
    pub stderr: f64,
    /// Online effective sample size of the observation series.
    pub ess: f64,
    /// Integrated autocorrelation time `n / ESS`.
    pub tau: f64,
    /// Geweke drift score over the batch means (`NaN` when undefined).
    pub geweke_z: f64,
    /// Plug-in estimate of the paper's concentration constant `µ(r)` from
    /// the observed proposal stream (single-space runs only; see
    /// [`crate::planner::refit_plan`]).
    pub observed_mu: Option<f64>,
}

/// A sampler the engine can drive in segments.
///
/// The samplers implement it themselves; `run_segment` advances the chain
/// and appends its observation series (the per-step dependency of the
/// occupied state — the series experiment F2 diagnoses) into `out`. The
/// engine feeds `out` to the diagnostics monitor *between* segments so the
/// per-iteration hot loop carries nothing beyond a buffer push.
pub trait EngineDriver {
    /// The finished-estimate type.
    type Output;

    /// Pushes observations that precede the first iteration (the counted
    /// initial state, for a fresh sampler). Not called on resume — the
    /// restored monitor already absorbed them.
    fn prime(&mut self, _out: &mut Vec<f64>) {}

    /// Advances exactly `iters` iterations, appending observations.
    fn run_segment(&mut self, iters: u64, out: &mut Vec<f64>);

    /// Sets the batch prefetch used by later segments (see
    /// [`crate::pipeline`]); never changes any output.
    fn set_prefetch(&mut self, prefetch: PrefetchConfig);

    /// Iterations done so far (including before a resume).
    fn iterations(&self) -> u64;

    /// Divisor mapping the observation series' standard error to the
    /// estimate's standard error (the Eq 7 estimator divides the dependency
    /// series by `n − 1`).
    fn scale(&self) -> f64;

    /// Plug-in `µ̂(r)` from the observed proposal stream, when the driver
    /// tracks one.
    fn observed_mu(&self) -> Option<f64> {
        None
    }

    /// Finalises into the public estimate.
    fn finish(self) -> Self::Output;
}

/// Drivers whose full state can round-trip through a checkpoint.
pub trait CheckpointDriver: EngineDriver {
    /// The checkpoint kind tag this driver writes.
    fn kind(&self) -> CheckpointKind;

    /// The evaluation view (for the checkpoint header).
    fn view(&self) -> SpdView<'_>;

    /// Serialises the driver's complete state.
    fn save(&self, w: &mut Writer);
}

/// The segmented estimation engine; see the module docs.
pub struct EstimationEngine<D: EngineDriver> {
    driver: D,
    monitor: DiagnosticsMonitor,
    config: EngineConfig,
    budget: u64,
    segments: u64,
    started: u64,
    buf: Vec<f64>,
}

impl<D: EngineDriver> EstimationEngine<D> {
    /// Wraps `driver` with an iteration `budget` (the upper bound every
    /// stopping rule respects). The driver's pre-first-iteration
    /// observations are absorbed immediately.
    pub fn new(mut driver: D, budget: u64, config: EngineConfig) -> Self {
        let mut monitor = DiagnosticsMonitor::new();
        let mut buf = Vec::with_capacity(config.segment.min(1 << 16) as usize + 1);
        driver.prime(&mut buf);
        monitor.absorb(&buf);
        buf.clear();
        let started = driver.iterations();
        EstimationEngine { driver, monitor, config, budget, segments: 0, started, buf }
    }

    /// Runs later segments with `prefetch` (see [`crate::pipeline`]): a
    /// wall-clock knob that never changes any estimate.
    pub fn with_prefetch(mut self, prefetch: PrefetchConfig) -> Self {
        self.driver.set_prefetch(prefetch);
        self
    }

    /// The streaming diagnostics over the observation series so far.
    pub fn monitor(&self) -> &DiagnosticsMonitor {
        &self.monitor
    }

    /// Segments executed so far.
    pub fn segments(&self) -> u64 {
        self.segments
    }

    /// The iteration budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// The engine configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Iterations done so far.
    pub fn iterations(&self) -> u64 {
        self.driver.iterations()
    }

    /// Read access to the wrapped driver.
    pub fn driver(&self) -> &D {
        &self.driver
    }

    /// Standard error of the estimate at the current point (`NaN` until
    /// two batches of observations completed).
    pub fn estimate_stderr(&self) -> f64 {
        self.monitor.batch_stderr() / self.driver.scale()
    }

    /// Runs one segment (clamped to the remaining budget) and decides:
    /// `None` to continue, `Some(reason)` when the run is over. Returns
    /// `Some(BudgetExhausted)` without stepping when the budget is already
    /// spent.
    pub fn step_segment(&mut self) -> Option<StopReason> {
        let done = self.driver.iterations();
        if done >= self.budget {
            return Some(StopReason::BudgetExhausted);
        }
        let seg = self.config.segment.min(self.budget - done);
        self.buf.clear();
        self.driver.run_segment(seg, &mut self.buf);
        self.monitor.absorb(&self.buf);
        self.segments += 1;
        if self.config.stopping.satisfied(&self.monitor, self.driver.scale()) {
            return Some(StopReason::TargetReached);
        }
        if self.driver.iterations() >= self.budget {
            return Some(StopReason::BudgetExhausted);
        }
        None
    }

    /// Runs to completion.
    pub fn run(self) -> (D::Output, AdaptiveReport) {
        // Infallible observer; unwrap is safe.
        match self.run_with(|_| Ok::<(), std::convert::Infallible>(())) {
            Ok(out) => out,
            Err(e) => match e {},
        }
    }

    /// Runs to completion, calling `after_segment` at every segment
    /// boundary (the CLI writes checkpoints there). An observer error
    /// aborts the run.
    pub fn run_with<E>(
        mut self,
        mut after_segment: impl FnMut(&Self) -> Result<(), E>,
    ) -> Result<(D::Output, AdaptiveReport), E> {
        let reason = loop {
            match self.step_segment() {
                Some(reason) => break reason,
                None => after_segment(&self)?,
            }
        };
        let report = self.report(reason);
        Ok((self.driver.finish(), report))
    }

    /// Finalises without running further segments — the probe scheduler
    /// cuts engines off when the *shared* budget runs out, before their own
    /// budget or target does.
    pub fn finalize(self, reason: StopReason) -> (D::Output, AdaptiveReport) {
        let report = self.report(reason);
        (self.driver.finish(), report)
    }

    fn report(&self, reason: StopReason) -> AdaptiveReport {
        AdaptiveReport {
            iterations: self.driver.iterations(),
            resumed_from: self.started,
            budget: self.budget,
            segments: self.segments,
            reason,
            stopping: self.config.stopping,
            stderr: self.estimate_stderr(),
            ess: self.monitor.ess(),
            tau: self.monitor.tau(),
            geweke_z: self.monitor.geweke_z(),
            observed_mu: self.driver.observed_mu(),
        }
    }
}

/// A consumer of checkpoint file images, called at every segment boundary
/// (the CLI writes them to disk).
pub type CheckpointSink<'x> = dyn FnMut(Vec<u8>) -> Result<(), CoreError> + 'x;

impl<D: CheckpointDriver> EstimationEngine<D> {
    /// Runs to completion, feeding every segment boundary's checkpoint to
    /// `sink` when one is given.
    pub fn run_checkpointed(
        self,
        sink: Option<&mut CheckpointSink<'_>>,
    ) -> Result<(D::Output, AdaptiveReport), CoreError> {
        match sink {
            None => Ok(self.run()),
            Some(f) => self.run_with(|e| f(e.checkpoint())),
        }
    }

    /// Serialises the engine's complete state (valid at any segment
    /// boundary) into a versioned checkpoint file image.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut w = Writer::new();
        write_header(&mut w, self.driver.kind(), &self.driver.view());
        w.u64(self.budget);
        w.u64(self.config.segment);
        write_stopping(&mut w, self.config.stopping);
        w.u64(self.segments);
        let mut words = Vec::new();
        self.monitor.encode(&mut words);
        w.u64(words.len() as u64);
        for x in words {
            w.u64(x);
        }
        self.driver.save(&mut w);
        w.finish()
    }
}

fn write_stopping(w: &mut Writer, rule: StoppingRule) {
    match rule {
        StoppingRule::FixedIterations => w.u8(0),
        StoppingRule::TargetStderr { epsilon, delta } => {
            w.u8(1);
            w.f64(epsilon);
            w.f64(delta);
        }
        StoppingRule::TargetEss { target } => {
            w.u8(2);
            w.f64(target);
        }
    }
}

fn read_stopping(r: &mut Reader<'_>) -> Result<StoppingRule, CoreError> {
    match r.u8()? {
        0 => Ok(StoppingRule::FixedIterations),
        1 => {
            let (epsilon, delta) = (r.f64()?, r.f64()?);
            // The rule takes the normal quantile of δ/2, defined only on (0, 1).
            if !(delta > 0.0 && delta < 1.0) {
                return Err(checkpoint::corrupt(format!("stopping delta {delta} outside (0, 1)")));
            }
            Ok(StoppingRule::TargetStderr { epsilon, delta })
        }
        2 => Ok(StoppingRule::TargetEss { target: r.f64()? }),
        other => Err(checkpoint::corrupt(format!("unknown stopping rule {other}"))),
    }
}

/// Resumes a single-space run from a checkpoint written by
/// [`EstimationEngine::checkpoint`]. The view must hold the same graph at
/// the same preprocess level (any kernel mode); the resumed engine
/// continues bit-identically to an uninterrupted run.
pub fn resume_single<'g>(
    view: SpdView<'g>,
    bytes: &[u8],
) -> Result<EstimationEngine<SingleSpaceSampler<'g>>, CoreError> {
    resume(view, bytes, CheckpointKind::Single, SingleSpaceSampler::restore_from)
}

/// Resumes a joint-space run from a checkpoint (see [`resume_single`]).
pub fn resume_joint<'g>(
    view: SpdView<'g>,
    bytes: &[u8],
) -> Result<EstimationEngine<JointSpaceSampler<'g>>, CoreError> {
    resume(view, bytes, CheckpointKind::Joint, JointSpaceSampler::restore_from)
}

/// Opens a checkpoint of kind `kind` against `view` (header, graph and
/// preprocess identity), decodes the engine state, rebuilds the sampler
/// with `restore`, and refuses payload bytes the sampler did not read. The
/// monitor and segment counter continue from their checkpointed state.
fn resume<'g, D: EngineDriver>(
    view: SpdView<'g>,
    bytes: &[u8],
    kind: CheckpointKind,
    restore: impl FnOnce(SpdView<'g>, &mut Reader<'_>) -> Result<D, CoreError>,
) -> Result<EstimationEngine<D>, CoreError> {
    let (info, mut r) = read_header(bytes)?;
    if info.kind != kind {
        return Err(checkpoint::corrupt(format!(
            "checkpoint holds a {:?} run, expected {kind:?}",
            info.kind
        )));
    }
    validate_view(&info, &view)?;
    let budget = r.u64()?;
    let config = EngineConfig { segment: r.u64()?.max(1), stopping: read_stopping(&mut r)? };
    let segments = r.u64()?;
    let n_words = r.u64()? as usize;
    if n_words > r.remaining() / 8 {
        return Err(checkpoint::corrupt("monitor block longer than the checkpoint"));
    }
    let words: Vec<u64> = (0..n_words).map(|_| r.u64()).collect::<Result<_, _>>()?;
    let (monitor, used) = DiagnosticsMonitor::decode(&words)
        .ok_or_else(|| checkpoint::corrupt("bad monitor block"))?;
    if used != words.len() {
        return Err(checkpoint::corrupt("trailing monitor words"));
    }
    let driver = restore(view, &mut r)?;
    if r.remaining() != 0 {
        return Err(checkpoint::corrupt("trailing bytes after the sampler state"));
    }
    let buf = Vec::with_capacity(config.segment.min(1 << 16) as usize + 1);
    let started = driver.iterations();
    Ok(EstimationEngine { driver, monitor, config, budget, segments, started, buf })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SingleSpaceConfig, SingleSpaceSampler};
    use mhbc_graph::generators;
    use mhbc_mcmc::StoppingRule;

    fn fingerprint(e: &crate::SingleSpaceEstimate) -> (u64, u64, u64, u64, u64) {
        (
            e.bc.to_bits(),
            e.bc_corrected.to_bits(),
            e.acceptance_rate.to_bits(),
            e.spd_passes,
            e.iterations,
        )
    }

    #[test]
    fn fixed_engine_reproduces_plain_run_bitwise() {
        let g = generators::barbell(6, 2);
        let config = SingleSpaceConfig::new(2_000, 9).with_trace();
        let plain = SingleSpaceSampler::new(&g, 6, config.clone()).unwrap().run();
        for segment in [1u64, 7, 256, 100_000] {
            let (est, report) = SingleSpaceSampler::new(&g, 6, config.clone())
                .unwrap()
                .into_engine(EngineConfig::fixed().with_segment(segment))
                .run();
            assert_eq!(fingerprint(&plain), fingerprint(&est), "segment {segment}");
            assert_eq!(plain.trace, est.trace);
            assert_eq!(report.reason, StopReason::BudgetExhausted);
            assert_eq!(report.budget, 2_000);
            assert_eq!(report.iterations, 2_000);
        }
    }

    #[test]
    fn adaptive_target_stderr_stops_early_and_reports() {
        let g = generators::lollipop(8, 4);
        let config = SingleSpaceConfig::new(100_000, 5);
        let rule = StoppingRule::TargetStderr { epsilon: 0.1, delta: 0.05 };
        let (est, report) = SingleSpaceSampler::new(&g, 9, config)
            .unwrap()
            .into_engine(EngineConfig::adaptive(rule))
            .run();
        assert_eq!(report.reason, StopReason::TargetReached);
        assert!(report.iterations < 100_000, "ran {}", report.iterations);
        assert_eq!(est.iterations, report.iterations);
        assert!(report.stderr.is_finite() && report.stderr > 0.0);
        // The guaranteed half-width holds numerically at the stop point.
        assert!(1.96 * report.stderr <= 0.1 + 1e-12);
        assert!(report.ess >= 1.0);
        let mu = report.observed_mu.expect("single runs track the proposal stream");
        assert!(mu >= 1.0, "observed mu {mu} is a max/mean ratio");
    }

    #[test]
    fn zero_betweenness_probe_stops_at_first_boundary() {
        // A star leaf has an identically-zero dependency series: the batch
        // stderr is exactly 0 after the first segment, so any target stops.
        let g = generators::star(10);
        let rule = StoppingRule::TargetStderr { epsilon: 1e-9, delta: 0.01 };
        let (est, report) = SingleSpaceSampler::new(&g, 3, SingleSpaceConfig::new(50_000, 3))
            .unwrap()
            .into_engine(EngineConfig::adaptive(rule).with_segment(128))
            .run();
        assert_eq!(report.reason, StopReason::TargetReached);
        assert_eq!(report.iterations, 128);
        assert_eq!(est.bc, 0.0);
    }

    #[test]
    fn target_ess_rule_stops() {
        let g = generators::lollipop(8, 4);
        let (_, report) = SingleSpaceSampler::new(&g, 9, SingleSpaceConfig::new(200_000, 7))
            .unwrap()
            .into_engine(EngineConfig::adaptive(StoppingRule::TargetEss { target: 500.0 }))
            .run();
        assert_eq!(report.reason, StopReason::TargetReached);
        assert!(report.ess >= 500.0, "stopped with ESS {}", report.ess);
        assert!(report.iterations < 200_000);
    }

    #[test]
    fn single_checkpoint_resume_is_bit_identical() {
        let g = generators::lollipop(8, 4);
        let view = mhbc_spd::SpdView::direct(&g);
        let config = SingleSpaceConfig::new(3_000, 21).with_trace();
        let uninterrupted = SingleSpaceSampler::for_view(view, 9, config.clone()).unwrap().run();

        // Run the first 4 segments of 256, checkpoint, drop everything.
        let mut engine = SingleSpaceSampler::for_view(view, 9, config.clone())
            .unwrap()
            .into_engine(EngineConfig::fixed().with_segment(256));
        for _ in 0..4 {
            assert!(engine.step_segment().is_none());
        }
        let bytes = engine.checkpoint();
        drop(engine);

        // Resume under a different kernel mode: rows are mode-invariant.
        let hybrid = view.with_kernel(mhbc_spd::KernelMode::Hybrid);
        let resumed_engine = resume_single(hybrid, &bytes).expect("resumable");
        assert_eq!(resumed_engine.iterations(), 4 * 256);
        assert_eq!(resumed_engine.segments(), 4);
        let (resumed, report) = resumed_engine.run();
        assert_eq!(fingerprint(&uninterrupted), fingerprint(&resumed));
        assert_eq!(uninterrupted.trace, resumed.trace);
        assert_eq!(uninterrupted.density_series, resumed.density_series);
        assert_eq!(report.reason, StopReason::BudgetExhausted);
    }

    #[test]
    fn adaptive_checkpoint_resumes_to_the_same_stopping_point() {
        let g = generators::lollipop(8, 4);
        let view = mhbc_spd::SpdView::direct(&g);
        let config = SingleSpaceConfig::new(100_000, 5);
        // Tight enough that several segments are needed before the stop.
        let engine_cfg =
            EngineConfig::adaptive(StoppingRule::TargetStderr { epsilon: 0.004, delta: 0.05 })
                .with_segment(512);
        let (full_est, full_report) = SingleSpaceSampler::for_view(view, 9, config.clone())
            .unwrap()
            .into_engine(engine_cfg)
            .run();

        let mut engine =
            SingleSpaceSampler::for_view(view, 9, config).unwrap().into_engine(engine_cfg);
        assert!(engine.step_segment().is_none(), "must not stop after one segment");
        let bytes = engine.checkpoint();
        drop(engine);
        let (resumed_est, resumed_report) = resume_single(view, &bytes).expect("resumable").run();
        assert_eq!(full_report.iterations, resumed_report.iterations);
        assert_eq!(full_report.reason, resumed_report.reason);
        assert_eq!(full_est.bc.to_bits(), resumed_est.bc.to_bits());
        assert_eq!(full_est.spd_passes, resumed_est.spd_passes);
        assert_eq!(full_report.stderr.to_bits(), resumed_report.stderr.to_bits());
    }

    #[test]
    fn joint_checkpoint_resume_is_bit_identical() {
        let g = generators::barbell(5, 3);
        let view = mhbc_spd::SpdView::direct(&g);
        let probes = [5u32, 6, 7];
        let config = crate::JointSpaceConfig::new(2_000, 41).with_trace_pair(0, 1);
        let uninterrupted =
            crate::JointSpaceSampler::for_view(view, &probes, config.clone()).unwrap().run();

        let mut engine = crate::JointSpaceSampler::for_view(view, &probes, config)
            .unwrap()
            .into_engine(EngineConfig::fixed().with_segment(300));
        for _ in 0..3 {
            assert!(engine.step_segment().is_none());
        }
        let bytes = engine.checkpoint();
        drop(engine);
        let (resumed, _) = resume_joint(view, &bytes).expect("resumable").run();
        assert_eq!(uninterrupted.counts, resumed.counts);
        assert_eq!(uninterrupted.spd_passes, resumed.spd_passes);
        assert_eq!(uninterrupted.iterations, resumed.iterations);
        assert_eq!(uninterrupted.acceptance_rate.to_bits(), resumed.acceptance_rate.to_bits());
        for i in 0..probes.len() {
            for j in 0..probes.len() {
                assert_eq!(
                    uninterrupted.relative[i][j].to_bits(),
                    resumed.relative[i][j].to_bits(),
                    "({i},{j})"
                );
            }
        }
        assert_eq!(uninterrupted.trace, resumed.trace);
    }

    #[test]
    fn preprocessed_checkpoint_resumes_bit_identically() {
        use mhbc_graph::reduce::{reduce, ReduceLevel};
        let g = generators::lollipop(8, 4);
        let red = reduce(&g, ReduceLevel::Full).unwrap();
        let view = mhbc_spd::SpdView::preprocessed(&g, &red);
        let config = SingleSpaceConfig::new(2_000, 13);
        let uninterrupted = SingleSpaceSampler::for_view(view, 0, config.clone()).unwrap().run();

        let mut engine = SingleSpaceSampler::for_view(view, 0, config)
            .unwrap()
            .into_engine(EngineConfig::fixed().with_segment(300));
        for _ in 0..3 {
            assert!(engine.step_segment().is_none());
        }
        let bytes = engine.checkpoint();
        drop(engine);

        // Resuming against the direct view must be refused (row keys live
        // in the reduction's key space)…
        let err = match resume_single(mhbc_spd::SpdView::direct(&g), &bytes) {
            Err(e) => e,
            Ok(_) => panic!("direct view must be rejected"),
        };
        assert!(err.to_string().contains("preprocess mismatch"), "{err}");

        // …and against a freshly rebuilt reduction it is bit-identical.
        let red2 = reduce(&g, ReduceLevel::Full).unwrap();
        let view2 = mhbc_spd::SpdView::preprocessed(&g, &red2);
        let (resumed, _) = resume_single(view2, &bytes).expect("resumable").run();
        assert_eq!(fingerprint(&uninterrupted), fingerprint(&resumed));
    }

    #[test]
    fn resume_rejects_wrong_kind_and_wrong_graph() {
        let g = generators::lollipop(6, 3);
        let view = mhbc_spd::SpdView::direct(&g);
        let mut engine = SingleSpaceSampler::for_view(view, 0, SingleSpaceConfig::new(1_000, 1))
            .unwrap()
            .into_engine(EngineConfig::fixed().with_segment(100));
        let _ = engine.step_segment();
        let bytes = engine.checkpoint();
        assert!(matches!(resume_joint(view, &bytes), Err(CoreError::Checkpoint { .. })));
        let other = generators::barbell(6, 2);
        assert!(matches!(
            resume_single(mhbc_spd::SpdView::direct(&other), &bytes),
            Err(CoreError::Checkpoint { .. })
        ));
    }

    /// Re-signs `body` (a checkpoint without its checksum) as a file image.
    fn resign(body: &[u8]) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(body);
        w.finish()
    }

    #[test]
    fn resume_rejects_bytes_after_the_sampler_state() {
        let g = generators::lollipop(6, 3);
        let view = mhbc_spd::SpdView::direct(&g);
        let mut engine = SingleSpaceSampler::for_view(view, 0, SingleSpaceConfig::new(1_000, 1))
            .unwrap()
            .into_engine(EngineConfig::fixed().with_segment(100));
        let _ = engine.step_segment();
        let bytes = engine.checkpoint();
        let body = &bytes[..bytes.len() - 8];
        assert!(resume_single(view, &resign(body)).is_ok());
        let mut padded = body.to_vec();
        padded.push(0);
        match resume_single(view, &resign(&padded)) {
            Err(CoreError::Checkpoint { reason }) => {
                assert!(reason.contains("trailing"), "{reason}")
            }
            Err(other) => panic!("expected a checkpoint error, got {other}"),
            Ok(_) => panic!("a payload with trailing bytes was accepted"),
        }
    }

    #[test]
    fn stopping_rules_with_delta_outside_the_unit_interval_are_rejected() {
        for delta in [0.0, 1.0, -0.5, 2.0, f64::NAN] {
            let mut w = Writer::new();
            write_stopping(&mut w, StoppingRule::TargetStderr { epsilon: 0.1, delta });
            let bytes = w.finish();
            let mut r = Reader::new(&bytes);
            assert!(read_stopping(&mut r).is_err(), "delta {delta}");
        }
        let mut w = Writer::new();
        let rule = StoppingRule::TargetStderr { epsilon: 0.1, delta: 0.05 };
        write_stopping(&mut w, rule);
        let bytes = w.finish();
        assert_eq!(read_stopping(&mut Reader::new(&bytes)).unwrap(), rule);
    }

    #[test]
    fn run_with_observer_sees_every_boundary_and_can_abort() {
        let g = generators::barbell(5, 1);
        let engine = SingleSpaceSampler::new(&g, 5, SingleSpaceConfig::new(1_000, 3))
            .unwrap()
            .into_engine(EngineConfig::fixed().with_segment(100));
        let mut boundaries = 0u64;
        let (_, report) = engine
            .run_with(|e| {
                boundaries += 1;
                assert_eq!(e.iterations(), boundaries * 100);
                Ok::<(), std::convert::Infallible>(())
            })
            .unwrap();
        // 10 segments; the final one ends the run, so 9 mid-run boundaries.
        assert_eq!(boundaries, 9);
        assert_eq!(report.segments, 10);

        let engine = SingleSpaceSampler::new(&g, 5, SingleSpaceConfig::new(1_000, 3))
            .unwrap()
            .into_engine(EngineConfig::fixed().with_segment(100));
        let err = engine.run_with(|_| Err("stop")).unwrap_err();
        assert_eq!(err, "stop");
    }
}
