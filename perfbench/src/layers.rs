//! The traced run's calls into each layer: an operation replayed through
//! the public functions the CLI composes (load, reduce, engine segments,
//! checkpoint writes, the prefetch pipeline, the probe scheduler), and
//! kernel and monitor replays that time the SPD and diagnostics layers on
//! their own.

use crate::check::{Answer, ScheduledRow};
use crate::trace::Tracer;
use mhbc_suite::cli::{self, Command, PreprocessChoice};
use mhbc_suite::core::engine::CheckpointDriver;
use mhbc_suite::core::schedule::{run_probe_schedule, ScheduleConfig};
use mhbc_suite::core::{
    pipeline, AdaptiveReport, EngineConfig, EstimationEngine, JointSpaceConfig, JointSpaceSampler,
    PrefetchConfig, SingleSpaceConfig, SingleSpaceSampler, StopReason, StoppingRule,
};
use mhbc_suite::graph::reduce::{reduce, ReduceLevel, ReducedGraph};
use mhbc_suite::graph::{algo, io, CsrGraph, Vertex};
use mhbc_suite::mcmc::DiagnosticsMonitor;
use mhbc_suite::spd::{BfsSpd, KernelMode, SpdView, ViewCalculator};
use rand::{rngs::SmallRng, RngExt, SeedableRng};
use std::cmp::Ordering;
use std::fs::File;
use std::hint::black_box;
use std::io::BufReader;
use std::path::Path;
use std::time::{Duration, Instant};

/// Counts a traced operation produced, for the per-layer metrics.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct OpCounts {
    /// Edges of the loaded edge list.
    pub edges: usize,
    /// The reduction's work ratio, when one was built.
    pub work_ratio: Option<f64>,
    /// Whether the sampler evaluated through the built reduction.
    pub kept: bool,
    /// Chain iterations.
    pub iters: u64,
    /// SPD passes.
    pub passes: u64,
    /// Density lookups: iterations plus each chain's initial state.
    pub lookups: u64,
    /// Engine segments run.
    pub segments: u64,
    /// Passes inside the segments the trace stepped itself (the initial
    /// state's pass comes before the first segment).
    pub stepped_passes: u64,
    /// Iterations inside the segments the trace stepped itself.
    pub stepped_iters: u64,
    /// Adaptive engines run.
    pub adaptive: u64,
    /// Adaptive engines that reached their target.
    pub reached: u64,
    /// SPD passes and rounds of a probe schedule.
    pub schedule: Option<(u64, u64)>,
    /// Size of each checkpoint written.
    pub checkpoint_bytes: Vec<u64>,
    /// SPD passes of a run through the prefetch pipeline.
    pub pipeline_passes: Option<u64>,
}

/// The graph and evaluation view a traced operation used, kept for the
/// kernel replays.
pub struct Loaded {
    pub graph: CsrGraph,
    pub reduction: Option<ReducedGraph>,
    pub kernel: KernelMode,
    /// The probes, in internal ids.
    pub probes: Vec<Vertex>,
}

/// A traced operation's result.
pub struct TracedOp {
    pub answer: Answer,
    pub counts: OpCounts,
    pub loaded: Loaded,
}

/// Replays the `mhbc` operation `args` through the layers' public
/// functions, one span per call, under a root span named `op`. `kept` is
/// the decision `--preprocess auto` printed; the replay follows it instead
/// of restating the CLI's threshold.
pub fn traced_op(
    tr: &mut Tracer,
    args: &[String],
    path: &Path,
    kept: Option<bool>,
) -> Result<TracedOp, String> {
    let cmd = cli::parse(args)?;
    tr.span("op", |tr| traced_body(tr, &cmd, path, kept)).0
}

fn traced_body(
    tr: &mut Tracer,
    cmd: &Command,
    path: &Path,
    printed_kept: Option<bool>,
) -> Result<TracedOp, String> {
    let (raw, _) = tr.span("graph.io.parse", |_| -> Result<CsrGraph, String> {
        let file = File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        io::read_edge_list(BufReader::new(file)).map_err(|e| e.to_string())
    });
    let raw = raw?;
    let mut counts = OpCounts { edges: raw.num_edges(), ..OpCounts::default() };
    let ((graph, map), _) = tr.span("graph.algo.lcc", move |_| algo::largest_component(&raw));
    let internal = |input: Vertex| -> Result<Vertex, String> {
        map.iter()
            .position(|&old| old == input)
            .map(|i| i as Vertex)
            .ok_or_else(|| format!("vertex {input} is not in the largest component"))
    };
    match cmd {
        Command::Estimate {
            vertex,
            iterations,
            seed,
            threads,
            prefetch_depth,
            preprocess,
            kernel,
            adaptive,
            ..
        } => {
            let r = internal(*vertex)?;
            let reduction = traced_reduction(tr, &graph, *preprocess, printed_kept, &mut counts)?;
            if let Some(bc) = reduction.as_ref().and_then(|red| red.exact_pruned_bc(r)) {
                let answer = Answer::ClosedForm { vertex: *vertex, bc: format!("{bc:.6}") };
                let loaded = Loaded { graph, reduction, kernel: *kernel, probes: vec![r] };
                return Ok(TracedOp { answer, counts, loaded });
            }
            let sampling = reduction.as_ref().filter(|_| counts.kept);
            let view = SpdView::from_option(&graph, sampling).with_kernel(*kernel);
            let config = SingleSpaceConfig::new(*iterations, *seed);
            let stopping = stopping(adaptive.target_se, adaptive.target_delta);
            let engine_cfg = EngineConfig::adaptive(stopping).with_segment(adaptive.segment);
            let (est, report) = if *threads >= 2 {
                if adaptive.checkpoint.is_some() {
                    return Err("the traced run does not replay pipelined checkpoints".into());
                }
                let prefetch = PrefetchConfig::with_threads(*threads).with_depth(*prefetch_depth);
                let (out, _) = tr.span("core.pipeline.run", |_| {
                    pipeline::run_single_view_adaptive(
                        view, r, &config, engine_cfg, &prefetch, None,
                    )
                });
                let out = out.map_err(|e| e.to_string())?;
                counts.pipeline_passes = Some(out.0.spd_passes);
                out
            } else {
                let (engine, _) = tr.span("core.engine.init", |_| {
                    SingleSpaceSampler::for_view(view, r, config).map(|s| s.into_engine(engine_cfg))
                });
                let engine = engine.map_err(|e| e.to_string())?;
                let checkpoint = adaptive.checkpoint.as_deref();
                let (est, report) = step_engine(tr, engine, checkpoint, &mut counts)?;
                counts.stepped_passes += est.spd_passes.saturating_sub(1);
                counts.stepped_iters += est.iterations;
                (est, report)
            };
            counts.iters += est.iterations;
            counts.passes += est.spd_passes;
            counts.lookups += est.iterations + 1;
            counts.segments += report.segments;
            if adaptive.target_se.is_some() {
                counts.adaptive += 1;
                counts.reached += u64::from(report.reason == StopReason::TargetReached);
            }
            let (answer, _) = tr.span("cli.format", |_| Answer::Estimate {
                vertex: *vertex,
                eq7: format!("{:.6}", est.bc),
                corrected: format!("{:.6}", est.bc_corrected),
                iterations: est.iterations,
                passes: est.spd_passes,
                reached: adaptive.target_se.map(|_| report.reason == StopReason::TargetReached),
            });
            let loaded = Loaded { graph, reduction, kernel: *kernel, probes: vec![r] };
            Ok(TracedOp { answer, counts, loaded })
        }
        Command::Rank {
            vertices,
            iterations,
            seed,
            threads,
            prefetch_depth,
            preprocess,
            kernel,
            adaptive,
            ..
        } => {
            let probes = vertices.iter().map(|&v| internal(v)).collect::<Result<Vec<_>, _>>()?;
            let reduction = traced_reduction(tr, &graph, *preprocess, printed_kept, &mut counts)?;
            let sampling = reduction.as_ref().filter(|_| counts.kept);
            if let Some(p) = sampling.and_then(|red| probes.iter().find(|&&p| !red.is_retained(p)))
            {
                return Err(format!("probe {p} was pruned; ranking needs retained probes"));
            }
            if adaptive.checkpoint.is_some() {
                return Err("the traced run does not replay checkpointed rank runs".into());
            }
            let view = SpdView::from_option(&graph, sampling).with_kernel(*kernel);
            let answer = if let Some(epsilon) = adaptive.target_se {
                let budget = iterations.saturating_mul(probes.len() as u64);
                let config = ScheduleConfig {
                    budget,
                    segment: adaptive.segment,
                    target: stopping(Some(epsilon), adaptive.target_delta),
                    seed: *seed,
                };
                let (sched, _) =
                    tr.span("core.schedule.run", |_| run_probe_schedule(view, &probes, config));
                let sched = sched.map_err(|e| e.to_string())?;
                let mut passes = 0;
                for o in &sched.probes {
                    counts.iters += o.estimate.iterations;
                    passes += o.estimate.spd_passes;
                    counts.lookups += o.estimate.iterations + 1;
                    counts.segments += o.report.segments;
                    counts.adaptive += 1;
                    counts.reached += u64::from(o.reached);
                }
                counts.passes += passes;
                counts.schedule = Some((passes, sched.rounds));
                tr.span("cli.format", |_| {
                    let mut rows: Vec<_> = vertices.iter().zip(&sched.probes).collect();
                    rows.sort_by(|a, b| {
                        let (a, b) = (a.1.estimate.bc_corrected, b.1.estimate.bc_corrected);
                        b.partial_cmp(&a).unwrap_or(Ordering::Equal)
                    });
                    let rows = rows
                        .into_iter()
                        .map(|(&vertex, o)| ScheduledRow {
                            vertex,
                            bc: format!("{:.6}", o.estimate.bc_corrected),
                            halfwidth: format!("{:.6}", o.ci_halfwidth),
                            iters: o.allocated,
                            cut: !o.reached,
                        })
                        .collect();
                    Answer::Scheduled { budget, spent: sched.spent, rounds: sched.rounds, rows }
                })
                .0
            } else {
                let config = JointSpaceConfig::new(*iterations, *seed);
                let est = if *threads >= 2 {
                    let prefetch =
                        PrefetchConfig::with_threads(*threads).with_depth(*prefetch_depth);
                    let (est, _) = tr.span("core.pipeline.run", |_| {
                        pipeline::run_joint_view(view, &probes, &config, &prefetch)
                    });
                    let est = est.map_err(|e| e.to_string())?;
                    counts.pipeline_passes = Some(est.spd_passes);
                    est
                } else {
                    let (engine, _) = tr.span("core.engine.init", |_| {
                        JointSpaceSampler::for_view(view, &probes, config)
                            .map(|s| s.into_engine(EngineConfig::fixed()))
                    });
                    let engine = engine.map_err(|e| e.to_string())?;
                    let (est, report) = step_engine(tr, engine, None, &mut counts)?;
                    counts.segments += report.segments;
                    counts.stepped_passes += est.spd_passes.saturating_sub(1);
                    counts.stepped_iters += est.iterations;
                    est
                };
                counts.iters += est.iterations;
                counts.passes += est.spd_passes;
                counts.lookups += est.iterations + 1;
                tr.span("cli.format", |_| {
                    let mut ranked: Vec<(Vertex, f64)> =
                        vertices.iter().enumerate().map(|(i, &v)| (v, est.ratio(i, 0))).collect();
                    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(Ordering::Equal));
                    let rows = ranked.into_iter().map(|(v, x)| (v, format!("{x:.4}"))).collect();
                    Answer::Ranking { reference: vertices[0], iterations: est.iterations, rows }
                })
                .0
            };
            let loaded = Loaded { graph, reduction, kernel: *kernel, probes };
            Ok(TracedOp { answer, counts, loaded })
        }
        _ => Err("the traced run replays `estimate` and `rank` only".into()),
    }
}

fn stopping(target_se: Option<f64>, delta: f64) -> StoppingRule {
    match target_se {
        None => StoppingRule::FixedIterations,
        Some(epsilon) => StoppingRule::TargetStderr { epsilon, delta },
    }
}

/// Builds the reduction a `--preprocess` choice asks for.
fn traced_reduction(
    tr: &mut Tracer,
    g: &CsrGraph,
    choice: PreprocessChoice,
    printed_kept: Option<bool>,
    counts: &mut OpCounts,
) -> Result<Option<ReducedGraph>, String> {
    let (level, keep) = match choice {
        PreprocessChoice::Level(ReduceLevel::Off) => return Ok(None),
        PreprocessChoice::Level(level) => (level, true),
        PreprocessChoice::Auto => {
            let level = if g.is_weighted() { ReduceLevel::Prune } else { ReduceLevel::Full };
            let keep = printed_kept.ok_or("the CLI printed no `--preprocess auto` decision")?;
            (level, keep)
        }
    };
    let (red, _) = tr.span("graph.reduce.build", |_| reduce(g, level));
    let red = red.map_err(|e| format!("--preprocess {}: {e}", level.as_str()))?;
    counts.work_ratio = Some(red.stats().work_ratio());
    counts.kept = keep;
    Ok(Some(red))
}

/// Steps an engine segment by segment, writing a checkpoint at every
/// boundary the run continues past, as the CLI's checkpoint sink does.
fn step_engine<D: CheckpointDriver>(
    tr: &mut Tracer,
    mut engine: EstimationEngine<D>,
    checkpoint: Option<&str>,
    counts: &mut OpCounts,
) -> Result<(D::Output, AdaptiveReport), String> {
    loop {
        let (step, _) = tr.span("core.engine.segment", |_| engine.step_segment());
        if let Some(reason) = step {
            return Ok(engine.finalize(reason));
        }
        if let Some(path) = checkpoint {
            let (bytes, _) = tr.span("core.checkpoint.encode", |_| engine.checkpoint());
            counts.checkpoint_bytes.push(bytes.len() as u64);
            let (written, _) = tr.span("core.checkpoint.write", |_| {
                let tmp = format!("{path}.tmp");
                std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path))
            });
            written.map_err(|e| format!("cannot write checkpoint {path}: {e}"))?;
        }
    }
}

/// Per-pass SPD costs on one graph, from kernel replays.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelCost {
    /// `BfsSpd::compute`, ns per pass.
    pub forward_ns: f64,
    /// `BfsSpd::accumulate_dependencies`, ns per pass.
    pub backward_ns: f64,
    /// `ViewCalculator::dependency_on_many` through the operation's view,
    /// reduction mapping included, ns per pass.
    pub view_ns: f64,
    /// Bottom-up levels per forward pass.
    pub pull_levels: f64,
    /// Undirected edges of the graph.
    pub edges: usize,
    /// See [`working_set_bytes`].
    pub working_set_bytes: f64,
}

const REPLAY_TIME: Duration = Duration::from_millis(250);
const MIN_REPLAYS: u32 = 3;
const MAX_REPLAYS: u32 = 256;

/// Replays SPD passes from uniformly drawn sources (the chain's proposal
/// law): `BfsSpd::compute` and `accumulate_dependencies` timed apart on the
/// loaded graph, then `ViewCalculator::dependency_on_many` through the view
/// the operation sampled with.
pub fn replay_kernels(tr: &mut Tracer, loaded: &Loaded, kept: bool, seed: u64) -> KernelCost {
    let g = &loaded.graph;
    let n = g.num_vertices();
    let sources = |seed: u64| {
        let mut rng = SmallRng::seed_from_u64(seed);
        move || rng.random_range(0..n as Vertex)
    };
    let more = |done: u32, start: Instant| {
        done < MIN_REPLAYS || (done < MAX_REPLAYS && start.elapsed() < REPLAY_TIME)
    };

    let mut next = sources(seed);
    let mut bfs = BfsSpd::with_mode(n, loaded.kernel);
    let mut delta = Vec::with_capacity(n);
    let (mut forward, mut backward, mut pulls, mut passes) = (0u64, 0u64, 0u64, 0u32);
    let start = Instant::now();
    while more(passes, start) {
        let s = next();
        forward += tr.span("spd.replay.forward", |_| bfs.compute(g, s)).1;
        backward +=
            tr.span("spd.replay.backward", |_| bfs.accumulate_dependencies(g, &mut delta)).1;
        black_box(&delta);
        pulls += u64::from(bfs.pull_levels());
        passes += 1;
    }

    let sampling = loaded.reduction.as_ref().filter(|_| kept);
    let mut calc =
        ViewCalculator::new(SpdView::from_option(g, sampling).with_kernel(loaded.kernel));
    let mut out = Vec::new();
    let mut next = sources(seed);
    let (mut view, mut view_passes) = (0u64, 0u32);
    let start = Instant::now();
    while more(view_passes, start) {
        let s = next();
        view +=
            tr.span("spd.replay.view", |_| calc.dependency_on_many(s, &loaded.probes, &mut out)).1;
        black_box(&out);
        view_passes += 1;
    }

    let per = |total: u64, count: u32| total as f64 / f64::from(count);
    KernelCost {
        forward_ns: per(forward, passes),
        backward_ns: per(backward, passes),
        view_ns: per(view, view_passes),
        pull_levels: per(pulls, passes),
        edges: g.num_edges(),
        working_set_bytes: working_set_bytes(n, g.num_edges()),
    }
}

/// Bytes one direct SPD pass touches: the compact CSR (u32 offsets and
/// degrees, both directions of every edge as u32) plus the per-pass arrays
/// of `BfsSpd` and the dependency row (u32 stamps, f64 σ, u32 settle order,
/// u32 pull candidates, f64 δ, one frontier bit per vertex).
pub fn working_set_bytes(n: usize, m: usize) -> f64 {
    let (n, m) = (n as f64, m as f64);
    let csr = 4.0 * (n + 1.0) + 4.0 * n + 8.0 * m;
    let per_pass = (4.0 + 8.0 + 4.0 + 4.0 + 8.0) * n + n / 8.0;
    csr + per_pass
}

/// Times the diagnostics monitor alone: `obs` observations absorbed a
/// segment at a time, each segment followed by the stopping test the engine
/// runs at a boundary. Returns ns per observation.
pub fn replay_monitor(tr: &mut Tracer, obs: u64, segment: u64, seed: u64) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let batch: Vec<f64> = (0..segment).map(|_| rng.random::<f64>()).collect();
    let rule = StoppingRule::TargetStderr { epsilon: f64::MIN_POSITIVE, delta: 0.05 };
    let segments = (obs / segment).max(1);
    let mut monitor = DiagnosticsMonitor::new();
    let (_, ns) = tr.span("mcmc.monitor.replay", |_| {
        for _ in 0..segments {
            monitor.absorb(&batch);
            black_box(rule.satisfied(&monitor, 1.0));
        }
    });
    ns as f64 / (segments * segment) as f64
}
