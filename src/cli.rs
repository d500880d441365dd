//! Library half of the `mhbc` command-line tool: argument parsing and
//! command execution, kept binary-free so the logic is unit-testable.

use mhbc_core::checkpoint::{self, CheckpointKind};
use mhbc_core::engine::CheckpointSink;
use mhbc_core::planner::{plan_single_view, refit_plan, MuSource};
use mhbc_core::schedule::{run_probe_schedule, ScheduleConfig};
use mhbc_core::{
    pipeline, AdaptiveReport, EngineConfig, JointSpaceConfig, JointSpaceSampler, PrefetchConfig,
    SingleSpaceConfig, StopReason, StoppingRule,
};
use mhbc_graph::reduce::{self, reduce, ReduceLevel, ReducedGraph};
use mhbc_graph::{algo, io, CsrGraph, Vertex};
use mhbc_spd::{KernelMode, SpdView};
use std::io::BufRead;

/// The `--preprocess` argument: a fixed [`ReduceLevel`], or `auto` (the
/// default of `estimate`, `rank` and `plan`) — plan the strongest applicable
/// reduction, and build it only when the plan's exact work ratio says an SPD
/// pass shrinks enough (an empty reduction still taxes the sampler with
/// multiplicity bookkeeping and a second CSR in cache: 0.96–0.98x sampler
/// throughput measured on `ws`/`grid`) and, for `rank`, when it retains
/// every probe (the joint chain samples retained vertices only). A discarded
/// reduction costs only its pruning and twin detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreprocessChoice {
    /// `off`, `prune`, or `full` — exactly as requested.
    Level(ReduceLevel),
    /// Plan `full` (`prune` on weighted graphs); build it only if it pays
    /// and keeps every `rank` probe, else sample on the direct view.
    Auto,
}

/// Minimum measured work ratio (`(n + m) / (n_H + m_H)`) at which
/// `--preprocess auto` keeps the reduction. Below it the per-pass saving
/// cannot recoup the reduced-kernel overheads on structureless graphs
/// (measured at 0.96–0.98x sampler throughput on `ws`/`grid`).
const AUTO_MIN_WORK_RATIO: f64 = 1.05;

impl PreprocessChoice {
    /// Parses `off | prune | full | auto`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "auto" => Some(PreprocessChoice::Auto),
            other => ReduceLevel::parse(other).map(PreprocessChoice::Level),
        }
    }

    /// The CLI spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            PreprocessChoice::Level(l) => l.as_str(),
            PreprocessChoice::Auto => "auto",
        }
    }
}

/// Adaptive-estimation knobs shared by `estimate`, `rank`, and `resume`.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveArgs {
    /// `--target-se`: stop when the estimate's confidence half-width drops
    /// to this value (`None` = fixed budget).
    pub target_se: Option<f64>,
    /// `--target-delta`: the confidence level's failure probability.
    pub target_delta: f64,
    /// `--segment`: iterations per engine segment.
    pub segment: u64,
    /// `--checkpoint`: write a resumable checkpoint here at every segment
    /// boundary.
    pub checkpoint: Option<String>,
}

impl Default for AdaptiveArgs {
    fn default() -> Self {
        AdaptiveArgs {
            target_se: None,
            target_delta: 0.05,
            segment: EngineConfig::DEFAULT_SEGMENT,
            checkpoint: None,
        }
    }
}

impl AdaptiveArgs {
    /// The stopping rule these arguments select.
    fn stopping(&self) -> StoppingRule {
        match self.target_se {
            None => StoppingRule::FixedIterations,
            Some(epsilon) => StoppingRule::TargetStderr { epsilon, delta: self.target_delta },
        }
    }

    fn engine(&self) -> EngineConfig {
        EngineConfig::adaptive(self.stopping()).with_segment(self.segment)
    }
}

/// Parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Estimate BC of one vertex: `estimate <edge-list> <vertex>`.
    Estimate {
        path: String,
        vertex: Vertex,
        iterations: u64,
        seed: u64,
        exact: bool,
        threads: usize,
        prefetch_depth: u64,
        preprocess: PreprocessChoice,
        kernel: KernelMode,
        adaptive: AdaptiveArgs,
    },
    /// Relative ranking of several vertices: `rank <edge-list> <v1,v2,...>`.
    Rank {
        path: String,
        vertices: Vec<Vertex>,
        iterations: u64,
        seed: u64,
        threads: usize,
        prefetch_depth: u64,
        preprocess: PreprocessChoice,
        kernel: KernelMode,
        adaptive: AdaptiveArgs,
    },
    /// Plan an (epsilon, delta) budget: `plan <edge-list> <vertex> <eps> <delta>`.
    Plan {
        path: String,
        vertex: Vertex,
        epsilon: f64,
        delta: f64,
        preprocess: PreprocessChoice,
        kernel: KernelMode,
    },
    /// Continue a checkpointed run: `resume <edge-list> <checkpoint>`.
    Resume {
        path: String,
        checkpoint_path: String,
        threads: usize,
        prefetch_depth: u64,
        kernel: KernelMode,
        /// Where to keep writing checkpoints (defaults to continuing over
        /// the checkpoint file being resumed).
        checkpoint: Option<String>,
    },
}

/// CLI usage string.
pub const USAGE: &str = "usage:
  mhbc estimate <edge-list> <vertex> [--iters N] [--seed S] [--exact] [--threads T] [--prefetch K] [--preprocess L] [--kernel M] [--target-se E] [--target-delta D] [--segment B] [--checkpoint F]
  mhbc rank     <edge-list> <v1,v2,...> [--iters N] [--seed S] [--threads T] [--prefetch K] [--preprocess L] [--kernel M] [--target-se E] [--target-delta D] [--segment B] [--checkpoint F]
  mhbc plan     <edge-list> <vertex> <epsilon> <delta> [--preprocess L] [--kernel M]
  mhbc resume   <edge-list> <checkpoint> [--threads T] [--prefetch K] [--kernel M] [--checkpoint F]

Edge lists are whitespace-separated `u v [w]` lines; `#`/`%` comments allowed.
--threads T      density-evaluation threads (default 1). With T >= 2 the
                 chain replays its next K proposals, T threads split their
                 distinct uncached sources, then the chain consumes them;
                 results are bit-identical to --threads 1.
--prefetch K     prefetch batch: how many upcoming proposals each batch
                 covers (default 1024).
--preprocess L   graph reduction before sampling: auto (default), off,
                 prune (degree-1 pruning with exact corrections), or full
                 (pruning + twin collapsing + cache relabelling). auto plans
                 full (prune on weighted graphs) per query and samples
                 through it only when its work ratio pays; `rank` samples
                 on the unreduced graph, as with off, when the reduction
                 would prune one of its vertices. A pruned `estimate`/`plan`
                 vertex is answered from its closed form at any level but
                 off. Estimates stay in original vertex ids; `full`
                 requires an unweighted graph.
--kernel M       SPD forward-pass strategy: auto (default), topdown, or
                 hybrid (direction-optimizing top-down/bottom-up BFS). All
                 modes produce bit-identical estimates; this is purely a
                 performance knob.
--target-se E    adaptive stopping: run until the estimate's confidence
                 half-width drops to E (at confidence 1 - delta), instead
                 of spending the full --iters budget (--iters stays the
                 upper bound). `rank` with --target-se switches to per-probe
                 single-space estimation with widest-interval-first budget
                 scheduling.
--target-delta D confidence failure probability for --target-se
                 (default 0.05 = 95% intervals).
--segment B      engine segment length: iterations between diagnostics
                 updates, stopping decisions, and checkpoints (default 1024).
--checkpoint F   write a resumable checkpoint to F at every segment
                 boundary (any thread count). `mhbc resume <edge-list> F`
                 continues the run bit-identically — same estimates, same
                 stopping point, as if it had never been interrupted.";

/// Parses `args` (without the program name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut pos: Vec<&str> = Vec::new();
    let mut iterations = 10_000u64;
    let mut seed = 42u64;
    let mut exact = false;
    let mut threads = 1usize;
    let mut prefetch_depth = PrefetchConfig::DEFAULT_DEPTH;
    let mut preprocess = PreprocessChoice::Auto;
    let mut kernel = KernelMode::Auto;
    let mut adaptive = AdaptiveArgs::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--target-se" => {
                i += 1;
                adaptive.target_se = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|&e: &f64| e > 0.0 && e.is_finite())
                        .ok_or_else(|| "missing/invalid value for --target-se".to_string())?,
                );
            }
            "--target-delta" => {
                i += 1;
                adaptive.target_delta = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&d: &f64| d > 0.0 && d < 1.0)
                    .ok_or_else(|| {
                        "missing/invalid value for --target-delta (need 0 < d < 1)".to_string()
                    })?;
            }
            "--segment" => {
                i += 1;
                adaptive.segment = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&b| b > 0)
                    .ok_or_else(|| "missing/invalid value for --segment".to_string())?;
            }
            "--checkpoint" => {
                i += 1;
                adaptive.checkpoint = Some(
                    args.get(i)
                        .filter(|s| !s.starts_with("--"))
                        .ok_or_else(|| "missing value for --checkpoint".to_string())?
                        .to_string(),
                );
            }
            "--iters" => {
                i += 1;
                iterations = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| "missing/invalid value for --iters".to_string())?;
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| "missing/invalid value for --seed".to_string())?;
            }
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| "missing/invalid value for --threads".to_string())?;
            }
            "--prefetch" => {
                i += 1;
                prefetch_depth = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&k| k > 0)
                    .ok_or_else(|| "missing/invalid value for --prefetch".to_string())?;
            }
            "--preprocess" => {
                i += 1;
                preprocess =
                    args.get(i).and_then(|s| PreprocessChoice::parse(s)).ok_or_else(|| {
                        "missing/invalid value for --preprocess (off|prune|full|auto)".to_string()
                    })?;
            }
            "--kernel" => {
                i += 1;
                kernel = args.get(i).and_then(|s| KernelMode::parse(s)).ok_or_else(|| {
                    "missing/invalid value for --kernel (auto|topdown|hybrid)".to_string()
                })?;
            }
            "--exact" => exact = true,
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => pos.push(other),
        }
        i += 1;
    }
    let parse_vertex = |s: &str| -> Result<Vertex, String> {
        s.parse().map_err(|_| format!("invalid vertex id `{s}`"))
    };
    match pos.as_slice() {
        ["estimate", path, vertex] => Ok(Command::Estimate {
            path: path.to_string(),
            vertex: parse_vertex(vertex)?,
            iterations,
            seed,
            exact,
            threads,
            prefetch_depth,
            preprocess,
            kernel,
            adaptive,
        }),
        ["rank", path, list] => {
            let vertices = list.split(',').map(parse_vertex).collect::<Result<Vec<_>, _>>()?;
            if vertices.len() < 2 {
                return Err("rank needs at least two comma-separated vertices".into());
            }
            Ok(Command::Rank {
                path: path.to_string(),
                vertices,
                iterations,
                seed,
                threads,
                prefetch_depth,
                preprocess,
                kernel,
                adaptive,
            })
        }
        ["plan", path, vertex, eps, delta] => Ok(Command::Plan {
            path: path.to_string(),
            vertex: parse_vertex(vertex)?,
            epsilon: eps.parse().map_err(|_| format!("invalid epsilon `{eps}`"))?,
            delta: delta.parse().map_err(|_| format!("invalid delta `{delta}`"))?,
            preprocess,
            kernel,
        }),
        ["resume", path, ckpt] => Ok(Command::Resume {
            path: path.to_string(),
            checkpoint_path: ckpt.to_string(),
            threads,
            prefetch_depth,
            kernel,
            checkpoint: adaptive.checkpoint,
        }),
        _ => Err(USAGE.to_string()),
    }
}

/// The outcome of resolving a `--preprocess` choice against a graph.
#[derive(Default)]
struct Preprocess {
    /// The reduction the sampler evaluates through, if any.
    kept: Option<ReducedGraph>,
    /// When auto discarded its reduction, the closed forms of the vertices
    /// it pruned (ascending by vertex; empty when it pruned none) — all that
    /// survives of its plan.
    discarded: Option<Vec<(Vertex, f64)>>,
    /// Human-readable auto decision, when one was made.
    note: Option<String>,
}

impl Preprocess {
    /// Exact closed-form BC of `r` when the reduction pruned it — also when
    /// auto discarded the reduction for sampling, so a pendant probe gets
    /// its free answer even when the reduction does not pay.
    fn exact_pruned_bc(&self, r: Vertex) -> Option<f64> {
        match (&self.kept, &self.discarded) {
            (Some(red), _) => red.exact_pruned_bc(r),
            (None, Some(forms)) => {
                forms.binary_search_by_key(&r, |&(v, _)| v).ok().map(|i| forms[i].1)
            }
            (None, None) => None,
        }
    }
}

/// Builds the reduction for a preprocess choice (none for `off`), turning
/// build-time refusals (twin collapsing on a weighted graph) into readable
/// CLI errors. For [`PreprocessChoice::Auto`], plans the strongest
/// applicable level and assembles it only when the plan's exact work ratio
/// clears [`AUTO_MIN_WORK_RATIO`] and it retains every one of `ranked`
/// (`rank`'s probes as `(input id, internal id)`; the joint chain cannot
/// sample a pruned vertex, while `estimate` and `plan` answer one from its
/// closed form); otherwise it keeps just the pruned vertices' closed forms.
fn build_reduction(
    g: &CsrGraph,
    choice: PreprocessChoice,
    ranked: &[(Vertex, Vertex)],
) -> Result<Preprocess, String> {
    match choice {
        PreprocessChoice::Level(ReduceLevel::Off) => Ok(Preprocess::default()),
        PreprocessChoice::Level(level) => reduce(g, level)
            .map(|red| Preprocess { kept: Some(red), ..Preprocess::default() })
            .map_err(|e| format!("--preprocess {}: {e}", level.as_str())),
        PreprocessChoice::Auto => {
            // Full collapsing refuses weighted graphs; pruning is
            // weight-agnostic, so auto degrades rather than erroring.
            let level = if g.is_weighted() { ReduceLevel::Prune } else { ReduceLevel::Full };
            let plan = reduce::plan(g, level).map_err(|e| format!("--preprocess auto: {e}"))?;
            let ratio = plan.stats().work_ratio();
            let why = if ratio < AUTO_MIN_WORK_RATIO {
                format!(
                    "work ratio {ratio:.2}x < {AUTO_MIN_WORK_RATIO}x — an empty reduction would \
                     only tax the sampler"
                )
            } else if let Some(&(input, _)) =
                ranked.iter().find(|&&(_, p)| plan.exact_pruned_bc(p).is_some())
            {
                format!("vertex {input} was pruned into a pendant tree")
            } else {
                let note = format!(
                    "preprocess auto: kept {} (work ratio {ratio:.2}x >= {AUTO_MIN_WORK_RATIO}x)",
                    level.as_str()
                );
                return Ok(Preprocess {
                    kept: Some(plan.assemble()),
                    discarded: None,
                    note: Some(note),
                });
            };
            let note =
                format!("preprocess auto: discarded {} for sampling ({why})", level.as_str());
            let forms =
                g.vertices().filter_map(|v| plan.exact_pruned_bc(v).map(|bc| (v, bc))).collect();
            Ok(Preprocess { kept: None, discarded: Some(forms), note: Some(note) })
        }
    }
}

/// One human-readable line summarising what the reduction did.
fn preprocess_line(red: &ReducedGraph) -> String {
    let s = red.stats();
    format!(
        "preprocess {}: {} -> {} vertices, {} -> {} edges ({} pruned, {} collapsed; \
         SPD pass {:.2}x smaller)",
        red.level().as_str(),
        s.orig_vertices,
        s.reduced_vertices,
        s.orig_edges,
        s.reduced_edges,
        s.pruned_vertices,
        s.collapsed_vertices,
        s.work_ratio()
    )
}

/// Loads a graph and reduces it to its largest connected component
/// (reporting the reduction), returning the graph and the old-id map.
///
/// The edge list streams through [`io::read_edge_list`]; the parsed graph
/// is moved into [`algo::largest_component`], so a connected graph comes
/// back without a copy.
pub fn load_graph<R: BufRead>(reader: R) -> Result<(CsrGraph, Vec<Vertex>), String> {
    let g = io::read_edge_list(reader).map_err(|e| e.to_string())?;
    let n_before = g.num_vertices();
    let (lcc, map) = algo::largest_component(g);
    if lcc.num_vertices() < n_before {
        eprintln!(
            "note: using the largest connected component ({} of {} vertices)",
            lcc.num_vertices(),
            n_before
        );
    }
    Ok((lcc, map))
}

/// A checkpoint-writing sink for the engine's segment boundaries. Writes
/// are atomic (temp file + rename), so a crash mid-write can never destroy
/// the previous recovery point — the one property a checkpoint file must
/// keep.
fn checkpoint_sink(path: &str) -> impl FnMut(Vec<u8>) -> Result<(), mhbc_core::CoreError> + '_ {
    move |bytes| {
        let io_err = |what: &str, e: std::io::Error| mhbc_core::CoreError::Checkpoint {
            reason: format!("cannot {what} checkpoint {path}: {e}"),
        };
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, bytes).map_err(|e| io_err("write", e))?;
        std::fs::rename(&tmp, path).map_err(|e| io_err("replace", e))
    }
}

/// The engine's "plan vs. actual" line: budget vs. stopping point, the
/// observed-µ refit of the planner's Ineq 14 bound, and the diagnostics at
/// stop.
fn plan_vs_actual_line(report: &AdaptiveReport) -> String {
    let stopped = match report.reason {
        StopReason::TargetReached => "target reached",
        StopReason::BudgetExhausted => "budget exhausted",
    };
    let mut line = format!(
        "plan vs actual: budget {} | stopped at {} ({stopped}) | se {:.6} | ESS {:.0} | \
         tau {:.1} | geweke z {:.2}",
        report.budget, report.iterations, report.stderr, report.ess, report.tau, report.geweke_z
    );
    if let StoppingRule::TargetStderr { epsilon, delta } = report.stopping {
        if let Some(refit) = refit_plan(epsilon, delta, report) {
            line.push_str(&format!(
                " | refit mu {:.3} -> Ineq 14 budget {}",
                refit.mu, refit.iterations
            ));
        }
    }
    line
}

/// Executes a command against an already-loaded graph; returns printable
/// output lines. `map` translates internal ids back to input ids.
pub fn execute(cmd: &Command, g: &CsrGraph, map: &[Vertex]) -> Result<Vec<String>, String> {
    // Translate an input vertex id to the internal (LCC-relabelled) id.
    let internal = |input: Vertex| -> Result<Vertex, String> {
        map.iter()
            .position(|&old| old == input)
            .map(|i| i as Vertex)
            .ok_or_else(|| format!("vertex {input} is not in the largest component"))
    };
    // And back: internal id to input id (resume reads internal ids from the
    // checkpoint).
    let external = |r: Vertex| -> Vertex { map[r as usize] };
    match cmd {
        Command::Estimate {
            vertex,
            iterations,
            seed,
            exact,
            threads,
            prefetch_depth,
            preprocess,
            kernel,
            adaptive,
            ..
        } => {
            let r = internal(*vertex)?;
            let prep = build_reduction(g, *preprocess, &[])?;
            let mut out = vec![format!("graph: {g}")];
            out.extend(prep.note.clone());
            if let Some(red) = prep.kept.as_ref() {
                out.push(preprocess_line(red));
            }
            if let Some(bc) = prep.exact_pruned_bc(r) {
                // The probe sits in a pruned pendant tree: its exact BC
                // fell out of the pruning corrections — no chain needed,
                // even when auto discarded the reduction for sampling.
                out.push(format!(
                    "BC({vertex}) = {bc:.6} (exact: vertex was pruned into a pendant \
                     tree, so its betweenness is known in closed form)"
                ));
                return Ok(out);
            }
            let view = SpdView::from_option(g, prep.kept.as_ref()).with_kernel(*kernel);
            let prefetch = PrefetchConfig::with_threads(*threads).with_depth(*prefetch_depth);
            // Counts the boundaries written: the final segment writes none.
            let writes = std::cell::Cell::new(0u64);
            let mut sink = adaptive.checkpoint.as_deref().map(|path| {
                let (mut write, writes) = (checkpoint_sink(path), &writes);
                move |bytes: Vec<u8>| write(bytes).map(|()| writes.set(writes.get() + 1))
            });
            let (est, report) = pipeline::run_single_view_adaptive(
                view,
                r,
                &SingleSpaceConfig::new(*iterations, *seed),
                adaptive.engine(),
                &prefetch,
                sink.as_mut().map(|s| s as &mut CheckpointSink<'_>),
            )
            .map_err(|e| e.to_string())?;
            out.push(format!(
                "BC({vertex}) ~ {:.6} (Eq 7) | {:.6} (corrected, recommended)",
                est.bc, est.bc_corrected
            ));
            out.push(format!(
                "iterations {} | acceptance {:.3} | SPD passes {} | threads {} | kernel {}",
                est.iterations,
                est.acceptance_rate,
                est.spd_passes,
                (*threads).max(1),
                kernel.as_str()
            ));
            if adaptive.target_se.is_some() {
                out.push(plan_vs_actual_line(&report));
            }
            if let Some(path) = &adaptive.checkpoint {
                out.push(match writes.get() {
                    0 => "checkpoint: none written (the run ended within its first segment)"
                        .to_string(),
                    k => format!(
                        "checkpoint: {path} at iteration {} (resume with `mhbc resume \
                         <edge-list> {path}`)",
                        k * adaptive.segment
                    ),
                });
            }
            if *exact {
                let truth = mhbc_spd::exact_betweenness_of(g, r);
                out.push(format!("exact (Brandes): {truth:.6}"));
            }
            Ok(out)
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
            let ids: Vec<(Vertex, Vertex)> =
                vertices.iter().copied().zip(probes.iter().copied()).collect();
            let prep = build_reduction(g, *preprocess, &ids)?;
            if let Some(red) = prep.kept.as_ref() {
                for &(input, p) in &ids {
                    if !red.is_retained(p) {
                        return Err(format!(
                            "vertex {input} was pruned into a pendant tree at --preprocess {}; \
                             ranking needs retained probes — its exact BC is {:.6}, or rerun \
                             without --preprocess: the default (auto) ranks such vertices on \
                             the unreduced graph, as --preprocess off does",
                            preprocess.as_str(),
                            red.exact_pruned_bc(p).expect("pruned vertex has closed form"),
                        ));
                    }
                }
            }
            let view = SpdView::from_option(g, prep.kept.as_ref()).with_kernel(*kernel);
            let prefetch = PrefetchConfig::with_threads(*threads).with_depth(*prefetch_depth);
            let mut out: Vec<String> = prep.note.clone().into_iter().collect();

            if let Some(epsilon) = adaptive.target_se {
                if adaptive.checkpoint.is_some() {
                    return Err("adaptive rank (--target-se) does not support --checkpoint; \
                                checkpoint individual probes via `estimate`, or drop --target-se"
                        .into());
                }
                // Adaptive rank: per-probe single-space engines sharing one
                // budget, reallocated toward the widest intervals.
                let budget = iterations.saturating_mul(probes.len() as u64);
                let cfg = ScheduleConfig {
                    budget,
                    segment: adaptive.segment,
                    target: StoppingRule::TargetStderr { epsilon, delta: adaptive.target_delta },
                    seed: *seed,
                };
                let sched = run_probe_schedule(view, &probes, cfg).map_err(|e| e.to_string())?;
                out.push(format!(
                    "adaptive ranking by estimated BC (target se {epsilon}, budget {budget}, \
                     spent {}, {} scheduling rounds):",
                    sched.spent, sched.rounds
                ));
                let mut ranked: Vec<(Vertex, &mhbc_core::schedule::ProbeOutcome)> =
                    vertices.iter().zip(&sched.probes).map(|(&v, o)| (v, o)).collect();
                ranked.sort_by(|a, b| {
                    b.1.estimate
                        .bc_corrected
                        .partial_cmp(&a.1.estimate.bc_corrected)
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                for (v, o) in ranked {
                    out.push(format!(
                        "  {v:>8}  BC ~ {:.6} +- {:.6}  ({} iters{})",
                        o.estimate.bc_corrected,
                        o.ci_halfwidth,
                        o.allocated,
                        if o.reached { "" } else { ", budget cut" }
                    ));
                }
                return Ok(out);
            }

            let mut sink = adaptive.checkpoint.as_deref().map(checkpoint_sink);
            let (est, _) = JointSpaceSampler::for_view(
                view,
                &probes,
                JointSpaceConfig::new(*iterations, *seed),
            )
            .and_then(|sampler| {
                sampler
                    .into_engine(adaptive.engine())
                    .with_prefetch(prefetch)
                    .run_checkpointed(sink.as_mut().map(|s| s as &mut CheckpointSink<'_>))
            })
            .map_err(|e| e.to_string())?;
            let mut ranked: Vec<(Vertex, f64)> =
                vertices.iter().enumerate().map(|(i, &v)| (v, est.ratio(i, 0))).collect();
            ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            out.push(format!(
                "ranking by betweenness ratio vs vertex {} ({} iterations):",
                vertices[0], est.iterations
            ));
            for (v, ratio) in ranked {
                out.push(format!("  {v:>8}  ratio {ratio:.4}"));
            }
            Ok(out)
        }
        Command::Plan { vertex, epsilon, delta, preprocess, kernel, .. } => {
            let r = internal(*vertex)?;
            let prep = build_reduction(g, *preprocess, &[])?;
            if let Some(bc) = prep.exact_pruned_bc(r) {
                // Known in closed form even when auto discarded the
                // reduction for sampling.
                let mut out: Vec<String> = prep.note.clone().into_iter().collect();
                if let Some(red) = prep.kept.as_ref() {
                    out.push(preprocess_line(red));
                }
                out.push(format!(
                    "BC({vertex}) = {bc:.6} exactly (pruned pendant vertex): \
                     0 iterations needed at this preprocess level"
                ));
                return Ok(out);
            }
            // With a reduction, the exact mu(r) itself is computed through
            // it (one reduced pass per distinct dependency row). The same
            // dependency profile holds the exact BC(r).
            let plan = plan_single_view(
                SpdView::from_option(g, prep.kept.as_ref()).with_kernel(*kernel),
                r,
                *epsilon,
                *delta,
                MuSource::Exact { threads: 0 },
            )
            .map_err(|e| e.to_string())?;
            let mut out: Vec<String> = prep.note.clone().into_iter().collect();
            out.extend([
                format!("mu({vertex}) = {:.3}", plan.mu),
                format!(
                    "BC({vertex}) = {:.6} exactly",
                    plan.bc.expect("an exact-mu plan holds the exact BC")
                ),
                format!(
                    "iterations for |err| <= {} with prob >= {}: {}",
                    plan.epsilon,
                    1.0 - plan.delta,
                    plan.iterations
                ),
            ]);
            if let Some(red) = prep.kept.as_ref() {
                // mu(r) — and therefore the iteration count — is invariant
                // under preprocessing (densities are mapped exactly); only
                // the per-iteration SPD cost shrinks.
                out.push(preprocess_line(red));
                out.push(format!(
                    "assumed reduction ratio: each of the {} iterations costs one SPD pass \
                     over the reduced graph — {:.2}x less work than an unreduced pass",
                    plan.iterations,
                    red.stats().work_ratio()
                ));
            } else if prep.discarded.is_some() {
                // `--preprocess auto` planned a reduction but discarded it:
                // the sampling runs on the unreduced graph, so the honest
                // ratio is 1.0 — not the ratio the discarded reduction
                // would have had.
                out.push("assumed reduction ratio: 1.0 (discarded)".to_string());
            }
            Ok(out)
        }
        Command::Resume {
            checkpoint_path, threads, prefetch_depth, kernel, checkpoint, ..
        } => {
            let bytes = std::fs::read(checkpoint_path)
                .map_err(|e| format!("cannot read checkpoint {checkpoint_path}: {e}"))?;
            let info = checkpoint::peek(&bytes).map_err(|e| e.to_string())?;
            // Rebuild the evaluation view at the checkpoint's preprocess
            // level (cached rows are keyed in its reduction's key space).
            let red = match info.preprocess {
                ReduceLevel::Off => None,
                level => Some(reduce(g, level).map_err(|e| {
                    format!("cannot rebuild `{}` reduction for resume: {e}", level.as_str())
                })?),
            };
            let view = SpdView::from_option(g, red.as_ref()).with_kernel(*kernel);
            let prefetch = PrefetchConfig::with_threads(*threads).with_depth(*prefetch_depth);
            let mut out = vec![format!("graph: {g}")];
            // A resumed run keeps checkpointing — by default over the file
            // it came from, so a second interruption loses at most one
            // segment (writes are atomic; `--checkpoint` redirects).
            let sink_path = checkpoint.as_deref().unwrap_or(checkpoint_path);
            let mut sink = checkpoint_sink(sink_path);
            let sink = Some(&mut sink as &mut CheckpointSink<'_>);
            match info.kind {
                CheckpointKind::Single => {
                    let (est, report) = mhbc_core::resume_single(view, &bytes)
                        .and_then(|engine| engine.with_prefetch(prefetch).run_checkpointed(sink))
                        .map_err(|e| e.to_string())?;
                    let vertex = external(est.r);
                    out.push(format!(
                        "resumed single-space run at iteration {} of budget {}",
                        report.resumed_from, report.budget
                    ));
                    out.push(format!(
                        "BC({vertex}) ~ {:.6} (Eq 7) | {:.6} (corrected, recommended)",
                        est.bc, est.bc_corrected
                    ));
                    out.push(format!(
                        "iterations {} | acceptance {:.3} | SPD passes {} | threads {} | kernel {}",
                        est.iterations,
                        est.acceptance_rate,
                        est.spd_passes,
                        (*threads).max(1),
                        kernel.as_str()
                    ));
                    out.push(plan_vs_actual_line(&report));
                }
                CheckpointKind::Joint => {
                    let engine = mhbc_core::resume_joint(view, &bytes)
                        .map_err(|e| e.to_string())?
                        .with_prefetch(prefetch);
                    out.push(format!(
                        "resumed joint-space run at iteration {} of budget {}",
                        engine.iterations(),
                        engine.budget()
                    ));
                    let (est, _) = engine.run_checkpointed(sink).map_err(|e| e.to_string())?;
                    let inputs: Vec<Vertex> = est.probes.iter().map(|&p| external(p)).collect();
                    let mut ranked: Vec<(Vertex, f64)> =
                        inputs.iter().enumerate().map(|(i, &v)| (v, est.ratio(i, 0))).collect();
                    ranked
                        .sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
                    out.push(format!(
                        "ranking by betweenness ratio vs vertex {} ({} iterations):",
                        inputs[0], est.iterations
                    ));
                    for (v, ratio) in ranked {
                        out.push(format!("  {v:>8}  ratio {ratio:.4}"));
                    }
                }
            }
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_estimate_with_flags() {
        let cmd = parse(&strs(&["estimate", "g.txt", "5", "--iters", "99", "--exact"])).unwrap();
        assert_eq!(
            cmd,
            Command::Estimate {
                path: "g.txt".into(),
                vertex: 5,
                iterations: 99,
                seed: 42,
                exact: true,
                threads: 1,
                prefetch_depth: PrefetchConfig::DEFAULT_DEPTH,
                preprocess: PreprocessChoice::Auto,
                kernel: KernelMode::Auto,
                adaptive: AdaptiveArgs::default(),
            }
        );
    }

    #[test]
    fn parses_threads_and_prefetch_flags() {
        let cmd = parse(&strs(&["estimate", "g.txt", "5", "--threads", "4", "--prefetch", "64"]))
            .unwrap();
        assert_eq!(
            cmd,
            Command::Estimate {
                path: "g.txt".into(),
                vertex: 5,
                iterations: 10_000,
                seed: 42,
                exact: false,
                threads: 4,
                prefetch_depth: 64,
                preprocess: PreprocessChoice::Auto,
                kernel: KernelMode::Auto,
                adaptive: AdaptiveArgs::default(),
            }
        );
        assert!(parse(&strs(&["estimate", "g.txt", "5", "--threads"])).is_err());
        assert!(parse(&strs(&["estimate", "g.txt", "5", "--prefetch", "0"])).is_err());
    }

    #[test]
    fn parses_rank_and_plan() {
        let cmd = parse(&strs(&["rank", "g.txt", "1,2,3", "--seed", "7"])).unwrap();
        assert_eq!(
            cmd,
            Command::Rank {
                path: "g.txt".into(),
                vertices: vec![1, 2, 3],
                iterations: 10_000,
                seed: 7,
                threads: 1,
                prefetch_depth: PrefetchConfig::DEFAULT_DEPTH,
                preprocess: PreprocessChoice::Auto,
                kernel: KernelMode::Auto,
                adaptive: AdaptiveArgs::default(),
            }
        );
        let cmd =
            parse(&strs(&["plan", "g.txt", "4", "0.05", "0.1", "--preprocess", "full"])).unwrap();
        assert_eq!(
            cmd,
            Command::Plan {
                path: "g.txt".into(),
                vertex: 4,
                epsilon: 0.05,
                delta: 0.1,
                preprocess: PreprocessChoice::Level(ReduceLevel::Full),
                kernel: KernelMode::Auto,
            }
        );
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&strs(&["estimate", "g.txt"])).is_err());
        assert!(parse(&strs(&["rank", "g.txt", "1"])).is_err());
        assert!(parse(&strs(&["estimate", "g.txt", "x"])).is_err());
        assert!(parse(&strs(&["estimate", "g.txt", "1", "--bogus"])).is_err());
        assert!(parse(&strs(&["plan", "g.txt", "1", "abc", "0.1"])).is_err());
    }

    #[test]
    fn load_reduces_to_largest_component() {
        let text = "0 1\n1 2\n2 0\n3 4\n";
        let (g, map) = load_graph(Cursor::new(text)).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(map.len(), 3);
    }

    #[test]
    fn load_graph_matches_the_benchmark_replay_bit_for_bit() {
        // `load_graph` moves the parsed graph into `largest_component`; the
        // benchmark's traced replay borrows it. Both must give the same CSR,
        // weight bits and map, whatever the text looks like.
        use rand::{rngs::SmallRng, RngExt, SeedableRng};
        fn bits(g: &CsrGraph) -> (Vec<u32>, Vec<Vertex>, Option<Vec<u64>>) {
            let (offsets, targets) = g.csr();
            let weights = g.is_weighted().then(|| {
                g.vertices()
                    .flat_map(|v| g.neighbor_weights(v).unwrap())
                    .map(|w| w.to_bits())
                    .collect()
            });
            (offsets.to_vec(), targets.to_vec(), weights)
        }
        let mut texts = vec![
            "# header\r\n0 1\r\n1\t2\r\n2 0\r\n% note\r\n3 4\r\n1 0\r\n".to_string(),
            "5 6 1.5\n6 7 2\n\t7 5 0.25\r\n6 5 1.5\n0 1 3\n1 2 3\n# tail".to_string(),
            "7 8\n  \n8 9\r\n9 7\n1 2\n2 3\n".to_string(),
        ];
        let mut rng = SmallRng::seed_from_u64(22);
        for _ in 0..40 {
            let weighted = rng.random_range(0..2u32) == 0;
            let (big, small) = (rng.random_range(3..30u32), rng.random_range(2..6u32));
            let mut lines = Vec::new();
            // A cycle on `0..big`, a path on the next `small` ids, chords.
            let mut edges: Vec<(u32, u32)> = (0..big).map(|u| (u, (u + 1) % big)).collect();
            edges.extend((big..big + small - 1).map(|u| (u, u + 1)));
            for _ in 0..big {
                let (u, v) = (rng.random_range(0..big), rng.random_range(0..big));
                if u != v {
                    edges.push((u, v));
                }
            }
            for &(u, v) in &edges {
                let (u, v) = if rng.random_range(0..2u32) == 0 { (u, v) } else { (v, u) };
                let sep = ["\t", " ", "  ", " \t"][rng.random_range(0..4usize)];
                let w = if weighted {
                    format!("{sep}{}", 0.5 + f64::from((u + v) % 4))
                } else {
                    String::new()
                };
                lines.push(format!("{u}{sep}{v}{w}"));
                if rng.random_range(0..4u32) == 0 {
                    lines.push(["# c", "% c", "", "  "][rng.random_range(0..4usize)].to_string());
                }
            }
            for _ in 0..rng.random_range(0..6usize) {
                let dup = lines[rng.random_range(0..lines.len())].clone();
                lines.insert(rng.random_range(0..=lines.len()), dup);
            }
            let eol = if rng.random_range(0..2u32) == 0 { "\n" } else { "\r\n" };
            texts.push(lines.join(eol));
        }
        for text in &texts {
            let (g, map) = load_graph(Cursor::new(text)).unwrap();
            let raw = io::read_edge_list(std::io::BufReader::new(text.as_bytes())).unwrap();
            let (replayed, replayed_map) = algo::largest_component(&raw);
            assert_eq!(bits(&g), bits(&replayed), "{text:?}");
            assert_eq!(map, replayed_map, "{text:?}");
            assert_eq!(
                mhbc_core::checkpoint::graph_hash(&g),
                mhbc_core::checkpoint::graph_hash(&replayed)
            );
        }
    }

    #[test]
    fn estimate_command_end_to_end() {
        // Barbell written as an edge list; estimate the bridge vertex.
        let mut text = String::new();
        let g = mhbc_graph::generators::barbell(5, 1);
        for (u, v, _) in g.edges() {
            text.push_str(&format!("{u} {v}\n"));
        }
        let (lcc, map) = load_graph(Cursor::new(text)).unwrap();
        let cmd = Command::Estimate {
            path: String::new(),
            vertex: 5,
            iterations: 5_000,
            seed: 1,
            exact: true,
            threads: 1,
            prefetch_depth: PrefetchConfig::DEFAULT_DEPTH,
            preprocess: PreprocessChoice::Level(ReduceLevel::Off),
            kernel: KernelMode::Auto,
            adaptive: AdaptiveArgs::default(),
        };
        let out = execute(&cmd, &lcc, &map).unwrap();
        assert!(out.iter().any(|l| l.contains("BC(5)")));
        assert!(out.iter().any(|l| l.contains("exact")));
    }

    #[test]
    fn threaded_estimate_matches_sequential_output() {
        let g = mhbc_graph::generators::barbell(5, 1);
        let mut text = String::new();
        for (u, v, _) in g.edges() {
            text.push_str(&format!("{u} {v}\n"));
        }
        let (lcc, map) = load_graph(Cursor::new(text)).unwrap();
        let mk = |threads| Command::Estimate {
            path: String::new(),
            vertex: 5,
            iterations: 2_000,
            seed: 9,
            exact: false,
            threads,
            prefetch_depth: 32,
            preprocess: PreprocessChoice::Level(ReduceLevel::Off),
            kernel: KernelMode::Auto,
            adaptive: AdaptiveArgs::default(),
        };
        let seq = execute(&mk(1), &lcc, &map).unwrap();
        let par = execute(&mk(3), &lcc, &map).unwrap();
        // Identical estimate line; the stats line differs only in the
        // reported thread count.
        assert_eq!(seq[1], par[1]);
        assert!(par[2].contains("threads 3"));
    }

    #[test]
    fn rank_command_orders_by_ratio() {
        let g = mhbc_graph::generators::barbell(6, 3);
        let mut text = String::new();
        for (u, v, _) in g.edges() {
            text.push_str(&format!("{u} {v}\n"));
        }
        let (lcc, map) = load_graph(Cursor::new(text)).unwrap();
        let cmd = Command::Rank {
            path: String::new(),
            vertices: vec![6, 7],
            iterations: 20_000,
            seed: 3,
            threads: 2,
            prefetch_depth: PrefetchConfig::DEFAULT_DEPTH,
            preprocess: PreprocessChoice::Level(ReduceLevel::Full),
            kernel: KernelMode::Auto,
            adaptive: AdaptiveArgs::default(),
        };
        let out = execute(&cmd, &lcc, &map).unwrap();
        // The middle path vertex 7 carries more pairs than 6.
        let pos7 = out.iter().position(|l| l.trim_start().starts_with('7')).unwrap();
        let pos6 = out.iter().position(|l| l.trim_start().starts_with('6')).unwrap();
        assert!(pos7 < pos6, "vertex 7 should rank above 6: {out:?}");
    }

    fn edge_list_text(g: &CsrGraph) -> String {
        let mut text = String::new();
        for (u, v, w) in g.edges() {
            if g.is_weighted() {
                text.push_str(&format!("{u} {v} {w}\n"));
            } else {
                text.push_str(&format!("{u} {v}\n"));
            }
        }
        text
    }

    #[test]
    fn rejects_bad_preprocess_value() {
        assert!(parse(&strs(&["estimate", "g.txt", "1", "--preprocess", "max"]))
            .unwrap_err()
            .contains("off|prune|full|auto"));
        assert!(parse(&strs(&["estimate", "g.txt", "1", "--preprocess"])).is_err());
    }

    #[test]
    fn parses_kernel_and_auto_preprocess_flags() {
        let cmd =
            parse(&strs(&["estimate", "g.txt", "3", "--kernel", "hybrid", "--preprocess", "auto"]))
                .unwrap();
        match cmd {
            Command::Estimate { kernel, preprocess, .. } => {
                assert_eq!(kernel, KernelMode::Hybrid);
                assert_eq!(preprocess, PreprocessChoice::Auto);
            }
            other => panic!("parsed {other:?}"),
        }
        assert!(parse(&strs(&["estimate", "g.txt", "1", "--kernel", "bottomup"]))
            .unwrap_err()
            .contains("auto|topdown|hybrid"));
        assert!(parse(&strs(&["estimate", "g.txt", "1", "--kernel"])).is_err());
    }

    #[test]
    fn kernel_modes_produce_identical_estimates() {
        let g = mhbc_graph::generators::barbell(6, 2);
        let (lcc, map) = load_graph(Cursor::new(edge_list_text(&g))).unwrap();
        let mk = |kernel| Command::Estimate {
            path: String::new(),
            vertex: 6,
            iterations: 1_500,
            seed: 21,
            exact: false,
            threads: 1,
            prefetch_depth: PrefetchConfig::DEFAULT_DEPTH,
            preprocess: PreprocessChoice::Level(ReduceLevel::Off),
            kernel,
            adaptive: AdaptiveArgs::default(),
        };
        let auto = execute(&mk(KernelMode::Auto), &lcc, &map).unwrap();
        for kernel in [KernelMode::TopDown, KernelMode::Hybrid] {
            let out = execute(&mk(kernel), &lcc, &map).unwrap();
            // Identical estimate line; the stats line names the mode.
            assert_eq!(auto[1], out[1], "{kernel:?}");
            assert!(out[2].contains(&format!("kernel {}", kernel.as_str())), "{out:?}");
        }
    }

    #[test]
    fn auto_preprocess_keeps_paying_reductions_and_discards_empty_ones() {
        // Lollipop: heavy pendant mass — auto keeps the full reduction.
        let g = mhbc_graph::generators::lollipop(6, 5);
        let (lcc, map) = load_graph(Cursor::new(edge_list_text(&g))).unwrap();
        let mk = |vertex| Command::Estimate {
            path: String::new(),
            vertex,
            iterations: 1_000,
            seed: 3,
            exact: false,
            threads: 1,
            prefetch_depth: PrefetchConfig::DEFAULT_DEPTH,
            preprocess: PreprocessChoice::Auto,
            kernel: KernelMode::Auto,
            adaptive: AdaptiveArgs::default(),
        };
        let out = execute(&mk(0), &lcc, &map).unwrap();
        assert!(out.iter().any(|l| l.contains("preprocess auto: kept full")), "{out:?}");
        assert!(out.iter().any(|l| l.starts_with("preprocess full:")), "{out:?}");

        // A cycle is irreducible: auto must discard the empty reduction.
        let g = mhbc_graph::generators::cycle(12);
        let (lcc, map) = load_graph(Cursor::new(edge_list_text(&g))).unwrap();
        let out = execute(&mk(0), &lcc, &map).unwrap();
        assert!(out.iter().any(|l| l.contains("preprocess auto: discarded full")), "{out:?}");
        assert!(!out.iter().any(|l| l.starts_with("preprocess full:")), "{out:?}");
        assert!(out.iter().any(|l| l.contains("BC(0) ~")), "{out:?}");
    }

    #[test]
    fn auto_preprocess_keeps_closed_forms_for_pruned_probes_even_when_discarded() {
        // One pendant on a big cycle: the work ratio is too small to keep
        // the reduction for sampling, but the pendant probe's exact BC is
        // still a free by-product of the build — no chain may run.
        let mut edges: Vec<(u32, u32)> = (0..40u32).map(|v| (v, (v + 1) % 40)).collect();
        edges.push((0, 40)); // the pendant
        let g = CsrGraph::from_edges(41, &edges).unwrap();
        let (lcc, map) = load_graph(Cursor::new(edge_list_text(&g))).unwrap();
        let cmd = Command::Estimate {
            path: String::new(),
            vertex: 40,
            iterations: 500,
            seed: 7,
            exact: false,
            threads: 1,
            prefetch_depth: PrefetchConfig::DEFAULT_DEPTH,
            preprocess: PreprocessChoice::Auto,
            kernel: KernelMode::Auto,
            adaptive: AdaptiveArgs::default(),
        };
        let out = execute(&cmd, &lcc, &map).unwrap();
        assert!(out.iter().any(|l| l.contains("discarded full for sampling")), "{out:?}");
        assert!(out.iter().any(|l| l.contains("exact: vertex was pruned")), "{out:?}");
        assert!(!out.iter().any(|l| l.contains("BC(40) ~")), "no sampling: {out:?}");
    }

    #[test]
    fn auto_preprocess_output_is_pinned_when_discarded_and_when_kept() {
        // Every line `--preprocess auto` prints, as printed when auto built
        // the whole reduction before deciding: deciding from the plan must
        // change nothing a user sees, the printed work ratio included.
        let mut cycle: Vec<(u32, u32)> = (0..40u32).map(|v| (v, (v + 1) % 40)).collect();
        cycle.push((0, 40));
        let cycle = CsrGraph::from_edges(41, &cycle).unwrap();
        let lollipop = mhbc_graph::generators::lollipop(6, 3);
        let discarded = "preprocess auto: discarded full for sampling (work ratio 1.02x < 1.05x \
                         — an empty reduction would only tax the sampler)";
        let kept = "preprocess auto: kept full (work ratio 27.00x >= 1.05x)";
        let kept_line = "preprocess full: 9 -> 1 vertices, 18 -> 0 edges (3 pruned, 5 collapsed; \
                         SPD pass 27.00x smaller)";
        let cases: [(&CsrGraph, &str, Vec<&str>); 6] = [
            (
                &cycle,
                "estimate g 40 --iters 500 --seed 7 --preprocess auto",
                vec![
                    "graph: CsrGraph(n=41, m=41)",
                    discarded,
                    "BC(40) = 0.000000 (exact: vertex was pruned into a pendant tree, so its \
                 betweenness is known in closed form)",
                ],
            ),
            (
                &cycle,
                "estimate g 5 --iters 500 --seed 7 --preprocess auto",
                vec![
                    "graph: CsrGraph(n=41, m=41)",
                    discarded,
                    "BC(5) ~ 0.325848 (Eq 7) | 0.239597 (corrected, recommended)",
                    // Pendant vertex 40 shares vertex 0's row.
                    "iterations 500 | acceptance 0.632 | SPD passes 40 | threads 1 | kernel auto",
                ],
            ),
            (
                &cycle,
                "plan g 5 0.1 0.1 --preprocess auto",
                vec![
                    discarded,
                    "mu(5) = 2.050",
                    "BC(5) = 0.237805 exactly",
                    "iterations for |err| <= 0.1 with prob >= 0.9: 630",
                    "assumed reduction ratio: 1.0 (discarded)",
                ],
            ),
            (
                &lollipop,
                "estimate g 5 --iters 3000 --seed 5 --preprocess auto",
                vec![
                    "graph: CsrGraph(n=9, m=18)",
                    kept,
                    kept_line,
                    "BC(5) ~ 0.501541 (Eq 7) | 0.416753 (corrected, recommended)",
                    "iterations 3000 | acceptance 0.777 | SPD passes 3 | threads 1 | kernel auto",
                ],
            ),
            (
                &lollipop,
                "estimate g 7 --iters 3000 --seed 5 --preprocess auto",
                vec![
                    "graph: CsrGraph(n=9, m=18)",
                    kept,
                    kept_line,
                    "BC(7) = 0.194444 (exact: vertex was pruned into a pendant tree, so its \
                 betweenness is known in closed form)",
                ],
            ),
            (
                &lollipop,
                "plan g 5 0.1 0.1 --preprocess auto",
                vec![
                    kept,
                    "mu(5) = 1.500",
                    "BC(5) = 0.416667 exactly",
                    "iterations for |err| <= 0.1 with prob >= 0.9: 338",
                    kept_line,
                    "assumed reduction ratio: each of the 338 iterations costs one SPD pass over \
                 the reduced graph — 27.00x less work than an unreduced pass",
                ],
            ),
        ];
        for (g, args, expected) in cases {
            let (lcc, map) = load_graph(Cursor::new(edge_list_text(g))).unwrap();
            let cmd = parse(&args.split(' ').map(String::from).collect::<Vec<_>>()).unwrap();
            assert_eq!(execute(&cmd, &lcc, &map).unwrap(), expected, "mhbc {args}");
        }
    }

    #[test]
    fn preprocessed_estimate_reports_reduction_and_closed_forms() {
        // Lollipop: the pendant path prunes away entirely.
        let g = mhbc_graph::generators::lollipop(6, 3);
        let (lcc, map) = load_graph(Cursor::new(edge_list_text(&g))).unwrap();
        let mk = |vertex, preprocess| Command::Estimate {
            path: String::new(),
            vertex,
            iterations: 3_000,
            seed: 5,
            exact: false,
            threads: 1,
            prefetch_depth: PrefetchConfig::DEFAULT_DEPTH,
            preprocess,
            kernel: KernelMode::Auto,
            adaptive: AdaptiveArgs::default(),
        };
        // Retained probe: sampled estimate, with a preprocess summary line.
        let out = execute(&mk(0, PreprocessChoice::Level(ReduceLevel::Full)), &lcc, &map).unwrap();
        assert!(out.iter().any(|l| l.starts_with("preprocess full:")), "{out:?}");
        assert!(out.iter().any(|l| l.contains("BC(0) ~")), "{out:?}");
        // Pruned probe: exact closed form, no sampling.
        let out = execute(&mk(8, PreprocessChoice::Level(ReduceLevel::Prune)), &lcc, &map).unwrap();
        assert!(out.iter().any(|l| l.contains("exact: vertex was pruned")), "{out:?}");
        let exact = mhbc_spd::exact_betweenness_of(&lcc, 8);
        assert!(out.iter().any(|l| l.contains(&format!("{exact:.6}"))), "{out:?}");
    }

    #[test]
    fn weighted_graphs_refuse_full_preprocess_but_allow_prune() {
        let g = mhbc_graph::generators::lollipop(5, 2).map_weights(|_, _| 2.5).unwrap();
        let (lcc, map) = load_graph(Cursor::new(edge_list_text(&g))).unwrap();
        let mk = |preprocess| Command::Estimate {
            path: String::new(),
            vertex: 0,
            iterations: 500,
            seed: 1,
            exact: false,
            threads: 1,
            prefetch_depth: PrefetchConfig::DEFAULT_DEPTH,
            preprocess,
            kernel: KernelMode::Auto,
            adaptive: AdaptiveArgs::default(),
        };
        let err = execute(&mk(PreprocessChoice::Level(ReduceLevel::Full)), &lcc, &map).unwrap_err();
        assert!(err.contains("--preprocess full"), "{err}");
        assert!(err.contains("unweighted"), "{err}");
        assert!(execute(&mk(PreprocessChoice::Level(ReduceLevel::Prune)), &lcc, &map).is_ok());
    }

    #[test]
    fn preprocessed_rank_rejects_pruned_probes_with_guidance() {
        let g = mhbc_graph::generators::lollipop(6, 3);
        let (lcc, map) = load_graph(Cursor::new(edge_list_text(&g))).unwrap();
        let cmd = Command::Rank {
            path: String::new(),
            vertices: vec![0, 8],
            iterations: 100,
            seed: 1,
            threads: 1,
            prefetch_depth: PrefetchConfig::DEFAULT_DEPTH,
            preprocess: PreprocessChoice::Level(ReduceLevel::Prune),
            kernel: KernelMode::Auto,
            adaptive: AdaptiveArgs::default(),
        };
        let err = execute(&cmd, &lcc, &map).unwrap_err();
        assert!(err.contains("vertex 8"), "{err}");
        assert!(err.contains("--preprocess off"), "{err}");
    }

    /// A duplication–divergence graph whose `full` reduction pays (work
    /// ratio 1.47x), with its top-BC vertex 3 retained and vertex 83 (exact
    /// BC 0.076784) pruned into a pendant tree.
    fn dup_fixture() -> (CsrGraph, Vec<Vertex>) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let g = mhbc_graph::generators::duplication_divergence(200, 0.5, &mut rng);
        load_graph(Cursor::new(edge_list_text(&g))).unwrap()
    }

    fn run(args: &str, g: &CsrGraph, map: &[Vertex]) -> Result<Vec<String>, String> {
        execute(&parse(&args.split(' ').map(String::from).collect::<Vec<_>>())?, g, map)
    }

    #[test]
    fn default_rank_samples_a_pruned_probe_on_the_direct_view() {
        let (g, map) = dup_fixture();
        let note = "preprocess auto: discarded full for sampling (vertex 83 was pruned into a \
                    pendant tree)";
        for query in [
            "rank g 3,83 --iters 3000 --seed 4",
            "rank g 3,83 --iters 3000 --seed 4 --target-se 0.001 --segment 512",
        ] {
            // The default succeeds, says why it discarded the reduction, and
            // prints exactly the lines of an unreduced run after that note.
            let auto = run(query, &g, &map).unwrap();
            let off = run(&format!("{query} --preprocess off"), &g, &map).unwrap();
            assert_eq!(auto[0], note, "{query}");
            assert_eq!(auto[1..], off[..], "{query}");
            assert!(off.iter().any(|l| l.trim_start().starts_with("83 ")), "{off:?}");
        }
    }

    #[test]
    fn explicit_full_rank_still_refuses_a_pruned_probe() {
        let (g, map) = dup_fixture();
        let err = run("rank g 3,83 --iters 3000 --seed 4 --preprocess full", &g, &map).unwrap_err();
        assert!(err.starts_with("vertex 83 was pruned into a pendant tree at --preprocess full"));
        assert!(err.contains("its exact BC is 0.076784"), "{err}");
        assert!(err.contains("rerun without --preprocess"), "{err}");
    }

    #[test]
    fn default_estimate_evaluates_through_a_paying_reduction() {
        let (g, map) = dup_fixture();
        let query = "estimate g 3 --iters 2000 --seed 4";
        let default = run(query, &g, &map).unwrap();
        assert_eq!(default[1], "preprocess auto: kept full (work ratio 1.47x >= 1.05x)");
        assert!(default[2].starts_with("preprocess full:"), "{default:?}");
        assert_eq!(default, run(&format!("{query} --preprocess auto"), &g, &map).unwrap());
    }

    #[test]
    fn plan_reports_the_assumed_reduction_ratio() {
        let g = mhbc_graph::generators::lollipop(6, 3);
        let (lcc, map) = load_graph(Cursor::new(edge_list_text(&g))).unwrap();
        let mk = |vertex, preprocess| Command::Plan {
            path: String::new(),
            vertex,
            epsilon: 0.05,
            delta: 0.1,
            preprocess,
            kernel: KernelMode::Auto,
        };
        // Vertex 5 is the path's clique attachment: positive betweenness.
        let out = execute(&mk(5, PreprocessChoice::Level(ReduceLevel::Full)), &lcc, &map).unwrap();
        assert!(out.iter().any(|l| l.contains("assumed reduction ratio")), "{out:?}");
        assert!(out.iter().any(|l| l.contains("less work than an unreduced pass")), "{out:?}");
        // Without preprocessing there is no ratio line.
        let out = execute(&mk(5, PreprocessChoice::Level(ReduceLevel::Off)), &lcc, &map).unwrap();
        assert!(!out.iter().any(|l| l.contains("reduction ratio")), "{out:?}");
        // A pruned probe needs no iterations at all.
        let out = execute(&mk(8, PreprocessChoice::Level(ReduceLevel::Prune)), &lcc, &map).unwrap();
        assert!(out.iter().any(|l| l.contains("0 iterations needed")), "{out:?}");
    }

    #[test]
    fn parses_adaptive_and_checkpoint_flags() {
        let cmd = parse(&strs(&[
            "estimate",
            "g.txt",
            "5",
            "--target-se",
            "0.01",
            "--target-delta",
            "0.1",
            "--segment",
            "512",
            "--checkpoint",
            "run.ckpt",
        ]))
        .unwrap();
        match cmd {
            Command::Estimate { adaptive, .. } => {
                assert_eq!(adaptive.target_se, Some(0.01));
                assert_eq!(adaptive.target_delta, 0.1);
                assert_eq!(adaptive.segment, 512);
                assert_eq!(adaptive.checkpoint.as_deref(), Some("run.ckpt"));
            }
            other => panic!("parsed {other:?}"),
        }
        assert!(parse(&strs(&["estimate", "g.txt", "1", "--target-se", "0"])).is_err());
        assert!(parse(&strs(&["estimate", "g.txt", "1", "--target-delta", "1.5"])).is_err());
        assert!(parse(&strs(&["estimate", "g.txt", "1", "--segment", "0"])).is_err());
        assert!(parse(&strs(&["estimate", "g.txt", "1", "--checkpoint"])).is_err());
        assert!(parse(&strs(&["estimate", "g.txt", "1", "--checkpoint", "--exact"])).is_err());
    }

    #[test]
    fn parses_resume_subcommand() {
        let cmd =
            parse(&strs(&["resume", "g.txt", "run.ckpt", "--threads", "4", "--kernel", "hybrid"]))
                .unwrap();
        assert_eq!(
            cmd,
            Command::Resume {
                path: "g.txt".into(),
                checkpoint_path: "run.ckpt".into(),
                threads: 4,
                prefetch_depth: PrefetchConfig::DEFAULT_DEPTH,
                kernel: KernelMode::Hybrid,
                checkpoint: None,
            }
        );
        assert!(parse(&strs(&["resume", "g.txt"])).is_err());
    }

    fn lollipop_fixture() -> (CsrGraph, Vec<Vertex>) {
        let g = mhbc_graph::generators::lollipop(8, 4);
        load_graph(Cursor::new(edge_list_text(&g))).unwrap()
    }

    #[test]
    fn adaptive_estimate_reports_plan_vs_actual() {
        let (lcc, map) = lollipop_fixture();
        let cmd = Command::Estimate {
            path: String::new(),
            vertex: 9,
            iterations: 100_000,
            seed: 5,
            exact: false,
            threads: 1,
            prefetch_depth: PrefetchConfig::DEFAULT_DEPTH,
            preprocess: PreprocessChoice::Level(ReduceLevel::Off),
            kernel: KernelMode::Auto,
            adaptive: AdaptiveArgs {
                target_se: Some(0.05),
                target_delta: 0.05,
                segment: 512,
                checkpoint: None,
            },
        };
        let out = execute(&cmd, &lcc, &map).unwrap();
        let line = out
            .iter()
            .find(|l| l.starts_with("plan vs actual:"))
            .expect("plan-vs-actual line present");
        assert!(line.contains("budget 100000"), "{line}");
        assert!(line.contains("target reached"), "{line}");
        assert!(line.contains("refit mu"), "{line}");
        // Stopped well before the budget.
        let iters_line = out.iter().find(|l| l.starts_with("iterations ")).unwrap();
        assert!(!iters_line.contains("iterations 100000"), "{iters_line}");
    }

    #[test]
    fn adaptive_rank_schedules_budget_toward_uncertain_probes() {
        let (lcc, map) = lollipop_fixture();
        // Probe 11 has zero BC (converges instantly); probe 9 is genuinely
        // uncertain under a tight target.
        let cmd = Command::Rank {
            path: String::new(),
            vertices: vec![9, 11],
            iterations: 2_000,
            seed: 7,
            threads: 1,
            prefetch_depth: PrefetchConfig::DEFAULT_DEPTH,
            preprocess: PreprocessChoice::Level(ReduceLevel::Off),
            kernel: KernelMode::Auto,
            adaptive: AdaptiveArgs {
                target_se: Some(1e-7),
                target_delta: 0.05,
                segment: 128,
                checkpoint: None,
            },
        };
        let out = execute(&cmd, &lcc, &map).unwrap();
        assert!(out.iter().any(|l| l.contains("adaptive ranking")), "{out:?}");
        let line9 = out.iter().find(|l| l.trim_start().starts_with("9 ")).unwrap();
        let line11 = out.iter().find(|l| l.trim_start().starts_with("11 ")).unwrap();
        assert!(line11.contains("(128 iters"), "zero-BC probe gets one segment: {line11}");
        assert!(line9.contains("budget cut"), "hard probe exhausts the budget: {line9}");
        // Ranking order: 9 above 11.
        let pos9 = out.iter().position(|l| l.trim_start().starts_with("9 ")).unwrap();
        let pos11 = out.iter().position(|l| l.trim_start().starts_with("11 ")).unwrap();
        assert!(pos9 < pos11);

        // Adaptive rank refuses --checkpoint loudly instead of silently
        // dropping it.
        let mut with_ckpt = cmd.clone();
        if let Command::Rank { adaptive, .. } = &mut with_ckpt {
            adaptive.checkpoint = Some("nope.ckpt".into());
        }
        let err = execute(&with_ckpt, &lcc, &map).unwrap_err();
        assert!(err.contains("does not support --checkpoint"), "{err}");
    }

    #[test]
    fn checkpointed_estimate_resumes_to_identical_output() {
        let (lcc, map) = lollipop_fixture();
        let dir = std::env::temp_dir().join("mhbc_cli_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("single.ckpt");
        let ckpt_str = ckpt.to_str().unwrap().to_string();

        // The uninterrupted reference.
        let mk = |adaptive| Command::Estimate {
            path: String::new(),
            vertex: 9,
            iterations: 3_000,
            seed: 21,
            exact: false,
            threads: 1,
            prefetch_depth: PrefetchConfig::DEFAULT_DEPTH,
            preprocess: PreprocessChoice::Level(ReduceLevel::Off),
            kernel: KernelMode::Auto,
            adaptive,
        };
        let full = execute(&mk(AdaptiveArgs::default()), &lcc, &map).unwrap();
        let bc_line = full.iter().find(|l| l.starts_with("BC(9)")).unwrap().clone();

        // A checkpointed run leaves its last segment boundary on disk…
        let _ = execute(
            &mk(AdaptiveArgs {
                checkpoint: Some(ckpt_str.clone()),
                segment: 500,
                ..AdaptiveArgs::default()
            }),
            &lcc,
            &map,
        )
        .unwrap();
        assert!(ckpt.exists());

        // …which `resume` finishes to the identical estimate (here the
        // last boundary was iteration 2500 of 3000), even under a
        // different kernel mode and thread count.
        for threads in [1usize, 3] {
            let resume = Command::Resume {
                path: String::new(),
                checkpoint_path: ckpt_str.clone(),
                threads,
                prefetch_depth: PrefetchConfig::DEFAULT_DEPTH,
                kernel: KernelMode::Hybrid,
                checkpoint: None,
            };
            let out = execute(&resume, &lcc, &map).unwrap();
            assert!(
                out.iter().any(|l| l.contains("resumed single-space run at iteration 2500")),
                "{out:?}"
            );
            assert!(out.contains(&bc_line), "resume output {out:?} lacks `{bc_line}`");
        }
        std::fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn estimate_reports_the_checkpoint_it_wrote() {
        let (lcc, map) = lollipop_fixture();
        let dir = std::env::temp_dir().join("mhbc_cli_ckpt_line_test");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("single.ckpt");
        let ckpt_str = ckpt.to_str().unwrap().to_string();
        std::fs::remove_file(&ckpt).ok();
        let run = |iterations| {
            let estimate = Command::Estimate {
                path: String::new(),
                vertex: 9,
                iterations,
                seed: 3,
                exact: false,
                threads: 1,
                prefetch_depth: PrefetchConfig::DEFAULT_DEPTH,
                preprocess: PreprocessChoice::Level(ReduceLevel::Off),
                kernel: KernelMode::Auto,
                adaptive: AdaptiveArgs {
                    checkpoint: Some(ckpt_str.clone()),
                    segment: 512,
                    ..AdaptiveArgs::default()
                },
            };
            let out = execute(&estimate, &lcc, &map).unwrap();
            out.into_iter().find(|l| l.starts_with("checkpoint:")).unwrap()
        };

        // One segment: the run ends at its only boundary and writes nothing.
        let line = run(512);
        assert_eq!(line, "checkpoint: none written (the run ended within its first segment)");
        assert!(!ckpt.exists());

        // Four segments: the last file written is the third boundary's,
        // and `resume` starts there.
        let line = run(2048);
        let want = format!(
            "checkpoint: {ckpt_str} at iteration 1536 (resume with `mhbc resume <edge-list> \
             {ckpt_str}`)"
        );
        assert_eq!(line, want);
        let resume = Command::Resume {
            path: String::new(),
            checkpoint_path: ckpt_str.clone(),
            threads: 1,
            prefetch_depth: PrefetchConfig::DEFAULT_DEPTH,
            kernel: KernelMode::Auto,
            checkpoint: Some(dir.join("resumed.ckpt").to_str().unwrap().into()),
        };
        let out = execute(&resume, &lcc, &map).unwrap();
        assert!(out.iter().any(|l| l.contains("run at iteration 1536 of budget 2048")), "{out:?}");
        std::fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn threaded_rank_checkpoints_and_resumes_to_the_sequential_ranking() {
        let (lcc, map) = lollipop_fixture();
        let dir = std::env::temp_dir().join("mhbc_cli_threaded_rank_ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("joint.ckpt");
        let ckpt_str = ckpt.to_str().unwrap();
        // The ranking block: its header line and the rows after it.
        let ranking = |args: &[&str]| -> Vec<String> {
            let out = execute(&parse(&strs(args)).unwrap(), &lcc, &map).unwrap();
            out.into_iter().skip_while(|l| !l.starts_with("ranking")).collect()
        };
        let rank = ["rank", "g.txt", "8,9,10", "--iters", "3000", "--segment", "500"];
        let reference = ranking(&[&rank[..], &["--threads", "1"]].concat());
        assert_eq!(reference.len(), 4, "{reference:?}");
        let written = ranking(&[&rank[..], &["--threads", "2", "--checkpoint", ckpt_str]].concat());
        assert_eq!(written, reference);
        let resumed = ranking(&["resume", "g.txt", ckpt_str, "--threads", "2"]);
        assert_eq!(resumed, reference);
        std::fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn resume_rejects_a_mismatched_graph() {
        let (lcc, map) = lollipop_fixture();
        let dir = std::env::temp_dir().join("mhbc_cli_ckpt_mismatch");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("single.ckpt");
        let cmd = Command::Estimate {
            path: String::new(),
            vertex: 9,
            iterations: 2_000,
            seed: 1,
            exact: false,
            threads: 1,
            prefetch_depth: PrefetchConfig::DEFAULT_DEPTH,
            preprocess: PreprocessChoice::Level(ReduceLevel::Off),
            kernel: KernelMode::Auto,
            adaptive: AdaptiveArgs {
                checkpoint: Some(ckpt.to_str().unwrap().into()),
                segment: 500,
                ..AdaptiveArgs::default()
            },
        };
        let _ = execute(&cmd, &lcc, &map).unwrap();
        let other = mhbc_graph::generators::barbell(6, 2);
        let (olcc, omap) = load_graph(Cursor::new(edge_list_text(&other))).unwrap();
        let resume = Command::Resume {
            path: String::new(),
            checkpoint_path: ckpt.to_str().unwrap().into(),
            threads: 1,
            prefetch_depth: PrefetchConfig::DEFAULT_DEPTH,
            kernel: KernelMode::Auto,
            checkpoint: None,
        };
        let err = execute(&resume, &olcc, &omap).unwrap_err();
        assert!(err.contains("graph mismatch"), "{err}");
        std::fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn plan_reports_discarded_auto_reduction_as_unit_ratio() {
        // A cycle is irreducible: auto builds the reduction and discards
        // it, and the plan must report the honest 1.0 ratio rather than
        // the assumed one.
        let g = mhbc_graph::generators::cycle(12);
        let (lcc, map) = load_graph(Cursor::new(edge_list_text(&g))).unwrap();
        let cmd = Command::Plan {
            path: String::new(),
            vertex: 0,
            epsilon: 0.05,
            delta: 0.1,
            preprocess: PreprocessChoice::Auto,
            kernel: KernelMode::Auto,
        };
        let out = execute(&cmd, &lcc, &map).unwrap();
        assert!(
            out.iter().any(|l| l.contains("assumed reduction ratio: 1.0 (discarded)")),
            "{out:?}"
        );
        assert!(!out.iter().any(|l| l.contains("less work than an unreduced pass")), "{out:?}");
    }

    #[test]
    fn missing_vertex_reported() {
        let (g, map) = load_graph(Cursor::new("0 1\n1 2\n")).unwrap();
        let cmd = Command::Estimate {
            path: String::new(),
            vertex: 99,
            iterations: 10,
            seed: 0,
            exact: false,
            threads: 1,
            prefetch_depth: PrefetchConfig::DEFAULT_DEPTH,
            preprocess: PreprocessChoice::Level(ReduceLevel::Off),
            kernel: KernelMode::Auto,
            adaptive: AdaptiveArgs::default(),
        };
        assert!(execute(&cmd, &g, &map).unwrap_err().contains("99"));
    }
}
