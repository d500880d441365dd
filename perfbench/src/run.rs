//! The two kinds of run: untraced end-to-end measurement, and the traced
//! run that breaks the same operations down by layer.

use crate::check::{check, parse_output, Printed};
use crate::inputs::Inputs;
use crate::layers::{replay_kernels, replay_monitor, traced_op, KernelCost, OpCounts};
use crate::metrics::{mean, median, Report, END_TO_END, PER_LAYER};
use crate::trace::{OpSpans, Tracer};
use crate::workload::{Op, Workload};
use mhbc_suite::cli;
use std::fs::File;
use std::hint::black_box;
use std::io::BufReader;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// What a run works on.
pub struct Setup<'a> {
    pub workload: Workload,
    pub inputs: &'a Inputs,
    pub seed: u64,
    /// About how long the timed rounds last.
    pub seconds: f64,
    /// Where operations may write (checkpoints).
    pub workdir: &'a Path,
}

/// One untraced operation.
pub struct CliRun {
    /// Time in `cli::load_graph` (parse and largest component).
    pub load_s: f64,
    /// From the start of the load to the printed answer.
    pub wall_s: f64,
    pub output: Result<Vec<String>, String>,
}

/// Runs `mhbc <args>` in this process the way the binary does: parse, open,
/// load, execute, and print (into memory). A panic counts as an error.
pub fn run_cli(args: &[String], path: &Path) -> CliRun {
    let (mut load_s, mut wall_s) = (0.0, 0.0);
    let output = catch_unwind(AssertUnwindSafe(|| -> Result<Vec<String>, String> {
        let cmd = cli::parse(args)?;
        let start = Instant::now();
        let file = File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        let (g, map) = cli::load_graph(BufReader::new(file))?;
        load_s = start.elapsed().as_secs_f64();
        let lines = cli::execute(&cmd, &g, &map)?;
        black_box(lines.join("\n"));
        wall_s = start.elapsed().as_secs_f64();
        Ok(lines)
    }))
    .unwrap_or_else(|panic| {
        let text = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Err(format!("panicked: {text}"))
    });
    CliRun { load_s, wall_s, output }
}

/// Parses and checks one operation's output.
fn verify(
    op: &Op,
    inputs: &Inputs,
    output: Result<Vec<String>, String>,
) -> Result<Printed, String> {
    let printed = parse_output(&output?)?;
    check(&printed, &op.expect, &inputs.graphs[op.graph])?;
    Ok(printed)
}

/// Runs whole rounds of the workload for about `seconds` (at least one); returns
/// how many. Another round starts only when, at the mean round length so far,
/// it would end nearer to `seconds` than stopping now, so a run overshoots by at
/// most half a round.
fn rounds(s: &Setup, mut each: impl FnMut(&Op)) -> u64 {
    let start = Instant::now();
    let mut round = 0;
    loop {
        for op in s.workload.round(s.inputs, s.seed, round, s.workdir) {
            each(&op);
        }
        round += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + 0.5 * elapsed / round as f64 >= s.seconds {
            return round;
        }
    }
}

/// The round whose first operation warms up an untimed run; no timed run
/// gets this far.
const WARM_UP_ROUND: u64 = 1 << 31;

/// Peak resident set of this process (`VmHWM`), in MiB. Inputs are
/// generated in another process, so this is the largest operation's peak.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kib.map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The untraced run: end-to-end metrics, every answer checked. One untimed
/// operation first warms up code, allocator and page cache; it is checked
/// and counted like the others. Returns the report and the number of timed
/// rounds.
pub fn measure(s: &Setup) -> (Report, u64) {
    let (mut loads, mut walls, mut attempted, mut failed) = (Vec::new(), Vec::new(), 0u64, 0u64);
    let mut run = |op: &Op| {
        attempted += 1;
        let run = run_cli(&op.args, &s.inputs.graphs[op.graph].path);
        match verify(op, s.inputs, run.output) {
            Ok(_) => Some((run.load_s, run.wall_s)),
            Err(e) => {
                failed += 1;
                eprintln!("failed: mhbc {}: {e}", op.args.join(" "));
                None
            }
        }
    };
    if let Some(op) = s.workload.round(s.inputs, s.seed, WARM_UP_ROUND, s.workdir).first() {
        run(op);
    }
    let start = Instant::now();
    let rounds = rounds(s, |op| {
        if let Some((load_s, wall_s)) = run(op) {
            loads.push(load_s);
            walls.push(wall_s);
        }
    });
    let list_s = start.elapsed().as_secs_f64();
    let values = [
        ("setup_s", median(&loads)),
        ("op_s_p50", median(&walls)),
        ("ops_per_s", walls.len() as f64 / list_s),
        ("peak_rss_mb", peak_rss_mib()),
        ("ok_ops_ratio", (attempted - failed) as f64 / attempted as f64),
    ];
    (Report::new(END_TO_END, attempted, failed, &values), rounds)
}

/// One traced operation's record.
struct Traced {
    graph: usize,
    cli_wall_ns: f64,
    spans: OpSpans,
    counts: OpCounts,
}

/// A traced run's results.
pub struct TracedRun {
    pub report: Report,
    pub rounds: u64,
    /// Mean `spd.working_set_mb` over the workload's graphs.
    pub working_set_mib: f64,
    /// Every span, for the JSONL trace.
    pub tracer: Tracer,
}

/// The traced run. Each operation runs untraced through the CLI (checked,
/// and timed for the tracing overhead), then again through the layers'
/// public functions inside spans; the replay must reproduce the printed
/// answer digit for digit, SPD passes included, or the operation fails.
/// Kernel and monitor replays time the SPD and diagnostics layers alone.
pub fn measure_traced(s: &Setup) -> TracedRun {
    let mut tracer = Tracer::new();
    let mut costs: Vec<Option<KernelCost>> = vec![None; s.inputs.graphs.len()];
    let mut records = Vec::new();
    let mut attempted = 0u64;
    let rounds = rounds(s, |op| {
        attempted += 1;
        let input = &s.inputs.graphs[op.graph];
        let command = op.args.join(" ");
        let cli = run_cli(&op.args, &input.path);
        let printed = match verify(op, s.inputs, cli.output) {
            Ok(printed) => printed,
            Err(e) => return eprintln!("failed: mhbc {command}: {e}"),
        };
        let id = attempted as usize;
        tracer.set_op(id);
        let traced = traced_op(&mut tracer, &op.args, &input.path, printed.kept);
        tracer.set_op(0);
        let traced = match traced {
            Ok(t) if t.answer == printed.answer => t,
            Ok(t) => {
                return eprintln!(
                    "failed: traced mhbc {command} gave {:?}, the CLI printed {:?}",
                    t.answer, printed.answer
                )
            }
            Err(e) => return eprintln!("failed: traced mhbc {command}: {e}"),
        };
        if costs[op.graph].is_none() {
            let seed = s.seed ^ op.graph as u64;
            costs[op.graph] =
                Some(replay_kernels(&mut tracer, &traced.loaded, traced.counts.kept, seed));
        }
        let spans = OpSpans::of(tracer.spans(), id);
        records.push(Traced {
            graph: op.graph,
            cli_wall_ns: cli.wall_s * 1e9,
            spans,
            counts: traced.counts,
        });
    });
    let monitor_ns = replay_monitor(&mut tracer, 1 << 20, 1024, s.seed);
    let values = layer_metrics(&records, &costs, monitor_ns);
    let working_set = costs.iter().flatten().map(|c| c.working_set_bytes).collect::<Vec<_>>();
    TracedRun {
        report: Report::new(PER_LAYER, attempted, attempted - records.len() as u64, &values),
        rounds,
        working_set_mib: mean(&working_set) / MIB,
        tracer,
    }
}

const MIB: f64 = 1024.0 * 1024.0;

/// The per-layer metrics; a layer the workload never reached reads 0 (1
/// for the work ratio of a reduction never built).
fn layer_metrics(
    records: &[Traced],
    costs: &[Option<KernelCost>],
    monitor_ns: f64,
) -> Vec<(&'static str, f64)> {
    let or = |x: f64, default: f64| if x.is_nan() { default } else { x };
    let secs = |ns: u64| ns as f64 / 1e9;
    let each =
        |f: &dyn Fn(&Traced) -> Option<f64>| records.iter().filter_map(f).collect::<Vec<_>>();
    let sum =
        |f: &dyn Fn(&OpCounts) -> u64| records.iter().map(|r| f(&r.counts)).sum::<u64>() as f64;
    let all_spans = |name: &str, scale: f64| {
        records
            .iter()
            .flat_map(|r| r.spans.durations(name))
            .map(|ns| ns as f64 / scale)
            .collect::<Vec<_>>()
    };
    let known: Vec<&KernelCost> = costs.iter().flatten().collect();
    let cost =
        |f: &dyn Fn(&KernelCost) -> f64| mean(&known.iter().map(|c| f(c)).collect::<Vec<_>>());
    let view_ns = |r: &Traced| costs[r.graph].map_or(f64::NAN, |c| c.view_ns);

    let parse = each(&|r| Some(secs(r.spans.total("graph.io.parse"))));
    let built = |f: &dyn Fn(&Traced) -> f64| each(&|r| r.counts.work_ratio.map(|_| f(r)));
    let stepped_ns: f64 = records
        .iter()
        .map(|r| {
            r.spans.total("core.engine.segment") as f64
                - r.counts.stepped_passes as f64 * view_ns(r)
        })
        .sum();
    let stepped_iters = sum(&|c| c.stepped_iters);
    let schedules = each(&|r| r.counts.schedule.map(|(passes, _)| passes as f64));
    let schedule_rounds = each(&|r| r.counts.schedule.map(|(_, rounds)| rounds as f64));
    let bytes: Vec<f64> =
        records.iter().flat_map(|r| r.counts.checkpoint_bytes.iter().map(|&b| b as f64)).collect();
    let overlap = each(&|r| {
        let passes = r.counts.pipeline_passes? as f64;
        Some(passes * view_ns(r) / r.spans.total("core.pipeline.run") as f64)
    });
    let op_ns: f64 = records.iter().map(|r| r.spans.op_ns as f64).sum();
    let covered_ns: f64 = records.iter().map(|r| r.spans.covered_ns as f64).sum();
    let cli_ns: f64 = records.iter().map(|r| r.cli_wall_ns).sum();
    let ops = records.len() as f64;
    vec![
        ("graph.io.parse_s", median(&parse)),
        (
            "graph.io.edges_per_s",
            median(&each(&|r| Some(r.counts.edges as f64 / secs(r.spans.total("graph.io.parse"))))),
        ),
        ("graph.algo.lcc_s", median(&each(&|r| Some(secs(r.spans.total("graph.algo.lcc")))))),
        (
            "graph.reduce.build_s",
            or(median(&built(&|r| secs(r.spans.total("graph.reduce.build")))), 0.0),
        ),
        ("graph.reduce.work_ratio", or(median(&each(&|r| r.counts.work_ratio)), 1.0)),
        ("graph.reduce.kept", or(mean(&built(&|r| f64::from(u8::from(r.counts.kept)))), 0.0)),
        ("spd.forward_ns_per_pass", cost(&|c| c.forward_ns)),
        ("spd.backward_ns_per_pass", cost(&|c| c.backward_ns)),
        ("spd.ns_per_edge", cost(&|c| (c.forward_ns + c.backward_ns) / c.edges as f64)),
        ("spd.pull_levels_per_pass", cost(&|c| c.pull_levels)),
        ("spd.working_set_mb", cost(&|c| c.working_set_bytes) / MIB),
        ("spd.view_ns_per_pass", cost(&|c| c.view_ns)),
        ("spd.view_overhead_ratio", cost(&|c| c.view_ns / (c.forward_ns + c.backward_ns))),
        ("core.oracle.passes_per_iter", sum(&|c| c.passes) / sum(&|c| c.iters)),
        ("core.oracle.hit_rate", 1.0 - sum(&|c| c.passes) / sum(&|c| c.lookups)),
        ("core.engine.iters", sum(&|c| c.iters) / ops),
        ("core.engine.segments", sum(&|c| c.segments) / ops),
        ("core.engine.self_ns_per_iter", or(stepped_ns / stepped_iters, 0.0)),
        ("core.engine.target_reached_ratio", or(sum(&|c| c.reached) / sum(&|c| c.adaptive), 0.0)),
        ("mcmc.monitor.ns_per_obs", monitor_ns),
        ("core.schedule.passes", or(mean(&schedules), 0.0)),
        ("core.schedule.rounds", or(mean(&schedule_rounds), 0.0)),
        ("core.checkpoint.bytes", or(mean(&bytes), 0.0)),
        ("core.checkpoint.encode_ms", or(median(&all_spans("core.checkpoint.encode", 1e6)), 0.0)),
        ("core.checkpoint.write_ms", or(median(&all_spans("core.checkpoint.write", 1e6)), 0.0)),
        ("core.pipeline.overlap", or(mean(&overlap), 0.0)),
        ("trace.unaccounted_ratio", (op_ns - covered_ns) / op_ns),
        ("trace.overhead_ratio", op_ns / cli_ns),
    ]
}
