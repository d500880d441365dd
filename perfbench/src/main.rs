//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Generates the workload's inputs from the seed in a child process (so
//! generation never counts toward this process's peak memory), runs rounds
//! of the workload's `mhbc` operations for the given time, checks every
//! answer, and prints a context line and then, last, the JSON result line.
//! Exits non-zero without a result when it cannot set up.

use mhbc_perfbench::inputs::{self, Inputs, MANIFEST};
use mhbc_perfbench::run::{measure, measure_traced, Setup};
use mhbc_perfbench::workload::Workload;
use std::path::{Path, PathBuf};
use std::process::{self, Stdio};

const USAGE: &str =
    "usage: perfbench --workload <offcache-estimate|reduced-parallel|hot-adaptive> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in the child process: write the inputs here and exit.
    generate_into: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut generate_into) = (1, 10.0, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0).ok_or_else(bad)?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--generate-into" => generate_into = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace, generate_into })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        process::exit(2)
    });
    let result = match &args.generate_into {
        Some(dir) => generate(&args, dir),
        None => run(&args),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        process::exit(1);
    }
}

fn generate(args: &Args, dir: &Path) -> Result<(), String> {
    let inputs = inputs::generate(&args.workload.plans(), args.seed, dir)
        .map_err(|e| format!("cannot write the inputs: {e}"))?;
    std::fs::write(dir.join(MANIFEST), inputs.to_manifest())
        .map_err(|e| format!("cannot write the manifest: {e}"))
}

fn run(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    // Work files live beside the binary, inside the build directory.
    let work = exe.parent().ok_or("this binary has no directory")?.join("perfbench-work");
    let name = args.workload.name();
    let dir = work.join(format!("{name}-{}", args.seed));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let status = process::Command::new(&exe)
        .args(["--workload", name, "--seed", &args.seed.to_string(), "--generate-into"])
        .arg(&dir)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot start input generation: {e}"))?;
    if !status.success() {
        return Err(format!("input generation failed ({status})"));
    }
    let manifest = std::fs::read_to_string(dir.join(MANIFEST))
        .map_err(|e| format!("cannot read the manifest: {e}"))?;
    let inputs = Inputs::from_manifest(&manifest)?;
    let setup = Setup {
        workload: args.workload,
        inputs: &inputs,
        seed: args.seed,
        seconds: args.seconds,
        workdir: &dir,
    };
    let (report, context) = if args.trace {
        let run = measure_traced(&setup);
        let trace = work.join(format!("trace-{name}-{}.jsonl", args.seed));
        let context = context_json(args, &inputs, run.rounds, Some((run.working_set_mib, &trace)));
        if let Err(e) = run.tracer.write_jsonl(&trace, &context) {
            eprintln!("cannot write the trace {}: {e}", trace.display());
        }
        (run.report, context)
    } else {
        let (report, rounds) = measure(&setup);
        (report, context_json(args, &inputs, rounds, None))
    };
    let _ = std::fs::remove_dir_all(&dir);
    println!("{context}");
    println!("{}", report.to_json());
    Ok(())
}

/// One JSON line recording what the run measured on: the graphs (n, m,
/// `graph_hash`, probes), the host's cores and cache sizes, and for a
/// traced run the SPD working set and the trace file.
fn context_json(args: &Args, inputs: &Inputs, rounds: u64, traced: Option<(f64, &Path)>) -> String {
    let graphs: Vec<String> = inputs
        .graphs
        .iter()
        .map(|g| {
            let probes: Vec<String> = g.probes.iter().map(u32::to_string).collect();
            format!(
                "{{\"n\": {}, \"m\": {}, \"graph_hash\": \"{:#018x}\", \"probes\": [{}]}}",
                g.n,
                g.m,
                g.hash,
                probes.join(", ")
            )
        })
        .collect();
    let or_null = |x: Option<String>| x.unwrap_or_else(|| "null".into());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (working_set, trace) = match traced {
        Some((mib, path)) => (Some(mib.to_string()), Some(format!("\"{}\"", path.display()))),
        None => (None, None),
    };
    format!(
        "{{\"context\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"rounds\": {rounds}, \
         \"host_cores\": {cores}, \"l2_kib\": {}, \"l3_kib\": {}, \"spd.working_set_mb\": {}, \
         \"graphs\": [{}], \"trace_file\": {}}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        or_null(cache_kib(2).map(|k| k.to_string())),
        or_null(cache_kib(3).map(|k| k.to_string())),
        or_null(working_set),
        graphs.join(", "),
        or_null(trace),
    )
}

/// Size of CPU 0's level-`level` cache in KiB, from sysfs.
fn cache_kib(level: u32) -> Option<u64> {
    (0..8).find_map(|i| {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |file: &str| std::fs::read_to_string(format!("{dir}/{file}")).ok();
        if read("level")?.trim().parse::<u32>().ok()? != level {
            return None;
        }
        let size = read("size")?;
        let size = size.trim();
        match (size.strip_suffix('K'), size.strip_suffix('M')) {
            (Some(k), _) => k.parse().ok(),
            (_, Some(m)) => m.parse::<u64>().ok().map(|m| m * 1024),
            _ => size.parse::<u64>().ok().map(|b| b / 1024),
        }
    })
}
