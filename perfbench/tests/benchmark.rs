//! The benchmark's own checks: its metric tables match `BENCHMARK.json`,
//! the output parser reads lines the CLI prints, and the traced run
//! reproduces the CLI's answers on a small generated graph.

use mhbc_perfbench::check::{check, parse_output, Answer, Expect, EXACT_ABS, EXACT_REL};
use mhbc_perfbench::inputs::{generate, Family, GraphInput, GraphPlan, ProbeRule};
use mhbc_perfbench::layers::traced_op;
use mhbc_perfbench::metrics::{Metric, END_TO_END, PER_LAYER};
use mhbc_perfbench::run::run_cli;
use mhbc_perfbench::trace::{OpSpans, Tracer};
use mhbc_perfbench::workload::Workload;
use std::path::PathBuf;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// `(name, unit)` of every entry of one metric list (one entry per line).
fn section(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\": [")).expect(key);
    let body = &json[start..];
    let body = &body[..body.find(']').expect("end of list")];
    let field = |line: &str, name: &str| {
        Some(line.split(&format!("\"{name}\": \"")).nth(1)?.split('"').next()?.to_string())
    };
    body.lines().filter_map(|l| Some((field(l, "name")?, field(l, "unit")?))).collect()
}

#[test]
fn every_printed_metric_is_listed_in_benchmark_json() {
    let json = benchmark_json();
    let pairs = |table: &[Metric]| -> Vec<(String, String)> {
        table.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect()
    };
    assert_eq!(section(&json, "end_to_end"), pairs(END_TO_END));
    assert_eq!(section(&json, "per_layer"), pairs(PER_LAYER));
}

#[test]
fn workloads_and_exactness_tolerance_match_benchmark_json() {
    let json = benchmark_json();
    for w in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())), "{}", w.name());
    }
    let hot =
        json.lines().find(|l| l.contains("\"name\": \"hot-adaptive\"")).expect("hot-adaptive");
    let tolerance = format!("{EXACT_REL} x exact + {EXACT_ABS} x hub");
    assert!(hot.contains(&tolerance), "{hot} should state `{tolerance}`");
}

fn lines(text: &str) -> Vec<String> {
    text.lines().map(str::to_string).collect()
}

fn input(probes: Vec<u32>, exact: Vec<f64>) -> GraphInput {
    GraphInput { path: PathBuf::new(), n: 4096, m: 12206, hash: 0, probes, exact }
}

#[test]
fn parses_captured_cli_output() {
    let estimate = lines(
        "preprocess auto: discarded full for sampling (work ratio 1.00x < 1.05x — an empty \
         reduction would only tax the sampler)\n\
         BC(1) ~ 0.367819 (Eq 7) | 0.249701 (corrected, recommended)\n\
         iterations 200000 | acceptance 0.626 | SPD passes 4096 | threads 1 | kernel auto\n\
         plan vs actual: budget 200000 | stopped at 200000 (budget exhausted) | se 0.000781 | \
         ESS 58153 | tau 3.4 | geweke z -0.23 | refit mu 3.999 -> Ineq 14 budget 294",
    );
    let printed = parse_output(&estimate).unwrap();
    assert_eq!(printed.kept, Some(false));
    assert_eq!(
        printed.answer,
        Answer::Estimate {
            vertex: 1,
            eq7: "0.367819".into(),
            corrected: "0.249701".into(),
            iterations: 200_000,
            passes: 4096,
            reached: Some(false),
        }
    );
    let g = input(vec![1], vec![0.25014412750921194]);
    let expect = |budget| Expect::Estimate { vertex: 1, budget, adaptive: true };
    assert_eq!(check(&printed, &expect(200_000), &g), Ok(()));
    // "Budget exhausted" must have spent the whole budget.
    assert!(check(&printed, &expect(300_000), &g).is_err());
    // A fixed-budget run prints no plan-vs-actual line.
    let fixed = Expect::Estimate { vertex: 1, budget: 200_000, adaptive: false };
    assert!(check(&printed, &fixed, &g).is_err());
    // Far from exact Brandes.
    assert!(check(&printed, &expect(200_000), &input(vec![1], vec![0.1])).is_err());

    let scheduled = lines(
        "adaptive ranking by estimated BC (target se 0.0001, budget 200000, spent 200704, 196 \
         scheduling rounds):\n\
         \x20        1  BC ~ 0.253190 +- 0.022298  (1024 iters, budget cut)\n\
         \x20       43  BC ~ 0.019388 +- 0.040160  (199680 iters)",
    );
    let printed = parse_output(&scheduled).unwrap();
    match &printed.answer {
        Answer::Scheduled { budget, spent, rounds, rows } => {
            assert_eq!((*budget, *spent, *rounds), (200_000, 200_704, 196));
            assert_eq!(rows.len(), 2);
            assert_eq!((rows[0].vertex, rows[0].iters, rows[0].cut), (1, 1024, true));
            assert_eq!((rows[1].vertex, rows[1].bc.as_str(), rows[1].cut), (43, "0.019388", false));
        }
        other => panic!("{other:?}"),
    }
    let g = input(vec![1, 43], vec![0.25014412750921194, 0.018897588122186105]);
    let expect = Expect::AdaptiveRank { vertices: vec![1, 43], budget: 100_000, segment: 1024 };
    assert_eq!(check(&printed, &expect, &g), Ok(()));

    let ranking = lines(
        "ranking by betweenness ratio vs vertex 1 (200000 iterations):\n\
         \x20        1  ratio 1.0000\n\
         \x20       43  ratio NaN",
    );
    let printed = parse_output(&ranking).unwrap();
    let expect = Expect::Rank { vertices: vec![1, 43], budget: 200_000 };
    let err = check(&printed, &expect, &g).unwrap_err();
    assert!(err.contains("not finite"), "{err}");

    assert!(parse_output(&lines("graph: nothing else")).is_err());
}

#[test]
fn traced_replay_reproduces_every_operation_kind() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("traced_replay");
    std::fs::create_dir_all(&dir).unwrap();
    let plan = GraphPlan {
        family: Family::Dup,
        n: 800,
        probes: ProbeRule::Retained(3),
        edges_per_vertex: None,
    };
    let inputs = generate(&[plan], 5, &dir).unwrap();
    let g = &inputs.graphs[0];
    let path = g.path.display().to_string();
    let probes: Vec<String> = g.probes.iter().map(u32::to_string).collect();
    let (p, list) = (probes[0].as_str(), probes.join(","));
    let checkpoint = dir.join("e.ckpt").display().to_string();
    let cases: Vec<Vec<&str>> = vec![
        vec!["estimate", &path, p, "--iters", "300", "--preprocess", "auto"],
        vec!["estimate", &path, p, "--iters", "300", "--preprocess", "auto", "--threads", "2"],
        vec![
            "estimate",
            &path,
            p,
            "--iters",
            "5000",
            "--target-se",
            "0.001",
            "--segment",
            "128",
            "--checkpoint",
            &checkpoint,
        ],
        vec!["rank", &path, &list, "--iters", "2000", "--preprocess", "full"],
        vec!["rank", &path, &list, "--iters", "2000", "--preprocess", "auto", "--threads", "2"],
        vec!["rank", &path, &list, "--iters", "1000", "--target-se", "0.001", "--segment", "256"],
    ];
    for (op, args) in cases.into_iter().enumerate() {
        let args: Vec<String> = args.into_iter().map(str::to_string).collect();
        let printed = parse_output(&run_cli(&args, &g.path).output.unwrap()).unwrap();
        let mut tr = Tracer::new();
        tr.set_op(op + 1);
        let traced = traced_op(&mut tr, &args, &g.path, printed.kept).unwrap();
        assert_eq!(traced.answer, printed.answer, "{args:?}");
        let spans = OpSpans::of(tr.spans(), op + 1);
        assert!(spans.covered_ns <= spans.op_ns && spans.op_ns > 0, "{args:?}");
        assert!(!spans.durations("graph.io.parse").is_empty());
    }
}
