//! Experiment harness: regenerates every table and figure in DESIGN.md's
//! experiment index.
//!
//! ```text
//! cargo run --release -p mhbc-bench --bin experiments -- all --quick
//! cargo run --release -p mhbc-bench --bin experiments -- t2 f3 f9
//! cargo run --release -p mhbc-bench --bin experiments -- overhead --quick
//! ```
//!
//! Results print as markdown and are mirrored to `results/<id>.csv`. The
//! `overhead` subcommand (not part of `all`) is a guard, not a table: it
//! fails unless the segmented engine costs at most 2% more per iteration
//! than a bare `step()` loop and reproduces it bit for bit.

use mhbc_baselines::{BbSampler, DistanceSampler, RkSampler, UniformSourceSampler};
use mhbc_bench::report::{e5, f, Table};
use mhbc_bench::{probes, stats, workloads, SEED};
use mhbc_core::planner::{plan_single, MuSource};
use mhbc_core::{
    optimal, JointSpaceConfig, JointSpaceSampler, SingleSpaceConfig, SingleSpaceSampler,
};
use mhbc_graph::{algo, CsrGraph, DegreeStats, Vertex};
use mhbc_mcmc::{bounds, diagnostics};
use mhbc_spd::{dependency_profile_par, exact_betweenness_par};
use rand::{rngs::SmallRng, RngExt, SeedableRng};
use std::path::PathBuf;
use std::time::Instant;

struct Ctx {
    quick: bool,
    out: PathBuf,
}

impl Ctx {
    fn runs(&self) -> u64 {
        if self.quick {
            3
        } else {
            5
        }
    }

    fn budget(&self, n: usize) -> u64 {
        if self.quick {
            (n as u64 / 2).clamp(500, 2_000)
        } else {
            (n as u64 / 2).clamp(1_000, 4_000)
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"));
    let ids: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--") && Some(a.as_str()) != out.to_str())
        .map(|a| a.as_str())
        .collect();
    let ctx = Ctx { quick, out };

    let all = ["t1", "t2", "t3", "t4", "t5", "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9"];
    let selected: Vec<&str> =
        if ids.is_empty() || ids.contains(&"all") { all.to_vec() } else { ids };

    for id in selected {
        let started = Instant::now();
        match id {
            "t1" => t1(&ctx),
            "t2" => t2(&ctx),
            "t3" => t3(&ctx),
            "t4" => t4(&ctx),
            "t5" => t5(&ctx),
            "f1" => f1(&ctx),
            "f2" => f2(&ctx),
            "f3" => f3(&ctx),
            "f4" => f4(&ctx),
            "f5" => f5(&ctx),
            "f6" => f6(&ctx),
            "f7" => f7(&ctx),
            "f8" => f8(&ctx),
            "f9" => f9(&ctx),
            "overhead" => overhead(&ctx),
            other => {
                eprintln!("unknown experiment `{other}` (known: {all:?}, `overhead`, or `all`)");
                std::process::exit(2);
            }
        }
        eprintln!("[{id} done in {:.1?}]", started.elapsed());
    }
}

/// Probe classes evaluated by most experiments.
fn probe_list(g: &CsrGraph, exact: &[f64], sep: Option<Vertex>) -> Vec<(&'static str, Vertex)> {
    let p = probes::select_probes(exact);
    let mut out = vec![("hub", p.hub), ("median", p.median), ("low", p.low)];
    if let Some(s) = sep {
        out.push(("separator", s));
    }
    let _ = g;
    out
}

/// Geometrically spaced checkpoints up to `max`.
fn checkpoints(max: u64) -> Vec<u64> {
    let mut cs = Vec::new();
    let mut c = 16u64;
    while c < max {
        cs.push(c);
        c *= 2;
    }
    cs.push(max);
    cs
}

// ---------------------------------------------------------------- T1 ----

fn t1(ctx: &Ctx) {
    let mut t = Table::new(
        "T1 - dataset statistics (synthetic substitutes; see DESIGN.md)",
        &["graph", "n", "m", "diam>=", "deg max", "deg mean", "BC(hub)", "BC(median)", "BC(low)"],
    );
    for ds in workloads::standard_suite(ctx.quick) {
        let g = &ds.graph;
        let exact = exact_betweenness_par(g, 0);
        let p = probes::select_probes(&exact);
        let deg = DegreeStats::of(g);
        let diam = algo::double_sweep_lower_bound(g, 0);
        t.push(vec![
            ds.name.into(),
            g.num_vertices().to_string(),
            g.num_edges().to_string(),
            diam.to_string(),
            deg.max.to_string(),
            format!("{:.2}", deg.mean),
            f(exact[p.hub as usize]),
            f(exact[p.median as usize]),
            f(exact[p.low as usize]),
        ]);
    }
    t.emit(&ctx.out, "t1").expect("emit t1");
}

// ---------------------------------------------------------------- T2 ----

fn t2(ctx: &Ctx) {
    let mut t = Table::new(
        "T2 - single-vertex error at matched sample budgets (mean |err| x1e-5 over runs; rel = mean |err|/BC)",
        &["graph", "probe", "BC(r)", "T", "mh-eq7", "mh-corr", "uniform", "distance", "rk", "bb", "mh rel", "corr rel"],
    );
    for ds in workloads::standard_suite(ctx.quick) {
        let g = &ds.graph;
        let exact = exact_betweenness_par(g, 0);
        let budget = ctx.budget(g.num_vertices());
        for (label, r) in probe_list(g, &exact, ds.separator_probe) {
            let truth = exact[r as usize];
            let mut errs: [Vec<f64>; 6] = Default::default();
            for run in 0..ctx.runs() {
                let seed = SEED ^ (run * 7919);
                let mh = SingleSpaceSampler::new(g, r, SingleSpaceConfig::new(budget, seed))
                    .expect("valid config")
                    .run();
                errs[0].push((mh.bc - truth).abs());
                errs[1].push((mh.bc_corrected - truth).abs());
                let mut rng = SmallRng::seed_from_u64(seed + 1);
                errs[2]
                    .push((UniformSourceSampler::new(g, r).run(budget, &mut rng).bc - truth).abs());
                let mut rng = SmallRng::seed_from_u64(seed + 2);
                errs[3].push((DistanceSampler::new(g, r).run(budget, &mut rng).bc - truth).abs());
                let mut rng = SmallRng::seed_from_u64(seed + 3);
                errs[4].push((RkSampler::new(g).run(budget, &mut rng).of(r) - truth).abs());
                let mut rng = SmallRng::seed_from_u64(seed + 4);
                errs[5].push((BbSampler::new(g, r).run_fixed(budget, &mut rng).bc - truth).abs());
            }
            t.push(vec![
                ds.name.into(),
                label.into(),
                f(truth),
                budget.to_string(),
                e5(stats::mean(&errs[0])),
                e5(stats::mean(&errs[1])),
                e5(stats::mean(&errs[2])),
                e5(stats::mean(&errs[3])),
                e5(stats::mean(&errs[4])),
                e5(stats::mean(&errs[5])),
                f(stats::mean(&errs[0]) / truth),
                f(stats::mean(&errs[1]) / truth),
            ]);
        }
    }
    t.emit(&ctx.out, "t2").expect("emit t2");
}

// ---------------------------------------------------------------- T3 ----

fn t3(ctx: &Ctx) {
    let mut t = Table::new(
        "T3 - runtime: ms per 1000 samples, exact Brandes ms, speedup at the T2 budget",
        &[
            "graph",
            "brandes ms",
            "mh/1k",
            "uniform/1k",
            "distance/1k",
            "rk/1k",
            "bb/1k",
            "mh speedup",
            "mh passes",
        ],
    );
    for ds in workloads::standard_suite(ctx.quick) {
        let g = &ds.graph;
        let started = Instant::now();
        let exact = exact_betweenness_par(g, 0);
        let brandes_ms = started.elapsed().as_secs_f64() * 1e3;
        let p = probes::select_probes(&exact);
        let r = p.hub;
        let budget = ctx.budget(g.num_vertices());
        let per_1k = 1_000.0 / budget as f64;

        let started = Instant::now();
        let mh = SingleSpaceSampler::new(g, r, SingleSpaceConfig::new(budget, SEED))
            .expect("valid config")
            .run();
        let mh_ms = started.elapsed().as_secs_f64() * 1e3;

        let time_baseline = |which: usize| -> f64 {
            let mut rng = SmallRng::seed_from_u64(SEED + which as u64);
            let started = Instant::now();
            match which {
                0 => drop(UniformSourceSampler::new(g, r).run(budget, &mut rng)),
                1 => drop(DistanceSampler::new(g, r).run(budget, &mut rng)),
                2 => drop(RkSampler::new(g).run(budget, &mut rng)),
                _ => drop(BbSampler::new(g, r).run_fixed(budget, &mut rng)),
            }
            started.elapsed().as_secs_f64() * 1e3
        };
        let (uni_ms, dist_ms, rk_ms, bb_ms) =
            (time_baseline(0), time_baseline(1), time_baseline(2), time_baseline(3));

        t.push(vec![
            ds.name.into(),
            format!("{brandes_ms:.0}"),
            format!("{:.1}", mh_ms * per_1k),
            format!("{:.1}", uni_ms * per_1k),
            format!("{:.1}", dist_ms * per_1k),
            format!("{:.1}", rk_ms * per_1k),
            format!("{:.1}", bb_ms * per_1k),
            format!("{:.1}x", brandes_ms / mh_ms),
            mh.spd_passes.to_string(),
        ]);
    }
    t.emit(&ctx.out, "t3").expect("emit t3");
}

// ---------------------------------------------------------------- T4 ----

fn t4(ctx: &Ctx) {
    let mut t = Table::new(
        "T4 - joint-space sampler: relative scores and ratios vs exact (Theorem 3/4)",
        &[
            "graph",
            "|R|",
            "T",
            "ratio mean rel err",
            "ratio max rel err",
            "rel-score mean |err|",
            "min |M(i)|",
        ],
    );
    for ds in workloads::standard_suite(ctx.quick)
        .into_iter()
        .filter(|d| d.name == "ba" || d.name == "sep")
    {
        let g = &ds.graph;
        let exact = exact_betweenness_par(g, 0);
        let mut order: Vec<usize> = (0..g.num_vertices()).collect();
        order.sort_by(|&a, &b| exact[b].partial_cmp(&exact[a]).expect("finite"));
        for k in [2usize, 4, 8] {
            // Probes: top-BC ranks with small spacing. The joint chain's
            // visit counts are proportional to BC mass (Eq 18), so probes
            // of comparable importance keep every multiset M(i) populated —
            // the paper's use case is comparing *important* vertices.
            let probes: Vec<Vertex> = (0..k).map(|i| order[i * 2] as Vertex).collect();
            let iterations = ctx.budget(g.num_vertices()) * 16;
            let est = JointSpaceSampler::new(g, &probes, JointSpaceConfig::new(iterations, SEED))
                .expect("valid probes")
                .run();
            let stationary = optimal::stationary_relative_matrix(g, &probes, 0);

            let mut ratio_errs = Vec::new();
            let mut rel_errs = Vec::new();
            for i in 0..k {
                for j in 0..k {
                    if i == j {
                        continue;
                    }
                    let truth = exact[probes[i] as usize] / exact[probes[j] as usize];
                    let got = est.ratio(i, j);
                    if got.is_finite() {
                        ratio_errs.push((got - truth).abs() / truth);
                    }
                    if est.relative[i][j].is_finite() {
                        rel_errs.push((est.relative[i][j] - stationary[i][j]).abs());
                    }
                }
            }
            t.push(vec![
                ds.name.into(),
                k.to_string(),
                iterations.to_string(),
                f(stats::mean(&ratio_errs)),
                f(stats::max(&ratio_errs)),
                f(stats::mean(&rel_errs)),
                est.counts.iter().min().expect("non-empty").to_string(),
            ]);
        }
    }
    t.emit(&ctx.out, "t4").expect("emit t4");
}

// ---------------------------------------------------------------- T5 ----

fn t5(ctx: &Ctx) {
    let mut t = Table::new(
        "T5 - weighted graphs (Dijkstra kernel): error and time vs weighted Brandes",
        &[
            "graph",
            "n",
            "BC(r)",
            "T",
            "eq7 |err|x1e-5",
            "corr |err|x1e-5",
            "uniform |err|x1e-5",
            "brandes ms",
            "mh ms",
        ],
    );
    for ds in workloads::weighted_suite(ctx.quick) {
        let g = &ds.graph;
        let started = Instant::now();
        let exact = exact_betweenness_par(g, 0);
        let brandes_ms = started.elapsed().as_secs_f64() * 1e3;
        let p = probes::select_probes(&exact);
        let r = p.hub;
        let truth = exact[r as usize];
        let budget = ctx.budget(g.num_vertices());

        let mut eq7 = Vec::new();
        let mut corr = Vec::new();
        let mut uni = Vec::new();
        let mut mh_ms = 0.0;
        for run in 0..ctx.runs() {
            let seed = SEED ^ (run * 31);
            let started = Instant::now();
            let est = SingleSpaceSampler::new(g, r, SingleSpaceConfig::new(budget, seed))
                .expect("valid config")
                .run();
            mh_ms += started.elapsed().as_secs_f64() * 1e3;
            eq7.push((est.bc - truth).abs());
            corr.push((est.bc_corrected - truth).abs());
            let mut rng = SmallRng::seed_from_u64(seed + 1);
            uni.push((UniformSourceSampler::new(g, r).run(budget, &mut rng).bc - truth).abs());
        }
        t.push(vec![
            ds.name.into(),
            g.num_vertices().to_string(),
            f(truth),
            budget.to_string(),
            e5(stats::mean(&eq7)),
            e5(stats::mean(&corr)),
            e5(stats::mean(&uni)),
            format!("{brandes_ms:.0}"),
            format!("{:.0}", mh_ms / ctx.runs() as f64),
        ]);
    }
    t.emit(&ctx.out, "t5").expect("emit t5");
}

// ---------------------------------------------------------------- F1 ----

fn f1(ctx: &Ctx) {
    let mut t = Table::new(
        "F1 - convergence: median |err| (and IQR) vs iterations T (per graph, hub probe)",
        &["graph", "estimator", "T", "median |err|", "q1", "q3"],
    );
    for ds in workloads::standard_suite(ctx.quick)
        .into_iter()
        .filter(|d| d.name == "ba" || d.name == "grid" || d.name == "sep")
    {
        let g = &ds.graph;
        let exact = exact_betweenness_par(g, 0);
        let r = ds.separator_probe.unwrap_or(probes::select_probes(&exact).hub);
        let truth = exact[r as usize];
        let max_t = ctx.budget(g.num_vertices()) * 2;
        let cps = checkpoints(max_t);

        // errs[estimator][checkpoint][run]
        let mut errs = vec![vec![Vec::new(); cps.len()]; 3];
        for run in 0..ctx.runs() {
            let seed = SEED ^ (run * 131);
            // MH with trace.
            let est =
                SingleSpaceSampler::new(g, r, SingleSpaceConfig::new(max_t, seed).with_trace())
                    .expect("valid config")
                    .run();
            let trace = est.trace.as_deref().expect("traced");
            // Uniform with trace.
            let mut rng = SmallRng::seed_from_u64(seed + 1);
            let mut uni = UniformSourceSampler::new(g, r).with_trace();
            for _ in 0..max_t {
                uni.sample(&mut rng);
            }
            // RK running estimate by manual checkpointing.
            let mut rng = SmallRng::seed_from_u64(seed + 2);
            let mut rk = RkSampler::new(g);
            let mut rk_at = Vec::with_capacity(cps.len());
            let mut done = 0u64;
            for &cp in &cps {
                while done < cp {
                    rk.sample(&mut rng);
                    done += 1;
                }
                rk_at.push(rk.estimate(r));
            }
            for (ci, &cp) in cps.iter().enumerate() {
                errs[0][ci].push((trace[cp as usize] - truth).abs());
                errs[1][ci].push((uni.trace().expect("traced")[cp as usize - 1] - truth).abs());
                errs[2][ci].push((rk_at[ci] - truth).abs());
            }
        }
        for (ei, name) in ["mh-eq7", "uniform", "rk"].iter().enumerate() {
            for (ci, &cp) in cps.iter().enumerate() {
                let (q1, q3) = stats::quartiles(&errs[ei][ci]);
                t.push(vec![
                    ds.name.into(),
                    (*name).into(),
                    cp.to_string(),
                    e5(stats::median(&errs[ei][ci])),
                    e5(q1),
                    e5(q3),
                ]);
            }
        }
    }
    t.emit(&ctx.out, "f1").expect("emit f1");
}

// ---------------------------------------------------------------- F2 ----

fn f2(ctx: &Ctx) {
    let mut t = Table::new(
        "F2 - mixing: acceptance rate, integrated autocorrelation time, ESS/T, Geweke z",
        &["graph", "probe", "acceptance", "tau", "ESS/T", "geweke |z|"],
    );
    for ds in workloads::standard_suite(ctx.quick) {
        let g = &ds.graph;
        let exact = exact_betweenness_par(g, 0);
        for (label, r) in probe_list(g, &exact, ds.separator_probe) {
            let t_iters = ctx.budget(g.num_vertices()) * 2;
            let est =
                SingleSpaceSampler::new(g, r, SingleSpaceConfig::new(t_iters, SEED).with_trace())
                    .expect("valid config")
                    .run();
            let series = est.density_series.as_deref().expect("traced");
            let tau = diagnostics::integrated_autocorrelation_time(series);
            let ess = diagnostics::effective_sample_size(series);
            let z = diagnostics::geweke_z(series, 0.1, 0.5);
            t.push(vec![
                ds.name.into(),
                label.into(),
                f(est.acceptance_rate),
                format!("{tau:.1}"),
                f(ess / series.len() as f64),
                format!("{:.2}", z.abs()),
            ]);
        }
    }
    t.emit(&ctx.out, "f2").expect("emit f2");
}

// ---------------------------------------------------------------- F3 ----

fn f3(ctx: &Ctx) {
    // Part A: mu(r) per dataset and probe class.
    let mut ta = Table::new(
        "F3a - mu(r) by probe position (exact, from dependency profiles)",
        &["graph", "probe", "mu(r)", "theorem2 bound", "planned T (eps=0.05, delta=0.05)"],
    );
    for ds in workloads::standard_suite(ctx.quick) {
        let g = &ds.graph;
        let exact = exact_betweenness_par(g, 0);
        for (label, r) in probe_list(g, &exact, ds.separator_probe) {
            let profile = dependency_profile_par(g, r, 0);
            let mu = profile.mu();
            let rep = optimal::theorem2_report(g, r, 0.1);
            let planned = mu.map(|m| bounds::required_samples(m.max(1.0), 0.05, 0.05));
            ta.push(vec![
                ds.name.into(),
                label.into(),
                mu.map_or("-".into(), |m| format!("{m:.2}")),
                rep.mu_bound.map_or("-".into(), |b| format!("{b:.2}")),
                planned.map_or("-".into(), |t| t.to_string()),
            ]);
        }
    }
    ta.emit(&ctx.out, "f3a").expect("emit f3a");

    // Part B: separator family - mu(hub) flat in n (Theorem 2); BA hub grows.
    let mut tb = Table::new(
        "F3b - mu vs graph size: separator hubs stay constant (Theorem 2); BA hubs drift",
        &["family", "n", "mu(r)"],
    );
    for clusters in [2usize, 4] {
        for (n, g, hub) in workloads::separator_size_sweep(ctx.quick, clusters) {
            let mu = dependency_profile_par(&g, hub, 0).mu().expect("hub has positive BC");
            tb.push(vec![format!("sep-l{clusters}"), n.to_string(), format!("{mu:.3}")]);
        }
    }
    for (n, g) in workloads::ba_size_sweep(true) {
        let exact = exact_betweenness_par(&g, 0);
        let hub = probes::select_probes(&exact).hub;
        let mu = dependency_profile_par(&g, hub, 0).mu().expect("hub has positive BC");
        tb.push(vec!["ba".into(), n.to_string(), format!("{mu:.3}")]);
    }
    tb.emit(&ctx.out, "f3b").expect("emit f3b");

    // Part C: planner overshoot - planned T vs empirical T to reach eps.
    let mut tc = Table::new(
        "F3c - Ineq 14 planner vs empirical iterations to reach eps (vs the Eq 7 limit)",
        &["graph", "eps", "planned T", "empirical T (90% runs within eps)", "overshoot"],
    );
    let mut rng = SmallRng::seed_from_u64(SEED + 5);
    let hs = mhbc_graph::generators::hub_separator(
        4,
        if ctx.quick { 250 } else { 1_000 },
        0.02,
        3,
        &mut rng,
    );
    let g = &hs.graph;
    let limit = optimal::eq7_limit(&dependency_profile_par(g, hs.hub, 0));
    for eps in [0.1, 0.05, 0.025] {
        let plan = plan_single(g, hs.hub, eps, 0.05, MuSource::Exact { threads: 0 })
            .expect("hub has positive BC");
        let runs: Vec<Vec<f64>> = (0..10)
            .map(|seed| {
                SingleSpaceSampler::new(
                    g,
                    hs.hub,
                    SingleSpaceConfig::new(plan.iterations, seed).with_trace(),
                )
                .expect("valid config")
                .run()
                .trace
                .expect("traced")
            })
            .collect();
        // Empirical T: first checkpoint where >= 90% of runs are within eps
        // of the Eq 7 limit (the quantity the guarantee actually concerns).
        let mut empirical = plan.iterations;
        'outer: for cp in checkpoints(plan.iterations) {
            let ok = runs
                .iter()
                .filter(|tr| ((tr[(cp as usize).min(tr.len() - 1)]) - limit).abs() <= eps)
                .count();
            if ok * 10 >= runs.len() * 9 {
                empirical = cp;
                break 'outer;
            }
        }
        tc.push(vec![
            "sep".into(),
            format!("{eps}"),
            plan.iterations.to_string(),
            empirical.to_string(),
            format!("{:.0}x", plan.iterations as f64 / empirical as f64),
        ]);
    }
    tc.emit(&ctx.out, "f3c").expect("emit f3c");
}

// ---------------------------------------------------------------- F4 ----

fn f4(ctx: &Ctx) {
    let mut t = Table::new(
        "F4 - joint-space convergence: |rel-score err| vs T, with the Ineq 27 epsilon overlay",
        &["graph", "T", "median |err|", "q3 |err|", "eps(T) from Ineq 27"],
    );
    let ds = workloads::standard_suite(ctx.quick).remove(0); // ba
    let g = &ds.graph;
    let exact = exact_betweenness_par(g, 0);
    let mut order: Vec<usize> = (0..g.num_vertices()).collect();
    order.sort_by(|&a, &b| exact[b].partial_cmp(&exact[a]).expect("finite"));
    let probes: Vec<Vertex> = (0..4).map(|i| order[i * 8] as Vertex).collect();
    let stationary = optimal::stationary_relative_matrix(g, &probes, 0);
    let mu_j = dependency_profile_par(g, probes[1], 0).mu().expect("positive BC");

    let max_t = ctx.budget(g.num_vertices()) * 4;
    let cps = checkpoints(max_t);
    let mut errs = vec![Vec::new(); cps.len()];
    let mut mj_at = vec![Vec::new(); cps.len()];
    for run in 0..ctx.runs() {
        let cfg = JointSpaceConfig::new(max_t, SEED ^ (run * 17)).with_trace_pair(0, 1);
        let est = JointSpaceSampler::new(g, &probes, cfg).expect("valid probes").run();
        let trace = est.trace.as_deref().expect("traced");
        for (ci, &cp) in cps.iter().enumerate() {
            let v = trace[cp as usize];
            if v.is_finite() {
                errs[ci].push((v - stationary[0][1]).abs());
            }
            // |M(j)| grows roughly proportionally with T.
            mj_at[ci].push(est.counts[1] as f64 * cp as f64 / max_t as f64);
        }
    }
    for (ci, &cp) in cps.iter().enumerate() {
        let (_, q3) = stats::quartiles(&errs[ci]);
        let mj = stats::mean(&mj_at[ci]).max(2.0);
        t.push(vec![
            "ba".into(),
            cp.to_string(),
            e5(stats::median(&errs[ci])),
            e5(q3),
            f(bounds::achievable_epsilon(mj as u64, mu_j, 0.05)),
        ]);
    }
    t.emit(&ctx.out, "f4").expect("emit f4");
}

// ---------------------------------------------------------------- F5 ----

fn f5(ctx: &Ctx) {
    let mut t = Table::new(
        "F5 - Eq 7 multiset reading ablation: all-iterations (time-average) vs accepted-only",
        &[
            "graph",
            "probe",
            "BC(r)",
            "eq7 limit",
            "all-iter estimate",
            "accepted-only estimate",
            "acceptance",
        ],
    );
    for ds in workloads::standard_suite(ctx.quick)
        .into_iter()
        .filter(|d| d.name == "ba" || d.name == "sep")
    {
        let g = &ds.graph;
        let exact = exact_betweenness_par(g, 0);
        let r = ds.separator_probe.unwrap_or(probes::select_probes(&exact).hub);
        let limit = optimal::eq7_limit(&dependency_profile_par(g, r, 0));
        let budget = ctx.budget(g.num_vertices()) * 2;
        let mut std_est = Vec::new();
        let mut lit_est = Vec::new();
        let mut acc = Vec::new();
        for run in 0..ctx.runs() {
            let seed = SEED ^ (run * 13);
            let a = SingleSpaceSampler::new(g, r, SingleSpaceConfig::new(budget, seed))
                .expect("valid config")
                .run();
            let b =
                SingleSpaceSampler::new(g, r, SingleSpaceConfig::new(budget, seed).accepted_only())
                    .expect("valid config")
                    .run();
            std_est.push(a.bc);
            lit_est.push(b.bc);
            acc.push(a.acceptance_rate);
        }
        t.push(vec![
            ds.name.into(),
            if ds.separator_probe.is_some() { "separator".into() } else { "hub".to_string() },
            f(exact[r as usize]),
            f(limit),
            f(stats::mean(&std_est)),
            f(stats::mean(&lit_est)),
            f(stats::mean(&acc)),
        ]);
    }
    t.emit(&ctx.out, "f5").expect("emit f5");
}

// ---------------------------------------------------------------- F6 ----

fn f6(ctx: &Ctx) {
    let mut t = Table::new(
        "F6 - burn-in and initial-state ablation (mean |err| vs Eq 7 limit, x1e-5)",
        &["graph", "init", "burn-in", "mean |err|", "std"],
    );
    for ds in workloads::standard_suite(ctx.quick)
        .into_iter()
        .filter(|d| d.name == "ba" || d.name == "sep")
    {
        let g = &ds.graph;
        let exact = exact_betweenness_par(g, 0);
        let r = ds.separator_probe.unwrap_or(probes::select_probes(&exact).hub);
        let limit = optimal::eq7_limit(&dependency_profile_par(g, r, 0));
        let budget = ctx.budget(g.num_vertices()) * 2;
        // Worst-case initial state: minimum positive dependency... the
        // probe itself (zero dependency) is even harsher.
        let inits: Vec<(&str, Option<Vertex>)> = vec![("uniform", None), ("probe-itself", Some(r))];
        for (ilabel, init) in inits {
            for frac in [0u64, 1, 10] {
                let burn = budget * frac / 100;
                let mut errs = Vec::new();
                for run in 0..ctx.runs() {
                    let mut cfg =
                        SingleSpaceConfig::new(budget, SEED ^ (run * 37)).with_burn_in(burn);
                    if let Some(v) = init {
                        cfg = cfg.with_initial(v);
                    }
                    let est = SingleSpaceSampler::new(g, r, cfg).expect("valid config").run();
                    errs.push((est.bc - limit).abs());
                }
                t.push(vec![
                    ds.name.into(),
                    ilabel.into(),
                    format!("{frac}%"),
                    e5(stats::mean(&errs)),
                    e5(stats::std_dev(&errs)),
                ]);
            }
        }
    }
    t.emit(&ctx.out, "f6").expect("emit f6");
}

// ---------------------------------------------------------------- F7 ----

fn f7(ctx: &Ctx) {
    let mut t = Table::new(
        "F7 - scaling: exact Brandes vs MH sampling (fixed T = 2000) as n grows",
        &["n", "m", "brandes ms", "mh ms", "speedup", "corr |err|"],
    );
    for (n, g) in workloads::ba_size_sweep(ctx.quick) {
        // Cap exact Brandes cost on the big end.
        let brandes_ms = if n <= 16_000 || ctx.quick {
            let started = Instant::now();
            let _ = exact_betweenness_par(&g, 0);
            Some(started.elapsed().as_secs_f64() * 1e3)
        } else {
            None
        };
        let r = (0..n as Vertex).max_by_key(|&v| g.degree(v)).expect("non-empty");
        let truth =
            if brandes_ms.is_some() { Some(mhbc_spd::exact_betweenness_of(&g, r)) } else { None };
        let started = Instant::now();
        let est = SingleSpaceSampler::new(&g, r, SingleSpaceConfig::new(2_000, SEED))
            .expect("valid config")
            .run();
        let mh_ms = started.elapsed().as_secs_f64() * 1e3;
        t.push(vec![
            n.to_string(),
            g.num_edges().to_string(),
            brandes_ms.map_or("-".into(), |b| format!("{b:.0}")),
            format!("{mh_ms:.0}"),
            brandes_ms.map_or("-".into(), |b| format!("{:.1}x", b / mh_ms)),
            truth.map_or("-".into(), |tr| e5((est.bc_corrected - tr).abs())),
        ]);
    }
    t.emit(&ctx.out, "f7").expect("emit f7");
}

// ---------------------------------------------------------------- F8 ----

fn f8(ctx: &Ctx) {
    use mhbc_core::oracle::ProbeOracle;
    use mhbc_mcmc::{fn_target, MetropolisHastings, Proposal, UniformProposal, WeightedProposal};
    use std::cell::RefCell;

    /// Neighbour random-walk proposal (Hastings ratio deg(v)/deg(v')).
    struct WalkProposal<'g> {
        g: &'g CsrGraph,
    }
    impl Proposal<u32> for WalkProposal<'_> {
        fn propose<R: rand::Rng + ?Sized>(&mut self, current: &u32, rng: &mut R) -> u32 {
            let nbrs = self.g.neighbors(*current);
            nbrs[rng.random_range(0..nbrs.len())]
        }
        fn ratio(&self, current: &u32, proposed: &u32) -> f64 {
            self.g.degree(*current) as f64 / self.g.degree(*proposed) as f64
        }
    }

    let mut t = Table::new(
        "F8 - proposal ablation (hub probe): acceptance and |err| vs the Eq 7 limit",
        &["graph", "proposal", "acceptance", "|err| x1e-5"],
    );
    for ds in
        workloads::standard_suite(true).into_iter().filter(|d| d.name == "ba" || d.name == "grid")
    {
        let g = &ds.graph;
        let n = g.num_vertices();
        let exact = exact_betweenness_par(g, 0);
        let r = probes::select_probes(&exact).hub;
        let limit = optimal::eq7_limit(&dependency_profile_par(g, r, 0));
        let budget = ctx.budget(n) * 2;

        // Generic runner over any proposal: time-average of delta/(n-1).
        let run_with = |which: &str| -> (f64, f64) {
            let oracle = RefCell::new(ProbeOracle::new(g, &[r]));
            let target = fn_target(|v: &u32| oracle.borrow_mut().dep(*v, 0));
            let rng = SmallRng::seed_from_u64(SEED + 4242);
            let mut sum = 0.0;
            let (mut steps, mut accepted) = (0u64, 0u64);
            macro_rules! drive {
                ($prop:expr) => {{
                    let mut chain = MetropolisHastings::new(target, $prop, 0u32, rng);
                    sum += chain.current_density();
                    for _ in 0..budget {
                        let out = chain.step();
                        sum += out.density;
                        steps += 1;
                        if out.accepted {
                            accepted += 1;
                        }
                    }
                }};
            }
            match which {
                "uniform" => drive!(UniformProposal::new(n)),
                "degree" => {
                    let w: Vec<f64> = (0..n as u32).map(|v| g.degree(v) as f64).collect();
                    drive!(WeightedProposal::new(&w))
                }
                _ => drive!(WalkProposal { g }),
            }
            let est = sum / ((budget + 1) as f64 * (n as f64 - 1.0));
            (accepted as f64 / steps as f64, (est - limit).abs())
        };

        for which in ["uniform", "degree", "walk"] {
            let (acc, err) = run_with(which);
            t.push(vec![ds.name.into(), which.into(), f(acc), e5(err)]);
        }
    }
    t.emit(&ctx.out, "f8").expect("emit f8");
}

// ---------------------------------------------------------- OVERHEAD ----

/// Segment-mode overhead guard: the segmented engine must not tax the
/// sampler's hot path by more than 2% ns/iter on `ba`, and must reproduce
/// the bare `step()` loop bit for bit. Panics (non-zero exit) otherwise.
fn overhead(ctx: &Ctx) {
    use mhbc_core::EngineConfig;

    let suite = workloads::standard_suite(ctx.quick);
    // --- Segment-mode overhead vs. the old run-to-completion loop on `ba`
    // (interleaved min-of-rounds; the manual `step()` loop below IS the
    // historical `run()` body). The engine must not tax the PR 2-4
    // hot-path wins: guard at <= 2% ns/iter.
    let ba = &suite[0];
    assert_eq!(ba.name, "ba", "suite order changed; update the overhead guard");
    let g = &ba.graph;
    let r = (0..g.num_vertices() as Vertex).max_by_key(|&v| g.degree(v)).expect("non-empty");
    let iterations = ctx.budget(g.num_vertices()) * 2;
    let config = SingleSpaceConfig::new(iterations, SEED);
    let overhead_rounds = 9;
    let (mut manual_best, mut engine_best) = (f64::MAX, f64::MAX);
    for round in 0..=overhead_rounds {
        // Manual loop: the pre-engine `run()` verbatim.
        let started = Instant::now();
        let mut sampler = SingleSpaceSampler::new(g, r, config.clone()).expect("valid config");
        for _ in 0..iterations {
            sampler.step();
        }
        let manual_est = sampler.finish();
        let manual_secs = started.elapsed().as_secs_f64();

        // Engine loop: segments + streaming diagnostics.
        let started = Instant::now();
        let (engine_est, _) = SingleSpaceSampler::new(g, r, config.clone())
            .expect("valid config")
            .into_engine(EngineConfig::fixed())
            .run();
        let engine_secs = started.elapsed().as_secs_f64();

        assert_eq!(
            manual_est.bc.to_bits(),
            engine_est.bc.to_bits(),
            "engine must reproduce the manual loop bitwise"
        );
        if round > 0 {
            manual_best = manual_best.min(manual_secs);
            engine_best = engine_best.min(engine_secs);
        }
    }
    let manual_ns = manual_best * 1e9 / iterations as f64;
    let engine_ns = engine_best * 1e9 / iterations as f64;
    let overhead_pct = (engine_ns / manual_ns - 1.0) * 100.0;
    eprintln!(
        "[overhead] segment overhead on ba: manual {manual_ns:.0} ns/iter, engine {engine_ns:.0} \
         ns/iter, overhead {overhead_pct:+.2}%"
    );
    assert!(
        overhead_pct <= 2.0,
        "segment-mode overhead {overhead_pct:.2}% exceeds the 2% guard \
         (manual {manual_ns:.1} ns/iter vs engine {engine_ns:.1} ns/iter)"
    );
}

// ---------------------------------------------------------------- F9 ----

fn f9(ctx: &Ctx) {
    let mut t = Table::new(
        "F9 - soundness: Eq 7's true limit vs BC(r) (structural bias), and what each estimator reports",
        &["graph", "probe", "BC(r)", "eq7 limit", "bias %", "eq7 @budget", "corrected @budget"],
    );
    for ds in workloads::standard_suite(ctx.quick) {
        let g = &ds.graph;
        let exact = exact_betweenness_par(g, 0);
        for (label, r) in probe_list(g, &exact, ds.separator_probe) {
            let truth = exact[r as usize];
            let limit = optimal::eq7_limit(&dependency_profile_par(g, r, 0));
            let budget = ctx.budget(g.num_vertices()) * 2;
            let est = SingleSpaceSampler::new(g, r, SingleSpaceConfig::new(budget, SEED))
                .expect("valid config")
                .run();
            t.push(vec![
                ds.name.into(),
                label.into(),
                f(truth),
                f(limit),
                format!("{:.1}", (limit / truth - 1.0) * 100.0),
                f(est.bc),
                f(est.bc_corrected),
            ]);
        }
    }
    t.emit(&ctx.out, "f9").expect("emit f9");
}
