//! Multi-probe budget scheduling: many single-space estimations sharing one
//! iteration budget, allocated where the uncertainty is.
//!
//! The `rank` workload asks for estimates of many probes at once. A fixed
//! split gives every probe `budget / k` iterations — wasteful, because
//! confidence shrinks at very different rates across probes (high-`µ(r)`
//! probes mix slowly; zero-betweenness probes converge instantly). The
//! probe scheduler ([`run_probe_schedule`]) instead runs the probes'
//! [`EstimationEngine`]s
//! **round-robin by segment**: one warm-up sweep gives every probe a first
//! confidence interval, after which each segment of the remaining budget
//! goes to the probe with the **widest interval** among those that have not
//! yet reached their target. Probes that hit the per-probe
//! [`StoppingRule`] drop out of the rotation, so their share of the budget
//! flows to the hard cases.
//!
//! The schedule is deterministic: interval widths are pure functions of the
//! per-probe seeds, and ties break toward the lowest probe index.
//!
//! **Cost.** The probes' chains all read one [`ProbeOracle`] over the whole
//! probe set, each its own column. One SPD pass from a source yields its
//! dependency on every probe (Eq 4), so a schedule costs one pass per
//! *distinct* source across all probes ([`ScheduleOutcome::spd_passes`],
//! at most `n`), however many chains visit it. Each chain still reads
//! exactly the value its own one-probe cache would have held (the targeted
//! pass is exact at every probe), so sharing changes no estimate, interval,
//! grant or stopping decision. The chains run on the calling thread, one
//! segment at a time; with [`run_probe_schedule_with_prefetch`], each
//! segment first computes its chain's missing rows across the prefetch
//! threads ([`crate::pipeline`]), which changes no output either: a
//! prefetched row is counted by the chain whose segment prefetched it, as
//! that chain's own miss would have been.
//!
//! [`ProbeOracle`]: crate::oracle::ProbeOracle

use crate::engine::{AdaptiveReport, EngineConfig, EstimationEngine, StopReason};
use crate::pipeline::PrefetchConfig;
use crate::single::{SingleSpaceConfig, SingleSpaceEstimate, SingleSpaceSampler};
use crate::CoreError;
use mhbc_graph::Vertex;
use mhbc_mcmc::monitor::normal_upper_quantile;
use mhbc_mcmc::StoppingRule;
use mhbc_spd::SpdView;

/// Configuration for [`run_probe_schedule`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleConfig {
    /// Total iteration budget shared by all probes (respected up to one
    /// segment of overshoot — the scheduler never splits a segment).
    pub budget: u64,
    /// Scheduling granularity: iterations per slice.
    pub segment: u64,
    /// Per-probe stopping target. With [`StoppingRule::FixedIterations`]
    /// no probe ever "finishes" early and the schedule degenerates to an
    /// even round-robin split — the fixed-budget baseline.
    pub target: StoppingRule,
    /// Base seed; probe `i` runs with `seed + i`.
    pub seed: u64,
}

impl ScheduleConfig {
    /// Adaptive schedule targeting a per-probe standard error.
    pub fn target_stderr(budget: u64, epsilon: f64, delta: f64, seed: u64) -> Self {
        ScheduleConfig {
            budget,
            segment: EngineConfig::DEFAULT_SEGMENT,
            target: StoppingRule::TargetStderr { epsilon, delta },
            seed,
        }
    }

    /// Overrides the scheduling segment (clamped to ≥ 1).
    pub fn with_segment(mut self, segment: u64) -> Self {
        self.segment = segment.max(1);
        self
    }
}

/// Per-probe outcome of a scheduled run.
#[derive(Debug, Clone)]
pub struct ProbeOutcome {
    /// The probe vertex.
    pub probe: Vertex,
    /// Iterations this probe received.
    pub allocated: u64,
    /// Whether the per-probe target was reached (always `false` under
    /// `FixedIterations`).
    pub reached: bool,
    /// The `(1−δ)` confidence half-width at the end (`inf` when the probe
    /// never completed two observation batches).
    pub ci_halfwidth: f64,
    /// The probe's finished estimate.
    pub estimate: SingleSpaceEstimate,
    /// The probe's engine report.
    pub report: AdaptiveReport,
}

/// Result of [`run_probe_schedule`].
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// Per-probe outcomes, in input order.
    pub probes: Vec<ProbeOutcome>,
    /// Total iterations spent across all probes.
    pub spent: u64,
    /// Scheduling decisions taken (segments granted).
    pub rounds: u64,
    /// SPD passes for the whole probe set: the rows of the cache the
    /// probes' chains share. Each row is counted by the one probe whose
    /// chain added it, so this is the sum of the probes'
    /// `estimate.spd_passes`.
    pub spd_passes: u64,
}

impl ScheduleOutcome {
    /// Whether every probe reached its target within the budget.
    pub fn all_reached(&self) -> bool {
        self.probes.iter().all(|p| p.reached)
    }
}

/// The confidence z-multiplier for a stopping rule's interval reporting
/// (δ from the rule when it has one; 95% otherwise).
fn ci_z(rule: StoppingRule) -> f64 {
    match rule {
        StoppingRule::TargetStderr { delta, .. } => normal_upper_quantile(delta / 2.0),
        _ => normal_upper_quantile(0.025),
    }
}

/// Runs single-space estimations for every probe in `probes`, sharing
/// `config.budget` iterations via widest-interval-first scheduling (module
/// docs). Probes must be distinct, in range, and retained by the view's
/// reduction.
pub fn run_probe_schedule(
    view: SpdView<'_>,
    probes: &[Vertex],
    config: ScheduleConfig,
) -> Result<ScheduleOutcome, CoreError> {
    run_probe_schedule_with_prefetch(view, probes, config, &PrefetchConfig::sequential())
}

/// [`run_probe_schedule`] with every probe's engine prefetching its
/// segments' rows across `prefetch.threads` threads. The outcome is
/// bit-identical at every thread count (module docs).
pub fn run_probe_schedule_with_prefetch(
    view: SpdView<'_>,
    probes: &[Vertex],
    config: ScheduleConfig,
    prefetch: &PrefetchConfig,
) -> Result<ScheduleOutcome, CoreError> {
    if probes.is_empty() {
        return Err(CoreError::ProbeSetTooSmall { len: 0 });
    }
    for (i, &p) in probes.iter().enumerate() {
        if probes[..i].contains(&p) {
            return Err(CoreError::DuplicateProbe { probe: p });
        }
    }
    let z = ci_z(config.target);
    let engine_cfg = EngineConfig::adaptive(config.target).with_segment(config.segment);

    // One engine per probe, all reading one shared dependency-row cache;
    // each may in principle consume the whole budget.
    let samplers = SingleSpaceSampler::sharing_oracle(view, probes, |i| {
        SingleSpaceConfig::new(config.budget, config.seed.wrapping_add(i as u64))
    })?;
    let mut engines: Vec<EstimationEngine<SingleSpaceSampler<'_>>> = samplers
        .into_iter()
        .map(|s| s.into_engine(engine_cfg).with_prefetch(prefetch.clone()))
        .collect();
    let mut finished: Vec<Option<StopReason>> = vec![None; probes.len()];
    let mut allocated = vec![0u64; probes.len()];
    let mut spent = 0u64;
    let mut rounds = 0u64;

    let width = |e: &EstimationEngine<SingleSpaceSampler<'_>>| -> f64 {
        let se = e.estimate_stderr();
        if se.is_finite() {
            z * se
        } else {
            f64::INFINITY
        }
    };

    let grant = |i: usize,
                 engines: &mut [EstimationEngine<SingleSpaceSampler<'_>>],
                 finished: &mut Vec<Option<StopReason>>,
                 allocated: &mut Vec<u64>,
                 spent: &mut u64,
                 rounds: &mut u64| {
        let engine = &mut engines[i];
        let before = engine.iterations();
        let reason = engine.step_segment();
        let delta = engine.iterations() - before;
        allocated[i] += delta;
        *spent += delta;
        *rounds += 1;
        finished[i] = reason;
    };

    // Warm-up sweep: every probe gets one segment (and with it a first
    // interval), in input order.
    for i in 0..probes.len() {
        if spent >= config.budget {
            break;
        }
        if finished[i].is_none() {
            grant(i, &mut engines, &mut finished, &mut allocated, &mut spent, &mut rounds);
        }
    }

    // Reallocation: widest interval first among unfinished probes.
    while spent < config.budget {
        let mut pick: Option<(usize, f64)> = None;
        for i in 0..probes.len() {
            if finished[i].is_some() {
                continue;
            }
            let w = width(&engines[i]);
            // Strict > keeps ties on the lowest index (deterministic).
            if pick.is_none_or(|(_, best)| w > best) {
                pick = Some((i, w));
            }
        }
        let Some((i, _)) = pick else { break }; // all probes reached their target
        grant(i, &mut engines, &mut finished, &mut allocated, &mut spent, &mut rounds);
    }

    // The rows of the shared cache; each probe's estimate counts the rows
    // its own chain added.
    let spd_passes = engines[0].driver().oracle().spd_passes();
    let outcomes = engines
        .into_iter()
        .enumerate()
        .map(|(i, engine)| {
            let ci = width(&engine);
            let reached = matches!(finished[i], Some(StopReason::TargetReached));
            let reason = finished[i].unwrap_or(StopReason::BudgetExhausted);
            let (estimate, report) = engine.finalize(reason);
            ProbeOutcome {
                probe: probes[i],
                allocated: allocated[i],
                reached,
                ci_halfwidth: ci,
                estimate,
                report,
            }
        })
        .collect();

    Ok(ScheduleOutcome { probes: outcomes, spent, rounds, spd_passes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhbc_graph::generators;
    use mhbc_graph::reduce::{reduce, ReduceLevel};
    use rand::{rngs::SmallRng, SeedableRng};
    use std::collections::HashSet;

    #[test]
    fn budget_flows_to_the_uncertain_probe() {
        // Probe 11 (the lollipop's path tail) has zero betweenness — an
        // identically-zero series that reaches any stderr target after one
        // segment. Probe 9 (mid-path) has a genuinely varying series, so
        // the reallocation loop should hand it the lion's share.
        let g = generators::lollipop(8, 4);
        let cfg = ScheduleConfig::target_stderr(4_000, 1e-6, 0.05, 7).with_segment(128);
        let out = run_probe_schedule(mhbc_spd::SpdView::direct(&g), &[9, 11], cfg).unwrap();
        let hard = &out.probes[0];
        let tail = &out.probes[1];
        assert_eq!(tail.allocated, 128, "zero-BC probe converges after one segment");
        assert!(tail.reached);
        assert_eq!(tail.estimate.bc, 0.0);
        assert!(
            hard.allocated > tail.allocated * 8,
            "hard probe got {} vs tail {}",
            hard.allocated,
            tail.allocated
        );
        assert!(out.spent >= 4_000, "budget exhausted chasing the tight target");
        assert!(out.rounds >= 2);
    }

    #[test]
    fn loose_targets_stop_everyone_early() {
        let g = generators::barbell(6, 3);
        let probes = [6u32, 7, 8];
        let cfg = ScheduleConfig::target_stderr(600_000, 0.25, 0.05, 3).with_segment(256);
        let out = run_probe_schedule(mhbc_spd::SpdView::direct(&g), &probes, cfg).unwrap();
        assert!(out.all_reached());
        assert!(out.spent < 600_000, "spent {} of a huge budget", out.spent);
        for p in &out.probes {
            assert!(p.reached);
            assert!(p.ci_halfwidth <= 0.25);
            assert!(p.estimate.bc > 0.0);
        }
    }

    #[test]
    fn fixed_rule_degenerates_to_even_round_robin() {
        let g = generators::barbell(5, 2);
        let probes = [5u32, 6];
        let cfg = ScheduleConfig {
            budget: 2_048,
            segment: 256,
            target: StoppingRule::FixedIterations,
            seed: 1,
        };
        let out = run_probe_schedule(mhbc_spd::SpdView::direct(&g), &probes, cfg).unwrap();
        // No probe ever finishes early; allocation differs by at most one
        // segment (the alternation is interval-driven but symmetric here).
        let a = out.probes[0].allocated;
        let b = out.probes[1].allocated;
        assert_eq!(a + b, out.spent);
        assert!(out.spent >= 2_048);
        assert!(!out.all_reached());
        assert!(a.abs_diff(b) <= 512, "allocations {a} vs {b}");
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generators::lollipop(6, 3);
        let cfg = ScheduleConfig::target_stderr(3_000, 0.02, 0.05, 9).with_segment(200);
        let run = || {
            run_probe_schedule(mhbc_spd::SpdView::direct(&g), &[0, 7], cfg)
                .unwrap()
                .probes
                .iter()
                .map(|p| (p.allocated, p.estimate.bc.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    type GoldenProbe = (u64, bool, u64, [u64; 4]);
    type GoldenCase = (&'static str, bool, [Vertex; 3], u64, u64, [GoldenProbe; 3]);

    /// The scheduler's outputs on lollipop, BA and duplication–divergence
    /// graphs, each through a direct view and a kept `Full` reduction:
    /// `(spent, rounds)`, and per probe `allocated`, `reached`, `iterations`
    /// and the bits of `bc`, `bc_corrected`, `ci_halfwidth` and
    /// `acceptance_rate`. Captured when every probe's chain still had its own
    /// oracle: sharing one must not move a single bit.
    #[rustfmt::skip]
    const GOLDEN: [GoldenCase; 6] = [
        ("lollipop", false, [7, 9, 10], 6144, 24, [
            (256, true, 256, [4602554559968212919, 4601317175267673582, 4580702788384841120, 4605599122056019968]),
            (1280, false, 1280, [4602566956290695335, 4598547806633504583, 4585413994924987064, 4603973604065515930]),
            (4608, false, 4608, [4602344640159290282, 4594432887734815830, 4585187265676966250, 4603179219131243634]),
        ]),
        ("lollipop", true, [7, 0, 3], 768, 3, [
            (256, true, 256, [4602554559968212919, 4601317175267673582, 4580702788384841120, 4605599122056019968]),
            (256, true, 256, [0, 0, 0, 4607182418800017408]),
            (256, true, 256, [0, 0, 0, 4607182418800017408]),
        ]),
        ("ba", false, [4, 2, 109], 6144, 24, [
            (3328, false, 3328, [4601088829450981871, 4597762471120201948, 4581575016710315118, 4603350028732495399]),
            (2560, true, 2560, [4599937629253027575, 4595344119115172611, 4581213374565830932, 4602988441647028634]),
            (256, true, 256, [4579376526127265162, 4558192031332106544, 4569355762691207506, 4586916220476850176]),
        ]),
        ("ba", true, [4, 2, 109], 6144, 24, [
            (3328, false, 3328, [4601088829450981871, 4597762471120201948, 4581575016710315118, 4603350028732495399]),
            (2560, true, 2560, [4599937629253027575, 4595344119115172611, 4581213374565830932, 4602988441647028634]),
            (256, true, 256, [4579376526127265162, 4558192031332106544, 4569355762691207506, 4586916220476850176]),
        ]),
        ("dup", false, [3, 6, 9], 5376, 21, [
            (4096, true, 4096, [4602944487538415549, 4599813991834906055, 4581003577956816708, 4604202742288744448]),
            (1024, true, 1024, [4603683316490865208, 4603083482955025729, 4581329365270370057, 4605616714242064384]),
            (256, true, 256, [4569858272055455237, 4569828147643232023, 0, 4607147234427928576]),
        ]),
        ("dup", true, [3, 6, 257], 6144, 24, [
            (3072, false, 3072, [4602935665595945853, 4599828074162978069, 4582754545281969647, 4604203475296496299]),
            (768, false, 768, [4603669668462553226, 4603071024624614265, 4581962417833039783, 4605575665807960747]),
            (2304, false, 2304, [4593679697661624926, 4580714018504350518, 4582672791215115198, 4601732750500924985]),
        ]),
    ];

    #[test]
    fn shared_oracle_keeps_every_output_bit_identical() {
        let mut rng = SmallRng::seed_from_u64(11);
        let graphs = [
            ("lollipop", generators::lollipop(8, 4)),
            ("ba", generators::barabasi_albert(200, 3, &mut rng)),
            ("dup", generators::duplication_divergence(300, 0.5, &mut rng)),
        ];
        let cfg = ScheduleConfig::target_stderr(6_000, 0.02, 0.05, 5).with_segment(256);
        let mut cases = GOLDEN.iter();
        for (name, g) in &graphs {
            let red = reduce(g, ReduceLevel::Full).unwrap();
            for view in [SpdView::direct(g), SpdView::preprocessed(g, &red)] {
                let &(gname, reduced, probes, spent, rounds, want) = cases.next().unwrap();
                assert_eq!((gname, reduced), (*name, view.reduced().is_some()));
                let out = run_probe_schedule(view, &probes, cfg).unwrap();
                assert_eq!((out.spent, out.rounds), (spent, rounds), "{name} reduced {reduced}");
                for (p, &(allocated, reached, iterations, bits)) in out.probes.iter().zip(&want) {
                    let e = &p.estimate;
                    let got_bits = [e.bc, e.bc_corrected, p.ci_halfwidth, e.acceptance_rate];
                    assert_eq!(
                        (p.allocated, p.reached, e.iterations, got_bits.map(f64::to_bits)),
                        (allocated, reached, iterations, bits),
                        "{name} reduced {reduced} probe {}",
                        p.probe
                    );
                }
            }
        }
        assert!(cases.next().is_none());
    }

    #[test]
    fn prefetch_threads_leave_the_outcome_bit_identical() {
        // Every output of the schedule, the SPD-pass split between the
        // probes' chains included, as bits.
        fn bits(out: &ScheduleOutcome) -> Vec<u64> {
            let mut b = vec![out.spent, out.rounds, out.spd_passes];
            for p in &out.probes {
                let (e, r) = (&p.estimate, &p.report);
                b.extend([p.probe as u64, p.allocated, p.reached as u64, p.ci_halfwidth.to_bits()]);
                b.extend([e.bc, e.bc_corrected, e.acceptance_rate].map(f64::to_bits));
                b.extend([e.iterations, e.spd_passes, r.iterations, r.segments]);
                b.extend([r.stderr, r.ess, r.tau, r.geweke_z].map(f64::to_bits));
            }
            b
        }
        let g = generators::duplication_divergence(300, 0.5, &mut SmallRng::seed_from_u64(3));
        let red = reduce(&g, ReduceLevel::Full).unwrap();
        assert!(red.stats().work_ratio() > 1.0);
        let cfg = ScheduleConfig::target_stderr(6_000, 0.02, 0.05, 5).with_segment(256);
        let views =
            [(SpdView::direct(&g), [3u32, 6, 9]), (SpdView::preprocessed(&g, &red), [3, 6, 257])];
        let misses =
            |out: &ScheduleOutcome| out.probes.iter().map(|p| p.estimate.oracle_stats.misses).sum();
        for (view, probes) in views {
            assert!(probes.iter().all(|&p| view.is_retained(p)));
            let alone = run_probe_schedule(view, &probes, cfg).unwrap();
            let (want, chain_misses): (_, u64) = (bits(&alone), misses(&alone));
            for threads in [1, 2, 4] {
                // A short prefetch chunk splits every segment.
                let prefetch = PrefetchConfig::with_threads(threads).with_depth(100);
                let out = run_probe_schedule_with_prefetch(view, &probes, cfg, &prefetch).unwrap();
                let reduced = view.reduced().is_some();
                assert_eq!(bits(&out), want, "reduced {reduced}, threads {threads}");
                // Prefetched rows are hits: only the chains' first states,
                // looked up before any segment, still miss.
                let expected = if threads == 1 { chain_misses } else { probes.len() as u64 };
                assert_eq!(misses(&out), expected, "reduced {reduced}, threads {threads}");
            }
        }
    }

    #[test]
    fn one_spd_pass_per_distinct_source_across_probes() {
        let g = generators::duplication_divergence(300, 0.5, &mut SmallRng::seed_from_u64(3));
        let view = SpdView::direct(&g);
        let probes = [3u32, 6, 9];
        let cfg = ScheduleConfig::target_stderr(6_000, 0.02, 0.05, 5).with_segment(256);
        let out = run_probe_schedule(view, &probes, cfg).unwrap();
        let per_probe: u64 = out.probes.iter().map(|p| p.estimate.spd_passes).sum();
        assert_eq!(out.spd_passes, per_probe);
        assert!(out.spd_passes <= g.num_vertices() as u64, "{} passes", out.spd_passes);
        // The same chains one by one, each with its own oracle: the same
        // estimates for strictly more SPD passes.
        let mut alone = 0;
        for (i, p) in out.probes.iter().enumerate() {
            let config = SingleSpaceConfig::new(p.allocated, cfg.seed + i as u64);
            let solo = SingleSpaceSampler::for_view(view, p.probe, config).unwrap().run();
            assert_eq!(solo.bc.to_bits(), p.estimate.bc.to_bits(), "probe {}", p.probe);
            alone += solo.spd_passes;
        }
        assert!(out.spd_passes < alone, "shared {} vs one by one {alone}", out.spd_passes);
    }

    #[test]
    fn pendant_rows_shrink_the_shared_cache() {
        // Single-edge arrivals grow pendant trees: their rows are their
        // attachments', so 300 sources have 186 keys, and the cache holds
        // one row per key.
        let mut rng = SmallRng::seed_from_u64(4);
        let g = generators::preferential_attachment_mixed(300, 1, 3, 0.6, &mut rng);
        let view = SpdView::direct(&g);
        let probes = [0u32, 1, 2];
        let keys = view.row_keys(&probes);
        let distinct: HashSet<u64> = g.vertices().map(|v| keys.key(v)).collect();
        assert_eq!(distinct.len(), 186);
        let cfg = ScheduleConfig::target_stderr(20_000, 0.005, 0.05, 5).with_segment(256);
        let out = run_probe_schedule(view, &probes, cfg).unwrap();
        assert_eq!(out.spd_passes, 186);
    }

    #[test]
    fn reduced_pendant_rows_shrink_the_shared_cache() {
        // The same graph through a full reduction, probed at three retained
        // attachments. A pruned source shares its attachment's row unless
        // the attachment is a probe; then its branch size picks the row. So
        // 300 sources have 180 keys (174 reduced vertices, and 194 keys on
        // the direct view), and the cache holds one row per key.
        let mut rng = SmallRng::seed_from_u64(4);
        let g = generators::preferential_attachment_mixed(300, 1, 3, 0.6, &mut rng);
        let red = reduce(&g, ReduceLevel::Full).unwrap();
        assert_eq!(red.stats().reduced_vertices, 174);
        let view = SpdView::preprocessed(&g, &red);
        let probes = [0u32, 2, 4];
        let keys = view.row_keys(&probes);
        let distinct: HashSet<u64> = g.vertices().map(|v| keys.key(v)).collect();
        assert_eq!(distinct.len(), 180);
        let cfg = ScheduleConfig::target_stderr(20_000, 0.005, 0.05, 5).with_segment(256);
        let out = run_probe_schedule(view, &probes, cfg).unwrap();
        assert_eq!(out.spd_passes, 180);
    }

    #[test]
    fn validation_errors() {
        let g = generators::path(10);
        let cfg = ScheduleConfig::target_stderr(100, 0.1, 0.05, 0);
        assert!(matches!(
            run_probe_schedule(mhbc_spd::SpdView::direct(&g), &[], cfg),
            Err(CoreError::ProbeSetTooSmall { len: 0 })
        ));
        assert!(matches!(
            run_probe_schedule(mhbc_spd::SpdView::direct(&g), &[1, 1], cfg),
            Err(CoreError::DuplicateProbe { probe: 1 })
        ));
        assert!(matches!(
            run_probe_schedule(mhbc_spd::SpdView::direct(&g), &[99], cfg),
            Err(CoreError::ProbeOutOfRange { .. })
        ));
        assert!(matches!(
            run_probe_schedule(mhbc_spd::SpdView::direct(&generators::path(2)), &[0], cfg),
            Err(CoreError::GraphTooSmall { num_vertices: 2 })
        ));
        // Every probe is checked before the shared oracle is built, so a
        // pruned probe anywhere in the set is a typed error, not a panic.
        let lollipop = generators::lollipop(5, 3);
        let red = reduce(&lollipop, ReduceLevel::Prune).unwrap();
        assert!(!red.is_retained(7));
        let view = SpdView::preprocessed(&lollipop, &red);
        assert!(matches!(
            run_probe_schedule(view, &[0, 7], cfg),
            Err(CoreError::PrunedProbe { probe: 7 })
        ));
        assert!(matches!(
            run_probe_schedule(view, &[0, 99], cfg),
            Err(CoreError::ProbeOutOfRange { probe: 99, .. })
        ));
    }
}
