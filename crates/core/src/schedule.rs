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

use crate::engine::{AdaptiveReport, EngineConfig, EstimationEngine, StopReason};
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

    // One engine per probe; each may in principle consume the whole budget.
    let mut engines: Vec<Option<EstimationEngine<SingleSpaceSampler<'_>>>> = probes
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            let sampler_cfg =
                SingleSpaceConfig::new(config.budget, config.seed.wrapping_add(i as u64));
            SingleSpaceSampler::for_view(view, p, sampler_cfg)
                .map(|s| Some(s.into_engine(engine_cfg)))
        })
        .collect::<Result<_, _>>()?;
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
                 engines: &mut Vec<Option<EstimationEngine<SingleSpaceSampler<'_>>>>,
                 finished: &mut Vec<Option<StopReason>>,
                 allocated: &mut Vec<u64>,
                 spent: &mut u64,
                 rounds: &mut u64| {
        let engine = engines[i].as_mut().expect("unfinished engines exist");
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
            let w = width(engines[i].as_ref().expect("present until finished"));
            // Strict > keeps ties on the lowest index (deterministic).
            if pick.is_none_or(|(_, best)| w > best) {
                pick = Some((i, w));
            }
        }
        let Some((i, _)) = pick else { break }; // all probes reached their target
        grant(i, &mut engines, &mut finished, &mut allocated, &mut spent, &mut rounds);
    }

    let outcomes = engines
        .into_iter()
        .enumerate()
        .map(|(i, engine)| {
            let engine = engine.expect("engine present");
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

    Ok(ScheduleOutcome { probes: outcomes, spent, rounds })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhbc_graph::generators;

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
    }
}
