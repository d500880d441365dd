//! (ε, δ) sample-size planning (Ineq 14 / 27).
//!
//! The number of iterations the paper's guarantee requires depends on the
//! concentration constant `µ(r)` (Ineq 11). Three ways to obtain it:
//!
//! - **exactly**, from the dependency profile (`n` SPD passes — only
//!   sensible when the plan is reused across many runs or in experiments);
//! - from the **Theorem 2 bound** `1 + 1/K` when `r` is a balanced vertex
//!   separator (a cheap `O(n + m)` component scan — the paper's "in several
//!   cases µ(r) is a constant" scenario);
//! - **supplied** by the caller from domain knowledge.

use crate::optimal::theorem2_report;
use crate::CoreError;
use mhbc_graph::{CsrGraph, Vertex};
use mhbc_mcmc::bounds;
use mhbc_spd::{dependency_profile_view_par, SpdView};

/// How to obtain `µ(r)` for planning.
#[derive(Debug, Clone, Copy)]
pub enum MuSource {
    /// Compute the exact value from the dependency profile (`n` SPD passes,
    /// parallelised over the given number of threads; 0 = all cores).
    Exact { threads: usize },
    /// Use Theorem 2's bound `1 + 1/K` (requires `r` to be a separator).
    TheoremTwo,
    /// Use a caller-supplied value (must be ≥ 1).
    Provided(f64),
}

/// A concrete sampling plan.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// The `µ(r)` value used.
    pub mu: f64,
    /// Exact `BC(r)`, when `µ(r)` came from the dependency profile
    /// ([`MuSource::Exact`]), which holds it at no extra cost.
    pub bc: Option<f64>,
    /// Iterations guaranteeing `P[|B̂C(r) − BC(r)| > ε] ≤ δ` (Ineq 14).
    pub iterations: u64,
    /// The requested additive error.
    pub epsilon: f64,
    /// The requested failure probability.
    pub delta: f64,
}

/// Errors from planning.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// Sampler-level validation failed.
    Core(CoreError),
    /// `r` has zero betweenness: µ(r) is undefined and no sampling is
    /// needed (the estimate is exactly 0).
    ZeroBetweenness,
    /// Theorem 2 requires `r` to be a vertex separator.
    NotASeparator,
    /// A provided µ was < 1 or non-finite.
    InvalidMu(f64),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Core(e) => write!(f, "{e}"),
            PlanError::ZeroBetweenness => {
                write!(f, "probe has zero betweenness; nothing to sample")
            }
            PlanError::NotASeparator => {
                write!(f, "Theorem 2 bound needs the probe to be a vertex separator")
            }
            PlanError::InvalidMu(mu) => write!(f, "invalid mu {mu} (must be finite and >= 1)"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Produces the iteration budget for estimating `BC(r)` within `epsilon`
/// with probability `1 − delta` (Theorem 1 / Ineq 14).
pub fn plan_single(
    g: &CsrGraph,
    r: Vertex,
    epsilon: f64,
    delta: f64,
    mu_source: MuSource,
) -> Result<Plan, PlanError> {
    plan_single_view(SpdView::direct(g), r, epsilon, delta, mu_source)
}

/// [`plan_single`] evaluating through a view: with a reduction active, the
/// exact `µ(r)` computation pays one SPD pass over the *reduced* CSR per
/// distinct dependency row instead of one full-graph pass per vertex — the
/// same saving the plan itself promises for the sampling run. `µ(r)` is
/// invariant under the reduction (densities are mapped exactly).
pub fn plan_single_view(
    view: SpdView<'_>,
    r: Vertex,
    epsilon: f64,
    delta: f64,
    mu_source: MuSource,
) -> Result<Plan, PlanError> {
    let n = view.num_vertices();
    if r as usize >= n {
        return Err(PlanError::Core(CoreError::ProbeOutOfRange { probe: r, num_vertices: n }));
    }
    if !view.is_retained(r) {
        return Err(PlanError::Core(CoreError::PrunedProbe { probe: r }));
    }
    let (mu, bc) = match mu_source {
        MuSource::Exact { threads } => {
            let profile = dependency_profile_view_par(view, r, threads);
            (profile.mu().ok_or(PlanError::ZeroBetweenness)?, Some(profile.betweenness()))
        }
        MuSource::TheoremTwo => {
            (theorem2_report(view.graph(), r, 0.0).mu_bound.ok_or(PlanError::NotASeparator)?, None)
        }
        MuSource::Provided(mu) => (mu, None),
    };
    if !(mu.is_finite() && mu >= 1.0) {
        return Err(PlanError::InvalidMu(mu));
    }
    Ok(Plan { mu, bc, iterations: bounds::required_samples(mu, epsilon, delta), epsilon, delta })
}

/// The planner's bound refitted from what a chain actually observed — the
/// "plan vs. actual" line the adaptive engine reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Refit {
    /// The plug-in concentration constant `µ̂(r)` (clamped to ≥ 1, its
    /// analytic lower bound).
    pub mu: f64,
    /// Ineq 14 re-evaluated at `µ̂(r)`: the budget the planner *would* have
    /// issued had it known the observed profile.
    pub iterations: u64,
    /// The observed integrated autocorrelation time `τ̂` (context: the
    /// CLT-style `TargetStderr` stop already accounts for it through the
    /// batch-means variance).
    pub tau: f64,
}

/// Refits the Ineq 14 budget from a finished run's observations
/// ([`crate::AdaptiveReport`]).
///
/// # The refit math
///
/// The a-priori plan is `T ≥ µ(r)²/(2ε²)·ln(2/δ)` (Ineq 14), where the
/// concentration constant is
///
/// ```text
/// µ(r) = n · max_v δ_{v•}(r) / Σ_v δ_{v•}(r)        (Ineq 11)
/// ```
///
/// — computable exactly only from the full dependency profile (`n` SPD
/// passes). But the sampler's *proposal stream* is uniform i.i.d. over
/// `V(G)` (independence MH), so over `T` proposals,
///
/// ```text
/// mean_t δ(proposal_t)  →  Σ_v δ_v / n      (uniform mean)
/// max_t  δ(proposal_t)  →  max_v δ_v        (once the support is swept)
/// ```
///
/// and the plug-in `µ̂ = max_t δ(proposal_t) / mean_t δ(proposal_t)`
/// converges to `µ(r)` from below (the max is reached late, the mean is
/// unbiased throughout) — a **free** by-product of the run: the proposals'
/// densities were all evaluated anyway. Re-running Ineq 14 at `µ̂` gives
/// the budget the planner would have issued with hindsight; comparing it
/// to the actual adaptive stopping point (which uses the observed
/// *variance*, not the worst-case bound, and so is usually smaller still)
/// quantifies how much the a-priori bound overshoots (experiment F3c).
///
/// `τ̂` is reported alongside: Ineq 14's constant absorbs the chain's
/// mixing through the minorisation `λ = 1/µ(r)`, while the CLT view prices
/// it as `Var · τ̂ / T` — when `τ̂ ≪ µ̂²` the bound is loose and adaptive
/// stopping wins by roughly that ratio.
///
/// Returns `None` when the run observed no positive proposal density
/// (zero-betweenness probe: `µ(r)` is undefined and no sampling is needed).
pub fn refit_plan(epsilon: f64, delta: f64, report: &crate::AdaptiveReport) -> Option<Refit> {
    let mu_hat = report.observed_mu?;
    if !(mu_hat.is_finite() && mu_hat > 0.0) {
        return None;
    }
    let mu = mu_hat.max(1.0);
    Some(Refit { mu, iterations: bounds::required_samples(mu, epsilon, delta), tau: report.tau })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhbc_graph::generators;

    #[test]
    fn exact_plan_on_balanced_separator_is_size_independent() {
        // Theorem 2 regime: iteration budgets barely move as n grows.
        let budgets: Vec<u64> = [6usize, 12, 24]
            .iter()
            .map(|&k| {
                let g = generators::barbell(k, 1);
                plan_single(&g, k as u32, 0.05, 0.05, MuSource::Exact { threads: 1 })
                    .unwrap()
                    .iterations
            })
            .collect();
        let (min, max) = (budgets.iter().min().unwrap(), budgets.iter().max().unwrap());
        assert!(
            *max as f64 / *min as f64 <= 1.6,
            "budgets should be near-constant, got {budgets:?}"
        );
    }

    #[test]
    fn theorem2_plan_dominates_exact_plan() {
        let g = generators::barbell(10, 1);
        let exact = plan_single(&g, 10, 0.05, 0.05, MuSource::Exact { threads: 1 }).unwrap();
        let bound = plan_single(&g, 10, 0.05, 0.05, MuSource::TheoremTwo).unwrap();
        assert!(bound.mu >= exact.mu);
        assert!(bound.iterations >= exact.iterations);
    }

    #[test]
    fn provided_mu_is_used_verbatim() {
        let g = generators::barbell(5, 1);
        let p = plan_single(&g, 5, 0.1, 0.1, MuSource::Provided(3.0)).unwrap();
        assert_eq!(p.mu, 3.0);
        assert_eq!(p.iterations, mhbc_mcmc::bounds::required_samples(3.0, 0.1, 0.1));
    }

    #[test]
    fn error_paths() {
        let g = generators::star(8);
        // A leaf has zero betweenness.
        assert_eq!(
            plan_single(&g, 3, 0.1, 0.1, MuSource::Exact { threads: 1 }).unwrap_err(),
            PlanError::ZeroBetweenness
        );
        // The centre of a complete graph is not a separator.
        let k = generators::complete(5);
        assert_eq!(
            plan_single(&k, 0, 0.1, 0.1, MuSource::TheoremTwo).unwrap_err(),
            PlanError::NotASeparator
        );
        assert_eq!(
            plan_single(&g, 0, 0.1, 0.1, MuSource::Provided(0.2)).unwrap_err(),
            PlanError::InvalidMu(0.2)
        );
        assert!(matches!(
            plan_single(&g, 99, 0.1, 0.1, MuSource::Provided(2.0)).unwrap_err(),
            PlanError::Core(CoreError::ProbeOutOfRange { .. })
        ));
    }

    #[test]
    fn refit_recovers_mu_from_a_long_run() {
        use crate::engine::EngineConfig;
        use crate::{SingleSpaceConfig, SingleSpaceSampler};
        // Long fixed run on a small graph: the proposal stream sweeps the
        // whole support, so the plug-in mu approaches the exact one.
        let g = generators::barbell(6, 1);
        let r = 6;
        let exact = plan_single(&g, r, 0.05, 0.05, MuSource::Exact { threads: 1 }).unwrap();
        let (_, report) = SingleSpaceSampler::new(&g, r, SingleSpaceConfig::new(20_000, 3))
            .unwrap()
            .into_engine(EngineConfig::fixed())
            .run();
        let refit = refit_plan(0.05, 0.05, &report).expect("positive-BC probe refits");
        assert!(
            (refit.mu - exact.mu).abs() / exact.mu < 0.02,
            "refit mu {} vs exact {}",
            refit.mu,
            exact.mu
        );
        // Same epsilon/delta, near-equal mu: near-equal budgets.
        let ratio = refit.iterations as f64 / exact.iterations as f64;
        assert!((0.9..1.1).contains(&ratio), "budget ratio {ratio}");
        assert!(refit.tau.is_finite() && refit.tau >= 1.0);
    }

    #[test]
    fn refit_is_none_for_zero_betweenness_probes() {
        use crate::engine::EngineConfig;
        use crate::{SingleSpaceConfig, SingleSpaceSampler};
        let g = generators::star(10);
        let (_, report) = SingleSpaceSampler::new(&g, 3, SingleSpaceConfig::new(500, 1))
            .unwrap()
            .into_engine(EngineConfig::fixed())
            .run();
        assert!(refit_plan(0.05, 0.05, &report).is_none());
    }

    #[test]
    fn plan_through_reduction_matches_direct_plan() {
        use mhbc_graph::reduce::{reduce, ReduceLevel};
        let g = generators::lollipop(7, 4);
        let red = reduce(&g, ReduceLevel::Full).unwrap();
        let r = 6; // the path's clique attachment: retained, positive BC
        let direct = plan_single(&g, r, 0.05, 0.05, MuSource::Exact { threads: 1 }).unwrap();
        let through = plan_single_view(
            SpdView::preprocessed(&g, &red),
            r,
            0.05,
            0.05,
            MuSource::Exact { threads: 1 },
        )
        .unwrap();
        assert!((direct.mu - through.mu).abs() < 1e-9, "{} vs {}", direct.mu, through.mu);
        assert_eq!(direct.iterations, through.iterations);
        let exact = mhbc_spd::exact_betweenness_of(&g, r);
        assert!(exact > 0.0);
        for (name, plan) in [("direct", direct), ("reduced", through)] {
            let bc = plan.bc.expect("an exact-mu plan holds the exact BC");
            assert!((bc - exact).abs() <= 1e-12 * exact, "{name}: {bc} vs {exact}");
        }
        let bound = plan_single(&g, r, 0.05, 0.05, MuSource::Provided(2.0)).unwrap();
        assert_eq!(bound.bc, None);
        // A pruned probe plans as a dedicated error.
        assert!(matches!(
            plan_single_view(
                SpdView::preprocessed(&g, &red),
                9,
                0.05,
                0.05,
                MuSource::Provided(2.0)
            ),
            Err(PlanError::Core(CoreError::PrunedProbe { probe: 9 }))
        ));
    }

    #[test]
    fn planned_budget_actually_achieves_epsilon() {
        // End-to-end (eps, delta) check on a small graph: run the planned
        // budget repeatedly; the failure fraction must respect delta (with
        // slack for the bound's conservativeness — it overshoots).
        let g = generators::barbell(6, 1);
        let r = 6;
        let plan = plan_single(&g, r, 0.08, 0.2, MuSource::Exact { threads: 1 }).unwrap();
        let exact = mhbc_spd::exact_betweenness_of(&g, r);
        let runs = 20;
        let mut failures = 0;
        for seed in 0..runs {
            let est = crate::SingleSpaceSampler::new(
                &g,
                r,
                crate::SingleSpaceConfig::new(plan.iterations, seed),
            )
            .unwrap()
            .run();
            if (est.bc - exact).abs() > plan.epsilon {
                failures += 1;
            }
        }
        assert!(failures <= 2, "failures {failures}/{runs} exceed the planned delta with margin");
    }
}
