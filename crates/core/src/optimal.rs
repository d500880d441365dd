//! Exact ground-truth quantities: the optimal distribution (Eq 5), `µ(r)`,
//! exact relative betweenness (Eq 23), the Theorem 2 balanced-separator
//! analysis — **and the true limits of the paper's estimators**.
//!
//! ## Soundness note (reproduction finding)
//!
//! The paper's Theorem 1 applies the MCMC Hoeffding bound of \[23\] with
//! `θ = (1/|V|) Σ_v f(v) = BC(r)` — a *uniform* average — but the chain's
//! stationary law is `P_r[v] ∝ δ_{v•}(r)` (Eq 5), so the time average of
//! Eq 7 converges to the *stationary* mean
//! `E_{P_r}[f] = Σ_v δ_{v•}(r)² / ((|V|−1) Σ_v δ_{v•}(r))`,
//! which by Cauchy–Schwarz **exceeds** `BC(r)` whenever the dependency
//! profile is non-constant. [`eq7_limit`] computes this true limit; the
//! bias `eq7_limit − BC(r)` is small exactly in the paper's Theorem 2
//! regime (near-flat profiles) and is quantified by experiment F9. The same
//! applies to the joint sampler's per-probe averages
//! ([`stationary_relative_from_profiles`] is their true limit), while the
//! *ratio* identity of Theorem 3 (Eq 22) is exact — detailed balance makes
//! the normalisations cancel. `SingleSpaceEstimate::bc_corrected` provides
//! an unbiased alternative (see `single.rs`).

use mhbc_graph::{algo, CsrGraph, Vertex};
use mhbc_spd::{dependency_profile_par, DependencyProfile};

/// The true limit of the paper's Eq 7 estimator: the stationary mean
/// `E_{P_r}[f] = Σ_v δ_{v•}(r)² / ((n−1) Σ_v δ_{v•}(r))` (see the module
/// soundness note). Returns 0 when `BC(r) = 0` (the chain only ever sees
/// zero dependencies).
pub fn eq7_limit(profile: &DependencyProfile) -> f64 {
    let total = profile.total();
    if total <= 0.0 {
        return 0.0;
    }
    let n = profile.profile.len();
    let sq: f64 = profile.profile.iter().map(|d| d * d).sum();
    sq / ((n as f64 - 1.0) * total)
}

/// The true limit of the joint sampler's `M(j)`-average (Theorem 4's
/// estimator): the `P_{rj}`-weighted relative score
/// `Σ_v (δ_{v•}(rj)/Σδ(rj)) · min{1, δ_{v•}(ri)/δ_{v•}(rj)}`.
///
/// (Eq 23 as *defined* is the uniform average computed by
/// [`relative_from_profiles`]; the sampler converges to this weighted
/// variant instead — see the module soundness note.)
pub fn stationary_relative_from_profiles(pi: &DependencyProfile, pj: &DependencyProfile) -> f64 {
    let total_j = pj.total();
    if total_j <= 0.0 {
        return f64::NAN;
    }
    pi.profile
        .iter()
        .zip(&pj.profile)
        .map(|(&a, &b)| (b / total_j) * min_dependency_ratio(a, b))
        .sum()
}

/// Stationary-weighted relative matrix: `out[i][j]` is the true limit of
/// the joint sampler's estimate of `BC_{r_j}(r_i)`.
pub fn stationary_relative_matrix(
    g: &CsrGraph,
    probes: &[Vertex],
    threads: usize,
) -> Vec<Vec<f64>> {
    let profiles: Vec<DependencyProfile> =
        probes.iter().map(|&r| dependency_profile_par(g, r, threads)).collect();
    let k = probes.len();
    let mut out = vec![vec![0.0; k]; k];
    for i in 0..k {
        for j in 0..k {
            out[i][j] = stationary_relative_from_profiles(&profiles[i], &profiles[j]);
        }
    }
    out
}

/// `min{1, num/den}` with the zero conventions used throughout (DESIGN.md):
/// a zero denominator yields 1 (covers both `0/0` — "equal influence" — and
/// `positive/0`, where the un-clamped ratio is `+∞`). This keeps the
/// diagonal `BC_r(r) = 1` exact and makes Eq 21 hold identically.
#[inline]
pub fn min_dependency_ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        (num / den).min(1.0)
    } else {
        1.0
    }
}

/// Exact relative betweenness `BC_{rj}(ri)` (Eq 23):
/// `(1/|V|) Σ_v min{1, δ_{v•}(ri) / δ_{v•}(rj)}`.
///
/// Costs `2n` SPD passes (two dependency profiles, parallelised).
pub fn exact_relative_betweenness(g: &CsrGraph, ri: Vertex, rj: Vertex, threads: usize) -> f64 {
    let pi = dependency_profile_par(g, ri, threads);
    let pj = dependency_profile_par(g, rj, threads);
    relative_from_profiles(&pi, &pj)
}

/// Eq 23 evaluated from precomputed profiles (shared by the matrix helper).
pub fn relative_from_profiles(pi: &DependencyProfile, pj: &DependencyProfile) -> f64 {
    let n = pi.profile.len();
    assert_eq!(n, pj.profile.len(), "profiles from different graphs");
    let sum: f64 =
        pi.profile.iter().zip(&pj.profile).map(|(&a, &b)| min_dependency_ratio(a, b)).sum();
    sum / n as f64
}

/// Exact relative-betweenness matrix for a probe set: `out[i][j] =
/// BC_{r_j}(r_i)`. Costs `|R| · n` SPD passes.
pub fn exact_relative_matrix(g: &CsrGraph, probes: &[Vertex], threads: usize) -> Vec<Vec<f64>> {
    let profiles: Vec<DependencyProfile> =
        probes.iter().map(|&r| dependency_profile_par(g, r, threads)).collect();
    let k = probes.len();
    let mut out = vec![vec![0.0; k]; k];
    for i in 0..k {
        for j in 0..k {
            out[i][j] = relative_from_profiles(&profiles[i], &profiles[j]);
        }
    }
    out
}

/// Theorem 2 analysis of a probe vertex `r`.
#[derive(Debug, Clone)]
pub struct Theorem2Report {
    /// Sizes of the components of `G \ r`, descending.
    pub component_sizes: Vec<usize>,
    /// Whether `r` is a vertex separator (`G \ r` has ≥ 2 components).
    pub is_separator: bool,
    /// Whether ≥ 2 components hold at least `balance_threshold · (n-1)`
    /// vertices (the paper's "balanced" condition, Θ(n) made concrete).
    pub is_balanced: bool,
    /// The constant `K = min_i V_i / max_i V_i` of the proof (with
    /// `V_i = (n-1) − |C_i|`); `None` when `r` is not a separator.
    pub k_constant: Option<f64>,
    /// Theorem 2's bound `µ(r) ≤ 1 + 1/K`; `None` when not a separator.
    pub mu_bound: Option<f64>,
}

/// Evaluates the Theorem 2 hypothesis for `r` using `balance_threshold` as
/// the concrete Θ(n) fraction (e.g. 0.1).
pub fn theorem2_report(g: &CsrGraph, r: Vertex, balance_threshold: f64) -> Theorem2Report {
    assert!((0.0..=1.0).contains(&balance_threshold));
    let sizes = algo::components_after_removal(g, r);
    let n_rest = g.num_vertices().saturating_sub(1);
    let is_separator = sizes.len() >= 2;
    let is_balanced =
        sizes.iter().filter(|&&s| (s as f64) >= balance_threshold * n_rest as f64).count() >= 2;
    let (k_constant, mu_bound) = if is_separator {
        // V_i = total vertices outside component i.
        let vs: Vec<f64> = sizes.iter().map(|&c| (n_rest - c) as f64).collect();
        let vmax = vs.iter().cloned().fold(f64::MIN, f64::max);
        let vmin = vs.iter().cloned().fold(f64::MAX, f64::min);
        if vmax > 0.0 && vmin > 0.0 {
            let k = vmin / vmax;
            (Some(k), Some(1.0 + 1.0 / k))
        } else {
            (None, None)
        }
    } else {
        (None, None)
    };
    Theorem2Report { component_sizes: sizes, is_separator, is_balanced, k_constant, mu_bound }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhbc_graph::generators;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn eq7_limit_exceeds_bc_for_skewed_profiles() {
        // Cauchy–Schwarz: the Eq 7 limit >= BC(r), strict for non-flat
        // profiles. A lollipop path vertex has a very skewed profile.
        let g = generators::lollipop(8, 4);
        let p = mhbc_spd::dependency_profile_par(&g, 8, 1);
        let (limit, bc) = (eq7_limit(&p), p.betweenness());
        assert!(limit > bc, "eq7 limit {limit} must exceed BC {bc}");
    }

    #[test]
    fn eq7_limit_close_to_bc_in_theorem2_regime() {
        // Balanced separator: the profile is near-flat, so the bias is tiny
        // — the regime where the paper's estimator behaves.
        let g = generators::barbell(15, 1);
        let p = mhbc_spd::dependency_profile_par(&g, 15, 1);
        let (limit, bc) = (eq7_limit(&p), p.betweenness());
        assert!(limit >= bc - 1e-12);
        assert!((limit - bc) / bc < 0.08, "relative bias should be small: limit {limit}, bc {bc}");
    }

    #[test]
    fn eq7_limit_of_star_centre_matches_hand_computation() {
        // Star n = 30: delta_v(0) = 28 for the 29 leaves. Limit = 28/29,
        // BC = 28/30.
        let g = generators::star(30);
        let p = mhbc_spd::dependency_profile_par(&g, 0, 1);
        assert!((eq7_limit(&p) - 28.0 / 29.0).abs() < 1e-12);
        assert!((p.betweenness() - 28.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn eq7_limit_zero_for_zero_bc() {
        let g = generators::star(6);
        let p = mhbc_spd::dependency_profile_par(&g, 2, 1);
        assert_eq!(eq7_limit(&p), 0.0);
    }

    #[test]
    fn stationary_relative_ratio_identity() {
        // Theorem 3 is exact for the *stationary* weighted scores:
        // w(i|j) / w(j|i) = (sum min)/(sum delta_j) * (sum delta_i)/(sum min)
        // = BC(ri)/BC(rj).
        let g = generators::barbell(6, 3);
        let (ri, rj) = (6u32, 7u32);
        let pi = mhbc_spd::dependency_profile_par(&g, ri, 1);
        let pj = mhbc_spd::dependency_profile_par(&g, rj, 1);
        let wij = stationary_relative_from_profiles(&pi, &pj);
        let wji = stationary_relative_from_profiles(&pj, &pi);
        let truth = pi.betweenness() / pj.betweenness();
        assert!(((wij / wji) - truth).abs() < 1e-12, "ratio {} vs {truth}", wij / wji);
    }

    #[test]
    fn stationary_matrix_diagonal_is_one() {
        let g = generators::barbell(4, 2);
        let m = stationary_relative_matrix(&g, &[4, 5], 1);
        assert!((m[0][0] - 1.0).abs() < 1e-12);
        assert!((m[1][1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn min_ratio_conventions() {
        assert_eq!(min_dependency_ratio(2.0, 4.0), 0.5);
        assert_eq!(min_dependency_ratio(4.0, 2.0), 1.0);
        assert_eq!(min_dependency_ratio(0.0, 2.0), 0.0);
        assert_eq!(min_dependency_ratio(2.0, 0.0), 1.0);
        assert_eq!(min_dependency_ratio(0.0, 0.0), 1.0);
    }

    #[test]
    fn relative_diagonal_is_one() {
        let g = generators::barbell(4, 2);
        for r in [0u32, 4, 5] {
            let v = exact_relative_betweenness(&g, r, r, 1);
            assert!((v - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn relative_orders_by_dominance() {
        // On a path, the centre dominates an off-centre vertex: every source
        // depends on the centre at least as much in min-ratio terms.
        let g = generators::path(9);
        let centre = 4u32;
        let off = 6u32;
        let centre_vs_off = exact_relative_betweenness(&g, centre, off, 1);
        let off_vs_centre = exact_relative_betweenness(&g, off, centre, 1);
        assert!(centre_vs_off > off_vs_centre, "{centre_vs_off} should exceed {off_vs_centre}");
    }

    #[test]
    fn matrix_agrees_with_pairwise() {
        let g = generators::barbell(4, 2);
        let probes = [4u32, 5, 0];
        let m = exact_relative_matrix(&g, &probes, 2);
        for (i, &ri) in probes.iter().enumerate() {
            for (j, &rj) in probes.iter().enumerate() {
                let direct = exact_relative_betweenness(&g, ri, rj, 1);
                assert!((m[i][j] - direct).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn theorem2_on_barbell_bridge() {
        // barbell(10, 1): bridge vertex 10 splits into two components of 10.
        let g = generators::barbell(10, 1);
        let rep = theorem2_report(&g, 10, 0.25);
        assert!(rep.is_separator);
        assert!(rep.is_balanced);
        assert_eq!(rep.component_sizes, vec![10, 10]);
        let k = rep.k_constant.unwrap();
        assert!((k - 1.0).abs() < 1e-12, "equal halves give K = 1");
        assert!((rep.mu_bound.unwrap() - 2.0).abs() < 1e-12);
        // The bound must dominate the true mu(r).
        let mu = mhbc_spd::dependency_profile_par(&g, 10, 2).mu().unwrap();
        assert!(mu <= rep.mu_bound.unwrap() + 1e-9, "mu {mu} exceeds bound");
    }

    #[test]
    fn theorem2_on_non_separator() {
        let g = generators::complete(6);
        let rep = theorem2_report(&g, 0, 0.1);
        assert!(!rep.is_separator);
        assert!(!rep.is_balanced);
        assert!(rep.mu_bound.is_none());
    }

    #[test]
    fn theorem2_unbalanced_separator() {
        // lollipop(8, 3): removing the clique-adjacent path vertex 8 leaves
        // components of sizes 8 and 2 — a separator, but unbalanced at 30%.
        let g = generators::lollipop(8, 3);
        let rep = theorem2_report(&g, 8, 0.3);
        assert!(rep.is_separator);
        assert!(!rep.is_balanced);
        assert_eq!(rep.component_sizes, vec![8, 2]);
    }

    #[test]
    fn theorem2_bound_holds_on_separator_family() {
        let mut rng = SmallRng::seed_from_u64(17);
        let hs = generators::hub_separator(3, 20, 0.15, 2, &mut rng);
        let rep = theorem2_report(&hs.graph, hs.hub, 0.2);
        assert!(rep.is_balanced);
        let mu = mhbc_spd::dependency_profile_par(&hs.graph, hs.hub, 2).mu().unwrap();
        assert!(
            mu <= rep.mu_bound.unwrap() + 1e-9,
            "mu {mu} must respect the Theorem 2 bound {}",
            rep.mu_bound.unwrap()
        );
    }
}
