//! Streaming convergence diagnostics and adaptive stopping.
//!
//! The offline helpers in [`crate::diagnostics`] take a full trace slice
//! and rescan it per query — fine for post-hoc analysis (experiment F2),
//! useless inside a sampling loop that wants a continue/stop decision every
//! segment. [`DiagnosticsMonitor`] is the *online* counterpart: it absorbs
//! the chain's observation series incrementally in O(1) amortised time per
//! observation and bounded memory, and answers the three questions an
//! adaptive stopping rule needs —
//!
//! - **batch-means standard error** of the series mean (the MCMC standard
//!   error that accounts for autocorrelation),
//! - **effective sample size** via batched autocorrelation
//!   (`ESS = n · Var(x) / (b · Var(batch means))` — the classic
//!   batch-means estimate of `n/τ`),
//! - **Geweke drift** (`z` between the earliest and latest batch means).
//!
//! All three are computed from a bounded ring of *batch means*: incoming
//! observations accumulate into a current batch; when
//! [`MAX_BATCHES`](DiagnosticsMonitor::MAX_BATCHES) batches exist, adjacent
//! pairs merge and the batch size doubles — the standard doubling scheme
//! that keeps memory constant for arbitrarily long chains while the batch
//! size grows past the autocorrelation time (which is what makes the
//! batch-means variance consistent). No query ever rescans the series.
//!
//! [`StoppingRule`] turns the monitor into a decision: run a fixed budget,
//! stop at a target standard error (an `(ε, δ)`-style CLT test), or
//! stop at a target effective sample size — the adaptive sample-size
//! selection of Chehreghani et al. 2018 ("Novel Adaptive Algorithms …"),
//! which dominates fixed a-priori budgets whenever the planner's `µ(r)`
//! bound is conservative (it usually is; see experiment F3c).
//!
//! The monitor's full state round-trips through [`DiagnosticsMonitor::encode`] /
//! [`DiagnosticsMonitor::decode`] bit-exactly, so checkpointed runs resume
//! with identical future stopping decisions.

use crate::diagnostics::RunningMoments;

/// Online convergence diagnostics over a bounded batch-means ring; see the
/// module docs for the estimators and their complexity.
///
/// ```
/// use mhbc_mcmc::monitor::DiagnosticsMonitor;
///
/// let mut m = DiagnosticsMonitor::new();
/// // An i.i.d.-ish series: ESS should be close to n.
/// let mut x = 0u64;
/// for _ in 0..4096 {
///     x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
///     m.push((x >> 11) as f64 / (1u64 << 53) as f64);
/// }
/// assert_eq!(m.count(), 4096);
/// assert!(m.ess() > 1000.0);
/// assert!(m.batch_stderr() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct DiagnosticsMonitor {
    /// Exact moments of the full series (count, mean, M2).
    total: RunningMoments,
    /// Largest observation seen.
    max_observed: f64,
    /// Completed batch means, oldest first (`len() <= MAX_BATCHES`).
    batch_means: Vec<f64>,
    /// Observations per completed batch (doubles when the ring fills).
    batch_size: u64,
    /// Sum of the in-progress batch.
    cur_sum: f64,
    /// Observations in the in-progress batch.
    cur_count: u64,
}

impl Default for DiagnosticsMonitor {
    fn default() -> Self {
        Self::new()
    }
}

impl DiagnosticsMonitor {
    /// Ring capacity: when this many batches complete, adjacent pairs merge
    /// and the batch size doubles. 64 batches keep the batch-means variance
    /// estimate usable (≥ 32 means after a merge) at constant memory.
    pub const MAX_BATCHES: usize = 64;

    /// Initial observations per batch. Small enough that short runs get
    /// diagnostics quickly; the doubling scheme grows it as needed.
    pub const INITIAL_BATCH: u64 = 32;

    /// Empty monitor.
    pub fn new() -> Self {
        DiagnosticsMonitor {
            total: RunningMoments::new(),
            max_observed: f64::NEG_INFINITY,
            batch_means: Vec::with_capacity(Self::MAX_BATCHES),
            batch_size: Self::INITIAL_BATCH,
            cur_sum: 0.0,
            cur_count: 0,
        }
    }

    /// Absorbs one observation (O(1) amortised).
    pub fn push(&mut self, x: f64) {
        self.total.push(x);
        if x > self.max_observed {
            self.max_observed = x;
        }
        self.cur_sum += x;
        self.cur_count += 1;
        if self.cur_count == self.batch_size {
            self.flush_batch();
        }
    }

    /// Absorbs a slice of observations (the engines feed whole segments at
    /// once, keeping the per-iteration hot loop free of diagnostics work).
    pub fn absorb(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x);
        }
    }

    fn flush_batch(&mut self) {
        self.batch_means.push(self.cur_sum / self.cur_count as f64);
        self.cur_sum = 0.0;
        self.cur_count = 0;
        if self.batch_means.len() == Self::MAX_BATCHES {
            // Merge adjacent pairs; the batch size doubles. Equal-weight
            // averaging is exact because every completed batch holds
            // exactly `batch_size` observations.
            for i in 0..Self::MAX_BATCHES / 2 {
                self.batch_means[i] = (self.batch_means[2 * i] + self.batch_means[2 * i + 1]) / 2.0;
            }
            self.batch_means.truncate(Self::MAX_BATCHES / 2);
            self.batch_size *= 2;
        }
    }

    /// Observations absorbed so far.
    pub fn count(&self) -> u64 {
        self.total.count()
    }

    /// Mean of the full series.
    pub fn mean(&self) -> f64 {
        self.total.mean()
    }

    /// Unbiased variance of the full series (`NaN` with < 2 observations).
    pub fn variance(&self) -> f64 {
        self.total.variance()
    }

    /// Largest observation seen (`-inf` while empty).
    pub fn max_observed(&self) -> f64 {
        self.max_observed
    }

    /// Number of completed batches currently in the ring.
    pub fn batches(&self) -> usize {
        self.batch_means.len()
    }

    /// Current batch size (observations per completed batch).
    pub fn batch_size(&self) -> u64 {
        self.batch_size
    }

    /// Moments of the completed batch means.
    fn batch_moments(&self) -> RunningMoments {
        let mut m = RunningMoments::new();
        for &b in &self.batch_means {
            m.push(b);
        }
        m
    }

    /// Batch-means standard error of the series mean:
    /// `sqrt(Var(batch means) / #batches)`. `NaN` until two batches have
    /// completed — not enough evidence for any error claim.
    pub fn batch_stderr(&self) -> f64 {
        let m = self.batch_moments();
        if m.count() < 2 {
            return f64::NAN;
        }
        (m.variance() / m.count() as f64).sqrt()
    }

    /// Effective sample size via batched autocorrelation:
    /// `ESS = n · Var(x) / (b · Var(batch means))`, clamped to `[1, n]`.
    /// A constant series (both variances 0) counts as fully effective
    /// (`ESS = n`); `NaN` until two batches have completed.
    pub fn ess(&self) -> f64 {
        let m = self.batch_moments();
        if m.count() < 2 {
            return f64::NAN;
        }
        let n = self.count() as f64;
        let var = self.total.variance();
        let bm_var = m.variance();
        if var <= 0.0 || bm_var <= 0.0 {
            // Constant series, or batch means that agree exactly: no
            // detectable autocorrelation at this batch scale.
            return n;
        }
        (n * var / (self.batch_size as f64 * bm_var)).clamp(1.0, n)
    }

    /// Integrated autocorrelation time `τ = n / ESS` (`NaN` while ESS is).
    pub fn tau(&self) -> f64 {
        self.count() as f64 / self.ess()
    }

    /// Geweke-style drift score over the batch means: the z-statistic
    /// between the earliest 10% and the latest 50% of completed batches.
    /// `NaN` until 10 batches have completed or when either window has zero
    /// variance (same degenerate-input convention as
    /// [`crate::diagnostics::geweke_z`]).
    pub fn geweke_z(&self) -> f64 {
        let k = self.batch_means.len();
        if k < 10 {
            return f64::NAN;
        }
        let na = (k / 10).max(2);
        let nb = (k / 2).max(2);
        let (mut ma, mut mb) = (RunningMoments::new(), RunningMoments::new());
        for &b in &self.batch_means[..na] {
            ma.push(b);
        }
        for &b in &self.batch_means[k - nb..] {
            mb.push(b);
        }
        let se = (ma.variance() / na as f64 + mb.variance() / nb as f64).sqrt();
        if se == 0.0 {
            f64::NAN
        } else {
            (ma.mean() - mb.mean()) / se
        }
    }

    /// Serialises the monitor's complete state as 64-bit words (floats as
    /// raw bits), for bit-faithful checkpointing.
    pub fn encode(&self, out: &mut Vec<u64>) {
        let (count, mean, m2) = self.total.to_raw();
        out.extend([count, mean, m2, self.max_observed.to_bits()]);
        out.extend([self.batch_size, self.cur_sum.to_bits(), self.cur_count]);
        out.push(self.batch_means.len() as u64);
        out.extend(self.batch_means.iter().map(|b| b.to_bits()));
    }

    /// Rebuilds a monitor from [`DiagnosticsMonitor::encode`] output;
    /// returns `None` on malformed input. The restored monitor's future
    /// behaviour is bit-identical to the original's.
    pub fn decode(words: &[u64]) -> Option<(Self, usize)> {
        let header = words.get(..8)?;
        let n_batches = header[7] as usize;
        // The ring merges the moment it reaches MAX_BATCHES, so a live
        // monitor never holds more than MAX_BATCHES - 1 completed batches;
        // accepting a full ring would disable merging forever.
        if n_batches >= Self::MAX_BATCHES {
            return None;
        }
        // `push` completes a batch only when `cur_count` reaches
        // `batch_size` exactly; past it (or at size 0) no batch ever
        // completes again and the stopping rule reads stale batch means.
        let (batch_size, cur_count) = (header[4], header[6]);
        if batch_size == 0 || cur_count >= batch_size {
            return None;
        }
        let means = words.get(8..8 + n_batches)?;
        Some((
            DiagnosticsMonitor {
                total: RunningMoments::from_raw((header[0], header[1], header[2])),
                max_observed: f64::from_bits(header[3]),
                batch_size,
                cur_sum: f64::from_bits(header[5]),
                cur_count,
                batch_means: means.iter().map(|&b| f64::from_bits(b)).collect(),
            },
            8 + n_batches,
        ))
    }
}

/// Upper-tail standard-normal quantile `z` such that `P[Z > z] = p`,
/// via the Acklam rational approximation of the inverse CDF (absolute
/// error < 1.15e-9 — far below anything a stopping rule can resolve).
///
/// # Panics
/// If `p ∉ (0, 1)`.
pub fn normal_upper_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "tail probability must lie in (0, 1)");
    // Inverse CDF at 1 - p equals the upper-tail quantile at p.
    -inverse_normal_cdf(p)
}

/// Acklam's inverse standard-normal CDF.
fn inverse_normal_cdf(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -inverse_normal_cdf(1.0 - p)
    }
}

/// When an adaptive estimation run should stop.
///
/// The rule is consulted at **segment boundaries** only (the engines run in
/// segments of ~1k iterations), against the [`DiagnosticsMonitor`] fed with
/// the chain's observation series. The budget — the a-priori iteration
/// count, typically from the `(ε, δ)` planner — is always an upper bound;
/// the rule can only stop *earlier*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StoppingRule {
    /// Run the full budget (the pre-adaptive behaviour, bit for bit).
    FixedIterations,
    /// Stop once the estimate's `(1−δ)` confidence half-width drops to
    /// `ε`: `z_{1−δ/2} · se ≤ ε`, with `se` the batch-means standard error
    /// of the estimate. The CLT counterpart of the planner's Ineq 14
    /// guarantee — asymptotic rather than non-asymptotic, but driven by the
    /// chain's *observed* variance instead of the worst-case `µ(r)` bound,
    /// which is what lets it stop long before the fixed plan.
    TargetStderr {
        /// Target additive error (confidence half-width).
        epsilon: f64,
        /// Allowed failure probability.
        delta: f64,
    },
    /// Stop once the online effective sample size reaches the target.
    TargetEss {
        /// Required effective sample size.
        target: f64,
    },
}

impl StoppingRule {
    /// Whether the target is met. `scale` maps the monitored series'
    /// standard error to the *estimate*'s standard error (the single-space
    /// estimator divides the dependency series by `n − 1`, so its `se` is
    /// the series `se / (n − 1)`).
    ///
    /// `NaN` diagnostics (not enough batches yet, degenerate windows — see
    /// the satellite NaN conventions) can never satisfy a target: every
    /// comparison with `NaN` is false, so the rule errs toward continuing.
    pub fn satisfied(&self, monitor: &DiagnosticsMonitor, scale: f64) -> bool {
        match *self {
            StoppingRule::FixedIterations => false,
            StoppingRule::TargetStderr { epsilon, delta } => {
                let se = monitor.batch_stderr() / scale;
                se.is_finite() && normal_upper_quantile(delta / 2.0) * se <= epsilon
            }
            StoppingRule::TargetEss { target } => monitor.ess() >= target,
        }
    }

    /// Human-readable summary (CLI and bench reporting).
    pub fn describe(&self) -> String {
        match *self {
            StoppingRule::FixedIterations => "fixed iterations".into(),
            StoppingRule::TargetStderr { epsilon, delta } => {
                format!("target se {epsilon} (delta {delta})")
            }
            StoppingRule::TargetEss { target } => format!("target ESS {target}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics;
    use rand::{rngs::SmallRng, RngExt, SeedableRng};

    fn iid_series(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| rng.random::<f64>()).collect()
    }

    fn ar1_series(n: usize, phi: f64, seed: u64) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut x = 0.0;
        (0..n)
            .map(|_| {
                x = phi * x + rng.random::<f64>() - 0.5;
                x
            })
            .collect()
    }

    #[test]
    fn total_moments_match_offline() {
        let xs = iid_series(10_000, 1);
        let mut m = DiagnosticsMonitor::new();
        m.absorb(&xs);
        let mut offline = diagnostics::RunningMoments::new();
        for &x in &xs {
            offline.push(x);
        }
        assert_eq!(m.count(), 10_000);
        assert_eq!(m.mean().to_bits(), offline.mean().to_bits());
        assert_eq!(m.variance().to_bits(), offline.variance().to_bits());
        assert_eq!(m.max_observed(), xs.iter().cloned().fold(f64::MIN, f64::max));
    }

    #[test]
    fn ring_stays_bounded_and_batch_size_doubles() {
        let mut m = DiagnosticsMonitor::new();
        m.absorb(&iid_series(1_000_000, 2));
        assert!(m.batches() < DiagnosticsMonitor::MAX_BATCHES);
        assert!(m.batch_size() > DiagnosticsMonitor::INITIAL_BATCH);
        // All observations accounted for: completed batches + in-progress.
        assert_eq!(m.count(), 1_000_000);
    }

    #[test]
    fn batch_stderr_matches_offline_batch_means_scale() {
        // For iid U(0,1), SE of the mean is sqrt(1/12/n); the batched
        // estimate should land within a factor of 2.
        let n = 65_536;
        let mut m = DiagnosticsMonitor::new();
        m.absorb(&iid_series(n, 3));
        let classic = (1.0 / 12.0 / n as f64).sqrt();
        let se = m.batch_stderr();
        assert!(se > classic * 0.5 && se < classic * 2.0, "batched {se} vs classic {classic}");
    }

    #[test]
    fn ess_near_n_for_iid_and_small_for_correlated() {
        let n = 40_000;
        let mut iid = DiagnosticsMonitor::new();
        iid.absorb(&iid_series(n, 4));
        let ess_iid = iid.ess();
        assert!(ess_iid > n as f64 * 0.4, "iid ESS should be near n, got {ess_iid}");

        // AR(1), phi = 0.95: tau ~ 39, so ESS ~ n/39.
        let mut ar = DiagnosticsMonitor::new();
        ar.absorb(&ar1_series(n, 0.95, 5));
        let ess_ar = ar.ess();
        assert!(ess_ar < ess_iid / 5.0, "correlated ESS {ess_ar} vs iid {ess_iid}");
        assert!(ar.tau() > 5.0);
    }

    #[test]
    fn geweke_flags_drift_and_passes_stationary() {
        let mut stationary = DiagnosticsMonitor::new();
        stationary.absorb(&iid_series(20_000, 6));
        let z = stationary.geweke_z();
        assert!(z.abs() < 4.0, "stationary series should pass, z = {z}");

        let mut drifting = DiagnosticsMonitor::new();
        let mut rng = SmallRng::seed_from_u64(7);
        for i in 0..20_000 {
            drifting.push(i as f64 / 20_000.0 + rng.random::<f64>() * 0.01);
        }
        let z = drifting.geweke_z();
        assert!(z.abs() > 10.0, "drifting series should fail, z = {z}");
    }

    #[test]
    fn degenerate_states_are_nan_not_zero() {
        let mut m = DiagnosticsMonitor::new();
        assert!(m.batch_stderr().is_nan());
        assert!(m.ess().is_nan());
        assert!(m.geweke_z().is_nan());
        m.push(1.0);
        assert!(m.batch_stderr().is_nan(), "one observation proves nothing");
        // A constant series is fully effective with zero standard error.
        let mut c = DiagnosticsMonitor::new();
        c.absorb(&vec![2.0; 4096]);
        assert_eq!(c.batch_stderr(), 0.0);
        assert_eq!(c.ess(), 4096.0);
        assert!(c.geweke_z().is_nan(), "zero-variance windows have no z-score");
    }

    #[test]
    fn encode_decode_roundtrip_is_bit_exact() {
        let xs = ar1_series(12_345, 0.7, 8);
        let mut m = DiagnosticsMonitor::new();
        m.absorb(&xs[..10_000]);
        let mut words = Vec::new();
        m.encode(&mut words);
        let (mut r, used) = DiagnosticsMonitor::decode(&words).expect("well-formed");
        assert_eq!(used, words.len());
        // Identical queries now…
        assert_eq!(m.batch_stderr().to_bits(), r.batch_stderr().to_bits());
        assert_eq!(m.ess().to_bits(), r.ess().to_bits());
        // …and identical future behaviour.
        m.absorb(&xs[10_000..]);
        r.absorb(&xs[10_000..]);
        assert_eq!(m.batch_stderr().to_bits(), r.batch_stderr().to_bits());
        assert_eq!(m.ess().to_bits(), r.ess().to_bits());
        assert_eq!(m.geweke_z().to_bits(), r.geweke_z().to_bits());
        assert!(DiagnosticsMonitor::decode(&words[..3]).is_none());
        // A full ring is a state encode can never produce: reject it, or
        // the restored monitor would never merge again.
        let mut full = vec![0u64; 8 + DiagnosticsMonitor::MAX_BATCHES];
        full[7] = DiagnosticsMonitor::MAX_BATCHES as u64;
        assert!(DiagnosticsMonitor::decode(&full).is_none());
    }

    #[test]
    fn decode_rejects_monitors_that_could_never_complete_a_batch() {
        let mut m = DiagnosticsMonitor::new();
        m.absorb(&iid_series(100, 9));
        let mut words = Vec::new();
        m.encode(&mut words);
        assert!(DiagnosticsMonitor::decode(&words).is_some());
        // Word 4 is the batch size, word 6 the in-progress batch count.
        for (batch_size, cur_count) in [(0, 0), (32, 32), (32, 33), (8, u64::MAX)] {
            let mut forged = words.clone();
            forged[4] = batch_size;
            forged[6] = cur_count;
            assert!(
                DiagnosticsMonitor::decode(&forged).is_none(),
                "batch size {batch_size}, count {cur_count}"
            );
        }
    }

    #[test]
    fn normal_quantile_matches_known_values() {
        for (p, z) in [(0.025, 1.959964), (0.05, 1.644854), (0.005, 2.575829), (0.5, 0.0)] {
            let got = normal_upper_quantile(p);
            assert!((got - z).abs() < 1e-5, "p = {p}: {got} vs {z}");
        }
        assert!((normal_upper_quantile(0.975) + 1.959964).abs() < 1e-5);
    }

    #[test]
    fn stopping_rules_decide_as_documented() {
        let mut m = DiagnosticsMonitor::new();
        assert!(!StoppingRule::TargetStderr { epsilon: 1.0, delta: 0.05 }.satisfied(&m, 1.0));
        assert!(!StoppingRule::TargetEss { target: 1.0 }.satisfied(&m, 1.0));
        m.absorb(&iid_series(8_192, 9));
        // iid U(0,1) over 8k samples: se ~ 0.003.
        assert!(StoppingRule::TargetStderr { epsilon: 0.05, delta: 0.05 }.satisfied(&m, 1.0));
        assert!(!StoppingRule::TargetStderr { epsilon: 1e-6, delta: 0.05 }.satisfied(&m, 1.0));
        // A larger scale divides the se: easier to satisfy.
        assert!(StoppingRule::TargetStderr { epsilon: 1e-4, delta: 0.05 }.satisfied(&m, 100.0));
        assert!(StoppingRule::TargetEss { target: 1_000.0 }.satisfied(&m, 1.0));
        assert!(!StoppingRule::TargetEss { target: 1e9 }.satisfied(&m, 1.0));
        assert!(!StoppingRule::FixedIterations.satisfied(&m, 1.0));
        assert!(StoppingRule::FixedIterations.describe().contains("fixed"));
        assert!(StoppingRule::TargetStderr { epsilon: 0.1, delta: 0.05 }
            .describe()
            .contains("target se"));
    }
}
