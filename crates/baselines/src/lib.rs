//! # mhbc-baselines
//!
//! The prior sampling estimators the paper's evaluation compares against
//! (§3.2 of the paper; "prior samplers" in the EDBT experiments):
//!
//! - [`UniformSourceSampler`] — Bader et al. \[2\] / Brandes–Pich \[9\]:
//!   sources drawn uniformly, dependency scores averaged. Unbiased.
//! - [`DistanceSampler`] — Chehreghani's non-uniform sampler \[13\]:
//!   sources drawn with `P[s] ∝ d(r, s)`, importance-weighted. Unbiased;
//!   the paper's Eq 5 distribution is the *optimal* member of this
//!   framework (implemented exactly in `mhbc-core::optimal` for reference).
//! - [`RkSampler`] — Riondato–Kornaropoulos \[30\]: uniform `(s, t)` pairs,
//!   one uniformly sampled shortest path, interior vertices credited;
//!   sample size from the VC-dimension bound ([`rk_sample_size`]).
//! - [`BbSampler`] — the KADABRA primitive \[7\]: the same path estimator
//!   driven by balanced bidirectional BFS, with an empirical-Bernstein
//!   adaptive stopping rule (a documented simplification of KADABRA's
//!   union-bound schedule; see DESIGN.md "Substitutions").
//!
//! These are the samplers the `experiments` binary and the matched-budget
//! tests run against the MH samplers. All estimators use the Eq 1 normalisation (`BC ∈ [0, 1]`), accept a
//! caller-seeded RNG, and report the work they performed so the harness can
//! compare at matched budgets.
//!
//! ```
//! use mhbc_baselines::UniformSourceSampler;
//! use mhbc_graph::generators;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! // Bridge vertex of a barbell graph, estimated from 200 uniform sources.
//! let g = generators::barbell(6, 1);
//! let bridge = 6;
//! let mut rng = SmallRng::seed_from_u64(1);
//! let est = UniformSourceSampler::new(&g, bridge).run(200, &mut rng);
//! let exact = mhbc_spd::exact_betweenness_of(&g, bridge);
//! assert!((est.bc - exact).abs() < 0.05);
//! assert_eq!(est.samples, 200);
//! ```

mod bb;
mod distance;
mod rk;
mod uniform;

pub use bb::{AdaptiveEstimate, BbSampler};
pub use distance::DistanceSampler;
pub use rk::{rk_sample_size, RkEstimate, RkSampler};
pub use uniform::UniformSourceSampler;

/// A point estimate of a single vertex's betweenness plus the work done.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineEstimate {
    /// Estimated `BC(r)` (Eq 1 normalisation).
    pub bc: f64,
    /// Samples drawn.
    pub samples: u64,
    /// Full SPD passes performed (the unit the harness budgets by; the
    /// bb-BFS sampler reports fractional work via edges instead — see
    /// [`AdaptiveEstimate`]).
    pub spd_passes: u64,
}
