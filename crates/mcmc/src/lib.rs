//! # mhbc-mcmc
//!
//! Generic Metropolis–Hastings machinery (§2.2 of the paper), chain
//! diagnostics, and the paper's non-asymptotic error bounds.
//!
//! The crate is deliberately independent of graphs: states are any `Clone`
//! type, targets are *unnormalised densities* (the whole point of MH is that
//! the normalisation constant — here `Σ_v δ_{v•}(r)`, i.e. the betweenness
//! itself — is unknown), and proposals are pluggable. `mhbc-core`
//! instantiates this framework with dependency-score densities to obtain the
//! paper's two samplers, and the F8 ablation swaps proposals without
//! touching the chain.
//!
//! - [`MetropolisHastings`] — the chain runner; caches the current state's
//!   density so each step costs exactly one density evaluation, and draws
//!   proposals and accept/reject uniforms from two split RNG streams
//!   ([`StreamSplit`]) so independence-chain proposal sequences are
//!   reproducible ahead of the chain.
//! - [`Proposal`] — proposal distributions: [`UniformProposal`] (the paper's
//!   choice: independence MH with `q = 1/|V|`), [`WeightedProposal`]
//!   (independence with arbitrary weights, e.g. degree-biased), and
//!   graph-random-walk proposals defined downstream.
//! - [`diagnostics`] — acceptance statistics, running moments,
//!   autocorrelation / integrated autocorrelation time, effective sample
//!   size, Geweke z-scores, batch-means standard errors.
//! - [`monitor`] — the *streaming* counterpart: [`DiagnosticsMonitor`]
//!   computes ESS, Geweke drift, and batch-means standard errors
//!   incrementally (bounded memory, no trace rescans), and
//!   [`StoppingRule`] turns them into the continue/stop decisions of the
//!   adaptive estimation engine in `mhbc-core`.
//! - [`ChainSnapshot`] / [`RngSnapshot`] — bit-exact chain state export,
//!   the foundation of `mhbc-core`'s checkpoint/resume.
//! - [`bounds`] — the MCMC Hoeffding tail of Łatuszyński et al. (Ineq 9),
//!   the sample-size planner (Ineq 14 / 27), and its inverse.
//!
//! ```
//! use mhbc_mcmc::{fn_target, MetropolisHastings, UniformProposal};
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! // Independence MH targeting P[x] ∝ x + 1 on states {0, 1, 2, 3}.
//! let target = fn_target(|x: &u32| (x + 1) as f64);
//! let mut chain =
//!     MetropolisHastings::new(target, UniformProposal::new(4), 0, SmallRng::seed_from_u64(1));
//! let steps = 20_000;
//! let mut mass = 0u64;
//! for _ in 0..steps {
//!     chain.step();
//!     mass += *chain.state() as u64;
//! }
//! // Stationary mean: (0·1 + 1·2 + 2·3 + 3·4) / 10 = 2.
//! assert!((mass as f64 / steps as f64 - 2.0).abs() < 0.05);
//! assert!(chain.stats().acceptance_rate() > 0.5);
//! ```

pub mod bounds;
mod chain;
pub mod diagnostics;
pub mod monitor;
mod proposal;
mod stream;

pub use chain::{
    fn_target, ChainSnapshot, ChainStats, FnTarget, MetropolisHastings, StepOutcome, TargetDensity,
};
pub use monitor::{DiagnosticsMonitor, StoppingRule};
pub use proposal::{Proposal, UniformProposal, WeightedProposal};
pub use stream::{RngSnapshot, StreamSplit};
