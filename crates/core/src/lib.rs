//! # mhbc-core
//!
//! The paper's contribution: Metropolis–Hastings samplers for betweenness
//! centrality (Chehreghani, Abdessalem, Bifet — EDBT 2019 /
//! arXiv:1704.07351).
//!
//! Two samplers are provided:
//!
//! - [`SingleSpaceSampler`] (§4.2) estimates `BC(r)` for a single probe
//!   vertex `r`. It runs an independence Metropolis–Hastings chain on
//!   `V(G)` with uniform proposals and acceptance ratio
//!   `min{1, δ_{v'•}(r) / δ_{v•}(r)}` (Eq 6), whose stationary distribution
//!   is the *optimal* source-sampling distribution `P_r[v] ∝ δ_{v•}(r)`
//!   of Chehreghani \[13\] (Eq 5). The estimate is the chain average of
//!   `f(v) = δ_{v•}(r) / (|V| − 1)` (Eq 7).
//! - [`JointSpaceSampler`] (§4.3) estimates *relative* betweenness scores
//!   `BC_{r_j}(r_i)` (Eq 23) and betweenness ratios `BC(r_i)/BC(r_j)`
//!   (Eq 22) for every pair in a probe set `R ⊂ V(G)`, by running a chain
//!   on the joint space `R × V(G)` (acceptance Eq 17, stationary Eq 18).
//!
//! Supporting modules:
//!
//! - [`oracle`] — memoised dependency-score evaluation (the chain revisits
//!   states; re-evaluating `δ_{v•}(r)` would waste SPD passes);
//! - [`engine`] — the segmented [`EstimationEngine`] every sampler runs
//!   under: adaptive stopping, diagnostics, and checkpoints;
//! - [`pipeline`] — the batch prefetch behind `--threads`: before each
//!   chunk of at most `K` steps, a sampler replays its chain's next
//!   proposals, `T` threads split their distinct uncached sources, and the
//!   chain then consumes them — bit-identical results at every thread
//!   count, set per engine with [`EstimationEngine::with_prefetch`];
//! - [`optimal`] — exact ground-truth quantities: the optimal distribution,
//!   `µ(r)`, exact relative scores, and the Theorem 2 separator checker;
//! - [`planner`] — the (ε, δ) sample-size planner built on Ineq 14/27.
//!
//! Both samplers work unchanged on weighted graphs (the kernel switches to
//! Dijkstra SPDs, §2.1).
//!
//! ## Preprocessing (graph reduction)
//!
//! Every sampler entry point has a `*_view` / `for_view`
//! variant taking an [`mhbc_spd::SpdView`]: the graph together with an
//! optional [`mhbc_graph::reduce::ReducedGraph`] (degree-1 pruning, twin
//! collapsing, BFS relabelling). The chain's state space, proposal stream,
//! and stationary distribution are **unchanged** — densities are mapped
//! exactly through the reduction (see [`SingleSpaceSampler::for_view`] for
//! the argument) — while each density evaluation costs one SPD pass over
//! the smaller, cache-friendlier reduced CSR, shared across structurally
//! equivalent sources via [`mhbc_spd::SpdView::row_keys`] coalescing.
//!
//! The view also carries the SPD [`mhbc_spd::KernelMode`]
//! ([`mhbc_spd::SpdView::with_kernel`]): everything built from it —
//! calculators, oracles, the samplers — inherits the forward-pass
//! strategy, and because every mode is bit-identical the choice can never
//! change a sampler's output.
//!
//! ## Paper § → module map
//!
//! | Paper §/result | Topic | Where |
//! |---|---|---|
//! | §2 | graph model (undirected, connected, positive weights) | [`mhbc_graph`] |
//! | §2.1, Eq 4 | SPDs, dependency scores, exact Brandes | [`mhbc_spd`] |
//! | §2.2 | generic Metropolis–Hastings framework | [`mhbc_mcmc`] |
//! | §3.2 | prior samplers the evaluation compares against | `mhbc_baselines` |
//! | §4.2, Eq 5–7 | single-space sampler for one probe | [`SingleSpaceSampler`] |
//! | §4.3, Eq 17–23 | joint-space sampler for probe sets | [`JointSpaceSampler`] |
//! | Theorem 1 | `µ(r)` and the Eq 7 error bound | [`mhbc_spd::DependencyProfile::mu`], [`optimal::eq7_limit`] |
//! | Theorem 2 | separator graphs have flat profiles | [`optimal::theorem2_report`], `mhbc_graph::generators::hub_separator` |
//! | Theorem 3 | exact betweenness-ratio identity | [`optimal::stationary_relative_from_profiles`], [`JointSpaceEstimate::ratio`] |
//! | Ineq 9, 14, 27 | non-asymptotic tails and sample-size planning | [`mhbc_mcmc::bounds`], [`planner`] |
//! | §5 | evaluation harness and datasets | `mhbc-bench` (`experiments` binary) |
//!
//! ## Reproduction soundness note
//!
//! Theorem 1's claim that Eq 7 approximates `BC(r)` does not hold in
//! general: the chain average converges to the stationary mean
//! [`optimal::eq7_limit`], which upper-bounds `BC(r)` and matches it only
//! for near-flat dependency profiles (the Theorem 2 regime the paper
//! emphasises). The ratio identity of Theorem 3 *is* exact. Both samplers
//! reproduce the paper's estimators faithfully; [`SingleSpaceEstimate`]
//! additionally reports an unbiased `bc_corrected`. See `optimal`'s module
//! docs and experiment F9.
//!
//! ```
//! use mhbc_core::{SingleSpaceConfig, SingleSpaceSampler};
//! use mhbc_graph::generators;
//!
//! // Bridge vertex of a barbell graph: the canonical high-BC probe.
//! let g = generators::barbell(8, 1);
//! let r = 8;
//! let est = SingleSpaceSampler::new(&g, r, SingleSpaceConfig::new(6000, 7))
//!     .unwrap()
//!     .run();
//! let exact = mhbc_spd::exact_betweenness_of(&g, r);
//! assert!((est.bc_corrected - exact).abs() < 0.05);
//! ```

pub mod checkpoint;
pub mod engine;
mod error;
mod joint;
pub mod optimal;
pub mod oracle;
pub mod pipeline;
pub mod planner;
pub mod schedule;
mod single;

pub use engine::{
    resume_joint, resume_single, AdaptiveReport, EngineConfig, EstimationEngine, StopReason,
};
pub use error::CoreError;
pub use joint::{JointSpaceConfig, JointSpaceEstimate, JointSpaceSampler};
pub use mhbc_mcmc::StoppingRule;
pub use pipeline::{run_joint_view, PrefetchConfig};
pub use single::{SingleSpaceConfig, SingleSpaceEstimate, SingleSpaceSampler, SingleStepInfo};
