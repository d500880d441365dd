//! # mhbc-suite
//!
//! Facade over the `mhbc` workspace: a Rust reproduction of
//! *Metropolis-Hastings Algorithms for Estimating Betweenness Centrality*
//! (Chehreghani, Abdessalem, Bifet — EDBT 2019 / arXiv:1704.07351).
//!
//! The workspace is organised as focused crates; this facade re-exports them
//! under stable names so examples and downstream users can depend on a single
//! crate:
//!
//! - [`graph`] — compact CSR graphs, random-graph generators, edge-list IO
//! - [`spd`] — shortest-path DAGs, Brandes dependency accumulation, exact BC
//! - [`mcmc`] — generic Metropolis-Hastings machinery, diagnostics, bounds
//! - [`core`] — the paper's single-space and joint-space MCMC samplers
//! - [`baselines`] — prior sampling estimators (uniform, distance \[13\], RK \[30\], bb-BFS \[7\])
//!
//! See `examples/quickstart.rs` for a five-minute tour.
//!
//! ```
//! use mhbc_suite::prelude::*;
//!
//! // Estimate the bridge vertex of a barbell graph and compare with exact
//! // Brandes — the corrected estimator should land within a few percent.
//! let g = generators::barbell(6, 1);
//! let est = SingleSpaceSampler::new(&g, 6, SingleSpaceConfig::new(4_000, 7)).unwrap().run();
//! let exact = exact_betweenness_of(&g, 6);
//! assert!((est.bc_corrected - exact).abs() < 0.05);
//! ```

pub mod cli;

pub use mhbc_baselines as baselines;
pub use mhbc_core as core;
pub use mhbc_graph as graph;
pub use mhbc_mcmc as mcmc;
pub use mhbc_spd as spd;

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use mhbc_core::{JointSpaceSampler, SingleSpaceConfig, SingleSpaceSampler};
    pub use mhbc_graph::{generators, CsrGraph, GraphBuilder};
    pub use mhbc_spd::{exact_betweenness, exact_betweenness_of, SpdView, ViewCalculator};
}
