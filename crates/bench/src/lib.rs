//! # mhbc-bench
//!
//! Shared infrastructure for the experiment harness (`experiments` binary):
//! dataset construction, probe selection, run statistics, and table/CSV
//! reporting.
//!
//! Every experiment in DESIGN.md's index is regenerated by
//! `cargo run --release -p mhbc-bench --bin experiments -- <id> [--quick]`;
//! results are printed as markdown and mirrored to `results/<id>.csv`.
//! See `crates/bench/README.md` for the workload/probe/report layout.
//!
//! ```
//! use mhbc_bench::{probes, stats};
//!
//! // Probes are picked from an exact betweenness vector: the top hub, the
//! // median positive vertex, and a low-but-positive one.
//! let exact = [0.0, 0.9, 0.5, 0.3, 0.2, 0.1, 0.05, 0.01, 0.0, 0.4];
//! let p = probes::select_probes(&exact);
//! assert_eq!(p.hub, 1);
//! assert!(exact[p.median as usize] > 0.0 && exact[p.low as usize] > 0.0);
//! assert!(stats::median(&exact) <= exact[p.hub as usize]);
//! ```

pub mod probes;
pub mod report;
pub mod stats;
pub mod workloads;

/// Harness-wide RNG seed base; per-run seeds derive from it deterministically.
pub const SEED: u64 = 0xEDB7_2019;
