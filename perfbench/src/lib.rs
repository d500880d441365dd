//! The repository benchmark for `mhbc`: wall time to an answer through the
//! CLI's in-process surface (`mhbc_suite::cli::{parse, load_graph,
//! execute}`) on generated graphs, and a separate traced run that times
//! each layer the same operations pass through. `README.md` describes the
//! workloads, the metrics, and how to run them.

pub mod check;
pub mod inputs;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod trace;
pub mod workload;
