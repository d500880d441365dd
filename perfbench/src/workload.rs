//! The workloads: the graphs each generates and the `mhbc` operations one
//! round of it runs. Every operation runs in this process, on at most two
//! threads.

use crate::check::Expect;
use crate::inputs::{Family, GraphInput, GraphPlan, Inputs, ProbeRule};
use mhbc_suite::graph::Vertex;
use std::path::Path;

/// A benchmark workload; `README.md` says why each was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fixed-budget `estimate --preprocess auto` at one thread on a BA graph
    /// whose SPD working set is several times the L2 cache; one operation
    /// per round, its probe taking turns.
    OffcacheEstimate,
    /// `estimate` and 4-probe `rank` at `--threads 2 --preprocess auto` on a
    /// duplication–divergence graph whose reduction is kept.
    ReducedParallel,
    /// Checkpointed adaptive `estimate` of the hub, adaptive `rank` of the
    /// top three of eight probes, and a long fixed-budget `rank` of the same
    /// probes on L2-resident graphs, checked against exact Brandes.
    HotAdaptive,
}

/// One `mhbc` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Index of its graph in [`Inputs::graphs`].
    pub graph: usize,
    /// The `mhbc` arguments (without the program name).
    pub args: Vec<String>,
    pub expect: Expect,
}

// Sizes and budgets. Budgets much smaller than n keep `offcache-estimate`
// missing the oracle; iterations far above n keep `hot-adaptive` hitting it.
const OFFCACHE_N: usize = 1 << 18;
const OFFCACHE_ITERS: u64 = 24;
const REDUCED_N: usize = 1 << 16;
const REDUCED_ESTIMATE_ITERS: u64 = 800;
const REDUCED_RANK_ITERS: u64 = 800;
/// Edges-per-vertex bands around the middle of the duplication–divergence
/// draws at these sizes (about 3.2 at n = 65,536 and 2.6 at n = 4,096).
const REDUCED_EDGES: Option<(f64, f64)> = Some((3.1, 3.3));
const HOT_EDGES: Option<(f64, f64)> = Some((2.5, 2.7));
const HOT_N: usize = 1 << 12;
/// Graphs per `hot-adaptive` run: adaptive stopping points vary from graph
/// to graph, and averaging over several keeps runs comparable across seeds.
const HOT_GRAPHS: usize = 2;
const HOT_ESTIMATE_ITERS: u64 = 50_000;
const HOT_SEGMENT: u64 = 512;
/// Per ranked probe; the scheduler shares this times the probe count.
const HOT_RANK_ITERS: u64 = 8_192;
/// Scheduling granularity of the adaptive `rank`: a probe's corrected
/// estimate needs a few thousand iterations before its interval means much.
const HOT_RANK_SEGMENT: u64 = 4096;
const HOT_FIXED_RANK_ITERS: u64 = 100_000;
/// The adaptive `estimate` takes the hub (the first probe) with a target
/// (`--target-se`) of this share of its exact betweenness, which it reaches
/// within a few segments on every seed tried: the operation then costs about
/// the same from seed to seed. The median probe would stop after one segment
/// on some chain seeds and run out its budget on others.
const HOT_ESTIMATE_TARGET_SHARE: f64 = 0.2;
/// The adaptive `rank`'s target, as a share of the least exact betweenness
/// among its probes.
const HOT_RANK_TARGET_SHARE: f64 = 0.05;
/// `rank` takes this many probes, those of highest betweenness (the hub
/// first): the joint chain visits a probe about in proportion to its
/// betweenness, and one it never visits has no ratio. A fixed count keeps
/// the scheduler's shared budget the same from seed to seed.
const HOT_RANK_PROBES: usize = 3;

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::OffcacheEstimate, Workload::ReducedParallel, Workload::HotAdaptive];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OffcacheEstimate => "offcache-estimate",
            Workload::ReducedParallel => "reduced-parallel",
            Workload::HotAdaptive => "hot-adaptive",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The graphs the workload generates.
    pub fn plans(self) -> Vec<GraphPlan> {
        let plan =
            |family, n, probes, edges_per_vertex| GraphPlan { family, n, probes, edges_per_vertex };
        match self {
            Workload::OffcacheEstimate => {
                vec![plan(Family::Ba, OFFCACHE_N, ProbeRule::DegreeStrata(4), None)]
            }
            Workload::ReducedParallel => {
                vec![plan(Family::Dup, REDUCED_N, ProbeRule::Retained(5), REDUCED_EDGES)]
            }
            Workload::HotAdaptive => {
                vec![plan(Family::Dup, HOT_N, ProbeRule::ExactBc(8), HOT_EDGES); HOT_GRAPHS]
            }
        }
    }

    /// The operations of round `round`; chain seeds differ from round to
    /// round. Checkpoints go to `workdir`.
    pub fn round(self, inputs: &Inputs, seed: u64, round: u64, workdir: &Path) -> Vec<Op> {
        let mut ops = Vec::new();
        let mut chain_seed = {
            let mut k = 0u64;
            move || {
                k += 1;
                seed.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ (round << 32) ^ k
            }
        };
        for (gi, g) in inputs.graphs.iter().enumerate() {
            let probe = (round as usize + gi) % g.probes.len();
            match self {
                Workload::OffcacheEstimate => {
                    let flags = ["--preprocess", "auto", "--threads", "1"];
                    let (p, iters) = (g.probes[probe], OFFCACHE_ITERS);
                    ops.push(estimate(gi, g, p, iters, chain_seed(), &flags, false));
                }
                Workload::ReducedParallel => {
                    let flags = ["--preprocess", "auto", "--threads", "2"];
                    let (p, iters) = (g.probes[probe], REDUCED_ESTIMATE_ITERS);
                    ops.push(estimate(gi, g, p, iters, chain_seed(), &flags, false));
                    ops.push(rank(gi, g, &g.probes[..4], REDUCED_RANK_ITERS, chain_seed(), &flags));
                }
                Workload::HotAdaptive => {
                    let target = (HOT_ESTIMATE_TARGET_SHARE * g.exact[0]).to_string();
                    let checkpoint = workdir.join(format!("g{gi}.ckpt")).display().to_string();
                    let segment = HOT_SEGMENT.to_string();
                    let flags = [
                        "--target-se",
                        target.as_str(),
                        "--segment",
                        segment.as_str(),
                        "--checkpoint",
                        checkpoint.as_str(),
                    ];
                    let (p, iters) = (g.probes[0], HOT_ESTIMATE_ITERS);
                    ops.push(estimate(gi, g, p, iters, chain_seed(), &flags, true));

                    let mut top: Vec<usize> = (0..g.probes.len()).collect();
                    top.sort_by(|&a, &b| g.exact[b].total_cmp(&g.exact[a]).then(a.cmp(&b)));
                    top.truncate(HOT_RANK_PROBES);
                    top.sort_unstable();
                    let ranked: Vec<Vertex> = top.iter().map(|&i| g.probes[i]).collect();
                    let least = top.iter().map(|&i| g.exact[i]).fold(f64::INFINITY, f64::min);
                    let target = (HOT_RANK_TARGET_SHARE * least).to_string();
                    let segment = HOT_RANK_SEGMENT.to_string();
                    let flags = ["--target-se", target.as_str(), "--segment", segment.as_str()];
                    let mut op = rank(gi, g, &ranked, HOT_RANK_ITERS, chain_seed(), &flags);
                    op.expect = Expect::AdaptiveRank {
                        vertices: ranked.clone(),
                        budget: HOT_RANK_ITERS,
                        segment: HOT_RANK_SEGMENT,
                    };
                    ops.push(op);

                    ops.push(rank(gi, g, &ranked, HOT_FIXED_RANK_ITERS, chain_seed(), &[]));
                }
            }
        }
        ops
    }
}

fn command(words: &[&str], flags: &[&str]) -> Vec<String> {
    words.iter().chain(flags).map(|s| s.to_string()).collect()
}

fn estimate(
    graph: usize,
    g: &GraphInput,
    vertex: Vertex,
    iters: u64,
    seed: u64,
    flags: &[&str],
    adaptive: bool,
) -> Op {
    let (path, v, n, s) =
        (g.path.display().to_string(), vertex.to_string(), iters.to_string(), seed.to_string());
    let args = command(&["estimate", &path, &v, "--iters", &n, "--seed", &s], flags);
    Op { graph, args, expect: Expect::Estimate { vertex, budget: iters, adaptive } }
}

fn rank(
    graph: usize,
    g: &GraphInput,
    vertices: &[Vertex],
    iters: u64,
    seed: u64,
    flags: &[&str],
) -> Op {
    let list = vertices.iter().map(Vertex::to_string).collect::<Vec<_>>().join(",");
    let (path, n, s) = (g.path.display().to_string(), iters.to_string(), seed.to_string());
    let args = command(&["rank", &path, &list, "--iters", &n, "--seed", &s], flags);
    Op { graph, args, expect: Expect::Rank { vertices: vertices.to_vec(), budget: iters } }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhbc_suite::cli::{self, Command};
    use std::path::PathBuf;

    fn fake_inputs(graphs: usize) -> Inputs {
        let g = GraphInput {
            path: PathBuf::from("g.txt"),
            n: 100,
            m: 300,
            hash: 0,
            probes: (0..8).collect(),
            exact: (1..=8).map(|i| i as f64 / 100.0).collect(),
        };
        Inputs { graphs: vec![g; graphs] }
    }

    #[test]
    fn every_operation_is_a_valid_cli_call_with_a_matching_expectation() {
        for w in Workload::ALL {
            let inputs = fake_inputs(w.plans().len());
            let ops = w.round(&inputs, 9, 2, Path::new("workdir"));
            assert!(!ops.is_empty());
            for op in &ops {
                let cmd = cli::parse(&op.args).unwrap_or_else(|e| panic!("{:?}: {e}", op.args));
                let threads = match (&cmd, &op.expect) {
                    (
                        Command::Estimate { vertex, iterations, adaptive, threads, .. },
                        Expect::Estimate { vertex: v, budget, adaptive: a },
                    ) => {
                        assert_eq!((vertex, iterations), (v, budget));
                        assert_eq!(adaptive.target_se.is_some(), *a);
                        threads
                    }
                    (
                        Command::Rank { vertices, iterations, adaptive, threads, .. },
                        Expect::Rank { vertices: vs, budget },
                    ) => {
                        assert_eq!((vertices, iterations), (vs, budget));
                        assert!(adaptive.target_se.is_none());
                        threads
                    }
                    (
                        Command::Rank { vertices, iterations, adaptive, threads, .. },
                        Expect::AdaptiveRank { vertices: vs, budget, segment },
                    ) => {
                        assert_eq!(
                            (vertices, iterations, &adaptive.segment),
                            (vs, budget, segment)
                        );
                        assert!(adaptive.target_se.is_some());
                        threads
                    }
                    other => panic!("mismatched operation {other:?}"),
                };
                assert!(*threads <= 2, "{:?}", op.args);
            }
        }
    }

    #[test]
    fn rounds_are_deterministic_and_vary_the_chain_seed() {
        let inputs = fake_inputs(3);
        let w = Workload::HotAdaptive;
        let workdir = Path::new("workdir");
        assert_eq!(w.round(&inputs, 4, 1, workdir), w.round(&inputs, 4, 1, workdir));
        assert_ne!(w.round(&inputs, 4, 1, workdir), w.round(&inputs, 4, 2, workdir));
        assert_ne!(w.round(&inputs, 4, 1, workdir), w.round(&inputs, 5, 1, workdir));
    }
}
