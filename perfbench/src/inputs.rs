//! Deterministic inputs: edge-list files, probes, and exact references,
//! all derived from the run's seed. The program under test sees only the
//! files and the CLI arguments built from them.

use mhbc_bench::probes::select_probes;
use mhbc_suite::core::checkpoint::graph_hash;
use mhbc_suite::graph::reduce::{reduce, ReduceLevel};
use mhbc_suite::graph::{algo, generators, io, CsrGraph, Vertex};
use mhbc_suite::spd::exact_betweenness;
use rand::{rngs::SmallRng, RngExt, SeedableRng};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// The file a generator writes next to the edge lists.
pub const MANIFEST: &str = "manifest.txt";

/// A random-graph family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Barabási–Albert with 4 edges per new vertex: low diameter and no
    /// pendants or twins, so `--preprocess auto` discards its reduction.
    Ba,
    /// Duplication–divergence (retain 0.5): pendants and twins, so the full
    /// reduction pays.
    Dup,
}

/// How a graph's probes are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeRule {
    /// `k` probes spread over the degree ranking.
    DegreeStrata(usize),
    /// `k` probes from the top 0.3% of the degree ranking of the vertices
    /// the full reduction retains, so `--preprocess auto` must sample them
    /// and the joint chain visits every one of them.
    Retained(usize),
    /// The hub, median and low probes by exact betweenness
    /// (`select_probes`), then more positive-betweenness vertices spread
    /// over the ranking, up to `k`; their exact values are kept.
    ExactBc(usize),
}

/// One graph a workload generates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphPlan {
    pub family: Family,
    /// Vertices before taking the largest component.
    pub n: usize,
    pub probes: ProbeRule,
    /// Accepted range of edges per vertex. Duplication–divergence edge
    /// counts vary by half from seed to seed; drawing until `m / n` falls in
    /// a narrow band keeps runs with different seeds comparable.
    pub edges_per_vertex: Option<(f64, f64)>,
}

/// A generated graph, as the benchmark knows it.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphInput {
    /// The edge-list file.
    pub path: PathBuf,
    pub n: usize,
    pub m: usize,
    /// `mhbc_core::checkpoint::graph_hash` of the graph.
    pub hash: u64,
    pub probes: Vec<Vertex>,
    /// Exact betweenness of each probe, when its plan computes it.
    pub exact: Vec<f64>,
}

impl GraphInput {
    /// Exact betweenness of probe `v`, when known.
    pub fn exact_of(&self, v: Vertex) -> Option<f64> {
        let i = self.probes.iter().position(|&p| p == v)?;
        self.exact.get(i).copied()
    }
}

/// Every input of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    pub graphs: Vec<GraphInput>,
}

/// The seed of graph `index` in a run seeded `seed`.
pub fn graph_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(index as u64)
}

/// A plan's graph: the generator's largest component, so the CLI keeps
/// every vertex and input ids are its internal ids. With an
/// `edges_per_vertex` band, the first of successive draws inside it.
pub fn build_graph(plan: &GraphPlan, seed: u64) -> CsrGraph {
    const MAX_DRAWS: u64 = 10_000;
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..MAX_DRAWS {
        let g = match plan.family {
            Family::Ba => generators::barabasi_albert(plan.n, 4, &mut rng),
            Family::Dup => generators::duplication_divergence(plan.n, 0.5, &mut rng),
        };
        let g = algo::largest_component(&g).0;
        let per_vertex = g.num_edges() as f64 / g.num_vertices() as f64;
        if plan.edges_per_vertex.is_none_or(|(lo, hi)| (lo..=hi).contains(&per_vertex)) {
            return g;
        }
    }
    panic!("no draw of {plan:?} in {MAX_DRAWS} had an edge count in its band");
}

/// A plan's probes, with their exact betweenness under
/// [`ProbeRule::ExactBc`] (empty otherwise).
pub fn pick_probes(g: &CsrGraph, rule: ProbeRule, seed: u64) -> (Vec<Vertex>, Vec<f64>) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0DD5_EED5);
    let mut probes = Vec::new();
    match rule {
        ProbeRule::DegreeStrata(k) => {
            strata(&by_degree(g, |_| true), &spread(k, 0.001, 0.7), 0.01, &mut rng, &mut probes);
            (probes, Vec::new())
        }
        ProbeRule::Retained(k) => {
            let red = reduce(g, ReduceLevel::Full).expect("generated graphs are unweighted");
            let ranked = by_degree(g, |v| red.is_retained(v));
            strata(&ranked, &spread(k, 0.0, 0.002), 0.001, &mut rng, &mut probes);
            (probes, Vec::new())
        }
        ProbeRule::ExactBc(k) => {
            let bc = exact_betweenness(g);
            let classes = select_probes(&bc);
            for v in [classes.hub, classes.median, classes.low] {
                if !probes.contains(&v) {
                    probes.push(v);
                }
            }
            let mut ranked: Vec<Vertex> =
                (0..g.num_vertices() as Vertex).filter(|&v| bc[v as usize] > 0.0).collect();
            ranked.sort_by(|&a, &b| bc[b as usize].total_cmp(&bc[a as usize]).then(a.cmp(&b)));
            let more = k.saturating_sub(probes.len());
            strata(&ranked, &spread(more, 0.01, 0.8), 0.01, &mut rng, &mut probes);
            let exact = probes.iter().map(|&v| bc[v as usize]).collect();
            (probes, exact)
        }
    }
}

fn by_degree(g: &CsrGraph, keep: impl Fn(Vertex) -> bool) -> Vec<Vertex> {
    let mut ranked: Vec<Vertex> = (0..g.num_vertices() as Vertex).filter(|&v| keep(v)).collect();
    ranked.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
    ranked
}

/// `count` quantiles spaced evenly over `[lo, hi]`.
fn spread(count: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..count)
        .map(|i| if count < 2 { lo } else { lo + (hi - lo) * i as f64 / (count - 1) as f64 })
        .collect()
}

/// Adds one vertex of `ranked` per quantile, jittered by `rng` within a
/// `window` share of the ranking, skipping vertices already chosen.
fn strata(
    ranked: &[Vertex],
    quantiles: &[f64],
    window: f64,
    rng: &mut SmallRng,
    chosen: &mut Vec<Vertex>,
) {
    let len = ranked.len();
    let window = ((len as f64 * window) as usize).max(1);
    for &q in quantiles {
        let start = (q * len as f64) as usize + rng.random_range(0..window);
        if let Some(&v) = (0..len).map(|i| &ranked[(start + i) % len]).find(|v| !chosen.contains(v))
        {
            chosen.push(v);
        }
    }
}

/// Generates a run's graphs into `dir`, writes their edge lists, and
/// returns the inputs.
pub fn generate(plans: &[GraphPlan], seed: u64, dir: &Path) -> std::io::Result<Inputs> {
    let mut graphs = Vec::with_capacity(plans.len());
    for (i, plan) in plans.iter().enumerate() {
        let seed = graph_seed(seed, i);
        let g = build_graph(plan, seed);
        let (probes, exact) = pick_probes(&g, plan.probes, seed);
        let path = dir.join(format!("g{i}.txt"));
        let mut w = BufWriter::new(File::create(&path)?);
        io::write_edge_list(&g, &mut w)?;
        w.flush()?;
        graphs.push(GraphInput {
            path,
            n: g.num_vertices(),
            m: g.num_edges(),
            hash: graph_hash(&g),
            probes,
            exact,
        });
    }
    Ok(Inputs { graphs })
}

impl Inputs {
    /// Line-based text form: per graph a `graph n m hash path` line, then
    /// `probes` and `exact` lines (floats in Rust's round-trip format).
    pub fn to_manifest(&self) -> String {
        let mut s = String::new();
        for g in &self.graphs {
            s.push_str(&format!("graph {} {} {:#x} {}\n", g.n, g.m, g.hash, g.path.display()));
            s.push_str(&format!("probes {}\n", join(&g.probes)));
            s.push_str(&format!("exact {}\n", join(&g.exact)));
        }
        s
    }

    /// Parses [`Inputs::to_manifest`]'s output.
    pub fn from_manifest(text: &str) -> Result<Self, String> {
        let bad = |what: &str| format!("malformed manifest line `{what}`");
        let mut graphs = Vec::new();
        let mut lines = text.lines();
        while let Some(line) = lines.next() {
            let mut fields = line.strip_prefix("graph ").ok_or_else(|| bad(line))?.splitn(4, ' ');
            let mut field = || fields.next().ok_or_else(|| bad(line));
            let n = field()?.parse().map_err(|_| bad(line))?;
            let m = field()?.parse().map_err(|_| bad(line))?;
            let hash = u64::from_str_radix(field()?.trim_start_matches("0x"), 16)
                .map_err(|_| bad(line))?;
            let path = PathBuf::from(field()?);
            let probes = list(lines.next(), "probes").ok_or_else(|| bad("probes"))?;
            let exact = list(lines.next(), "exact").ok_or_else(|| bad("exact"))?;
            graphs.push(GraphInput { path, n, m, hash, probes, exact });
        }
        Ok(Inputs { graphs })
    }
}

fn join<T: std::fmt::Display>(xs: &[T]) -> String {
    xs.iter().map(T::to_string).collect::<Vec<_>>().join(",")
}

fn list<T: std::str::FromStr>(line: Option<&str>, key: &str) -> Option<Vec<T>> {
    let rest = line?.strip_prefix(key)?.trim();
    rest.split(',').filter(|s| !s.is_empty()).map(|s| s.parse().ok()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: [GraphPlan; 3] = [
        GraphPlan {
            family: Family::Ba,
            n: 600,
            probes: ProbeRule::DegreeStrata(4),
            edges_per_vertex: None,
        },
        GraphPlan {
            family: Family::Dup,
            n: 600,
            probes: ProbeRule::Retained(5),
            edges_per_vertex: Some((2.0, 3.0)),
        },
        GraphPlan {
            family: Family::Dup,
            n: 400,
            probes: ProbeRule::ExactBc(8),
            edges_per_vertex: None,
        },
    ];

    #[test]
    fn same_seed_gives_the_same_graph_and_probes() {
        for plan in &SMALL {
            let (a, b) = (build_graph(plan, 7), build_graph(plan, 7));
            assert_eq!(graph_hash(&a), graph_hash(&b));
            assert_eq!(pick_probes(&a, plan.probes, 7), pick_probes(&b, plan.probes, 7));
        }
    }

    #[test]
    fn different_seeds_give_different_graphs_and_probes() {
        for plan in &SMALL {
            let (s1, s2) = (graph_seed(1, 0), graph_seed(2, 0));
            let (a, b) = (build_graph(plan, s1), build_graph(plan, s2));
            assert_ne!(graph_hash(&a), graph_hash(&b));
            assert_ne!(pick_probes(&a, plan.probes, s1).0, pick_probes(&b, plan.probes, s2).0);
        }
    }

    #[test]
    fn probes_follow_their_rule() {
        for plan in &SMALL {
            let g = build_graph(plan, 3);
            let (probes, exact) = pick_probes(&g, plan.probes, 3);
            let mut distinct = probes.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), probes.len(), "{plan:?}: {probes:?}");
            if let Some((lo, hi)) = plan.edges_per_vertex {
                let per_vertex = g.num_edges() as f64 / g.num_vertices() as f64;
                assert!((lo..=hi).contains(&per_vertex), "{per_vertex}");
            }
            match plan.probes {
                ProbeRule::DegreeStrata(k) => assert_eq!(probes.len(), k),
                ProbeRule::Retained(k) => {
                    let red = reduce(&g, ReduceLevel::Full).unwrap();
                    assert_eq!(probes.len(), k);
                    assert!(probes.iter().all(|&v| red.is_retained(v)), "{probes:?}");
                }
                ProbeRule::ExactBc(k) => {
                    assert_eq!(probes.len(), k);
                    let bc = exact_betweenness(&g);
                    for (&v, &e) in probes.iter().zip(&exact) {
                        assert_eq!(e, bc[v as usize]);
                        assert!(e > 0.0);
                    }
                    let hub = bc.iter().cloned().fold(0.0, f64::max);
                    assert_eq!(exact[0], hub, "the hub comes first: rank ratios use it");
                }
            }
        }
    }

    #[test]
    fn manifest_round_trips() {
        let inputs = Inputs {
            graphs: vec![
                GraphInput {
                    path: PathBuf::from("some dir/g0.txt"),
                    n: 10,
                    m: 20,
                    hash: 0xDEAD_BEEF_0123_4567,
                    probes: vec![3, 1, 4],
                    exact: vec![0.1, 1.0 / 3.0, 2.5e-7],
                },
                GraphInput {
                    path: PathBuf::from("g1.txt"),
                    n: 5,
                    m: 4,
                    hash: 1,
                    probes: vec![0],
                    exact: vec![],
                },
            ],
        };
        assert_eq!(Inputs::from_manifest(&inputs.to_manifest()), Ok(inputs));
        assert!(Inputs::from_manifest("graph 1 2\n").is_err());
    }
}
