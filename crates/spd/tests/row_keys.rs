//! Row keys share a dependency row only between sources whose rows are
//! bit-identical.
//!
//! [`SpdView::row_keys`] keys a pendant-tree vertex of a direct view by the
//! vertex its tree hangs from, unless a probe lies in its branch or is that
//! vertex. These tests sweep pendant-rich random graphs
//! (duplication–divergence, mixed preferential attachment with single-edge
//! arrivals, lollipops, balanced trees, and forests of several components)
//! under probe sets drawn from everywhere, from inside pendant trees and
//! from attachments. For every kernel mode, the row an oracle would cache
//! under a key — computed from the first source that has it — must equal
//! every keyed source's own targeted row and its full-scan row, bit for bit.
//!
//! Reduced views key a pruned source by its attachment's row group unless
//! the attachment is a probe, and every other non-probe source by its own
//! row group. The same families, reduced at `Prune` and `Full` (and one
//! weighted family at `Prune`), are swept under sets of retained probes
//! drawn from everywhere, from attachments and from their twins: every
//! source's row through the reduction must equal the row cached under its
//! key, bit for bit, and an unweighted reduction must have no more distinct
//! keys than the direct view.

use mhbc_graph::algo::PendantForest;
use mhbc_graph::reduce::{reduce, ReduceLevel, ReducedGraph, VertexState};
use mhbc_graph::{generators, CsrGraph, Vertex};
use mhbc_spd::{
    dependency_profile, dependency_profile_view_par, KernelMode, SpdView, ViewCalculator,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::{rngs::SmallRng, RngExt, SeedableRng};
use std::collections::HashMap;

const MODES: [KernelMode; 3] = [KernelMode::TopDown, KernelMode::Hybrid, KernelMode::Auto];

/// One of five pendant-rich families, picked by `family % 5`.
fn pendant_graph(family: usize, n: usize, seed: u64) -> CsrGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    match family % 5 {
        0 => generators::duplication_divergence(n, 0.4, &mut rng),
        1 => generators::preferential_attachment_mixed(n, 1, 3, 0.6, &mut rng),
        2 => generators::lollipop(3 + n % 6, 1 + n % 7),
        3 => generators::balanced_tree(2 + n % 2, 2 + n % 3),
        _ => {
            // A tree, a lollipop and a dup graph side by side, plus an
            // isolated vertex.
            let parts = [
                generators::balanced_tree(2, 2),
                generators::lollipop(4, 1 + n % 4),
                generators::duplication_divergence(n / 2 + 3, 0.4, &mut rng),
            ];
            let mut edges = Vec::new();
            let mut off = 0;
            for g in &parts {
                edges.extend(g.edges().map(|(u, v, _)| (u + off, v + off)));
                off += g.num_vertices() as Vertex;
            }
            CsrGraph::from_edges(off as usize + 1, &edges).unwrap()
        }
    }
}

/// One to four probes, each drawn from all vertices, from the pendant
/// trees, or from their attachments.
fn pick_probes(g: &CsrGraph, rng: &mut SmallRng) -> Vec<Vertex> {
    let forest = PendantForest::peel(g);
    let attachments: Vec<Vertex> = forest.branches().iter().map(|&(a, _)| a).collect();
    let attachments: Vec<Vertex> = attachments.into_iter().filter(|&a| a != u32::MAX).collect();
    let n = g.num_vertices() as Vertex;
    (0..rng.random_range(1..5usize))
        .map(|_| match rng.random_range(0..3u32) {
            1 if !forest.order().is_empty() => {
                forest.order()[rng.random_range(0..forest.order().len())]
            }
            2 if !attachments.is_empty() => attachments[rng.random_range(0..attachments.len())],
            _ => rng.random_range(0..n),
        })
        .collect()
}

/// One to four retained probes, each drawn from all retained vertices, from
/// the attachments of pruned vertices, or from the members of an
/// attachment's reduced vertex (at `Full`, its twins as well as itself).
fn pick_retained_probes(red: &ReducedGraph, rng: &mut SmallRng) -> Vec<Vertex> {
    let n = red.orig_vertices() as Vertex;
    let retained: Vec<Vertex> = (0..n).filter(|&v| red.is_retained(v)).collect();
    let attachments: Vec<Vertex> = (0..n)
        .filter_map(|v| match red.state(v) {
            VertexState::Pruned { att, .. } => Some(att),
            VertexState::Retained { .. } => None,
        })
        .collect();
    (0..rng.random_range(1..5usize))
        .map(|_| match rng.random_range(0..3u32) {
            1 if !attachments.is_empty() => attachments[rng.random_range(0..attachments.len())],
            2 if !attachments.is_empty() => {
                let a = attachments[rng.random_range(0..attachments.len())];
                let VertexState::Retained { h, .. } = red.state(a) else { unreachable!() };
                let members = red.members(h);
                members[rng.random_range(0..members.len())]
            }
            _ => retained[rng.random_range(0..retained.len())],
        })
        .collect()
}

fn distinct_keys(view: SpdView<'_>, probes: &[Vertex]) -> usize {
    let keys = view.row_keys(probes);
    let mut all: Vec<u64> = view.graph().vertices().map(|v| keys.key(v)).collect();
    all.sort_unstable();
    all.dedup();
    all.len()
}

/// Every source's row through the reduction, in every kernel mode, equals
/// the row cached under its key (the first source's with that key).
fn assert_reduced_keys_share_identical_rows(
    g: &CsrGraph,
    red: &ReducedGraph,
    probes: &[Vertex],
) -> Result<(), TestCaseError> {
    let view = SpdView::preprocessed(g, red);
    let keys = view.row_keys(probes);
    for mode in MODES {
        let mut calc = ViewCalculator::new(view.with_kernel(mode));
        let mut cached: HashMap<u64, (Vertex, Vec<u64>)> = HashMap::new();
        let mut row = Vec::new();
        for v in g.vertices() {
            calc.dependency_on_many(v, probes, &mut row);
            let own = bits(&row);
            let (first, keyed) = cached.entry(keys.key(v)).or_insert_with(|| (v, own.clone()));
            prop_assert_eq!(
                &*keyed,
                &own,
                "source {} shares key {} with {}, probes {:?} {:?}",
                v,
                keys.key(v),
                first,
                probes,
                mode
            );
        }
    }
    Ok(())
}

fn bits(row: &[f64]) -> Vec<u64> {
    row.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every source's own row — targeted and full scan, in every kernel
    /// mode — equals the row cached under its key, bit for bit.
    #[test]
    fn keyed_rows_equal_every_sources_own_row(
        family in 0usize..5, n in 8usize..48, seed in any::<u64>()
    ) {
        let g = pendant_graph(family, n, seed);
        let probes = pick_probes(&g, &mut SmallRng::seed_from_u64(seed ^ 0x5eed));
        let keys = SpdView::direct(&g).row_keys(&probes);
        for mode in MODES {
            let mut calc = ViewCalculator::new(SpdView::direct(&g).with_kernel(mode));
            let mut cached: HashMap<u64, Vec<u64>> = HashMap::new();
            let mut row = Vec::new();
            for v in g.vertices() {
                calc.dependency_on_many(v, &probes, &mut row);
                let own = bits(&row);
                let full = calc.dependencies(v);
                let full: Vec<u64> = probes.iter().map(|&r| full[r as usize].to_bits()).collect();
                prop_assert_eq!(&own, &full, "source {} probes {:?} {:?}", v, &probes, mode);
                let keyed = cached.entry(keys.key(v)).or_insert_with(|| own.clone());
                prop_assert_eq!(
                    &*keyed, &own, "source {} key {} probes {:?} {:?}", v, keys.key(v), &probes, mode
                );
            }
        }
    }

    /// Weighted direct views key every source by its own id.
    #[test]
    fn weighted_views_key_by_id(family in 0usize..5, n in 8usize..48, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = pendant_graph(family, n, seed);
        let probes = pick_probes(&g, &mut rng);
        let g = generators::assign_uniform_weights(&g, 1.0, 3.0, &mut rng);
        let keys = SpdView::direct(&g).row_keys(&probes);
        for v in g.vertices() {
            prop_assert_eq!(keys.key(v), v as u64);
        }
    }

    /// The profile through the direct view, which computes one row per key
    /// at any thread count, equals each source's own dependency bit for
    /// bit.
    #[test]
    fn direct_profile_equals_per_source_dependencies(
        family in 0usize..5, n in 8usize..48, seed in any::<u64>()
    ) {
        let g = pendant_graph(family, n, seed);
        let r = pick_probes(&g, &mut SmallRng::seed_from_u64(seed))[0];
        let mut calc = ViewCalculator::new(SpdView::direct(&g));
        let want: Vec<u64> = g.vertices().map(|v| calc.dependency_on(v, r).to_bits()).collect();
        prop_assert_eq!(bits(&dependency_profile(&g, r).profile), want.clone());
        for threads in [1, 2] {
            let got = dependency_profile_view_par(SpdView::direct(&g), r, threads);
            prop_assert_eq!(bits(&got.profile), want.clone(), "threads {}", threads);
        }
    }

    /// Through an unweighted reduction at `Prune` or `Full`, sources with
    /// equal keys have bit-identical rows, and there are no more distinct
    /// keys than on the direct view.
    #[test]
    fn reduced_keyed_rows_are_bit_identical(
        family in 0usize..5, n in 8usize..48, seed in any::<u64>(), full in any::<bool>()
    ) {
        let g = pendant_graph(family, n, seed);
        let level = if full { ReduceLevel::Full } else { ReduceLevel::Prune };
        let red = reduce(&g, level).unwrap();
        let probes = pick_retained_probes(&red, &mut SmallRng::seed_from_u64(seed ^ 0x5eed));
        assert_reduced_keys_share_identical_rows(&g, &red, &probes)?;
        let reduced = distinct_keys(SpdView::preprocessed(&g, &red), &probes);
        let direct = distinct_keys(SpdView::direct(&g), &probes);
        prop_assert!(reduced <= direct, "{} reduced keys, {} direct, probes {:?}", reduced, direct, &probes);
    }

    /// The same through a weighted `Prune` reduction: Dijkstra serves a
    /// pruned source with its attachment's pass, so their rows agree off
    /// the attachment.
    #[test]
    fn weighted_reduced_keyed_rows_are_bit_identical(
        family in 0usize..5, n in 8usize..48, seed in any::<u64>()
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = pendant_graph(family, n, seed);
        let g = generators::assign_uniform_weights(&g, 1.0, 3.0, &mut rng);
        let red = reduce(&g, ReduceLevel::Prune).unwrap();
        let probes = pick_retained_probes(&red, &mut rng);
        assert_reduced_keys_share_identical_rows(&g, &red, &probes)?;
    }
}

/// On `lollipop(6, 5)` the path hangs off clique vertex 5: with a clique
/// probe other than 5 the six path vertices share vertex 5's key, and with
/// a path probe or probe 5 every source keys by its id.
#[test]
fn lollipop_keys_fold_the_path_onto_its_attachment() {
    let g = generators::lollipop(6, 5);
    let distinct = |probes: &[Vertex]| distinct_keys(SpdView::direct(&g), probes);
    assert_eq!(distinct(&[0]), 6);
    assert_eq!(distinct(&[0, 3]), 6);
    assert_eq!(distinct(&[5]), 11);
    assert_eq!(distinct(&[8]), 11);
}
