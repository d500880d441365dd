//! Golden digests of `reduce` output: every field of every `ReducedGraph`
//! (CSR bytes, per-class arrays, membership, per-vertex state, corrections,
//! row groups, stats) hashed over a fixed set of graphs at every level.
//!
//! Checkpointed oracle rows are keyed by `row_group` and reduced ids, and the
//! collapsed kernels read the CSR and multiplicities bit for bit, so any
//! moved bit here is a compatibility break. The digests were recorded from
//! the original `HashMap`-based reduction; a rewrite must reproduce them.

use mhbc_graph::reduce::{reduce, ReduceError, ReduceLevel, ReducedGraph, TwinKind, VertexState};
use mhbc_graph::{generators, CsrGraph};
use rand::{rngs::SmallRng, SeedableRng};

/// 64-bit FNV-1a over little-endian words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn words(&mut self, xs: impl IntoIterator<Item = u64>) {
        let mut len = 0u64;
        for x in xs {
            self.word(x);
            len += 1;
        }
        self.word(len);
    }
}

fn digest(red: &ReducedGraph) -> u64 {
    let mut d = Digest::new();
    d.word(red.level() as u64);
    d.word(red.orig_vertices() as u64);
    let h = red.csr();
    let (offsets, targets) = h.csr();
    d.words(offsets.iter().map(|&x| x as u64));
    d.words(targets.iter().map(|&x| x as u64));
    d.words(h.degrees().iter().map(|&x| x as u64));
    d.word(h.num_edges() as u64);
    d.word(h.is_weighted() as u64);
    let zs = 0..h.num_vertices() as u32;
    if h.is_weighted() {
        d.words(
            zs.clone().flat_map(|z| h.neighbor_weights(z).unwrap().iter().map(|w| w.to_bits())),
        );
    }
    d.words(red.mults().iter().map(|x| x.to_bits()));
    d.words(red.weights().iter().map(|x| x.to_bits()));
    d.words(zs.clone().map(|z| red.sum_w2(z).to_bits()));
    d.words(zs.clone().map(|z| red.wdeg(z).to_bits()));
    d.words(zs.clone().map(|z| match red.kind(z) {
        TwinKind::Single => 0,
        TwinKind::False => 1,
        TwinKind::True => 2,
    }));
    d.words(zs.clone().map(|z| red.comp_total(z).to_bits()));
    for z in zs {
        d.words(red.members(z).iter().map(|&m| m as u64));
    }
    let vs = 0..red.orig_vertices() as u32;
    d.words(vs.clone().flat_map(|v| match red.state(v) {
        VertexState::Retained { h, omega } => [0, h as u64, omega as u64],
        VertexState::Pruned { att, branch } => [1, att as u64, branch as u64],
    }));
    d.words(red.corrections().iter().map(|x| x.to_bits()));
    d.words(vs.map(|v| red.row_group(v) as u64));
    let s = red.stats();
    d.words(
        [
            s.orig_vertices,
            s.orig_edges,
            s.pruned_vertices,
            s.collapsed_vertices,
            s.reduced_vertices,
            s.reduced_edges,
        ]
        .map(|x| x as u64),
    );
    d.0
}

fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

fn graphs() -> Vec<(&'static str, CsrGraph)> {
    // Triangle with a pendant, a K(2,3) block, a path, two isolated
    // vertices and a 6-cycle, all disconnected from each other.
    let union = CsrGraph::from_edges(
        20,
        &[
            (0, 1),
            (1, 2),
            (0, 2),
            (2, 3),
            (4, 6),
            (4, 7),
            (4, 8),
            (5, 6),
            (5, 7),
            (5, 8),
            (9, 10),
            (10, 11),
            (14, 15),
            (15, 16),
            (16, 17),
            (17, 18),
            (18, 19),
            (19, 14),
        ],
    )
    .unwrap();
    let weighted_ba = generators::assign_uniform_weights(
        &generators::barabasi_albert(300, 2, &mut rng(5)),
        0.5,
        4.0,
        &mut rng(6),
    );
    vec![
        ("ba1", generators::barabasi_albert(400, 1, &mut rng(1))),
        ("ba2", generators::barabasi_albert(400, 2, &mut rng(2))),
        ("ba3", generators::barabasi_albert(400, 3, &mut rng(3))),
        ("dup", generators::duplication_divergence(400, 0.5, &mut rng(4))),
        ("lollipop", generators::lollipop(8, 4)),
        ("barbell", generators::barbell(5, 3)),
        ("complete", generators::complete(6)),
        ("complete_bipartite", generators::complete_bipartite(3, 5)),
        ("star", generators::star(7)),
        ("path", generators::path(6)),
        ("union", union),
        ("weighted_ba", weighted_ba),
    ]
}

/// `(graph, [Off, Prune, Full])` digests; `0` marks the refused weighted
/// `Full` reduction.
const GOLDEN: [(&str, [u64; 3]); 12] = [
    ("ba1", [0xc9340e1189decc7e, 0xece7c5893b84ae69, 0x2f7dfbc603efc826]),
    ("ba2", [0xe52432ca1ee89552, 0x116ba17e1ba81769, 0xeeaaff211e216e3f]),
    ("ba3", [0xac202c826a127594, 0x123eea43292b1a6f, 0x1712816b7b3b5cc9]),
    ("dup", [0x294a460d3153c18a, 0x37700c38e2fa3fb2, 0xfbe933cec18c68c1]),
    ("lollipop", [0x5c586e289037d153, 0x6b878595435dc070, 0x076b6d3bd31fcda9]),
    ("barbell", [0xe07aa9cfb38989f7, 0xd3ef4f232d578e06, 0x733ed4b67665b9b1]),
    ("complete", [0xf123f0945fa6c1f4, 0xbd663ebeda2b6e35, 0xa29c6455840ddb5e]),
    ("complete_bipartite", [0xead5fc83031e3333, 0xc2de8551903937c2, 0x74e70d7892c4ec35]),
    ("star", [0x14787f142a84965e, 0x4886036952449658, 0xa887e2cca186d9ff]),
    ("path", [0x2d5e13bcf325f41e, 0x07ed8cd80ebba279, 0x1e3a54864f09059e]),
    ("union", [0x718cb63bd9567fbb, 0x6873a1712fb580ae, 0x064221a98e3793aa]),
    ("weighted_ba", [0xea1396f16ffef2b6, 0x8c41428c37273a21, 0]),
];

#[test]
fn reduce_output_matches_golden_digests() {
    let levels = [ReduceLevel::Off, ReduceLevel::Prune, ReduceLevel::Full];
    let mut got = Vec::new();
    for (name, g) in graphs() {
        let mut row = [0u64; 3];
        for (slot, &level) in row.iter_mut().zip(&levels) {
            match reduce(&g, level) {
                Ok(red) => *slot = digest(&red),
                Err(e) => {
                    assert!(g.is_weighted() && level == ReduceLevel::Full, "{name}: {e}");
                    assert_eq!(e, ReduceError::WeightedCollapse);
                }
            }
        }
        got.push((name, row));
    }
    assert_eq!(got.len(), GOLDEN.len());
    for ((name, row), (want_name, want)) in got.iter().zip(GOLDEN.iter()) {
        assert_eq!(name, want_name);
        assert_eq!(row, want, "{name}: [Off, Prune, Full] digests moved, got {row:#018x?}");
    }
}
