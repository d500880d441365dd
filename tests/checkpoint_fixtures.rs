//! Checkpoints written by the release before the driver merge (format v1,
//! committed under `tests/fixtures/`) still resume, bit-identically to an
//! uninterrupted run of today's code — and to the outputs that release
//! printed for the same runs (recorded below as raw bits). One file per
//! kind, plus a single-space file the old threaded pipeline wrote, plus a
//! single-space file written through a `--preprocess full` reduction, which
//! pins the reduction's row-key space (`row_group` and reduced ids) across
//! versions, plus a direct-view file written while every source still had
//! its own row key, which pins that restored rows keep their stored keys
//! when a source still maps to them (and are dropped otherwise).
//! The multi-chain ensemble's file (kind 3) is kept to pin its typed
//! rejection, and a crafted joint file pins the arity check. Property tests
//! damage the single and joint files (truncations and byte flips, re-signed
//! so they pass the checksum; foreign versions; absurd length prefixes) and
//! resume them against the wrong graph, and check that resuming fails with
//! a typed error or runs, never panics.

use mhbc_core::{
    resume_joint, resume_single, CoreError, JointSpaceConfig, JointSpaceSampler, PrefetchConfig,
    SingleSpaceConfig, SingleSpaceSampler,
};
use mhbc_graph::reduce::{reduce, ReduceLevel};
use mhbc_graph::{generators, Vertex};
use mhbc_spd::SpdView;
use proptest::prelude::*;
use rand::{rngs::SmallRng, SeedableRng};
use std::collections::HashSet;

fn fixture(name: &str) -> Vec<u8> {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

#[test]
fn single_fixtures_resume_bit_identically() {
    // Written after 400 (sequential) and 600 (threaded) of 1000 iterations,
    // segment 200.
    let g = generators::lollipop(8, 4);
    let view = SpdView::direct(&g);
    let config = SingleSpaceConfig::new(1_000, 7).with_trace();
    let full = SingleSpaceSampler::for_view(view, 9, config).unwrap().run();
    assert_eq!(
        (full.bc.to_bits(), full.bc_corrected.to_bits(), full.acceptance_rate.to_bits()),
        (0x3fdfbc4c2a50658e, 0x3fd14c83be5467a4, 0x3fe3e76c8b439581)
    );
    assert_eq!(full.spd_passes, 12);
    for (name, at) in [("single_v1.ckpt", 400), ("single_threads2_v1.ckpt", 600)] {
        for threads in [1usize, 2] {
            let prefetch = PrefetchConfig::with_threads(threads);
            let (resumed, report) =
                resume_single(view, &fixture(name)).unwrap().with_prefetch(prefetch).run();
            assert_eq!(report.resumed_from, at, "{name}");
            assert_eq!(full.bc.to_bits(), resumed.bc.to_bits(), "{name}, threads {threads}");
            assert_eq!(full.bc_corrected.to_bits(), resumed.bc_corrected.to_bits());
            assert_eq!(full.acceptance_rate.to_bits(), resumed.acceptance_rate.to_bits());
            assert_eq!(full.spd_passes, resumed.spd_passes);
            assert_eq!(full.trace, resumed.trace);
            assert_eq!(full.density_series, resumed.density_series);
        }
    }
}

#[test]
fn reduced_view_fixture_resumes_bit_identically() {
    // Written through a full reduction (pendant trees pruned, false twins
    // collapsed, ids relabelled) after 400 of 1000 iterations, segment 200,
    // while each pruned source still keyed by its (attachment, branch size)
    // row group. Today a pruned source keys by its attachment's row group
    // unless the attachment is the probe, so a fresh run computes 66 rows.
    // The resumed run keeps only the restored rows whose stored key some
    // source maps to today, computes none, and counts the 83 passes the
    // file recorded.
    let g = generators::duplication_divergence(120, 0.5, &mut SmallRng::seed_from_u64(2));
    let red = reduce(&g, ReduceLevel::Full).unwrap();
    let s = red.stats();
    assert!(s.pruned_vertices > 0 && s.collapsed_vertices > 0, "{s:?}");
    let view = SpdView::preprocessed(&g, &red);
    let config = SingleSpaceConfig::new(1_000, 5).with_trace();
    let full = SingleSpaceSampler::for_view(view, 1, config).unwrap().run();
    assert_eq!(
        (full.bc.to_bits(), full.bc_corrected.to_bits(), full.acceptance_rate.to_bits()),
        (0x3fe1a50dec6a4870, 0x3fd93b21c5f17c8b, 0x3fe67ef9db22d0e5)
    );
    assert_eq!(full.spd_passes, 66);
    let keys = view.row_keys(&[1]);
    let live: HashSet<u64> = (0..g.num_vertices() as Vertex).map(|v| keys.key(v)).collect();
    let engine = resume_single(view, &fixture("single_reduced_v1.ckpt")).unwrap();
    let restored = engine.driver().oracle().cached_rows();
    // The file holds 83 rows; 66 keys are live, and it holds a row for each.
    assert_eq!((restored, live.len()), (66, 66));
    // A checkpoint saved after the resume holds only those rows.
    let resaved = resume_single(view, &engine.checkpoint()).unwrap();
    assert_eq!(resaved.driver().oracle().cached_rows(), restored);
    assert_eq!(resaved.driver().oracle().spd_passes(), 83);
    for threads in [1usize, 2] {
        let prefetch = PrefetchConfig::with_threads(threads);
        let (resumed, report) = resume_single(view, &fixture("single_reduced_v1.ckpt"))
            .unwrap()
            .with_prefetch(prefetch)
            .run();
        assert_eq!(report.resumed_from, 400);
        assert_eq!(full.bc.to_bits(), resumed.bc.to_bits(), "threads {threads}");
        assert_eq!(full.bc_corrected.to_bits(), resumed.bc_corrected.to_bits());
        assert_eq!(full.acceptance_rate.to_bits(), resumed.acceptance_rate.to_bits());
        assert_eq!(resumed.spd_passes, 83);
        assert_eq!(full.trace, resumed.trace);
        assert_eq!(full.density_series, resumed.density_series);
    }
}

#[test]
fn pendant_fixture_resumes_bit_identically() {
    // Written after 400 of 1000 iterations, segment 200, for clique probe 3
    // of `lollipop(8, 4)`, whose path 8..=11 hangs off vertex 7. Probe 3
    // lies on no shortest path between two other vertices, so every density
    // is 0. The file holds one row per vertex, keyed by vertex id; today the
    // path vertices key by vertex 7, so a fresh run computes 8 rows, and
    // the resumed run keeps the 8 restored rows under live keys, computes
    // none, and counts the 12 passes the file recorded.
    let g = generators::lollipop(8, 4);
    let view = SpdView::direct(&g);
    let config = SingleSpaceConfig::new(1_000, 7).with_trace();
    let full = SingleSpaceSampler::for_view(view, 3, config).unwrap().run();
    assert_eq!(
        (full.bc.to_bits(), full.bc_corrected.to_bits(), full.acceptance_rate.to_bits()),
        (0, 0, 0x3ff0000000000000)
    );
    assert_eq!(full.spd_passes, 8);
    for threads in [1usize, 2] {
        let prefetch = PrefetchConfig::with_threads(threads);
        let engine = resume_single(view, &fixture("single_pendant_v1.ckpt")).unwrap();
        let (resumed, report) = engine.with_prefetch(prefetch).run();
        assert_eq!(report.resumed_from, 400);
        assert_eq!(full.bc.to_bits(), resumed.bc.to_bits(), "threads {threads}");
        assert_eq!(full.bc_corrected.to_bits(), resumed.bc_corrected.to_bits());
        assert_eq!(full.acceptance_rate.to_bits(), resumed.acceptance_rate.to_bits());
        assert_eq!(resumed.spd_passes, 12);
        assert_eq!(full.trace, resumed.trace);
        assert_eq!(full.density_series, resumed.density_series);
    }
}

#[test]
fn joint_fixture_resumes_bit_identically() {
    // Written after 450 of 900 iterations, segment 150.
    let g = generators::barbell(5, 3);
    let view = SpdView::direct(&g);
    let probes = [5u32, 6, 7];
    let config = JointSpaceConfig::new(900, 41).with_trace_pair(0, 1);
    let full = JointSpaceSampler::for_view(view, &probes, config).unwrap().run();
    assert_eq!(full.acceptance_rate.to_bits(), 0x3fea8641fdb97531);
    assert_eq!((full.spd_passes, &full.counts[..]), (13, &[292u64, 318, 291][..]));
    for threads in [1usize, 2] {
        let engine = resume_joint(view, &fixture("joint_v1.ckpt")).unwrap();
        assert_eq!(engine.iterations(), 450);
        let (resumed, _) = engine.with_prefetch(PrefetchConfig::with_threads(threads)).run();
        assert_eq!(full.counts, resumed.counts, "threads {threads}");
        assert_eq!(full.spd_passes, resumed.spd_passes);
        assert_eq!(full.acceptance_rate.to_bits(), resumed.acceptance_rate.to_bits());
        for (a, b) in full.relative.iter().flatten().zip(resumed.relative.iter().flatten()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(full.trace, resumed.trace);
    }
}

/// The retired ensemble's checkpoints (kind 3) fail with a typed error
/// rather than as unknown or corrupt files.
#[test]
fn ensemble_fixture_is_rejected_with_a_typed_error() {
    let bytes = fixture("ensemble_v1.ckpt");
    let reason = match mhbc_core::checkpoint::peek(&bytes) {
        Err(CoreError::Checkpoint { reason }) => reason,
        other => panic!("expected a checkpoint error, got {other:?}"),
    };
    assert_eq!(reason, "ensemble checkpoints are no longer supported");
    let g = generators::lollipop(6, 3);
    assert!(matches!(
        resume_single(SpdView::direct(&g), &bytes),
        Err(CoreError::Checkpoint { .. })
    ));
}

/// `mhbc resume` on the ensemble fixture exits 1 with the typed message.
#[test]
fn cli_resume_rejects_ensemble_checkpoints() {
    let dir = std::env::temp_dir().join(format!("mhbc-ensemble-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let edges = dir.join("lollipop.txt");
    let g = generators::lollipop(6, 3);
    let text: String = g.edges().map(|(u, v, _)| format!("{u} {v}\n")).collect();
    std::fs::write(&edges, text).unwrap();
    // A copy: a resume that wrongly succeeded would checkpoint over its input.
    let ckpt = dir.join("ensemble_v1.ckpt");
    std::fs::write(&ckpt, fixture("ensemble_v1.ckpt")).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_mhbc"))
        .arg("resume")
        .arg(&edges)
        .arg(&ckpt)
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("ensemble checkpoints are no longer supported"), "{stderr}");
}

/// A joint checkpoint whose accumulator arity disagrees with its probe list
/// is rejected before the accumulator is allocated: an arity of 2^32 would
/// otherwise overflow `k * k` or abort on a 32 GiB allocation.
#[test]
fn joint_checkpoint_with_forged_arity_is_rejected() {
    let original = fixture("joint_v1.ckpt");
    let g = generators::barbell(5, 3);
    let view = SpdView::direct(&g);
    // The accumulator's arity is the one u64 equal to the probe count (3)
    // that is followed by the k * k = 9 float vector length.
    let body = &original[..original.len() - 8];
    let arity: Vec<usize> = (0..body.len() - 16)
        .filter(|&i| {
            body[i..i + 8] == 3u64.to_le_bytes() && body[i + 8..i + 16] == 9u64.to_le_bytes()
        })
        .collect();
    assert_eq!(arity.len(), 1, "accumulator arity must be unambiguous: {arity:?}");
    let at = arity[0];
    for forged in [1u64 << 32, 1_000_000_000_000, 4] {
        let mut bytes = body.to_vec();
        bytes[at..at + 8].copy_from_slice(&forged.to_le_bytes());
        let sum = fnv1a(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        match resume_joint(view, &bytes) {
            Err(CoreError::Checkpoint { .. }) => {}
            Err(other) => panic!("arity {forged}: expected a checkpoint error, got {other}"),
            Ok(_) => panic!("arity {forged}: forged checkpoint accepted"),
        }
    }
}

/// FNV-1a (64-bit), the checkpoint format's trailing checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Re-signs `body` (a checkpoint image without its checksum).
fn resign(body: &[u8]) -> Vec<u8> {
    let mut bytes = body.to_vec();
    bytes.extend_from_slice(&fnv1a(body).to_le_bytes());
    bytes
}

/// Resumes `bytes` as the single-space fixture's run (`joint = false`) or
/// the joint one's, and steps two segments. `Ok` or a typed error are
/// both fine; a panic fails the calling test.
fn resume_and_step(joint: bool, bytes: &[u8]) -> Result<(), CoreError> {
    if joint {
        let g = generators::barbell(5, 3);
        let mut engine = resume_joint(SpdView::direct(&g), bytes)?;
        engine.step_segment();
        engine.step_segment();
    } else {
        let g = generators::lollipop(8, 4);
        let mut engine = resume_single(SpdView::direct(&g), bytes)?;
        engine.step_segment();
        engine.step_segment();
    }
    Ok(())
}

/// Offsets of a single-space fixture's length prefixes (fixed-iteration
/// runs): the monitor block, the trace, the density series, the row table
/// and each row. Walks the whole payload, so a layout change fails here.
fn single_length_fields(body: &[u8]) -> Vec<usize> {
    let len_at = |i: usize| u64::from_le_bytes(body[i..i + 8].try_into().unwrap()) as usize;
    // Header (magic, version, kind, level, kernel, n, m, weighted, hash),
    // then budget, segment, the stopping rule's tag and the segment count.
    let words = (8 + 4 + 3 + 8 + 8 + 1 + 8) + 8 + 8 + 1 + 8;
    // Probe; config (iterations, seed, burn-in, two flags); chain (state,
    // density, two counters, eight RNG words); six accumulator scalars.
    let trace = words + 8 + 8 * len_at(words) + 4 + (3 * 8 + 2) + (4 + 11 * 8) + 6 * 8;
    let density = trace + 8 + 8 * len_at(trace);
    // Proposal sum and maximum; oracle passes, hits and misses.
    let rows = density + 8 + 8 * len_at(density) + 2 * 8 + 3 * 8;
    let mut fields = vec![words, trace, density, rows];
    let mut at = rows + 8;
    for _ in 0..len_at(rows) {
        at += 8; // the row's key
        fields.push(at);
        at += 8 + 8 * len_at(at);
    }
    assert_eq!(at, body.len(), "the layout walk must cover the whole payload");
    fields
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A checkpoint truncated at a sampled length, or with one byte
    /// flipped, and then re-signed resumes to `Ok` or a `CoreError`.
    #[test]
    fn damaged_checkpoints_resume_or_fail_with_a_typed_error(
        joint in any::<bool>(),
        at in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let original = fixture(if joint { "joint_v1.ckpt" } else { "single_v1.ckpt" });
        let body = &original[..original.len() - 8];
        let at = (at % body.len() as u64) as usize;
        prop_assert!(resume_and_step(joint, &resign(&body[..at])).is_err(), "cut at {}", at);
        prop_assert!(resume_and_step(joint, &original[..at]).is_err(), "unsigned cut at {}", at);
        let mut flipped = body.to_vec();
        flipped[at] ^= mask;
        let _ = resume_and_step(joint, &resign(&flipped));
    }

    /// A foreign format version, the wrong graph, or a length prefix longer
    /// than the file is a typed checkpoint error.
    #[test]
    fn foreign_and_absurd_checkpoints_fail_with_a_typed_error(
        joint in any::<bool>(),
        version in 2u32..=u32::MAX,
        k in 3usize..8,
        path in 1usize..6,
        field in any::<usize>(),
        huge in any::<u64>(),
    ) {
        let is_checkpoint_error =
            |r: Result<(), CoreError>| matches!(r, Err(CoreError::Checkpoint { .. }));
        let name = if joint { "joint_v1.ckpt" } else { "single_v1.ckpt" };
        let original = fixture(name);
        let body = &original[..original.len() - 8];
        let mut foreign = body.to_vec();
        foreign[8..12].copy_from_slice(&version.to_le_bytes());
        prop_assert!(is_checkpoint_error(resume_and_step(joint, &resign(&foreign))), "v{}", version);

        // Neither fixture's graph is a lollipop with a clique of 3..8.
        let other = generators::lollipop(k, path);
        let resumed = if joint {
            resume_joint(SpdView::direct(&other), &original).map(|_| ())
        } else {
            resume_single(SpdView::direct(&other), &original).map(|_| ())
        };
        prop_assert!(is_checkpoint_error(resumed), "{} against lollipop({}, {})", name, k, path);

        let fixture_graph = generators::lollipop(8, 4);
        for name in ["single_v1.ckpt", "single_pendant_v1.ckpt"] {
            let original = fixture(name);
            let mut body = original[..original.len() - 8].to_vec();
            let fields = single_length_fields(&body);
            let at = fields[field % fields.len()];
            let absurd = huge.max(body.len() as u64);
            body[at..at + 8].copy_from_slice(&absurd.to_le_bytes());
            let resumed = resume_single(SpdView::direct(&fixture_graph), &resign(&body));
            prop_assert!(
                is_checkpoint_error(resumed.map(|_| ())), "{} length {} at {}", name, absurd, at
            );
        }
    }
}

/// Re-signed single-bit flips that shorten a cached dependency row. These
/// once resumed `Ok` and then panicked on the first lookup of that row.
#[test]
fn flips_that_shorten_a_cached_row_are_rejected() {
    let flips = [
        (false, 6891, 1u8),
        (false, 6915, 1),
        (false, 7155, 1),
        (true, 4262, 1),
        (true, 4302, 1),
        (true, 4462, 2),
        (true, 4662, 1),
        (true, 4662, 2),
    ];
    for (joint, at, mask) in flips {
        let original = fixture(if joint { "joint_v1.ckpt" } else { "single_v1.ckpt" });
        let mut body = original[..original.len() - 8].to_vec();
        body[at] ^= mask;
        match resume_and_step(joint, &resign(&body)) {
            Err(CoreError::Checkpoint { .. }) => {}
            other => panic!("flip {mask:#x} at {at}: expected a checkpoint error, got {other:?}"),
        }
    }
}
