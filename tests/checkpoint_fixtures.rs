//! Checkpoints written by the release before the driver merge (format v1,
//! committed under `tests/fixtures/`) still resume, bit-identically to an
//! uninterrupted run of today's code — and to the outputs that release
//! printed for the same runs (recorded below as raw bits). One file per
//! kind, plus a single-space file the old threaded pipeline wrote, plus a
//! single-space file written through a `--preprocess full` reduction, which
//! pins the reduction's row-key space (`row_group` and reduced ids) across
//! versions.

use mhbc_core::ensemble::{resume_ensemble, run_ensemble_view};
use mhbc_core::{
    pipeline, resume_joint, EnsembleConfig, JointSpaceConfig, JointSpaceSampler, PrefetchConfig,
    SingleSpaceConfig, SingleSpaceSampler,
};
use mhbc_graph::generators;
use mhbc_graph::reduce::{reduce, ReduceLevel};
use mhbc_spd::SpdView;
use rand::{rngs::SmallRng, SeedableRng};

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
                pipeline::resume_single_view(view, &fixture(name), &prefetch, None).unwrap();
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
    // collapsed, ids relabelled) after 400 of 1000 iterations, segment 200.
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
    assert_eq!(full.spd_passes, 83);
    for threads in [1usize, 2] {
        let prefetch = PrefetchConfig::with_threads(threads);
        let (resumed, report) =
            pipeline::resume_single_view(view, &fixture("single_reduced_v1.ckpt"), &prefetch, None)
                .unwrap();
        assert_eq!(report.resumed_from, 400);
        assert_eq!(full.bc.to_bits(), resumed.bc.to_bits(), "threads {threads}");
        assert_eq!(full.bc_corrected.to_bits(), resumed.bc_corrected.to_bits());
        assert_eq!(full.acceptance_rate.to_bits(), resumed.acceptance_rate.to_bits());
        assert_eq!(full.spd_passes, resumed.spd_passes);
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

#[test]
fn ensemble_fixture_resumes_bit_identically() {
    // Three chains, written after 400 of 800 iterations each, segment 200.
    let g = generators::lollipop(6, 3);
    let view = SpdView::direct(&g);
    let full = run_ensemble_view(view, 7, &EnsembleConfig::new(3, 800, 11)).unwrap();
    assert_eq!(
        (full.bc.to_bits(), full.bc_corrected.to_bits(), full.r_hat.to_bits()),
        (0x3fde77f4eba6f020, 0x3fc7832e2a034417, 0x3ff0286967699e6d)
    );
    assert_eq!(full.spd_passes, 9);
    for threads in [1usize, 3] {
        let prefetch = PrefetchConfig::with_threads(threads);
        let engine = resume_ensemble(view, &fixture("ensemble_v1.ckpt"), prefetch).unwrap();
        assert_eq!(engine.iterations(), 400);
        let (resumed, _) = engine.run();
        assert_eq!(full.bc.to_bits(), resumed.bc.to_bits(), "threads {threads}");
        assert_eq!(full.bc_corrected.to_bits(), resumed.bc_corrected.to_bits());
        assert_eq!(full.r_hat.to_bits(), resumed.r_hat.to_bits());
        assert_eq!(full.acceptance_rate.to_bits(), resumed.acceptance_rate.to_bits());
        assert_eq!(full.spd_passes, resumed.spd_passes);
        for (a, b) in full.per_chain.iter().zip(&resumed.per_chain) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
