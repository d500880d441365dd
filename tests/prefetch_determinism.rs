//! Tier-1 guarantee of the batch prefetch: for every thread count, the
//! threaded samplers produce **bit-identical** results to the
//! sequential ones — same `bc`, `bc_corrected`, acceptance statistics, and
//! `spd_passes`. Parallelism buys wall-clock only, never a different answer.

use mhbc_core::{
    pipeline, CoreError, EngineConfig, JointSpaceConfig, JointSpaceSampler, PrefetchConfig,
    SingleSpaceConfig, SingleSpaceEstimate, SingleSpaceSampler,
};
use mhbc_graph::{generators, Vertex};
use mhbc_spd::SpdView;
use rand::{rngs::SmallRng, SeedableRng};

/// A fixed-budget single-space run through the batch prefetch.
fn run_fixed(
    view: SpdView<'_>,
    r: Vertex,
    config: &SingleSpaceConfig,
    prefetch: &PrefetchConfig,
) -> Result<SingleSpaceEstimate, CoreError> {
    pipeline::run_single_view_adaptive(view, r, config, EngineConfig::fixed(), prefetch, None)
        .map(|(est, _)| est)
}

/// Everything the determinism guarantee covers, as raw bits.
fn single_fingerprint(e: &mhbc_core::SingleSpaceEstimate) -> (u64, u64, u64, u64, u64) {
    (
        e.bc.to_bits(),
        e.bc_corrected.to_bits(),
        e.acceptance_rate.to_bits(),
        e.spd_passes,
        e.iterations,
    )
}

#[test]
fn single_space_bit_identical_across_thread_counts() {
    let mut rng = SmallRng::seed_from_u64(2024);
    let graphs = [
        ("ba", generators::barabasi_albert(300, 3, &mut rng)),
        ("lollipop", generators::lollipop(10, 6)),
        ("grid", generators::grid(12, 12, false)),
        (
            "er",
            generators::ensure_connected(
                generators::erdos_renyi_gnm(300, 1_200, &mut rng),
                &mut rng,
            ),
        ),
        (
            "ws",
            generators::ensure_connected(
                generators::watts_strogatz(300, 8, 0.1, &mut rng),
                &mut rng,
            ),
        ),
        ("sep", generators::hub_separator(4, 75, 8.0 / 300.0, 3, &mut rng).graph),
    ];
    for (name, g) in &graphs {
        let r = (0..g.num_vertices() as u32).max_by_key(|&v| g.degree(v)).unwrap();
        for seed in [1u64, 99] {
            let config = SingleSpaceConfig::new(1_500, seed);
            let seq = SingleSpaceSampler::new(g, r, config.clone()).unwrap().run();
            for threads in [1usize, 2, 8] {
                let par = run_fixed(
                    SpdView::direct(g),
                    r,
                    &config,
                    &PrefetchConfig::with_threads(threads),
                )
                .unwrap();
                assert_eq!(
                    single_fingerprint(&seq),
                    single_fingerprint(&par),
                    "{name}, seed {seed}, threads {threads}"
                );
            }
        }
    }
}

#[test]
fn single_space_traces_are_bit_identical_too() {
    let g = generators::barbell(8, 2);
    let config = SingleSpaceConfig::new(1_200, 7).with_trace();
    let seq = SingleSpaceSampler::new(&g, 8, config.clone()).unwrap().run();
    let par = run_fixed(SpdView::direct(&g), 8, &config, &PrefetchConfig::with_threads(8)).unwrap();
    let (st, pt) = (seq.trace.unwrap(), par.trace.unwrap());
    assert_eq!(st.len(), pt.len());
    for (i, (a, b)) in st.iter().zip(&pt).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "trace entry {i}");
    }
    assert_eq!(seq.density_series.unwrap(), par.density_series.unwrap());
}

#[test]
fn single_space_ablation_configs_stay_identical() {
    // Burn-in and accepted-only change the accumulation rules; the pipeline
    // must follow them identically.
    let g = generators::lollipop(7, 5);
    for config in [
        SingleSpaceConfig::new(900, 3).with_burn_in(100),
        SingleSpaceConfig::new(900, 3).accepted_only(),
        SingleSpaceConfig::new(900, 3).with_initial(2),
    ] {
        let seq = SingleSpaceSampler::new(&g, 7, config.clone()).unwrap().run();
        let par =
            run_fixed(SpdView::direct(&g), 7, &config, &PrefetchConfig::with_threads(4)).unwrap();
        assert_eq!(single_fingerprint(&seq), single_fingerprint(&par));
    }
}

#[test]
fn joint_space_bit_identical_across_thread_counts() {
    let g = generators::barbell(7, 3);
    let probes = [7u32, 8, 9, 0];
    let config = JointSpaceConfig::new(2_000, 17);
    let seq = JointSpaceSampler::new(&g, &probes, config.clone()).unwrap().run();
    for threads in [1usize, 2, 8] {
        let par = pipeline::run_joint_view(
            SpdView::direct(&g),
            &probes,
            &config,
            &PrefetchConfig::with_threads(threads),
        )
        .unwrap();
        assert_eq!(seq.counts, par.counts, "threads {threads}");
        assert_eq!(seq.spd_passes, par.spd_passes, "threads {threads}");
        assert_eq!(
            seq.acceptance_rate.to_bits(),
            par.acceptance_rate.to_bits(),
            "threads {threads}"
        );
        for i in 0..probes.len() {
            for j in 0..probes.len() {
                assert_eq!(
                    seq.relative[i][j].to_bits(),
                    par.relative[i][j].to_bits(),
                    "({i},{j}), threads {threads}"
                );
            }
        }
    }
}

#[test]
fn weighted_graphs_flow_through_the_pipeline_unchanged() {
    let mut rng = SmallRng::seed_from_u64(55);
    let g = generators::assign_uniform_weights(&generators::barbell(6, 2), 1.0, 4.0, &mut rng);
    let config = SingleSpaceConfig::new(800, 31);
    let seq = SingleSpaceSampler::new(&g, 6, config.clone()).unwrap().run();
    let par = run_fixed(SpdView::direct(&g), 6, &config, &PrefetchConfig::with_threads(4)).unwrap();
    assert_eq!(single_fingerprint(&seq), single_fingerprint(&par));
}

/// A cycle with deliberately scrambled vertex ids: pendant-free and
/// twin-free (so `full` preprocessing is structure-neutral), with dyadic
/// shortest-path counts (σ ∈ {1, 2}), and fragmented enough that the
/// locality guard *does* relabel — exercising the whole reduced evaluation
/// path while keeping every density bit-equal to the direct one.
fn scrambled_cycle(n: usize) -> mhbc_graph::CsrGraph {
    let perm: Vec<u32> = {
        // Fixed multiplicative scramble; the stride is coprime with both n
        // values used below (bijection) and large enough that neighbouring
        // cycle vertices land far apart in id space.
        let stride = 37u64;
        (0..n as u64).map(|i| ((i * stride) % n as u64) as u32).collect()
    };
    let edges: Vec<(u32, u32)> = (0..n).map(|i| (perm[i], perm[(i + 1) % n])).collect();
    mhbc_graph::CsrGraph::from_edges(n, &edges).unwrap()
}

#[test]
fn preprocessed_runs_bit_identical_across_thread_counts() {
    use mhbc_graph::reduce::{reduce, ReduceLevel};

    let mut rng = SmallRng::seed_from_u64(77);
    let graphs = [
        ("web", generators::preferential_attachment_mixed(400, 1, 4, 0.45, &mut rng)),
        ("dup", generators::duplication_divergence(400, 0.5, &mut rng)),
        ("lollipop", generators::lollipop(10, 6)),
    ];
    for (name, g) in &graphs {
        for level in [ReduceLevel::Prune, ReduceLevel::Full] {
            let red = reduce(g, level).unwrap();
            let view = SpdView::preprocessed(g, &red);
            let r = (0..g.num_vertices() as u32)
                .filter(|&v| red.is_retained(v))
                .max_by_key(|&v| g.degree(v))
                .unwrap();
            let config = SingleSpaceConfig::new(1_200, 5);
            let seq = run_fixed(view, r, &config, &PrefetchConfig::sequential()).unwrap();
            for threads in [1usize, 2, 8] {
                let par =
                    run_fixed(view, r, &config, &PrefetchConfig::with_threads(threads)).unwrap();
                assert_eq!(
                    single_fingerprint(&seq),
                    single_fingerprint(&par),
                    "{name}, {level:?}, threads {threads}"
                );
            }
        }
    }
}

#[test]
fn preprocess_full_matches_off_run_for_run_on_pendant_free_graphs() {
    use mhbc_graph::reduce::{reduce, ReduceLevel, VertexState};

    for n in [101usize, 128] {
        let g = scrambled_cycle(n);
        let red = reduce(&g, ReduceLevel::Full).unwrap();
        assert_eq!(red.stats().pruned_vertices, 0);
        assert_eq!(red.stats().collapsed_vertices, 0);
        // The scrambled layout must actually trigger the relabel, so the
        // reduced evaluation path (not a trivial identity) is under test.
        let relabelled = (0..n as u32).any(|v| match red.state(v) {
            VertexState::Retained { h, .. } => h != v,
            _ => false,
        });
        assert!(relabelled, "scrambled cycle should be relabelled");
        let view = SpdView::preprocessed(&g, &red);
        for seed in [2u64, 41, 97] {
            let config = SingleSpaceConfig::new(2_000, seed);
            let off =
                run_fixed(SpdView::direct(&g), 0, &config, &PrefetchConfig::sequential()).unwrap();
            let full = run_fixed(view, 0, &config, &PrefetchConfig::with_threads(2)).unwrap();
            assert_eq!(
                (off.bc.to_bits(), off.bc_corrected.to_bits(), off.acceptance_rate.to_bits()),
                (full.bc.to_bits(), full.bc_corrected.to_bits(), full.acceptance_rate.to_bits()),
                "cycle({n}), seed {seed}"
            );
        }
    }
}

#[test]
fn preprocessed_joint_bit_identical_across_thread_counts() {
    use mhbc_graph::reduce::{reduce, ReduceLevel};

    let mut rng = SmallRng::seed_from_u64(91);
    let g = generators::preferential_attachment_mixed(300, 1, 3, 0.4, &mut rng);
    let red = reduce(&g, ReduceLevel::Full).unwrap();
    let view = SpdView::preprocessed(&g, &red);
    let mut retained = (0..g.num_vertices() as u32).filter(|&v| red.is_retained(v));
    let probes = [retained.next().unwrap(), retained.next().unwrap(), retained.next().unwrap()];
    let config = JointSpaceConfig::new(1_500, 13);
    let seq =
        pipeline::run_joint_view(view, &probes, &config, &PrefetchConfig::sequential()).unwrap();
    for threads in [2usize, 8] {
        let par = pipeline::run_joint_view(
            view,
            &probes,
            &config,
            &PrefetchConfig::with_threads(threads),
        )
        .unwrap();
        assert_eq!(seq.counts, par.counts, "threads {threads}");
        assert_eq!(seq.spd_passes, par.spd_passes, "threads {threads}");
        for i in 0..probes.len() {
            for j in 0..probes.len() {
                assert_eq!(
                    seq.relative[i][j].to_bits(),
                    par.relative[i][j].to_bits(),
                    "({i},{j}), threads {threads}"
                );
            }
        }
    }
}

#[test]
fn sampler_pipeline_bit_identical_across_kernel_modes_and_threads() {
    // PR 4 acceptance: the direction-optimizing SPD kernel's canonical
    // settle order makes every KernelMode produce identical density rows,
    // so the whole sampler pipeline — single and joint, reduced and
    // direct — agrees bit for bit across `--kernel` x `--threads 1/2/8`.
    use mhbc_graph::reduce::{reduce, ReduceLevel};
    use mhbc_spd::KernelMode;

    let mut rng = SmallRng::seed_from_u64(44);
    let g = generators::barabasi_albert(250, 3, &mut rng);
    let r = (0..g.num_vertices() as u32).max_by_key(|&v| g.degree(v)).unwrap();
    let red = reduce(&g, ReduceLevel::Full).unwrap();
    let config = SingleSpaceConfig::new(1_200, 5);
    let modes = [KernelMode::Auto, KernelMode::TopDown, KernelMode::Hybrid];

    for (label, reduced) in [("direct", None), ("reduced", Some(&red))] {
        let mut reference = None;
        for mode in modes {
            let view = SpdView::from_option(&g, reduced).with_kernel(mode);
            for threads in [1usize, 2, 8] {
                let est =
                    run_fixed(view, r, &config, &PrefetchConfig::with_threads(threads)).unwrap();
                let fp = single_fingerprint(&est);
                match &reference {
                    None => reference = Some(fp),
                    Some(want) => {
                        assert_eq!(*want, fp, "{label}, mode {mode:?}, threads {threads}")
                    }
                }
            }
        }
    }

    // Joint-space sampler across modes (sequential vs threaded).
    let probes = [r, (r + 1) % g.num_vertices() as u32, (r + 7) % g.num_vertices() as u32];
    let jconfig = JointSpaceConfig::new(900, 11);
    let mut reference: Option<Vec<u64>> = None;
    for mode in modes {
        let view = SpdView::direct(&g).with_kernel(mode);
        for threads in [1usize, 4] {
            let est = pipeline::run_joint_view(
                view,
                &probes,
                &jconfig,
                &PrefetchConfig::with_threads(threads),
            )
            .unwrap();
            let fp: Vec<u64> = est
                .relative
                .iter()
                .flatten()
                .map(|x| x.to_bits())
                .chain([est.spd_passes, est.acceptance_rate.to_bits()])
                .collect();
            match &reference {
                None => reference = Some(fp),
                Some(want) => assert_eq!(*want, &fp[..], "mode {mode:?}, threads {threads}"),
            }
        }
    }
}

/// PR 5 (adaptive engine): a checkpoint written at any segment boundary,
/// deserialized and continued, reproduces the uninterrupted run **bit for
/// bit** — across single/joint, `--threads 1/2/8`, and `--kernel
/// auto/topdown` on both sides of the checkpoint. Property-based over
/// graph family, seed, and cut point.
mod checkpoint_roundtrip {
    use super::single_fingerprint;
    use mhbc_core::{
        pipeline, EngineConfig, JointSpaceConfig, JointSpaceSampler, PrefetchConfig,
        SingleSpaceConfig, SingleSpaceSampler,
    };
    use mhbc_graph::generators;
    use mhbc_spd::{KernelMode, SpdView};
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, SeedableRng};

    const THREADS: [usize; 3] = [1, 2, 8];
    const KERNELS: [KernelMode; 2] = [KernelMode::Auto, KernelMode::TopDown];

    fn graph_for(pick: u8) -> mhbc_graph::CsrGraph {
        match pick % 3 {
            0 => generators::lollipop(8, 4),
            1 => generators::barbell(6, 2),
            _ => {
                let mut rng = SmallRng::seed_from_u64(99);
                generators::barabasi_albert(80, 3, &mut rng)
            }
        }
    }

    fn hub(g: &mhbc_graph::CsrGraph) -> u32 {
        (0..g.num_vertices() as u32).max_by_key(|&v| g.degree(v)).expect("non-empty")
    }

    /// Captures the `cut`-th checkpoint a segmented run writes.
    fn nth_checkpoint<'a>(
        sink_calls: &'a mut u64,
        cut: u64,
        saved: &'a mut Option<Vec<u8>>,
    ) -> impl FnMut(Vec<u8>) -> Result<(), mhbc_core::CoreError> + 'a {
        move |bytes| {
            *sink_calls += 1;
            if *sink_calls == cut {
                *saved = Some(bytes);
            }
            Ok(())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn single_resume_equals_uninterrupted(
            pick in 0u8..3,
            seed in 0u64..1_000,
            cut in 1u64..7,
            write_threads_i in 0usize..3,
            resume_threads_i in 0usize..3,
            write_kernel_i in 0usize..2,
            resume_kernel_i in 0usize..2,
        ) {
            let g = graph_for(pick);
            let r = hub(&g);
            let write_view = SpdView::direct(&g).with_kernel(KERNELS[write_kernel_i]);
            let resume_view = SpdView::direct(&g).with_kernel(KERNELS[resume_kernel_i]);
            let config = SingleSpaceConfig::new(1_200, seed).with_trace();
            let uninterrupted =
                SingleSpaceSampler::for_view(write_view, r, config.clone()).unwrap().run();

            // Serialize at the cut-th of 7 boundaries (segment 150)…
            let mut calls = 0;
            let mut saved = None;
            let mut sink = nth_checkpoint(&mut calls, cut, &mut saved);
            let _ = pipeline::run_single_view_adaptive(
                write_view,
                r,
                &config,
                EngineConfig::fixed().with_segment(150),
                &PrefetchConfig::with_threads(THREADS[write_threads_i]),
                Some(&mut sink),
            )
            .unwrap();
            drop(sink);
            let bytes = saved.expect("cut below the boundary count");

            // …deserialize and run to completion under independently chosen
            // thread count and kernel mode.
            let (resumed, report) = mhbc_core::resume_single(resume_view, &bytes)
                .unwrap()
                .with_prefetch(PrefetchConfig::with_threads(THREADS[resume_threads_i]))
                .run();
            prop_assert_eq!(report.resumed_from, cut * 150);
            prop_assert_eq!(single_fingerprint(&uninterrupted), single_fingerprint(&resumed));
            prop_assert_eq!(uninterrupted.trace, resumed.trace);
            prop_assert_eq!(uninterrupted.density_series, resumed.density_series);
        }

        #[test]
        fn joint_resume_equals_uninterrupted(
            pick in 0u8..3,
            seed in 0u64..1_000,
            cut in 1u64..5,
            threads_i in 0usize..3,
            write_kernel_i in 0usize..2,
            resume_kernel_i in 0usize..2,
        ) {
            let g = graph_for(pick);
            let r = hub(&g);
            let n = g.num_vertices() as u32;
            let probes = [r, (r + 1) % n, (r + 5) % n];
            let write_view = SpdView::direct(&g).with_kernel(KERNELS[write_kernel_i]);
            let resume_view = SpdView::direct(&g).with_kernel(KERNELS[resume_kernel_i]);
            let config = JointSpaceConfig::new(900, seed);
            // The uninterrupted reference, through the threaded pipeline
            // (itself pinned bit-identical to sequential above).
            let uninterrupted = pipeline::run_joint_view(
                write_view,
                &probes,
                &config,
                &PrefetchConfig::with_threads(THREADS[threads_i]),
            )
            .unwrap();

            let mut calls = 0;
            let mut saved = None;
            let mut sink = nth_checkpoint(&mut calls, cut, &mut saved);
            let _ = JointSpaceSampler::for_view(write_view, &probes, config)
                .unwrap()
                .into_engine(EngineConfig::fixed().with_segment(150))
                .run_with(|e| sink(e.checkpoint()))
                .unwrap();
            drop(sink);
            let bytes = saved.expect("cut below the boundary count");

            let (resumed, _) =
                mhbc_core::resume_joint(resume_view, &bytes).unwrap().run();
            prop_assert_eq!(&uninterrupted.counts, &resumed.counts);
            prop_assert_eq!(uninterrupted.spd_passes, resumed.spd_passes);
            prop_assert_eq!(
                uninterrupted.acceptance_rate.to_bits(),
                resumed.acceptance_rate.to_bits()
            );
            for i in 0..probes.len() {
                for j in 0..probes.len() {
                    prop_assert_eq!(
                        uninterrupted.relative[i][j].to_bits(),
                        resumed.relative[i][j].to_bits(),
                        "({}, {})", i, j
                    );
                }
            }
        }

    }
}
