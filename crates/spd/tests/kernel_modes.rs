//! Property tests pinning the direction-optimizing kernel's modes to each
//! other — and to the legacy queue kernel — **bit for bit**.
//!
//! The canonical within-level settle order (ascending vertex id) makes
//! `dist`, σ, δ, and scaled-δ identical floating-point values across
//! [`KernelMode::TopDown`], [`KernelMode::Hybrid`] (default α/β *and*
//! forced bottom-up), and [`KernelMode::Auto`], on every graph — which is
//! what lets `Auto` be the default everywhere without perturbing a single
//! sampler output. These tests sweep random ER / BA / grid / separator
//! graphs, the collapsed multiplicity kernels, and mode switches on reused
//! calculator workspaces.

use mhbc_graph::{generators, CsrGraph, Vertex};
use mhbc_spd::{BfsSpd, KernelMode, SpdView, ViewCalculator};
use proptest::prelude::*;
use rand::{rngs::SmallRng, SeedableRng};

/// One of the four random families, picked by `family % 4`.
fn random_graph(family: usize, n: usize, seed: u64) -> CsrGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    match family % 4 {
        0 => generators::ensure_connected(
            generators::erdos_renyi_gnp(n, 3.0 / n as f64, &mut rng),
            &mut rng,
        ),
        1 => generators::barabasi_albert(n, 2, &mut rng),
        2 => generators::grid(n / 5 + 2, 5, false),
        _ => generators::hub_separator(2 + n % 3, (n / 3).max(4), 0.15, 2, &mut rng).graph,
    }
}

/// Every kernel variant under test: the mode plus optional forced α/β.
fn variants(n: usize) -> Vec<(&'static str, BfsSpd)> {
    let mut forced = BfsSpd::with_mode(n, KernelMode::Hybrid);
    forced.set_hybrid_params(u32::MAX, u32::MAX);
    vec![
        ("topdown", BfsSpd::with_mode(n, KernelMode::TopDown)),
        ("hybrid", BfsSpd::with_mode(n, KernelMode::Hybrid)),
        ("hybrid-forced-pull", forced),
        ("auto", BfsSpd::with_mode(n, KernelMode::Auto)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// hybrid ≡ top-down ≡ auto ≡ legacy, bit for bit, on all four random
    /// families: settle order, dist, σ, δ, and scaled δ.
    #[test]
    fn all_modes_match_legacy_bitwise(
        family in 0usize..4, n in 8usize..40, seed in any::<u64>()
    ) {
        let g = random_graph(family, n, seed);
        let n = g.num_vertices();
        let mut legacy = mhbc_spd::legacy::LegacyBfsSpd::new(n);
        let mut kernels = variants(n);
        let (mut d_ref, mut d_got) = (Vec::new(), Vec::new());
        for s in (0..n as Vertex).step_by(3) {
            legacy.compute(&g, s);
            legacy.canonicalize_order();
            for (name, spd) in kernels.iter_mut() {
                spd.compute(&g, s);
                prop_assert_eq!(spd.order(), &legacy.order[..], "order, {} source {}", name, s);
                for v in 0..n as Vertex {
                    prop_assert_eq!(
                        spd.dist(v), legacy.dist[v as usize], "dist {} {} source {}", name, v, s
                    );
                    prop_assert_eq!(
                        spd.sigma(v).to_bits(),
                        legacy.sigma[v as usize].to_bits(),
                        "sigma {} {} source {}", name, v, s
                    );
                }
                legacy.accumulate_dependencies(&g, &mut d_ref);
                spd.accumulate_dependencies(&g, &mut d_got);
                for v in 0..n {
                    prop_assert_eq!(
                        d_got[v].to_bits(), d_ref[v].to_bits(),
                        "delta {} {} source {}", name, v, s
                    );
                }
                legacy.accumulate_scaled_dependencies(&g, &mut d_ref);
                spd.accumulate_scaled_dependencies(&g, &mut d_got);
                for v in 0..n {
                    prop_assert_eq!(
                        d_got[v].to_bits(), d_ref[v].to_bits(),
                        "scaled {} {} source {}", name, v, s
                    );
                }
            }
        }
    }

    /// The collapsed multiplicity kernels agree across every mode (legacy
    /// has no collapsed variant; top-down is the reference).
    #[test]
    fn collapsed_kernels_match_across_modes(
        family in 0usize..4, n in 8usize..36, seed in any::<u64>()
    ) {
        let g = random_graph(family, n, seed);
        let n = g.num_vertices();
        let mult: Vec<f64> = (0..n).map(|v| 1.0 + ((v as u64 ^ seed) % 3) as f64).collect();
        let seeds: Vec<f64> = (0..n).map(|v| 1.0 + ((v as u64 ^ seed) % 2) as f64).collect();
        let mut reference = BfsSpd::with_mode(n, KernelMode::TopDown);
        let mut kernels = variants(n);
        let (mut d_ref, mut d_got) = (Vec::new(), Vec::new());
        for s in (0..n as Vertex).step_by(4) {
            reference.compute_collapsed(&g, s, &mult);
            reference.accumulate_dependencies_collapsed(&g, &mult, &seeds, &mut d_ref);
            for (name, spd) in kernels.iter_mut() {
                spd.compute_collapsed(&g, s, &mult);
                prop_assert_eq!(spd.order(), reference.order(), "order, {} source {}", name, s);
                for v in 0..n as Vertex {
                    prop_assert_eq!(
                        spd.sigma(v).to_bits(),
                        reference.sigma(v).to_bits(),
                        "sigma {} {} source {}", name, v, s
                    );
                }
                spd.accumulate_dependencies_collapsed(&g, &mult, &seeds, &mut d_got);
                for v in 0..n {
                    prop_assert_eq!(
                        d_got[v].to_bits(), d_ref[v].to_bits(),
                        "delta {} {} source {}", name, v, s
                    );
                }
            }
        }
    }

    /// Calculators bound to views of different kernel modes produce
    /// bit-identical dependency rows — including when one calculator's
    /// workspace is reused across many sources (forced-mode switches
    /// mid-workspace never leak state).
    #[test]
    fn pools_of_every_mode_agree(n in 8usize..30, seed in any::<u64>()) {
        let g = random_graph(0, n, seed);
        let n = g.num_vertices();
        let r = (seed % n as u64) as Vertex;
        let reference: Vec<f64> = {
            let mut calc =
                ViewCalculator::new(SpdView::direct(&g).with_kernel(KernelMode::TopDown));
            (0..n as Vertex).map(|v| calc.dependency_on(v, r)).collect()
        };
        for mode in [KernelMode::Hybrid, KernelMode::Auto] {
            let mut calc = ViewCalculator::new(SpdView::direct(&g).with_kernel(mode));
            for v in 0..n as Vertex {
                prop_assert_eq!(
                    calc.dependency_on(v, r).to_bits(),
                    reference[v as usize].to_bits(),
                    "source {} mode {:?}", v, mode
                );
            }
        }
    }
}
