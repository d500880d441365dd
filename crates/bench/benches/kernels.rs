//! Criterion micro-benchmarks for the per-sample kernels.
//!
//! Backs the §4.1 cost claims: one SPD pass (BFS or Dijkstra) plus one
//! backward accumulation per sample, `O(|E|)` on unweighted graphs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mhbc_graph::{generators, CsrGraph};
use mhbc_spd::{exact_betweenness_par, BfsSpd, DependencyCalculator, DijkstraSpd};
use rand::{rngs::SmallRng, SeedableRng};
use std::hint::black_box;

fn graphs() -> Vec<(&'static str, CsrGraph)> {
    let mut rng = SmallRng::seed_from_u64(42);
    vec![
        ("ba-5k", generators::barabasi_albert(5_000, 4, &mut rng)),
        ("grid-70x70", generators::grid(70, 70, false)),
    ]
}

fn bench_bfs_spd(c: &mut Criterion) {
    let mut group = c.benchmark_group("bfs_spd");
    for (name, g) in graphs() {
        group.throughput(Throughput::Elements(g.num_edges() as u64));
        let mut spd = BfsSpd::new(g.num_vertices());
        group.bench_with_input(BenchmarkId::from_parameter(name), &g, |b, g| {
            let mut s = 0u32;
            b.iter(|| {
                spd.compute(g, s % g.num_vertices() as u32);
                s = s.wrapping_add(97);
                black_box(spd.reached())
            });
        });
    }
    group.finish();
}

fn bench_dependency_accumulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("dependency_accumulation");
    for (name, g) in graphs() {
        group.throughput(Throughput::Elements(g.num_edges() as u64));
        let mut calc = DependencyCalculator::new(&g);
        group.bench_with_input(BenchmarkId::from_parameter(name), &g, |b, g| {
            let mut s = 0u32;
            b.iter(|| {
                let d = calc.dependencies(g, s % g.num_vertices() as u32);
                s = s.wrapping_add(101);
                black_box(d[0])
            });
        });
    }
    group.finish();
}

fn bench_dijkstra_spd(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(43);
    let g = generators::assign_uniform_weights(
        &generators::barabasi_albert(5_000, 4, &mut rng),
        1.0,
        10.0,
        &mut rng,
    );
    let mut spd = DijkstraSpd::new(g.num_vertices());
    c.bench_function("dijkstra_spd/ba-5k-weighted", |b| {
        let mut s = 0u32;
        b.iter(|| {
            spd.compute(&g, s % g.num_vertices() as u32);
            s = s.wrapping_add(97);
            black_box(spd.reached())
        });
    });
}

fn bench_exact_brandes(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(44);
    let g = generators::barabasi_albert(2_000, 4, &mut rng);
    let mut group = c.benchmark_group("exact_brandes");
    group.sample_size(10);
    group.bench_function("ba-2k-serial", |b| b.iter(|| black_box(mhbc_spd::exact_betweenness(&g))));
    group.bench_function("ba-2k-parallel", |b| b.iter(|| black_box(exact_betweenness_par(&g, 0))));
    group.finish();
}

criterion_group!(
    kernels,
    bench_bfs_spd,
    bench_dependency_accumulation,
    bench_dijkstra_spd,
    bench_exact_brandes
);
criterion_main!(kernels);
