//! Criterion bench for Fig. 20 / §VII-A: fixed-function unit probes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpu_sim::config::GpuConfig;
use gpu_sim::microbench::{crop_cache_probe, tile_binning_probe};

fn bench_microbench(c: &mut Criterion) {
    let cfg = GpuConfig::default();

    let mut group = c.benchmark_group("fig20a_crop_cache");
    group.sample_size(20);
    for rects in [8u32, 16, 24] {
        group.bench_with_input(BenchmarkId::from_parameter(rects), &rects, |b, &r| {
            b.iter(|| crop_cache_probe(&cfg, 8, 16, r, 42).l2_accesses)
        });
    }
    group.finish();

    let mut group = c.benchmark_group("vii_a_tile_binning");
    group.sample_size(20);
    for tiles in [32u32, 33] {
        group.bench_with_input(BenchmarkId::from_parameter(tiles), &tiles, |b, &t| {
            b.iter(|| tile_binning_probe(&cfg, t, t * 10).warps)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_microbench);
criterion_main!(benches);
