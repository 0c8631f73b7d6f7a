//! Criterion bench for Fig. 16: the simulated draw per pipeline variant,
//! in the shape a served frame runs it — persistent targets, a warmed
//! `DrawScratch`, `try_draw_in_place`, the retirement check on — serially
//! (`threads: 1`, the serving configuration) and tile-sharded over two
//! host workers (`threads: 2`).
//!
//! Before timing, each row's warm-up draw is checked against the draw
//! golden pin (`tests/support/draw_golden.rs`): a draw whose stats or image
//! bits moved is refused, not timed.

#[path = "../../../tests/support/draw_golden.rs"]
mod golden;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gsplat::{ColorBuffer, DepthStencilBuffer, FragmentKernel};
use vrpipe::{try_draw_in_place, DrawScratch, PipelineVariant};

fn bench_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig16_pipeline_variants");
    group.sample_size(10);
    for scene in ["Lego", "Train"] {
        let (splats, width, height) = golden::scene_splats(scene);
        for threads in [1, 2] {
            let gpu = golden::config(FragmentKernel::Soa, threads);
            let mut color = ColorBuffer::new(width, height, gpu.pixel_format);
            let mut ds = DepthStencilBuffer::new(width, height);
            let mut scratch = DrawScratch::default();
            for v in PipelineVariant::ALL {
                let stats = try_draw_in_place(&splats, &gpu, v, &mut color, &mut ds, &mut scratch)
                    .expect("pinned configs are valid");
                let pin = golden::find(scene, v, gpu.kernel).expect("every variant is pinned");
                if let Err(moved) = golden::check(pin, &stats, &color, &ds) {
                    panic!("threads {threads}: draw moved off the golden pin: {moved}");
                }
                let id = BenchmarkId::new(format!("{scene}/threads{threads}"), v.label());
                group.bench_with_input(id, &v, |b, &v| {
                    b.iter(|| {
                        try_draw_in_place(&splats, &gpu, v, &mut color, &mut ds, &mut scratch)
                            .map(|s| s.total_cycles)
                    })
                });
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_variants);
criterion_main!(benches);
