//! Criterion bench for Fig. 16: the serial simulated draw per pipeline
//! variant, in the shape a served frame runs it — persistent targets, a
//! warmed `DrawScratch`, `draw_in_place`, `threads: 1`, the SoA kernel.
//!
//! Before timing, each variant's warm-up draw is checked against the draw
//! golden pin (`tests/support/draw_golden.rs`): a draw whose stats or image
//! bits moved is refused, not timed.

#[path = "../../../tests/support/draw_golden.rs"]
mod golden;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpu_sim::config::GpuConfig;
use gsplat::{ColorBuffer, DepthStencilBuffer, FragmentKernel};
use vrpipe::{draw_in_place, DrawScratch, PipelineVariant};

fn bench_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig16_pipeline_variants");
    group.sample_size(10);
    let gpu = GpuConfig {
        threads: 1,
        ..golden::config(FragmentKernel::Soa)
    };
    for scene in ["Lego", "Train"] {
        let (splats, width, height) = golden::scene_splats(scene);
        let mut color = ColorBuffer::new(width, height, gpu.pixel_format);
        let mut ds = DepthStencilBuffer::new(width, height);
        let mut scratch = DrawScratch::default();
        for v in PipelineVariant::ALL {
            let stats = draw_in_place(&splats, &gpu, v, &mut color, &mut ds, &mut scratch);
            let pin = golden::find(scene, v, gpu.kernel).expect("every variant is pinned");
            if let Err(moved) = golden::check(pin, &stats, &color, &ds) {
                panic!("draw moved off the golden pin: {moved}");
            }
            group.bench_with_input(BenchmarkId::new(scene, v.label()), &v, |b, &v| {
                b.iter(|| {
                    draw_in_place(&splats, &gpu, v, &mut color, &mut ds, &mut scratch).total_cycles
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_variants);
criterion_main!(benches);
