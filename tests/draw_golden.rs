//! Golden pin of the simulated draw (see `support/draw_golden.rs`): every
//! pinned scene × variant × kernel must reproduce its recorded cycle count,
//! stats digest and image digest bit for bit, at every host worker count —
//! both drawn fresh and drawn through one `DrawScratch` and one pair of
//! render targets reused across the whole scene, as a served stream
//! reuses them.

#[path = "support/draw_golden.rs"]
mod golden;

use gsplat::{ColorBuffer, DepthStencilBuffer, FragmentKernel};
use vrpipe::{draw, try_draw_in_place, DrawScratch, PipelineVariant};

#[test]
fn draws_match_the_golden_pin() {
    let mut failures = Vec::new();
    let mut record = String::new();
    for &(scene, _) in golden::SCENES {
        let (splats, width, height) = golden::scene_splats(scene);
        for threads in [1, 2, 3] {
            let format = golden::config(FragmentKernel::Soa, threads).pixel_format;
            let mut color = ColorBuffer::new(width, height, format);
            let mut ds = DepthStencilBuffer::new(width, height);
            let mut scratch = DrawScratch::default();
            for variant in PipelineVariant::ALL {
                for kernel in [FragmentKernel::Scalar, FragmentKernel::Soa] {
                    let gpu = golden::config(kernel, threads);
                    let out = draw(&splats, width, height, &gpu, variant);
                    if threads == 1 {
                        record.push_str(&format!(
                            "    pin(\"{scene}\", {variant:?}, {kernel:?}, {}, {:#018x}, {:#018x}),\n",
                            out.stats.total_cycles,
                            golden::stats_digest(&out.stats),
                            golden::image_digest(&out.color, &out.depth_stencil),
                        ));
                    }
                    let Some(pin) = golden::find(scene, variant, kernel) else {
                        failures.push(format!("{scene} {variant} {kernel:?}: no pin"));
                        continue;
                    };
                    let fresh = golden::check(pin, &out.stats, &out.color, &out.depth_stencil);
                    failures.extend(fresh.err().map(|e| format!("threads {threads}: {e}")));
                    let reused = try_draw_in_place(
                        &splats,
                        &gpu,
                        variant,
                        &mut color,
                        &mut ds,
                        &mut scratch,
                    )
                    .map_err(|e| format!("{scene} {variant} {kernel:?}: {e}"))
                    .and_then(|stats| golden::check(pin, &stats, &color, &ds));
                    failures.extend(
                        reused
                            .err()
                            .map(|e| format!("threads {threads}, reused scratch: {e}")),
                    );
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}\n{record}", failures.join("\n"));
}
