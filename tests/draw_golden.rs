//! Golden pin of the simulated draw (see `support/draw_golden.rs`): every
//! pinned scene × variant × kernel must reproduce its recorded cycle count,
//! stats digest and image digest bit for bit, at every host worker count.

#[path = "support/draw_golden.rs"]
mod golden;

use gsplat::FragmentKernel;
use vrpipe::{draw, PipelineVariant};

#[test]
fn draws_match_the_golden_pin() {
    let mut failures = Vec::new();
    let mut record = String::new();
    for &(scene, _) in golden::SCENES {
        let (splats, width, height) = golden::scene_splats(scene);
        for variant in PipelineVariant::ALL {
            for kernel in [FragmentKernel::Scalar, FragmentKernel::Soa] {
                for threads in [1, 2, 3] {
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
                    let checked = match golden::find(scene, variant, kernel) {
                        Some(pin) => golden::check(pin, &out.stats, &out.color, &out.depth_stencil),
                        None => Err(format!("{scene} {variant} {kernel:?}: no pin")),
                    };
                    failures.extend(checked.err().map(|e| format!("threads {threads}: {e}")));
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}\n{record}", failures.join("\n"));
}
