//! Frame-sequence demo: a shaky VR-style flythrough of the "Train" scene
//! rendered as one continuous session — persistent scratch, incremental
//! depth re-sort warm-started from the previous frame, incremental
//! spatially indexed preprocessing (`--indexed`), and the per-frame
//! early-termination behaviour the paper's whole premise rests on.
//!
//! ```text
//! cargo run --release --example sequence_flythrough [frames] [scale] [--stereo] [--indexed]
//! ```

use gpu_sim::config::GpuConfig;
use gsplat::camera::CameraPath;
use gsplat::math::Vec3;
use gsplat::scene::EVALUATED_SCENES;
use gsplat::stream::FragmentKernel;
use vrpipe::{PipelineVariant, SequenceConfig, Session};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let frames: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(24);
    let scale: f32 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(0.1);
    let stereo = args.iter().any(|a| a == "--stereo");
    let indexed = args.iter().any(|a| a == "--indexed");

    let spec = &EVALUATED_SCENES[2]; // Train
    let scene = spec.generate_scaled(scale);
    let (w, h) = spec.scaled_viewport(scale);

    let start = scene.center + Vec3::new(0.0, scene.view_height, scene.view_radius);
    let mut path = CameraPath::flythrough(
        start,
        scene.center,
        scene.view_radius * 0.0015,
        scene.view_radius * 0.0008,
    );
    if stereo {
        path = path.stereo(0.065);
    }
    let cfg = SequenceConfig {
        path,
        frames,
        width: w,
        height: h,
        fov_y: 55f32.to_radians(),
        indexed,
        max_sh_degree: gsplat::sh::MAX_SH_DEGREE,
        rung: 0,
    };
    let gpu = GpuConfig {
        kernel: FragmentKernel::Soa,
        ..GpuConfig::default()
    };

    println!(
        "'{}' {} flythrough: {} frames at {}x{} ({} Gaussians)\n",
        spec.name,
        if stereo { "stereo" } else { "mono" },
        frames,
        w,
        h,
        scene.len()
    );
    println!(
        "{:>5} {:>6} {:>9} {:>12} {:>14} {:>10}",
        "frame", "eye", "visible", "cycles", "retired-ratio", "ms(model)"
    );

    let mut session = Session::default();
    let records = session
        .run_vrpipe(&scene, &cfg, &gpu, PipelineVariant::HetQm)
        .expect("valid configuration");
    for r in &records {
        let eye = if stereo {
            if r.index % 2 == 0 {
                "L"
            } else {
                "R"
            }
        } else {
            "-"
        };
        println!(
            "{:>5} {:>6} {:>9} {:>12} {:>14.3} {:>10.3}",
            r.index,
            eye,
            r.preprocess.visible_splats,
            r.stats.total_cycles,
            r.retired_tile_ratio,
            gpu.cycles_to_ms(r.stats.total_cycles),
        );
    }

    let rs = session.resort_stats();
    println!(
        "\nincremental re-sort: {}/{} frames repaired in place ({} radix fallbacks), {} total shifts",
        rs.repaired, rs.frames, rs.radix_fallbacks, rs.repair_shifts
    );
    if indexed {
        let cs = session.cull_stats();
        println!(
            "indexed preprocessing: {} cells skipped / {} refreshed / {} re-projected; \
             {} gaussians skipped, {} covariance cache hits, {} rebuilds",
            cs.cells_skipped,
            cs.cells_refreshed,
            cs.cells_reprojected,
            cs.gaussians_skipped,
            cs.gaussians_refreshed,
            cs.gaussians_reprojected,
        );
    }
    println!("Every frame is bit-exact with rendering it in isolation (DESIGN.md §6-7).");
}
