//! Analysis & discussion experiments: Fig. 20 (microbenchmarks), the
//! §VII-A tile-binning probe, Fig. 21 (viewpoint sweep), Fig. 22 (GSCore)
//! and Fig. 23 (large-scale scenes).

use gpu_sim::config::GpuConfig;
use gpu_sim::microbench::{
    crop_cache_probe, rop_pixels_per_cycle, rop_time_vs_quads_per_pixel, tile_binning_probe,
};
use gpu_sim::stats::Unit;
use gscore::{estimate, GsCoreConfig};
use gsplat::color::PixelFormat;
use gsplat::preprocess::preprocess;
use gsplat::scene::{EVALUATED_SCENES, LARGE_SCALE_SCENES};
use vrpipe::{PipelineVariant, Renderer};

use crate::common::{banner, default_scale, geomean, viewpoints};

/// Fig. 20a/b/c: ROP and CROP-cache microbenchmarks.
pub fn fig20() {
    let cfg = GpuConfig::default();
    banner(
        "Fig. 20a",
        "CROP cache working-set probe (16 KB expected capacity)",
    );
    println!(
        "{:<14} {:>8} {:>10} {:>12}",
        "rect", "count", "data[KB]", "L2 accesses"
    );
    for (w, h, counts) in [
        (8u32, 16u32, [8u32, 12, 16, 20, 24]),
        (16, 16, [4, 8, 12, 16, 20]),
    ] {
        for count in counts {
            let p = crop_cache_probe(&cfg, w, h, count, 42);
            println!(
                "{:<14} {:>8} {:>10.1} {:>12}",
                format!("{w}x{h}px"),
                count,
                p.data_bytes as f64 / 1024.0,
                p.l2_accesses
            );
        }
    }
    println!("-> L2 traffic starts once the color working set exceeds 16 KB.");

    banner("Fig. 20b", "ROP pixels per cycle by color format");
    for f in [
        PixelFormat::Rgba8,
        PixelFormat::Rgba16F,
        PixelFormat::Rgba32F,
    ] {
        println!(
            "{:<10} {:>3} px/cycle",
            f.to_string(),
            rop_pixels_per_cycle(&cfg, f)
        );
    }
    println!("-> RGBA16F (64 bpp) halves ROP throughput vs RGBA8 (32 bpp).");

    banner("Fig. 20c", "Normalized time vs quads per pixel (RGBA16F)");
    println!("{:>14} {:>16}", "quads/pixel", "normalized time");
    for qpp in [0.25f32, 0.4, 0.6, 0.8, 1.0] {
        println!("{:>14.2} {:>16.2}", qpp, rop_time_vs_quads_per_pixel(qpp));
    }
    println!("-> ROPs operate at quad granularity: partially covered quads waste lanes.");
}

/// §VII-A: the tile-binning warp-launch probe (32-bin cliff).
pub fn tilebins() {
    let cfg = GpuConfig::default();
    banner(
        "§VII-A",
        "Tile-binning probe: warps launched for 2x2 rects round-robin over N tiles",
    );
    println!("{:>8} {:>8} {:>8}", "tiles", "rects", "warps");
    for (tiles, rects) in [
        (8u32, 80u32),
        (16, 160),
        (32, 320),
        (33, 330),
        (48, 480),
        (64, 640),
    ] {
        let p = tile_binning_probe(&cfg, tiles, rects);
        println!("{:>8} {:>8} {:>8}", p.tiles, p.rects, p.warps);
    }
    println!("-> the cliff between 32 and 33 tiles reveals the 32-entry TC bin table.");
}

/// Fig. 21: early-termination ratio across viewpoints.
pub fn fig21() {
    let scale = default_scale();
    let viewpoints = viewpoints();
    banner(
        "Fig. 21",
        &format!(
            "Early-termination ratio across {viewpoints} viewpoints (blended frags without/with ET)"
        ),
    );
    println!(
        "{:<8} {:>6} {:>6} {:>6}  per-viewpoint ratios",
        "scene", "min", "avg", "max"
    );
    for spec in &EVALUATED_SCENES {
        let scene = spec.generate_scaled(scale);
        let cams = scene.viewpoints(viewpoints);
        let mut ratios = Vec::new();
        for cam in &cams {
            let base =
                Renderer::new(GpuConfig::default(), PipelineVariant::Baseline).render(&scene, cam);
            let het = Renderer::new(GpuConfig::default(), PipelineVariant::Het).render(&scene, cam);
            ratios.push(base.stats.crop_fragments as f64 / het.stats.crop_fragments.max(1) as f64);
        }
        let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = ratios.iter().cloned().fold(0.0, f64::max);
        let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
        let series: Vec<String> = ratios.iter().map(|r| format!("{r:.2}")).collect();
        println!(
            "{:<8} {:>6.2} {:>6.2} {:>6.2}  [{}]",
            spec.name,
            min,
            avg,
            max,
            series.join(", ")
        );
    }
    println!("-> every scene averages >1.5 (a third of fragments removable); outdoor scenes peak higher.");
}

/// Fig. 22: performance comparison with the GSCore accelerator.
pub fn fig22() {
    let scale = default_scale();
    banner(
        "Fig. 22",
        "Slowdown of VR-Pipe (HET+QM) relative to the GSCore accelerator",
    );
    println!("{:<8} {:>10}", "scene", "slowdown");
    let mut all = Vec::new();
    for spec in &EVALUATED_SCENES {
        let scene = spec.generate_scaled(scale);
        let cam = scene.default_camera();
        let pre = preprocess(&scene, &cam);
        let vrp = Renderer::new(GpuConfig::default(), PipelineVariant::HetQm).render(&scene, &cam);
        let gs = estimate(
            &pre.splats,
            cam.width(),
            cam.height(),
            &GsCoreConfig::default(),
        );
        let slowdown = vrp.stats.total_cycles as f64 / gs.cycles.max(1) as f64;
        all.push(slowdown);
        println!("{:<8} {:>9.2}x", spec.name, slowdown);
    }
    println!("{:<8} {:>9.2}x", "Geomean", geomean(&all));
    println!(
        "-> the dedicated accelerator stays ahead; VR-Pipe keeps full graphics-API generality."
    );
}

/// Fig. 23: large-scale scenes — unit utilisation and speedup.
pub fn fig23() {
    // Large scenes are heavy; use a smaller scale by default.
    let scale = (default_scale() * 0.66).min(1.0);
    banner(
        "Fig. 23",
        "Large-scale scenes: baseline utilisation and HET+QM speedup",
    );
    println!(
        "{:<9} {:>6} {:>6} {:>8} {:>6} {:>9}",
        "scene", "PROP", "CROP", "Raster", "SM", "speedup"
    );
    for spec in &LARGE_SCALE_SCENES {
        let scene = spec.generate_scaled(scale);
        let cam = scene.default_camera();
        let base =
            Renderer::new(GpuConfig::default(), PipelineVariant::Baseline).render(&scene, &cam);
        let vrp = Renderer::new(GpuConfig::default(), PipelineVariant::HetQm).render(&scene, &cam);
        println!(
            "{:<9} {:>5.0}% {:>5.0}% {:>7.0}% {:>5.0}% {:>8.2}x",
            spec.name,
            100.0 * base.stats.utilization(Unit::Prop),
            100.0 * base.stats.utilization(Unit::Crop),
            100.0 * base.stats.utilization(Unit::Raster),
            100.0 * base.stats.utilization(Unit::Sm),
            base.stats.total_cycles as f64 / vrp.stats.total_cycles as f64
        );
    }
    println!("-> ROPs stay the bottleneck at city scale; VR-Pipe's benefit carries over.");
}
