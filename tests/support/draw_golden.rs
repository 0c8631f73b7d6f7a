//! The draw golden pin: for every scene in [`SCENES`] (Lego and Train at
//! scale 0.06, and Kitchen at 0.12 for a frame of many tile rows), every
//! [`PipelineVariant`] and both [`FragmentKernel`]s, the simulated cycle
//! count, an FNV-1a digest of every [`PipelineStats`] counter and an FNV-1a
//! digest of the color and depth/stencil bits.
//!
//! Included by `tests/draw_golden.rs`, which checks every pin fresh and
//! through a reused `DrawScratch` at several host worker counts. A change
//! to the draw path that is meant to be bit-exact must leave every entry
//! as is.

use gpu_sim::config::GpuConfig;
use gpu_sim::stats::{CacheStats, PipelineStats};
use gsplat::framebuffer::{ColorBuffer, DepthStencilBuffer};
use gsplat::preprocess::preprocess;
use gsplat::scene::scene_by_name;
use gsplat::{FragmentKernel, Splat};
use vrpipe::PipelineVariant;
use FragmentKernel::{Scalar, Soa};
use PipelineVariant::{Baseline, Het, HetQm, Qm};

/// Every pinned scene with its scale.
pub const SCENES: &[(&str, f32)] = &[("Lego", 0.06), ("Train", 0.06), ("Kitchen", 0.12)];

/// One pinned draw.
pub struct Pin {
    pub scene: &'static str,
    pub variant: PipelineVariant,
    pub kernel: FragmentKernel,
    pub total_cycles: u64,
    pub stats: u64,
    pub image: u64,
}

const fn pin(
    scene: &'static str,
    variant: PipelineVariant,
    kernel: FragmentKernel,
    total_cycles: u64,
    stats: u64,
    image: u64,
) -> Pin {
    Pin {
        scene,
        variant,
        kernel,
        total_cycles,
        stats,
        image,
    }
}

/// Lego and Train were recorded with the `HashMap`/`VecDeque` bin table and
/// the per-set `Vec` cache, before either was rewritten; Kitchen with the
/// serial TC-flush replay, before flush processing was sharded by tile.
#[rustfmt::skip]
pub const PINS: &[Pin] = &[
    pin("Lego", Baseline, Scalar, 29327, 0x3b4068d3be19ff52, 0xf70cb441ebf8bcac),
    pin("Lego", Baseline, Soa, 29327, 0x3b4068d3be19ff52, 0xf70cb441ebf8bcac),
    pin("Lego", Qm, Scalar, 22162, 0x83714bd0df2cde21, 0x02c1389870b01e68),
    pin("Lego", Qm, Soa, 22162, 0x83714bd0df2cde21, 0x02c1389870b01e68),
    pin("Lego", Het, Scalar, 20022, 0xd2e9456e9b9c27d8, 0x7b2e4b0079eaa5c6),
    pin("Lego", Het, Soa, 20022, 0xd2e9456e9b9c27d8, 0x7b2e4b0079eaa5c6),
    pin("Lego", HetQm, Scalar, 15308, 0x1bb359f3763cf63f, 0x5745cf7368a44da9),
    pin("Lego", HetQm, Soa, 15308, 0x1bb359f3763cf63f, 0x5745cf7368a44da9),
    pin("Train", Baseline, Scalar, 73071, 0x3d4739805ea88954, 0x2777dbeb5c211f5d),
    pin("Train", Baseline, Soa, 73071, 0x3d4739805ea88954, 0x2777dbeb5c211f5d),
    pin("Train", Qm, Scalar, 54125, 0x6a5c25574115b084, 0x3085cddfcd518067),
    pin("Train", Qm, Soa, 54125, 0x6a5c25574115b084, 0x3085cddfcd518067),
    pin("Train", Het, Scalar, 25662, 0xb7dff209ecf7e74d, 0xc3e3773c553395c9),
    pin("Train", Het, Soa, 25662, 0xc8f11f68d8d07373, 0xc3e3773c553395c9),
    pin("Train", HetQm, Scalar, 19025, 0x6503424968923f43, 0x9e421031567b7e7d),
    pin("Train", HetQm, Soa, 19025, 0x925de7d79859fc0d, 0x9e421031567b7e7d),
    pin("Kitchen", Baseline, Scalar, 562179, 0x098948ce0b6393c9, 0xd88c16c8e1d88e08),
    pin("Kitchen", Baseline, Soa, 562179, 0x098948ce0b6393c9, 0xd88c16c8e1d88e08),
    pin("Kitchen", Qm, Scalar, 435821, 0x676199f6b54ab992, 0x75b4e0f4947331c3),
    pin("Kitchen", Qm, Soa, 435821, 0x676199f6b54ab992, 0x75b4e0f4947331c3),
    pin("Kitchen", Het, Scalar, 278426, 0x49dcc6a5fef2cb4a, 0x1f41733eefcfe5fb),
    pin("Kitchen", Het, Soa, 278426, 0x6d782071925fb163, 0x1f41733eefcfe5fb),
    pin("Kitchen", HetQm, Scalar, 217541, 0x10f6aeedcadf8835, 0xb4985b369cd7f0f5),
    pin("Kitchen", HetQm, Soa, 217541, 0x2dbf34fb8847ebfe, 0xb4985b369cd7f0f5),
];

/// The depth-sorted splats and the viewport of a pinned scene, seen from
/// its default camera.
pub fn scene_splats(name: &str) -> (Vec<Splat>, u32, u32) {
    let &(_, scale) = SCENES
        .iter()
        .find(|(pinned, _)| *pinned == name)
        .unwrap_or_else(|| panic!("{name} is not a pinned scene"));
    let scene = scene_by_name(name)
        .unwrap_or_else(|| panic!("unknown scene {name}"))
        .generate_scaled(scale);
    let cam = scene.default_camera();
    (preprocess(&scene, &cam).splats, cam.width(), cam.height())
}

/// The configuration of a pinned draw: the default GPU with `kernel` on
/// `threads` host workers (which must never move a pin).
pub fn config(kernel: FragmentKernel, threads: usize) -> GpuConfig {
    GpuConfig {
        kernel,
        threads,
        ..GpuConfig::default()
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    for w in words {
        for byte in w.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// FNV-1a over every counter of `stats`. The exhaustive destructuring
/// makes a new `PipelineStats` field a compile error here.
pub fn stats_digest(stats: &PipelineStats) -> u64 {
    let PipelineStats {
        primitives,
        degenerate_prims,
        tgc_insertions,
        tgc_flushes,
        tgc_evictions,
        coarse_tiles,
        raster_quads,
        raster_fragments,
        tc_insertions,
        tc_flushes,
        tc_evictions,
        zrop_term_tests,
        zrop_term_discards,
        zrop_term_discarded_fragments,
        term_updates,
        warps_launched,
        warp_quad_slots_used,
        shaded_fragments,
        alpha_pruned_fragments,
        merged_pairs,
        crop_quads,
        crop_fragments,
        dead_quads,
        retired_tiles,
        retired_tile_skips,
        crop_cache,
        z_cache,
        total_cycles,
        busy_cycles,
    } = stats.clone();
    let cache = |c: CacheStats| [c.hits, c.misses, c.writebacks];
    let counters = [
        primitives,
        degenerate_prims,
        tgc_insertions,
        tgc_flushes,
        tgc_evictions,
        coarse_tiles,
        raster_quads,
        raster_fragments,
        tc_insertions,
        tc_flushes,
        tc_evictions,
        zrop_term_tests,
        zrop_term_discards,
        zrop_term_discarded_fragments,
        term_updates,
        warps_launched,
        warp_quad_slots_used,
        shaded_fragments,
        alpha_pruned_fragments,
        merged_pairs,
        crop_quads,
        crop_fragments,
        dead_quads,
        retired_tiles,
        retired_tile_skips,
        total_cycles,
    ];
    fnv(
        FNV_OFFSET,
        counters
            .into_iter()
            .chain(cache(crop_cache))
            .chain(cache(z_cache))
            .chain(busy_cycles),
    )
}

/// FNV-1a over the bits of every color channel, depth and stencil value.
pub fn image_digest(color: &ColorBuffer, ds: &DepthStencilBuffer) -> u64 {
    let h = fnv(
        FNV_OFFSET,
        color
            .pixels()
            .iter()
            .flat_map(|p| [p.r, p.g, p.b, p.a].map(|c| c.to_bits() as u64)),
    );
    let (w, hgt) = (ds.width(), ds.height());
    fnv(
        h,
        (0..hgt).flat_map(|y| {
            (0..w).map(move |x| (ds.depth(x, y).to_bits() as u64) << 8 | ds.stencil(x, y) as u64)
        }),
    )
}

/// The pin of `(scene, variant, kernel)`, if there is one.
pub fn find(scene: &str, variant: PipelineVariant, kernel: FragmentKernel) -> Option<&'static Pin> {
    PINS.iter()
        .find(|p| p.scene == scene && p.variant == variant && p.kernel == kernel)
}

/// Checks one draw against its pin; the error names what moved.
pub fn check(
    pin: &Pin,
    stats: &PipelineStats,
    color: &ColorBuffer,
    ds: &DepthStencilBuffer,
) -> Result<(), String> {
    let got = (
        stats.total_cycles,
        stats_digest(stats),
        image_digest(color, ds),
    );
    let want = (pin.total_cycles, pin.stats, pin.image);
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{} {} {:?}: (cycles, stats digest, image digest) = {got:#x?}, pinned {want:#x?}",
            pin.scene, pin.variant, pin.kernel
        ))
    }
}
