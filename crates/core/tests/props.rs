//! Property-based tests for the VR-Pipe extensions: QRU invariants and
//! the closed-form warp accounting against a slot-by-slot packer, the
//! lane shading kernel against the per-fragment shade → merge → blend
//! oracle, merge correctness, and cross-variant image equivalence on
//! randomized scenes.

#[path = "support/shading_oracle.rs"]
mod shading_oracle;

mod quad {
    use gpu_sim::tiles::{QuadPos, TileId};
    include!("../../gpu-sim/tests/support/quad.rs");
}

use gpu_sim::config::GpuConfig;
use gpu_sim::tiles::{QuadPos, TileId};
use gsplat::color::Rgba;
use gsplat::math::{Vec2, Vec3};
use gsplat::splat::Splat;
use proptest::prelude::*;
use quad::Quad;
use vrpipe::qm::{warp_counts, QuadPairs};
use vrpipe::shading::{shade_pair, ShadeCounters};
use vrpipe::{draw, PipelineVariant};

fn quad_at(pos_idx: u8, splat: u32) -> Quad {
    let pos = QuadPos {
        x: pos_idx % 8,
        y: pos_idx / 8,
    };
    Quad {
        tile: TileId { x: 0, y: 0 },
        pos,
        origin: (pos.x as u32 * 2, pos.y as u32 * 2),
        coverage: 0xF,
        splat,
    }
}

/// The QRU as a slot-by-slot warp packer: the reference the library's
/// register scan and closed-form warp accounting are checked against.
mod oracle {
    use crate::quad::Quad;

    /// One warp slot as planned by the QRU.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum WarpSlot {
        /// An unmerged quad (index into the flushed bin).
        Single(usize),
        /// A merge pair `(front, back)` occupying two adjacent quad slots.
        Pair(usize, usize),
    }

    impl WarpSlot {
        /// Quad slots this entry occupies in the warp (a pair takes two).
        pub fn slots(&self) -> usize {
            match self {
                WarpSlot::Single(_) => 1,
                WarpSlot::Pair(..) => 2,
            }
        }
    }

    /// The QRU's warp launch plan for one flushed bin.
    pub struct WarpPlan {
        /// Planned warps, each holding at most 8 quad slots.
        pub warps: Vec<Vec<WarpSlot>>,
        /// Bit `i` set when bin quad `i` takes part in a merge.
        pub merge_bitmap: u128,
        /// Merge pairs `(front, back)` in detection order.
        pub pairs: Vec<(usize, usize)>,
    }

    /// Scans the bin with 64 position registers (a second quad at an
    /// occupied position pairs and clears the register), then packs
    /// pairs first in detection order, then the unmerged quads in bin
    /// order, 8 slots per warp, never splitting a pair across warps.
    pub fn plan_warps(bin: &[Quad]) -> WarpPlan {
        let mut registers: [Option<usize>; 64] = [None; 64];
        let mut pairs = Vec::new();
        let mut merge_bitmap = 0u128;
        for (qid, quad) in bin.iter().enumerate() {
            let reg = quad.pos.register_index();
            match registers[reg].take() {
                Some(front) => {
                    pairs.push((front, qid));
                    merge_bitmap |= 1 << front | 1 << qid;
                }
                None => registers[reg] = Some(qid),
            }
        }
        let singles = (0..bin.len()).filter(|i| merge_bitmap & (1 << i) == 0);
        let slots = pairs
            .iter()
            .map(|&(f, b)| WarpSlot::Pair(f, b))
            .chain(singles.map(WarpSlot::Single));
        let mut warps: Vec<Vec<WarpSlot>> = Vec::new();
        let mut used = 8;
        for slot in slots {
            if used + slot.slots() > 8 {
                warps.push(Vec::new());
                used = 0;
            }
            used += slot.slots();
            warps.last_mut().unwrap().push(slot);
        }
        WarpPlan {
            warps,
            merge_bitmap,
            pairs,
        }
    }
}

fn splat_strategy() -> impl Strategy<Value = Splat> {
    (
        1.0f32..31.0,  // cx
        1.0f32..31.0,  // cy
        0.5f32..12.0,  // r major
        0.5f32..12.0,  // r minor
        0.05f32..0.95, // opacity
        1.0f32..100.0, // depth
        0.0f32..1.0,   // color seed
    )
        .prop_map(|(cx, cy, rx, ry, opacity, depth, c)| Splat {
            center: Vec2::new(cx, cy),
            depth,
            conic: (1.0 / (rx * rx), 0.0, 1.0 / (ry * ry)),
            axis_major: Vec2::new(rx * 2.5, 0.0),
            axis_minor: Vec2::new(0.0, ry * 2.5),
            color: Vec3::new(c, 1.0 - c, 0.5),
            opacity,
            source: 0,
        })
}

/// A splat near a 32×32 window for the shading oracle test: mostly
/// ordinary, with `kind` mixing in conics that give a positive power,
/// zero and negative opacity, opacity above the [`ALPHA_MAX`] clamp, NaN
/// fields, and a centre so far away that every fragment is pruned.
///
/// [`ALPHA_MAX`]: gsplat::blend::ALPHA_MAX
fn shading_splat() -> impl Strategy<Value = Splat> {
    (
        (-4.0f32..36.0, -4.0f32..36.0),
        (0.001f32..1.5, -0.8f32..0.8, 0.001f32..1.5),
        (0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0),
        0.0f32..1.0,
        0u8..20,
    )
        .prop_map(|((cx, cy), (a, b, c), (r, g, bl), opacity, kind)| {
            let mut s = Splat {
                center: Vec2::new(cx, cy),
                depth: 1.0,
                conic: (a, b, c),
                axis_major: Vec2::new(8.0, 0.0),
                axis_minor: Vec2::new(0.0, 8.0),
                color: Vec3::new(r, g, bl),
                opacity,
                source: 0,
            };
            match kind {
                // Negative definite: positive power off the centre.
                0 => s.conic = (-a, b, -c),
                // Indefinite: positive power along some directions.
                1 => s.conic.1 = 2.0 + b,
                2 => s.opacity = 0.0,
                3 => s.opacity = -opacity - 0.01,
                4 => s.opacity = 1.0 + opacity,
                5 => s.opacity = f32::NAN,
                6 => s.conic.0 = f32::NAN,
                7 => s.center.x = f32::NAN,
                8 => s.color.y = f32::NAN,
                9 => s.center = Vec2::new(1.0e4, -1.0e4),
                _ => {}
            }
            s
        })
}

/// Asserts that two colors are the same bits, lane by lane.
fn assert_same_bits(lane: Rgba, oracle: Rgba, at: &str) {
    let bits = |c: Rgba| [c.r, c.g, c.b, c.a].map(f32::to_bits);
    assert_eq!(bits(lane), bits(oracle), "{at}: {lane:?} vs {oracle:?}");
}

proptest! {
    /// The draw's lane kernel (`shade_pair`) equals the per-fragment
    /// shade → merge → blend oracle bit for bit on random quads: the four
    /// pre-multiplied lanes, the alive mask, every lane blended over a
    /// random destination, and the shaded, alpha-pruned and dead-quad
    /// counters. Quads have random (partial, sometimes empty) coverage;
    /// about half are merge pairs, including pairs where one side is
    /// fully pruned; splats include the edge cases of [`shading_splat`].
    #[test]
    fn lane_kernel_matches_scalar_oracle(
        cases in proptest::collection::vec(
            (
                (shading_splat(), shading_splat()),
                (0u32..32, 0u32..32),
                (0u8..16, 0u8..16),
                0u8..2,
                (0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0),
            ),
            1..48,
        ),
    ) {
        let mut lane_counts = ShadeCounters::default();
        let mut oracle_counts = ShadeCounters::default();
        for (k, ((fs, bs), origin, (fc, bc), paired, (r, g, b, a))) in cases.into_iter().enumerate() {
            let at = format!("case {k}: {fs:?} / {bs:?} at {origin:?}, coverage {fc:#x}/{bc:#x}");
            let quad = |coverage| Quad {
                tile: TileId { x: origin.0 / 16, y: origin.1 / 16 },
                pos: QuadPos { x: (origin.0 % 16 / 2) as u8, y: (origin.1 % 16 / 2) as u8 },
                origin,
                coverage,
                splat: 0,
            };
            let back = (paired == 1).then_some((&bs, bc));
            let lanes = shade_pair(origin, (&fs, fc), back, &mut lane_counts);

            let mut shade = |q: Quad, s: &Splat| {
                let sq = shading_oracle::shade_quad(&q, s);
                let covered = q.coverage_count() as u64;
                oracle_counts.shaded_fragments += covered;
                oracle_counts.alpha_pruned_fragments += covered - sq.alive.count_ones() as u64;
                sq
            };
            let mut sq = shade(quad(fc), &fs);
            if paired == 1 {
                sq = shading_oracle::merge_pair(&sq, &shade(quad(bc), &bs));
            }
            if sq.alive == 0 {
                oracle_counts.dead_quads += 1;
            }
            prop_assert_eq!(lanes.is_none(), sq.alive == 0, "{}", at);
            prop_assert_eq!(lane_counts, oracle_counts, "{}", at);
            let Some(lanes) = lanes else { continue };
            prop_assert_eq!(lanes.alive, sq.alive, "{}", at);
            let dest = Rgba::new(r, g, b, a);
            for i in 0..4 {
                let (rgb, alpha) = shading_oracle::premultiplied_fragment(&sq, i);
                assert_same_bits(lanes.fragment(i), Rgba::from_rgb(rgb, alpha), &at);
                if sq.alive & (1 << i) != 0 {
                    let blended = gsplat::blend::blend_over(dest, lanes.fragment(i));
                    assert_same_bits(blended, shading_oracle::blend(dest, &sq, i), &at);
                }
            }
        }
    }

    /// QRU invariants for arbitrary bins of up to 128 quads: every quad is
    /// planned exactly once, pairs share a position with front before back,
    /// no warp exceeds 8 slots, and the bitmap matches the pairs.
    #[test]
    fn qru_plan_invariants(positions in proptest::collection::vec(0u8..64, 0..128)) {
        let bin: Vec<Quad> = positions
            .iter()
            .enumerate()
            .map(|(i, &p)| quad_at(p, i as u32))
            .collect();
        let plan = oracle::plan_warps(&bin);

        let mut seen = vec![0u32; bin.len()];
        let mut bitmap_check = 0u128;
        for warp in &plan.warps {
            let slots: usize = warp.iter().map(oracle::WarpSlot::slots).sum();
            prop_assert!(slots <= 8, "warp over 8 quad slots");
            for slot in warp {
                match *slot {
                    oracle::WarpSlot::Single(i) => seen[i] += 1,
                    oracle::WarpSlot::Pair(f, b) => {
                        seen[f] += 1;
                        seen[b] += 1;
                        prop_assert!(f < b, "pair front must precede back in bin order");
                        prop_assert_eq!(bin[f].pos, bin[b].pos, "pair positions differ");
                        bitmap_check |= 1 << f;
                        bitmap_check |= 1 << b;
                    }
                }
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1), "quad planned {seen:?} times");
        prop_assert_eq!(bitmap_check, plan.merge_bitmap);
        // Pair count is the maximum possible given consecutive pairing.
        let mut expected_pairs = 0usize;
        let mut counts = [0usize; 64];
        for &p in &positions { counts[p as usize] += 1; }
        for c in counts { expected_pairs += c / 2; }
        prop_assert_eq!(plan.pairs.len(), expected_pairs);
    }

    /// The library's QRU matches the slot-by-slot packer on random bins
    /// of 0–128 quads: the same pair table (front → back, merge bitmap)
    /// from the register scan, and the same warps, occupied slots, pairs
    /// and warps holding a pair from the closed-form accounting. The
    /// positions are drawn from a varying number of distinct positions,
    /// so bins range from no pairs to every quad paired.
    #[test]
    fn qru_closed_form_matches_slot_packer(
        positions in proptest::collection::vec(0u8..64, 0..=128),
        span in 1u8..=64,
    ) {
        let bin: Vec<Quad> = positions
            .iter()
            .enumerate()
            .map(|(i, &p)| quad_at(p % span, i as u32))
            .collect();
        let plan = oracle::plan_warps(&bin);
        let pairs = QuadPairs::scan(bin.iter().enumerate().map(|(i, q)| (i, q.pos)));

        let table: Vec<(usize, usize)> = (0..bin.len())
            .filter_map(|f| pairs.back_of(f).map(|b| (f, b)))
            .collect();
        let mut want = plan.pairs.clone();
        want.sort_unstable();
        prop_assert_eq!(table, want);
        prop_assert_eq!(pairs.fronts | pairs.backs, plan.merge_bitmap);
        prop_assert_eq!(pairs.count(), plan.pairs.len());
        let backs = plan.pairs.iter().fold(0u128, |m, &(_, b)| m | 1 << b);
        prop_assert_eq!(pairs.backs, backs);

        let w = warp_counts(bin.len(), pairs.count());
        prop_assert_eq!(w.warps, plan.warps.len());
        let slots: usize = plan.warps.iter().flatten().map(oracle::WarpSlot::slots).sum();
        prop_assert_eq!(w.slots, slots);
        let with_pair = plan
            .warps
            .iter()
            .filter(|warp| warp.iter().any(|s| matches!(s, oracle::WarpSlot::Pair(..))))
            .count();
        prop_assert_eq!(w.warps_with_pair, with_pair);
    }

    /// QM renders the same image as the baseline (associative regrouping
    /// only), for arbitrary splat sets.
    #[test]
    fn qm_image_equals_baseline(mut splats in proptest::collection::vec(splat_strategy(), 1..60)) {
        splats.sort_by(|a, b| a.depth.partial_cmp(&b.depth).unwrap());
        for (i, s) in splats.iter_mut().enumerate() { s.source = i as u32; }
        let cfg = GpuConfig::default();
        let base = draw(&splats, 32, 32, &cfg, PipelineVariant::Baseline);
        let qm = draw(&splats, 32, 32, &cfg, PipelineVariant::Qm);
        let diff = base.color.max_abs_diff(&qm.color);
        prop_assert!(diff < 1e-4, "QM image diverged by {diff}");
    }

    /// HET only removes visually negligible contributions: the image stays
    /// within ~1 quantization step of the baseline, and never more work is
    /// done than the baseline.
    #[test]
    fn het_image_close_and_work_reduced(mut splats in proptest::collection::vec(splat_strategy(), 1..60)) {
        splats.sort_by(|a, b| a.depth.partial_cmp(&b.depth).unwrap());
        for (i, s) in splats.iter_mut().enumerate() { s.source = i as u32; }
        let cfg = GpuConfig::default();
        let base = draw(&splats, 32, 32, &cfg, PipelineVariant::Baseline);
        let het = draw(&splats, 32, 32, &cfg, PipelineVariant::Het);
        prop_assert!(base.color.max_abs_diff(&het.color) < 3.0 / 255.0);
        prop_assert!(het.stats.crop_fragments <= base.stats.crop_fragments);
        prop_assert!(het.stats.shaded_fragments <= base.stats.shaded_fragments);
    }

    /// Serving is scheduling-invariant: a seeded shuffle of the stream
    /// service order ([`SchedulePolicy::Seeded`]) never changes any
    /// stream's output bits relative to the default oldest-frame-first
    /// schedule — for any seed, i.e. for any interleaving of stream
    /// frames the scheduler can produce.
    #[test]
    fn interleaved_scheduling_never_changes_stream_bits(seed in 0u64..u64::MAX) {
        use gsplat::camera::CameraPath;
        use gsplat::scene::{Scene, EVALUATED_SCENES};
        use std::sync::OnceLock;
        use vrpipe::{
            SchedulePolicy, SequenceConfig, Server, SharedScene, StreamSpec,
        };

        fn scene() -> &'static Scene {
            static SCENE: OnceLock<Scene> = OnceLock::new();
            SCENE.get_or_init(|| EVALUATED_SCENES[4].generate_scaled(0.02))
        }

        /// Per-frame digest: pipeline stats + preprocess stats formatted,
        /// enough to pin the whole frame (stats include every counter the
        /// image feeds).
        fn run_with(policy: SchedulePolicy) -> Vec<Vec<String>> {
            let s = scene();
            let mut server =
                Server::new(SharedScene::new(s.clone()), 1).with_policy(policy);
            for k in 0..3 {
                let path = CameraPath::orbit(
                    s.center,
                    s.view_radius,
                    0.8 + 0.3 * k as f32,
                    0.04 * (k as f32 + 1.0),
                );
                let cfg = SequenceConfig::new(path, 3, 40, 30).with_index();
                server.add_stream(StreamSpec::vrpipe(
                    format!("s{k}"),
                    cfg,
                    GpuConfig::default(),
                    PipelineVariant::HetQm,
                ));
            }
            server
                .run()
                .streams
                .into_iter()
                .map(|s| {
                    s.frames
                        .into_iter()
                        .map(|f| format!("{:?}|{:?}|{:?}", f.stats, f.preprocess, f.cull))
                        .collect()
                })
                .collect()
        }

        fn reference() -> &'static Vec<Vec<String>> {
            static REF: OnceLock<Vec<Vec<String>>> = OnceLock::new();
            REF.get_or_init(|| run_with(SchedulePolicy::OldestFirst))
        }

        let shuffled = run_with(SchedulePolicy::Seeded(seed));
        prop_assert_eq!(reference(), &shuffled, "seed {} changed stream bits", seed);
    }

    /// Work-counter invariants hold for every variant: blended fragments
    /// never exceed shaded, which never exceed rasterized.
    #[test]
    fn fragment_funnel_is_monotone(
        mut splats in proptest::collection::vec(splat_strategy(), 1..40),
        variant_idx in 0usize..4,
    ) {
        splats.sort_by(|a, b| a.depth.partial_cmp(&b.depth).unwrap());
        for (i, s) in splats.iter_mut().enumerate() { s.source = i as u32; }
        let v = PipelineVariant::ALL[variant_idx];
        let out = draw(&splats, 32, 32, &GpuConfig::default(), v);
        let s = &out.stats;
        prop_assert!(s.shaded_fragments <= s.raster_fragments);
        prop_assert!(s.crop_fragments <= s.shaded_fragments);
        prop_assert!(s.crop_quads <= s.raster_quads);
        prop_assert!(s.warp_quad_slots_used <= s.warps_launched * 8);
    }
}
