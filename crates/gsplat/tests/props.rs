//! Property-based tests for the gsplat substrate invariants.

use gsplat::blend::{blend_over, fragment_alpha, gaussian_falloff, PixelAccumulator};
use gsplat::camera::Camera;
use gsplat::color::Rgba;
use gsplat::gaussian::Gaussian;
use gsplat::index::{CellClass, CullState, SceneIndex};
use gsplat::math::{Mat2, Vec2, Vec3};
use gsplat::preprocess::{
    preprocess_frame, preprocess_into, PreprocessMode, PreprocessRequest, PreprocessScratch,
};
use gsplat::projection::{project_gaussian, FrameTransform};
use gsplat::sh::ShColor;
use gsplat::sort::{depth_key, radix_argsort, sort_splats_by_depth, IncrementalSorter};
use gsplat::splat::Splat;
use gsplat::stream::{tile_alpha_bound, SplatStream};
use proptest::prelude::*;

/// Arbitrary Gaussian clouds for the spatial-index properties: positions
/// across a volume, a spread of radii, and opacities straddling the prune
/// threshold (so dead Gaussians exercise the sentinel cell).
fn cloud_strategy() -> impl Strategy<Value = Vec<Gaussian>> {
    proptest::collection::vec(
        (
            (-10.0f32..10.0, -10.0f32..10.0, -10.0f32..10.0),
            0.01f32..1.5,
            0.0f32..1.0,
        ),
        1..120,
    )
    .prop_map(|items| {
        items
            .into_iter()
            .map(|((x, y, z), r, o)| {
                Gaussian::isotropic(Vec3::new(x, y, z), r, o, Vec3::splat(0.5))
            })
            .collect()
    })
}

fn rgba_strategy() -> impl Strategy<Value = Rgba> {
    // Pre-multiplied colors: rgb <= alpha keeps the blend in range.
    (0.0f32..=1.0, 0.0f32..=1.0, 0.0f32..=1.0, 0.0f32..=1.0)
        .prop_map(|(r, g, b, a)| Rgba::new(r * a, g * a, b * a, a))
}

proptest! {
    /// Front-to-back blending is associative — the algebraic foundation of
    /// quad merging (paper Eq. 2).
    #[test]
    fn blend_over_is_associative(a in rgba_strategy(), b in rgba_strategy(), c in rgba_strategy()) {
        let left = blend_over(blend_over(a, b), c);
        let right = blend_over(a, blend_over(b, c));
        prop_assert!(left.max_abs_diff(right) < 1e-5,
            "associativity violated: {left:?} vs {right:?}");
    }

    /// Transparent black is a left identity for the blend.
    #[test]
    fn blend_over_identity(c in rgba_strategy()) {
        prop_assert!(blend_over(Rgba::TRANSPARENT, c).max_abs_diff(c) < 1e-7);
    }

    /// Accumulated alpha never exceeds 1 and transmittance never goes
    /// negative, for any fragment stream.
    #[test]
    fn accumulator_stays_in_range(alphas in proptest::collection::vec(0.0f32..=0.99, 0..200)) {
        let mut acc = PixelAccumulator::new();
        for a in alphas {
            acc.blend(Vec3::splat(1.0), a);
            prop_assert!(acc.alpha() <= 1.0 + 1e-5);
            prop_assert!(acc.transmittance() >= -1e-6);
        }
    }

    /// The order-preserving float key transform matches f32 ordering.
    #[test]
    fn depth_key_is_monotone(a in -1e6f32..1e6, b in -1e6f32..1e6) {
        prop_assert_eq!(a < b, depth_key(a) < depth_key(b));
    }

    /// Radix argsort agrees with a stable comparison sort.
    #[test]
    fn radix_matches_std_stable_sort(keys in proptest::collection::vec(0u32..1_000_000, 0..500)) {
        let order = radix_argsort(&keys);
        let mut expect: Vec<u32> = (0..keys.len() as u32).collect();
        expect.sort_by_key(|&i| keys[i as usize]);
        prop_assert_eq!(order, expect);
    }

    /// Fused-sort stability under heavy ties: duplicate keys keep input
    /// order for arbitrary (narrow-domain) key streams.
    #[test]
    fn fused_radix_is_stable_under_ties(keys in proptest::collection::vec(0u32..8, 0..400)) {
        let order = radix_argsort(&keys);
        let mut expect: Vec<u32> = (0..keys.len() as u32).collect();
        expect.sort_by_key(|&i| keys[i as usize]); // std stable sort
        prop_assert_eq!(order, expect);
    }

    /// Pass-skipping correctness: clustered keys sharing high (or low)
    /// bytes — where the fused sort skips constant-digit passes — still
    /// sort exactly like a stable comparison sort.
    #[test]
    fn fused_radix_pass_skipping_is_exact(
        base in 0u32..0xFFFF,
        low in proptest::collection::vec(0u32..256, 1..300),
        shift in 0usize..3,
    ) {
        // Constant digits in at least the two untouched byte lanes.
        let keys: Vec<u32> = low.iter().map(|&l| (base << 16) | (l << (shift * 4))).collect();
        let order = radix_argsort(&keys);
        let mut expect: Vec<u32> = (0..keys.len() as u32).collect();
        expect.sort_by_key(|&i| keys[i as usize]);
        prop_assert_eq!(order, expect);
    }

    /// NaN-free depth streams have a total order: the depth sort is a
    /// permutation that agrees with `f32` comparison everywhere, ties in
    /// input order.
    #[test]
    fn depth_sort_total_order_on_finite_depths(
        depths in proptest::collection::vec(-1e20f32..1e20, 0..300)
    ) {
        let order = sort_splats_by_depth(&depths);
        let mut seen = vec![false; depths.len()];
        for &i in &order {
            prop_assert!(!seen[i as usize], "index {i} repeated");
            seen[i as usize] = true;
        }
        for w in order.windows(2) {
            let (a, b) = (depths[w[0] as usize], depths[w[1] as usize]);
            prop_assert!(a <= b, "out of order: {a} before {b}");
            if depth_key(a) == depth_key(b) {
                prop_assert!(w[0] < w[1], "tie broke input order");
            }
        }
    }

    /// Σ = R S Sᵀ Rᵀ is always symmetric positive semi-definite.
    #[test]
    fn covariance_is_symmetric_psd(
        sx in 0.01f32..2.0, sy in 0.01f32..2.0, sz in 0.01f32..2.0,
        qw in -1.0f32..1.0, qx in -1.0f32..1.0, qy in -1.0f32..1.0, qz in -1.0f32..1.0,
    ) {
        prop_assume!(qw*qw + qx*qx + qy*qy + qz*qz > 1e-3);
        let g = Gaussian::new(
            Vec3::ZERO, Vec3::new(sx, sy, sz), [qw, qx, qy, qz], 0.5,
            ShColor::from_base_color(Vec3::splat(0.5)),
        );
        let cov = g.covariance_3d();
        for i in 0..3 {
            for j in 0..3 {
                prop_assert!((cov.at(i, j) - cov.at(j, i)).abs() < 1e-4);
            }
        }
        // PSD: quadratic form is non-negative for a few probe vectors.
        for v in [Vec3::new(1.0, 0.0, 0.0), Vec3::new(-0.3, 0.8, 0.5), Vec3::new(0.1, -0.9, 0.4)] {
            prop_assert!(v.dot(cov * v) > -1e-4);
        }
    }

    /// Symmetric eigenvalues bound the Rayleigh quotient.
    #[test]
    fn eigenvalues_bound_quadratic_form(a in 0.1f32..10.0, b in -3.0f32..3.0, c in 0.1f32..10.0) {
        prop_assume!(a * c - b * b > 1e-3);
        let m = Mat2::symmetric(a, b, c);
        let (l1, l2) = m.symmetric_eigenvalues();
        prop_assert!(l1 >= l2);
        for v in [gsplat::math::Vec2::new(1.0, 0.0), gsplat::math::Vec2::new(0.6, -0.8)] {
            let q = v.dot(m * v) / v.dot(v);
            prop_assert!(q <= l1 + 1e-3 && q >= l2 - 1e-3, "rayleigh {q} outside [{l2}, {l1}]");
        }
    }

    /// SH evaluation is finite and non-negative for any direction and
    /// bounded coefficients.
    #[test]
    fn sh_evaluation_in_range(
        coeffs in proptest::collection::vec((-1.0f32..1.0, -1.0f32..1.0, -1.0f32..1.0), 16),
        dx in -1.0f32..1.0, dy in -1.0f32..1.0, dz in -1.0f32..1.0,
    ) {
        prop_assume!(dx*dx + dy*dy + dz*dz > 1e-3);
        let sh = ShColor::new(3, coeffs.into_iter().map(|(r, g, b)| Vec3::new(r, g, b)).collect());
        let c = sh.evaluate(Vec3::new(dx, dy, dz));
        prop_assert!(c.is_finite());
        prop_assert!(c.x >= 0.0 && c.y >= 0.0 && c.z >= 0.0);
    }

    /// Every projected splat's OBB boundary is at (or below) the pruning
    /// iso-contour: alpha at the axis endpoints ≈ 1/255.
    #[test]
    fn projected_obb_boundary_is_prune_contour(
        x in -2.0f32..2.0, y in -2.0f32..2.0, z in -2.0f32..2.0,
        radius in 0.05f32..0.5, opacity in 0.05f32..0.99,
    ) {
        let cam = Camera::look_at(Vec3::new(0.0, 0.0, 8.0), Vec3::ZERO, 640, 480, 1.0);
        let g = Gaussian::isotropic(Vec3::new(x, y, z), radius, opacity, Vec3::splat(0.5));
        if let Some(s) = project_gaussian(&g, &cam, 0) {
            let edge = s.center + s.axis_major;
            let a = s.alpha_at(edge);
            prop_assert!(a <= 1.5 / 255.0, "edge alpha {a} too high");
            // And the fragment shader would prune everything outside.
            let outside = s.center + s.axis_major * 1.2;
            let d = outside - s.center;
            prop_assert!(fragment_alpha(s.opacity, s.conic, d.x, d.y).is_none());
        }
    }

    /// The SoA stream is a lossless re-layout: pushing arbitrary splats
    /// (including non-finite field values) and reading them back is the
    /// identity, field for field, bit for bit.
    #[test]
    fn splat_stream_round_trips_losslessly(
        fields in proptest::collection::vec(
            (-1e6f32..1e6, -1e6f32..1e6, 1e-3f32..1e6, -10.0f32..10.0,
             -10.0f32..10.0, -10.0f32..10.0, 0.0f32..1.0, 0u32..1_000_000),
            0..60,
        )
    ) {
        let splats: Vec<Splat> = fields
            .iter()
            .map(|&(cx, cy, depth, a, b, c, opacity, source)| Splat {
                center: Vec2::new(cx, cy),
                depth,
                conic: (a, b, c),
                axis_major: Vec2::new(cy * 0.1, cx * 0.1),
                axis_minor: Vec2::new(-cx * 0.05, cy * 0.05),
                color: Vec3::new(a.abs().min(1.0), b.abs().min(1.0), c.abs().min(1.0)),
                opacity,
                source,
            })
            .collect();
        let stream = SplatStream::from_splats(&splats);
        prop_assert_eq!(stream.len(), splats.len());
        for (i, s) in splats.iter().enumerate() {
            let back = stream.get(i);
            prop_assert!(back == *s, "splat {i} did not round-trip: {back:?} vs {s:?}");
        }
        // Bit-level equality of the hot-loop slices.
        for (i, s) in splats.iter().enumerate() {
            prop_assert_eq!(stream.center_x()[i].to_bits(), s.center.x.to_bits());
            prop_assert_eq!(stream.conic_b()[i].to_bits(), s.conic.1.to_bits());
            prop_assert_eq!(stream.opacity()[i].to_bits(), s.opacity.to_bits());
        }
    }

    /// The incremental re-sorter is bit-exact with the from-scratch radix
    /// sort for *any* frame sequence of keys — arbitrary per-frame
    /// membership and order churn, repaired or fallback path alike.
    #[test]
    fn incremental_sort_matches_radix_for_any_frame_sequence(
        frames in proptest::collection::vec(
            proptest::collection::vec(0u32..5000, 0..150),
            1..8,
        ),
    ) {
        let mut sorter = IncrementalSorter::default();
        let mut order = Vec::new();
        for (i, keys) in frames.iter().enumerate() {
            sorter.sort_keys_into(keys, &mut order);
            prop_assert_eq!(&order, &radix_argsort(keys), "frame {}", i);
        }
        prop_assert_eq!(sorter.stats().frames as usize, frames.len());
    }

    /// Same bit-exactness under *coherent* drift (small per-frame key
    /// deltas on a fixed population) — the profile that actually takes
    /// the insertion-repair fast path.
    #[test]
    fn incremental_sort_matches_radix_under_coherent_drift(
        base in proptest::collection::vec(0u32..100_000, 2..200),
        seed in 0u32..1000,
    ) {
        let mut keys = base;
        let mut sorter = IncrementalSorter::default();
        let mut order = Vec::new();
        for frame in 0..5u32 {
            for (i, k) in keys.iter_mut().enumerate() {
                let drift = (i as u32).wrapping_mul(seed + frame) % 17;
                *k = k.wrapping_add(drift).min(1_000_000);
            }
            sorter.sort_keys_into(&keys, &mut order);
            prop_assert_eq!(&order, &radix_argsort(&keys), "frame {}", frame);
        }
    }

    /// Cell-AABB conservativeness: no Gaussian whose 3σ splat survives
    /// full projection may live in a cell classified fully-outside, and
    /// every live resident of a fully-inside cell must pass the
    /// sphere-vs-frustum cull — for arbitrary clouds and cameras.
    #[test]
    fn outside_cells_never_hide_a_visible_splat(
        cloud in cloud_strategy(),
        eye in ((-25.0f32..25.0), (-25.0f32..25.0), (-25.0f32..25.0)),
        target in ((-5.0f32..5.0), (-5.0f32..5.0), (-5.0f32..5.0)),
    ) {
        let eye = Vec3::new(eye.0, eye.1, eye.2);
        let target = Vec3::new(target.0, target.1, target.2);
        prop_assume!((eye - target).length() > 0.5);
        let cam = Camera::look_at(eye, target, 320, 240, 1.0);
        let index = SceneIndex::build(&cloud);
        let mut classes = Vec::new();
        index.classify_into(&FrameTransform::new(&cam), &mut classes);
        for (i, g) in cloud.iter().enumerate() {
            match classes[index.cell_of()[i] as usize] {
                CellClass::Outside => prop_assert!(
                    project_gaussian(g, &cam, i as u32).is_none(),
                    "gaussian {} projected out of an Outside cell", i
                ),
                CellClass::Inside => prop_assert!(
                    cam.sphere_visible(g.mean, g.bounding_radius()),
                    "gaussian {} culled inside an Inside cell", i
                ),
                CellClass::Boundary => {}
            }
        }
    }

    /// Classification-delta soundness: under the camera-delta bound (a
    /// pure translation), a cell whose terminal classification is
    /// unchanged yields identical per-Gaussian cull results across the
    /// two frames.
    #[test]
    fn stable_cells_keep_cull_results_under_translation(
        cloud in cloud_strategy(),
        eye in ((-20.0f32..20.0), (-20.0f32..20.0), (2.0f32..25.0)),
        delta in ((-0.8f32..0.8), (-0.8f32..0.8), (-0.8f32..0.8)),
    ) {
        let eye = Vec3::new(eye.0, eye.1, eye.2);
        let delta = Vec3::new(delta.0, delta.1, delta.2);
        let target = Vec3::ZERO;
        prop_assume!(eye.length() > 0.5 && (eye + delta - target - delta).length() > 0.5);
        let a = Camera::look_at(eye, target, 256, 192, 1.0);
        // Same view direction, shifted eye and target: the delta bound.
        let b = Camera::look_at(eye + delta, target + delta, 256, 192, 1.0);
        prop_assume!(b.is_translation_of(&a));
        let index = SceneIndex::build(&cloud);
        let (mut ca, mut cb) = (Vec::new(), Vec::new());
        index.classify_into(&FrameTransform::new(&a), &mut ca);
        index.classify_into(&FrameTransform::new(&b), &mut cb);
        for (i, g) in cloud.iter().enumerate() {
            if index.dead()[i] {
                continue;
            }
            let cell = index.cell_of()[i] as usize;
            if ca[cell] == cb[cell] && ca[cell] != CellClass::Boundary {
                let va = a.sphere_visible(g.mean, g.bounding_radius());
                let vb = b.sphere_visible(g.mean, g.bounding_radius());
                prop_assert_eq!(va, vb, "gaussian {} cull flipped in a stable cell", i);
                prop_assert_eq!(va, ca[cell] == CellClass::Inside);
            }
        }
    }

    /// The conservative tile alpha bound dominates the true alpha at every
    /// sampled point of the rectangle, for arbitrary PSD-ish conics and
    /// rectangle placements.
    #[test]
    fn tile_alpha_bound_is_conservative(
        a in 0.01f32..5.0, b in -1.0f32..1.0, c in 0.01f32..5.0,
        opacity in 0.01f32..0.99,
        cx in -50.0f32..50.0, cy in -50.0f32..50.0,
        rx in -40.0f32..40.0, ry in -40.0f32..40.0,
        w in 0.5f32..30.0, h in 0.5f32..30.0,
    ) {
        let bound = tile_alpha_bound((a, b, c), opacity, Vec2::new(cx, cy), (rx, ry), (rx + w, ry + h));
        for i in 0..8 {
            for j in 0..8 {
                let px = rx + w * i as f32 / 7.0;
                let py = ry + h * j as f32 / 7.0;
                let alpha = opacity * gaussian_falloff((a, b, c), px - cx, py - cy);
                prop_assert!(alpha <= bound + 1e-6,
                    "bound {bound} violated by {alpha} at ({px},{py})");
            }
        }
    }
}

/// A small but structurally rich scene for the asset round-trip
/// properties: arbitrary cloud over one of the preset specs.
fn asset_scene(gaussians: Vec<Gaussian>) -> gsplat::scene::Scene {
    gsplat::scene::Scene {
        spec: gsplat::scene::EVALUATED_SCENES[4].clone(),
        scale: 0.5,
        gaussians,
        center: Vec3::ZERO,
        view_radius: 4.0,
        view_height: 1.5,
    }
}

proptest! {
    /// The never-panic decode contract over *arbitrary* bytes: any input
    /// produces a typed result — almost always an error, and a successful
    /// decode has, by construction, verified every checksum.
    #[test]
    fn asset_decode_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(0u8..=255, 0..512),
        strict in 0u8..=1,
    ) {
        let policy = if strict == 0 {
            gsplat::asset::LoadPolicy::Strict
        } else {
            gsplat::asset::LoadPolicy::Quarantine
        };
        // Must return (not panic, not over-allocate) for any byte soup.
        let _ = gsplat::asset::decode_scene(&bytes, policy);
    }

    /// Every byte of a valid file is covered by the header CRC or a
    /// section CRC, so a single bit flip anywhere is always *detected*:
    /// decode returns a typed error, never a panic, never a silently
    /// different scene.
    #[test]
    fn asset_single_bit_flip_is_always_detected(
        cloud in cloud_strategy(),
        offset in 0usize..1_000_000,
        bit in 0u8..8,
    ) {
        let scene = asset_scene(cloud);
        let bytes = gsplat::asset::encode_scene(&scene);
        let flip = gsplat::asset::faults::Corruption::BitFlip { offset, bit };
        let corrupt = flip.apply(&bytes);
        prop_assert!(
            gsplat::asset::decode_scene(&corrupt, gsplat::asset::LoadPolicy::Strict).is_err(),
            "flip at {} bit {bit} went undetected", offset % bytes.len()
        );
    }

    /// Valid files damaged by k seeded corruptions (truncation, bit
    /// flips, CRC clobbers) never panic the decoder, under either policy.
    #[test]
    fn asset_seeded_corruptions_never_panic(
        cloud in cloud_strategy(),
        seed in 0u64..u64::MAX,
        k in 1usize..4,
    ) {
        let scene = asset_scene(cloud);
        let bytes = gsplat::asset::encode_scene(&scene);
        for c in gsplat::asset::faults::seeded_corruptions(seed, bytes.len(), k) {
            let corrupt = c.apply(&bytes);
            let _ = gsplat::asset::decode_scene(&corrupt, gsplat::asset::LoadPolicy::Strict);
            let _ = gsplat::asset::decode_scene(&corrupt, gsplat::asset::LoadPolicy::Quarantine);
        }
    }

    /// Round trip: `save(scene) |> load == scene`, bit-exact, fingerprint
    /// included, for arbitrary valid clouds.
    #[test]
    fn asset_roundtrip_is_bit_exact(cloud in cloud_strategy()) {
        let scene = asset_scene(cloud);
        let bytes = gsplat::asset::encode_scene(&scene);
        let loaded = gsplat::asset::decode_scene(&bytes, gsplat::asset::LoadPolicy::Strict)
            .expect("a freshly encoded scene must load");
        prop_assert!(loaded.report.is_clean());
        prop_assert_eq!(&loaded.scene.gaussians, &scene.gaussians);
        prop_assert_eq!(loaded.scene.spec, scene.spec.clone());
        prop_assert_eq!(loaded.scene.scale, scene.scale);
        prop_assert_eq!(
            loaded.report.file_fingerprint,
            gsplat::index::cloud_fingerprint(&scene.gaussians)
        );
        prop_assert_eq!(loaded.report.kept_fingerprint, loaded.report.file_fingerprint);
    }
}

proptest! {
    /// Grouped ⇒ bit-exact: every camera that proves the pure-translation
    /// bound and joins a round receives splats (values *and* order) and
    /// [`gsplat::preprocess::PreprocessStats`] identical to the flat
    /// [`preprocess_into`] sweep — the reference that shares no index
    /// code — across two consecutive rounds, so the round-to-round
    /// covariance replay path is exercised, not just the cold pass. Rounds
    /// of one member (a solo frame) and of several are both drawn.
    /// Unprovable deltas never reach the round: they are filtered out
    /// exactly as a round-forming scheduler must.
    #[test]
    fn batched_members_are_bit_exact_with_solo(
        cloud in cloud_strategy(),
        eye in ((-18.0f32..18.0), (-18.0f32..18.0), (3.0f32..20.0)),
        deltas in proptest::collection::vec(
            ((-0.6f32..0.6), (-0.6f32..0.6), (-0.6f32..0.6)), 0..4),
        step in ((-0.4f32..0.4), (-0.4f32..0.4), (-0.4f32..0.4)),
    ) {
        let eye = Vec3::new(eye.0, eye.1, eye.2);
        let step = Vec3::new(step.0, step.1, step.2);
        let target = Vec3::ZERO;
        prop_assume!(eye.length() > 0.5);
        let scene = asset_scene(cloud);
        let index = SceneIndex::build(&scene.gaussians);
        let policy = gsplat::par::ThreadPolicy::serial();

        // Round cameras: a leader plus every shifted camera that *proves*
        // the bound (same look direction, translated eye and target —
        // f32 rounding decides, so filter like a scheduler would).
        let round = |shift: Vec3| -> Vec<Camera> {
            let leader = Camera::look_at(eye + shift, target + shift, 256, 192, 1.0);
            let mut cams = vec![leader.clone()];
            cams.extend(deltas.iter().filter_map(|d| {
                let d = Vec3::new(d.0, d.1, d.2);
                let cam = Camera::look_at(eye + shift + d, target + shift + d, 256, 192, 1.0);
                cam.is_translation_of(&leader).then_some(cam)
            }));
            cams
        };
        let rounds = [round(Vec3::ZERO), round(step)];
        prop_assume!(rounds[0].len() == rounds[1].len());

        let mut cull = CullState::default();
        // One scratch per member (per-stream warm-sort state), one shared
        // cull state — the serving topology.
        let members = rounds[0].len();
        let mut batched: Vec<(PreprocessScratch, Vec<Splat>)> =
            (0..members).map(|_| (PreprocessScratch::default(), Vec::new())).collect();
        let mut flat_scratch = PreprocessScratch::default();
        let mut reference = Vec::new();

        for cams in &rounds {
            cull.begin_round(&index, cams);
            for (k, cam) in cams.iter().enumerate() {
                let (scratch, out) = &mut batched[k];
                let request = PreprocessRequest::new(
                    policy,
                    PreprocessMode::Indexed { index: &index, cull: &mut cull },
                );
                let stats_batched = preprocess_frame(&scene, cam, request, scratch, out);
                let stats_flat =
                    preprocess_into(&scene, cam, policy, &mut flat_scratch, &mut reference);
                prop_assert_eq!(stats_batched, stats_flat, "member {} stats diverged", k);
                prop_assert_eq!(&*out, &reference, "member {} splats diverged", k);
            }
        }
        prop_assert_eq!(cull.rounds(), 2);
        prop_assert_eq!(cull.members_total(), 2 * members as u64);
    }
}
