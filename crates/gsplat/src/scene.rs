//! Procedural Gaussian-cloud scenes standing in for the paper's trained
//! 3DGS checkpoints (Table II), plus the Fig. 23 large-scale scenes.
//!
//! We cannot ship the trained scenes (Mip-NeRF 360, Tanks&Temples,
//! Synthetic-NeRF/NSVF checkpoints), so each workload is replaced by a
//! procedurally generated Gaussian cloud whose *statistics* match what the
//! paper's analysis depends on (DESIGN.md §2):
//!
//! * Gaussian count and image resolution (Table II), scaled by a `scale`
//!   knob for tractable simulation.
//! * Depth complexity: indoor scenes have a centered object inside a
//!   surrounding room (early-termination benefit concentrated centrally,
//!   §VI-B); outdoor scenes have many Gaussians *beyond* the visible surface
//!   (high ET ratio, Fig. 21); synthetic scenes are isolated objects on an
//!   empty background.
//! * Bimodal trained-opacity distribution (mass near 0 and near 1).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::camera::{orbit_viewpoints, Camera};
use crate::gaussian::Gaussian;
use crate::math::Vec3;
use crate::sh::ShColor;

/// Scene archetypes, determining the spatial layout of the Gaussian cloud.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SceneKind {
    /// Real-world indoor capture: central object surrounded by a room shell
    /// (Mip-NeRF 360 Kitchen / Bonsai).
    IndoorRoom,
    /// Real-world unbounded outdoor capture: foreground surfaces with deep
    /// stacks of background Gaussians (Tanks&Temples Train / Truck).
    OutdoorUnbounded,
    /// Synthetic single object with an empty background
    /// (Synthetic-NeRF Lego / Synthetic-NSVF Palace).
    SyntheticObject,
    /// City-scale aerial capture (Mega-NeRF Building / CityGaussian Rubble,
    /// Fig. 23).
    LargeScale,
}

/// A named workload: resolution, Gaussian budget and archetype (Table II).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SceneSpec {
    /// Scene name as it appears in the paper's figures.
    pub name: &'static str,
    /// Full-resolution viewport width.
    pub width: u32,
    /// Full-resolution viewport height.
    pub height: u32,
    /// Gaussian count at full scale.
    pub gaussians: usize,
    /// Spatial archetype.
    pub kind: SceneKind,
    /// Fraction of Gaussians in the central/foreground structure (the rest
    /// form walls, ground or background). Differentiates e.g. Kitchen from
    /// Bonsai, whose early-termination benefit the paper singles out as low
    /// because the object is centered inside a background room (§VI-B).
    pub object_fraction: f32,
    /// Number of occluded depth layers (shells/rings) — the depth
    /// complexity knob controlling the early-termination ratio (Fig. 21).
    pub depth_layers: u32,
    /// Multiplier on sampled opacities: lower values slow per-pixel alpha
    /// accumulation, stretching the distance to the termination threshold
    /// (synthetic scenes terminate later than their depth complexity alone
    /// would suggest).
    pub opacity_scale: f32,
    /// Deterministic generation seed (per scene so scenes differ).
    pub seed: u64,
}

/// The six evaluated scenes of Table II, in the paper's figure order.
pub const EVALUATED_SCENES: [SceneSpec; 6] = [
    SceneSpec {
        name: "Kitchen",
        width: 1552,
        height: 1040,
        gaussians: 1_850_000,
        kind: SceneKind::IndoorRoom,
        object_fraction: 0.55,
        depth_layers: 4,
        opacity_scale: 0.78,
        seed: 101,
    },
    SceneSpec {
        name: "Bonsai",
        width: 1552,
        height: 1040,
        gaussians: 1_240_000,
        kind: SceneKind::IndoorRoom,
        object_fraction: 0.38,
        depth_layers: 3,
        opacity_scale: 0.62,
        seed: 102,
    },
    SceneSpec {
        name: "Train",
        width: 980,
        height: 545,
        gaussians: 1_030_000,
        kind: SceneKind::OutdoorUnbounded,
        object_fraction: 0.30,
        depth_layers: 4,
        opacity_scale: 0.9,
        seed: 103,
    },
    SceneSpec {
        name: "Truck",
        width: 979,
        height: 546,
        gaussians: 2_540_000,
        kind: SceneKind::OutdoorUnbounded,
        object_fraction: 0.30,
        depth_layers: 3,
        opacity_scale: 0.7,
        seed: 104,
    },
    SceneSpec {
        name: "Lego",
        width: 800,
        height: 800,
        gaussians: 358_000,
        kind: SceneKind::SyntheticObject,
        object_fraction: 0.75,
        depth_layers: 2,
        opacity_scale: 0.24,
        seed: 105,
    },
    SceneSpec {
        name: "Palace",
        width: 800,
        height: 800,
        gaussians: 327_000,
        kind: SceneKind::SyntheticObject,
        object_fraction: 0.70,
        depth_layers: 2,
        opacity_scale: 0.26,
        seed: 106,
    },
];

/// The Fig. 23 large-scale scenes.
pub const LARGE_SCALE_SCENES: [SceneSpec; 2] = [
    SceneSpec {
        name: "Building",
        width: 1152,
        height: 864,
        gaussians: 9_060_000,
        kind: SceneKind::LargeScale,
        object_fraction: 0.8,
        depth_layers: 5,
        opacity_scale: 1.0,
        seed: 201,
    },
    SceneSpec {
        name: "Rubble",
        width: 1152,
        height: 864,
        gaussians: 5_210_000,
        kind: SceneKind::LargeScale,
        object_fraction: 0.8,
        depth_layers: 4,
        opacity_scale: 1.0,
        seed: 202,
    },
];

/// Looks up a scene spec by (case-insensitive) name across all presets.
pub fn scene_by_name(name: &str) -> Option<&'static SceneSpec> {
    EVALUATED_SCENES
        .iter()
        .chain(LARGE_SCALE_SCENES.iter())
        .find(|s| s.name.eq_ignore_ascii_case(name))
}

/// A generated scene: the Gaussian cloud plus the viewpoint geometry.
#[derive(Debug, Clone)]
pub struct Scene {
    /// Spec the scene was generated from.
    pub spec: SceneSpec,
    /// Linear scale factor applied (resolution × `scale`,
    /// count × `scale²`).
    pub scale: f32,
    /// The Gaussian cloud.
    pub gaussians: Vec<Gaussian>,
    /// Orbit center for viewpoint generation.
    pub center: Vec3,
    /// Orbit radius for viewpoint generation.
    pub view_radius: f32,
    /// Camera height offset for viewpoint generation.
    pub view_height: f32,
}

impl SceneSpec {
    /// Generates the scene at a linear `scale`: the viewport shrinks by
    /// `scale` per axis and the Gaussian count by `scale²`, keeping the
    /// splats-per-pixel statistics (and therefore all the ratios the paper
    /// reports) roughly constant.
    ///
    /// # Panics
    ///
    /// Panics when `scale` is not in `(0, 1]`.
    pub fn generate_scaled(&self, scale: f32) -> Scene {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let count = ((self.gaussians as f32 * scale * scale) as usize).max(64);
        let op_scale = self.opacity_scale;
        let gaussians = match self.kind {
            SceneKind::IndoorRoom => generate_indoor(
                &mut rng,
                count,
                self.object_fraction,
                self.depth_layers,
                op_scale,
            ),
            SceneKind::OutdoorUnbounded => generate_outdoor(
                &mut rng,
                count,
                self.object_fraction,
                self.depth_layers,
                op_scale,
            ),
            SceneKind::SyntheticObject => {
                generate_synthetic(&mut rng, count, self.depth_layers, op_scale)
            }
            SceneKind::LargeScale => generate_large_scale(&mut rng, count, op_scale),
        };
        let (center, view_radius, view_height) = match self.kind {
            SceneKind::IndoorRoom => (Vec3::ZERO, 3.2, 1.2),
            SceneKind::OutdoorUnbounded => (Vec3::ZERO, 6.0, 2.0),
            SceneKind::SyntheticObject => (Vec3::ZERO, 4.0, 1.5),
            SceneKind::LargeScale => (Vec3::ZERO, 14.0, 8.0),
        };
        Scene {
            spec: self.clone(),
            scale,
            gaussians,
            center,
            view_radius,
            view_height,
        }
    }

    /// Scaled viewport dimensions for a given linear `scale`.
    pub fn scaled_viewport(&self, scale: f32) -> (u32, u32) {
        (
            ((self.width as f32 * scale) as u32).max(32),
            ((self.height as f32 * scale) as u32).max(32),
        )
    }
}

impl Scene {
    /// The default evaluation camera (first orbit viewpoint).
    pub fn default_camera(&self) -> Camera {
        self.viewpoints(1).remove(0)
    }

    /// `count` orbit viewpoints around the scene center at the scaled
    /// viewport resolution (Fig. 21 sweeps all of these).
    pub fn viewpoints(&self, count: usize) -> Vec<Camera> {
        let (w, h) = self.spec.scaled_viewport(self.scale);
        orbit_viewpoints(
            self.center,
            self.view_radius,
            self.view_height,
            count,
            w,
            h,
            55f32.to_radians(),
        )
    }

    /// Number of Gaussians in the cloud.
    pub fn len(&self) -> usize {
        self.gaussians.len()
    }

    /// `true` when the cloud is empty (never for generated scenes).
    pub fn is_empty(&self) -> bool {
        self.gaussians.is_empty()
    }
}

/// Trained-3DGS-like bimodal opacity: mass near 1 (surface Gaussians) and a
/// long tail of faint ones (floaters / fine detail).
fn sample_opacity(rng: &mut StdRng) -> f32 {
    if rng.gen_bool(0.3) {
        rng.gen_range(0.5..0.9)
    } else {
        rng.gen_range(0.02..0.3)
    }
}

/// Per-Gaussian anisotropic scale around a base radius, with the elongated
/// aspect ratios trained scenes exhibit (surface-aligned disks).
fn sample_scale(rng: &mut StdRng, base: f32) -> Vec3 {
    let r = base * rng.gen_range(0.5..1.8);
    // One axis flattened: trained Gaussians are disk-like on surfaces.
    let flat = rng.gen_range(0.15..0.6);
    match rng.gen_range(0..3) {
        0 => Vec3::new(r * flat, r, r),
        1 => Vec3::new(r, r * flat, r),
        _ => Vec3::new(r, r, r * flat),
    }
}

fn sample_rotation(rng: &mut StdRng) -> [f32; 4] {
    [
        rng.gen_range(-1.0..1.0f32),
        rng.gen_range(-1.0..1.0),
        rng.gen_range(-1.0..1.0),
        rng.gen_range(-1.0..1.0),
    ]
}

fn sample_color(rng: &mut StdRng, tint: Vec3) -> ShColor {
    let base = Vec3::new(
        (tint.x + rng.gen_range(-0.25..0.25f32)).clamp(0.02, 0.98),
        (tint.y + rng.gen_range(-0.25..0.25f32)).clamp(0.02, 0.98),
        (tint.z + rng.gen_range(-0.25..0.25f32)).clamp(0.02, 0.98),
    );
    ShColor::from_base_color(base)
}

/// A random point on a unit sphere.
fn unit_dir(rng: &mut StdRng) -> Vec3 {
    loop {
        let v = Vec3::new(
            rng.gen_range(-1.0..1.0f32),
            rng.gen_range(-1.0..1.0),
            rng.gen_range(-1.0..1.0),
        );
        let l = v.length();
        if l > 1e-3 && l <= 1.0 {
            return v / l;
        }
    }
}

/// Indoor room: 55% central object (layered shells → depth complexity in
/// the center), 45% room walls (single layer → little ET benefit at the
/// periphery). Mirrors the paper's Bonsai observation (§VI-B).
fn generate_indoor(
    rng: &mut StdRng,
    count: usize,
    object_fraction: f32,
    layers: u32,
    op_scale: f32,
) -> Vec<Gaussian> {
    let object = (count as f32 * object_fraction) as usize;
    let mut out = Vec::with_capacity(count);
    let base_radius = 0.9 / (object as f32).sqrt().max(1.0) * 7.0;
    for _ in 0..object {
        // Layered shells: radius mixture creates many Gaussians behind the
        // front surface along each ray through the object.
        let shell = rng.gen_range(0..layers);
        let r = 0.45 + 0.12 * shell as f32 + rng.gen_range(-0.05..0.05);
        let dir = unit_dir(rng);
        let mean = dir * r + Vec3::new(0.0, rng.gen_range(-0.1..0.3), 0.0);
        out.push(Gaussian::new(
            mean,
            sample_scale(rng, base_radius),
            sample_rotation(rng),
            (sample_opacity(rng) * op_scale).clamp(0.0, 1.0),
            sample_color(rng, Vec3::new(0.45, 0.6, 0.4)),
        ));
    }
    // Room shell: points on the walls of a box at distance ~5.
    let wall_base = 2.2 / ((count - object) as f32).sqrt().max(1.0) * 11.0;
    for _ in 0..count - object {
        let face = rng.gen_range(0..5); // no near wall behind camera orbit
        let (u, v) = (rng.gen_range(-5.0..5.0f32), rng.gen_range(-5.0..5.0f32));
        let mean = match face {
            0 => Vec3::new(u, v.abs() * 0.5, -5.0),
            1 => Vec3::new(u, v.abs() * 0.5, 5.0),
            2 => Vec3::new(-5.0, v.abs() * 0.5, u),
            3 => Vec3::new(5.0, v.abs() * 0.5, u),
            _ => Vec3::new(u, -0.8, v), // floor
        };
        out.push(Gaussian::new(
            mean,
            sample_scale(rng, wall_base),
            sample_rotation(rng),
            (sample_opacity(rng) * op_scale).clamp(0.0, 1.0),
            sample_color(rng, Vec3::new(0.7, 0.65, 0.55)),
        ));
    }
    out
}

/// Outdoor unbounded: a ground plane, a foreground object, and — crucially —
/// deep stacks of background Gaussians at increasing distance, so that many
/// Gaussians lie *beyond the surface* along each ray (paper: "a relatively
/// large number of Gaussians exist beyond the surface" in Train/Truck).
fn generate_outdoor(
    rng: &mut StdRng,
    count: usize,
    object_fraction: f32,
    layers: u32,
    op_scale: f32,
) -> Vec<Gaussian> {
    let fg = (count as f32 * object_fraction) as usize;
    let ground = (count as f32 * 0.20) as usize;
    let mut out = Vec::with_capacity(count);
    let fg_base = 0.8 / (fg as f32).sqrt().max(1.0) * 9.0;
    // Foreground object: an elongated box shell (the train/truck body).
    for _ in 0..fg {
        let mean = Vec3::new(
            rng.gen_range(-2.2..2.2f32),
            rng.gen_range(-0.2..1.2),
            rng.gen_range(-0.8..0.8),
        );
        out.push(Gaussian::new(
            mean,
            sample_scale(rng, fg_base),
            sample_rotation(rng),
            (sample_opacity(rng) * op_scale).clamp(0.0, 1.0),
            sample_color(rng, Vec3::new(0.55, 0.35, 0.3)),
        ));
    }
    let ground_base = 1.6 / (ground as f32).sqrt().max(1.0) * 13.0;
    for _ in 0..ground {
        let mean = Vec3::new(
            rng.gen_range(-9.0..9.0f32),
            -0.6,
            rng.gen_range(-9.0..9.0f32),
        );
        out.push(Gaussian::new(
            mean,
            sample_scale(rng, ground_base),
            sample_rotation(rng),
            (sample_opacity(rng) * op_scale).clamp(0.0, 1.0),
            sample_color(rng, Vec3::new(0.4, 0.45, 0.35)),
        ));
    }
    // Background: concentric depth shells (trees, buildings, sky floaters).
    let bg = count - fg - ground;
    let bg_base = 2.0 / (bg as f32).sqrt().max(1.0) * 16.0;
    for _ in 0..bg {
        let ring = rng.gen_range(0..layers);
        let dist = 4.0 + 2.0 * ring as f32 + rng.gen_range(0.0..2.0);
        let theta = rng.gen_range(0.0..std::f32::consts::TAU);
        let mean = Vec3::new(
            dist * theta.cos(),
            rng.gen_range(-0.5..4.0),
            dist * theta.sin(),
        );
        out.push(Gaussian::new(
            mean,
            sample_scale(rng, bg_base),
            sample_rotation(rng),
            (sample_opacity(rng) * op_scale).clamp(0.0, 1.0),
            sample_color(rng, Vec3::new(0.5, 0.55, 0.65)),
        ));
    }
    out
}

/// Synthetic object: a compact multi-shell object, empty background — the
/// Lego/Palace profile (small images, fast renders, moderate ET benefit).
fn generate_synthetic(rng: &mut StdRng, count: usize, layers: u32, op_scale: f32) -> Vec<Gaussian> {
    let mut out = Vec::with_capacity(count);
    let base = 0.8 / (count as f32).sqrt().max(1.0) * 11.0;
    for _ in 0..count {
        // Bias mass to the outer (visible) shell; inner shells are the
        // occluded depth complexity.
        let shell = if rng.gen_bool(0.6) {
            layers - 1
        } else {
            rng.gen_range(0..layers)
        };
        let r = 0.5 + 0.25 * shell as f32 + rng.gen_range(-0.08..0.08);
        let dir = unit_dir(rng);
        // Squash vertically: objects sit on a virtual stand.
        let mean = Vec3::new(dir.x * r * 1.2, dir.y * r * 0.8, dir.z * r * 1.2);
        out.push(Gaussian::new(
            mean,
            sample_scale(rng, base),
            sample_rotation(rng),
            (sample_opacity(rng) * op_scale).clamp(0.0, 1.0),
            sample_color(rng, Vec3::new(0.75, 0.6, 0.3)),
        ));
    }
    out
}

/// City-scale: a wide field of building-block clusters with very high
/// aggregate depth complexity from any aerial viewpoint (Fig. 23).
fn generate_large_scale(rng: &mut StdRng, count: usize, op_scale: f32) -> Vec<Gaussian> {
    let mut out = Vec::with_capacity(count);
    let base = 2.4 / (count as f32).sqrt().max(1.0) * 20.0;
    for _ in 0..count {
        let block_x = rng.gen_range(-4..=4i32) as f32 * 2.5;
        let block_z = rng.gen_range(-4..=4i32) as f32 * 2.5;
        let height = rng.gen_range(0.0..3.5f32);
        let mean = Vec3::new(
            block_x + rng.gen_range(-1.0..1.0),
            height,
            block_z + rng.gen_range(-1.0..1.0),
        );
        out.push(Gaussian::new(
            mean,
            sample_scale(rng, base),
            sample_rotation(rng),
            (sample_opacity(rng) * op_scale).clamp(0.0, 1.0),
            sample_color(rng, Vec3::new(0.6, 0.55, 0.5)),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_resolve_by_name() {
        for spec in EVALUATED_SCENES.iter().chain(LARGE_SCALE_SCENES.iter()) {
            assert!(scene_by_name(spec.name).is_some());
            assert!(scene_by_name(&spec.name.to_lowercase()).is_some());
        }
        assert!(scene_by_name("nonexistent").is_none());
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = &EVALUATED_SCENES[4]; // Lego, smallest
        let a = spec.generate_scaled(0.1);
        let b = spec.generate_scaled(0.1);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.gaussians[0].mean, b.gaussians[0].mean);
    }

    #[test]
    fn scaled_count_is_quadratic() {
        let spec = &EVALUATED_SCENES[4];
        let half = spec.generate_scaled(0.5);
        let tenth = spec.generate_scaled(0.1);
        let ratio = half.len() as f32 / tenth.len() as f32;
        assert!((ratio - 25.0).abs() < 2.0, "ratio {ratio}");
    }

    #[test]
    fn opacity_distribution_is_bimodal() {
        // Kitchen has opacity_scale 0.78: the surface mode sits above
        // 0.78*0.5 = 0.39, the faint mode below 0.78*0.3 = 0.24.
        let scene = EVALUATED_SCENES[0].generate_scaled(0.06);
        let high = scene.gaussians.iter().filter(|g| g.opacity > 0.39).count();
        let low = scene.gaussians.iter().filter(|g| g.opacity < 0.24).count();
        let n = scene.len() as f32;
        assert!(high as f32 / n > 0.2, "expected substantial opaque mass");
        assert!(low as f32 / n > 0.4, "expected substantial faint mass");
    }

    #[test]
    fn opacity_scale_lowers_synthetic_opacity() {
        // Lego's opacity_scale (0.24) caps per-Gaussian opacity well below
        // the indoor scenes', stretching its termination depth.
        let lego = EVALUATED_SCENES[4].generate_scaled(0.08);
        let max_op = lego
            .gaussians
            .iter()
            .map(|g| g.opacity)
            .fold(0.0f32, f32::max);
        assert!(
            max_op < 0.25,
            "Lego opacity capped by opacity_scale, got {max_op}"
        );
    }

    #[test]
    fn viewpoints_use_scaled_viewport() {
        let scene = EVALUATED_SCENES[0].generate_scaled(0.1); // Kitchen
        let cams = scene.viewpoints(3);
        assert_eq!(cams.len(), 3);
        assert_eq!(cams[0].width(), 155);
        assert_eq!(cams[0].height(), 104);
    }

    #[test]
    fn outdoor_has_deeper_extent_than_indoor() {
        let indoor = EVALUATED_SCENES[1].generate_scaled(0.08);
        let outdoor = EVALUATED_SCENES[2].generate_scaled(0.08);
        let max_dist = |s: &Scene| {
            s.gaussians
                .iter()
                .map(|g| g.mean.length())
                .fold(0.0f32, f32::max)
        };
        assert!(max_dist(&outdoor) > max_dist(&indoor));
    }

    #[test]
    #[should_panic(expected = "scale must be")]
    fn zero_scale_panics() {
        let _ = EVALUATED_SCENES[0].generate_scaled(0.0);
    }

    #[test]
    fn minimum_gaussian_floor() {
        // Even absurdly small scales produce a workable scene.
        let scene = EVALUATED_SCENES[5].generate_scaled(0.001);
        assert!(scene.len() >= 64);
    }
}
