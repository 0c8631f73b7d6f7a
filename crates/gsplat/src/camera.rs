//! Cameras, viewports and viewpoint generators (dataset-style orbits).

use serde::{Deserialize, Serialize};

use crate::math::{Mat4, Vec3, Vec4};

/// A pinhole camera: pose + perspective intrinsics + viewport.
///
/// # Examples
///
/// ```
/// use gsplat::camera::Camera;
/// use gsplat::math::Vec3;
/// let cam = Camera::look_at(
///     Vec3::new(0.0, 0.0, 5.0),
///     Vec3::ZERO,
///     800, 800,
///     60f32.to_radians(),
/// );
/// // The target sits 5 units down the camera's -z axis, in view.
/// assert!((cam.to_camera_space(Vec3::ZERO).z + 5.0).abs() < 1e-5);
/// assert!(cam.sphere_visible(Vec3::ZERO, 0.1));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Camera {
    view: Mat4,
    proj: Mat4,
    eye: Vec3,
    width: u32,
    height: u32,
    fov_y: f32,
    near: f32,
    far: f32,
}

impl Camera {
    /// Near plane used when none is specified.
    pub const DEFAULT_NEAR: f32 = 0.05;
    /// Far plane used when none is specified.
    pub const DEFAULT_FAR: f32 = 1000.0;

    /// Creates a camera at `eye` looking at `center` with +y up.
    ///
    /// # Panics
    ///
    /// Panics when `width`/`height` are zero or `fov_y` is not in `(0, π)`.
    pub fn look_at(eye: Vec3, center: Vec3, width: u32, height: u32, fov_y: f32) -> Self {
        assert!(width > 0 && height > 0, "viewport must be non-empty");
        let aspect = width as f32 / height as f32;
        Self {
            view: Mat4::look_at(eye, center, Vec3::new(0.0, 1.0, 0.0)),
            proj: Mat4::perspective(fov_y, aspect, Self::DEFAULT_NEAR, Self::DEFAULT_FAR),
            eye,
            width,
            height,
            fov_y,
            near: Self::DEFAULT_NEAR,
            far: Self::DEFAULT_FAR,
        }
    }

    /// Camera position in world space.
    #[inline]
    pub fn eye(&self) -> Vec3 {
        self.eye
    }

    /// Viewport width in pixels.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Viewport height in pixels.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The world→camera (view) matrix.
    #[inline]
    pub fn view_matrix(&self) -> Mat4 {
        self.view
    }

    /// The camera→clip (projection) matrix.
    #[inline]
    pub fn projection_matrix(&self) -> Mat4 {
        self.proj
    }

    /// Vertical field of view in radians.
    #[inline]
    pub fn fov_y(&self) -> f32 {
        self.fov_y
    }

    /// Near-plane distance.
    #[inline]
    pub fn near(&self) -> f32 {
        self.near
    }

    /// Far-plane distance.
    #[inline]
    pub fn far(&self) -> f32 {
        self.far
    }

    /// This camera moved by `offset` in world space. Viewport, intrinsics,
    /// projection and view rotation keep their exact bits; only the view
    /// matrix's translation column is recomputed for the new eye, so the
    /// result satisfies [`Camera::is_translation_of`] against `self` by
    /// construction.
    ///
    /// # Examples
    ///
    /// ```
    /// use gsplat::camera::Camera;
    /// use gsplat::math::Vec3;
    /// let head = Camera::look_at(Vec3::new(0.3, 1.7, 5.0), Vec3::ZERO, 640, 480, 1.0);
    /// let eye = head.translated(Vec3::new(0.0325, 0.0, 0.0));
    /// assert!(eye.is_translation_of(&head));
    /// assert_eq!(head.translated(Vec3::ZERO), head);
    /// ```
    pub fn translated(&self, offset: Vec3) -> Self {
        let eye = self.eye + offset;
        // The rows of the view rotation are the camera's right, up and
        // backward axes; `look_at` forms the translation the same way.
        let axes = self.view.upper_left3().transpose();
        let mut view = self.view;
        view.cols[3] = Vec4::new(
            -axes.cols[0].dot(eye),
            -axes.cols[1].dot(eye),
            -axes.cols[2].dot(eye),
            1.0,
        );
        Self {
            view,
            eye,
            ..self.clone()
        }
    }

    /// The camera-delta bound for incremental preprocessing: `true` when
    /// this camera differs from `other` by a **pure translation** — same
    /// viewport, same intrinsics, and a bit-identical view rotation `W`
    /// (upper-left 3×3 of the view matrix) and projection matrix.
    ///
    /// Under a pure translation the covariance product `W Σ Wᵀ` of every
    /// Gaussian is bit-identical between the two frames, so the expensive
    /// covariance half of EWA projection can be replayed from a per-Gaussian
    /// cache without changing a single output bit. The comparison is on raw
    /// f32 **bits**, not `==`: `-0.0` and `0.0` compare equal numerically
    /// but multiply into different signed zeros downstream.
    ///
    /// Frame-coherent trajectories hit this bound often: every frame of a
    /// [`CameraPath::Flythrough`] translates without spinning, and the two
    /// eyes of a [`CameraPath::Stereo`] pair always hold it (each eye is
    /// the head camera [`Camera::translated`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use gsplat::camera::Camera;
    /// use gsplat::math::Vec3;
    /// let a = Camera::look_at(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, 640, 480, 1.0);
    /// let shift = Vec3::new(0.1, 0.0, 0.0);
    /// let b = Camera::look_at(shift + Vec3::new(0.0, 0.0, 5.0), shift, 640, 480, 1.0);
    /// assert!(b.is_translation_of(&a));
    /// let spun = Camera::look_at(Vec3::new(0.0, 1.0, 5.0), Vec3::ZERO, 640, 480, 1.0);
    /// assert!(!spun.is_translation_of(&a));
    /// ```
    pub fn is_translation_of(&self, other: &Camera) -> bool {
        let bits_eq = |a: f32, b: f32| a.to_bits() == b.to_bits();
        let mat3_bits_eq = |a: &crate::math::Mat3, b: &crate::math::Mat3| {
            (0..3).all(|c| {
                bits_eq(a.cols[c].x, b.cols[c].x)
                    && bits_eq(a.cols[c].y, b.cols[c].y)
                    && bits_eq(a.cols[c].z, b.cols[c].z)
            })
        };
        let mat4_bits_eq = |a: &Mat4, b: &Mat4| {
            (0..4).all(|c| {
                bits_eq(a.cols[c].x, b.cols[c].x)
                    && bits_eq(a.cols[c].y, b.cols[c].y)
                    && bits_eq(a.cols[c].z, b.cols[c].z)
                    && bits_eq(a.cols[c].w, b.cols[c].w)
            })
        };
        self.width == other.width
            && self.height == other.height
            && bits_eq(self.fov_y, other.fov_y)
            && bits_eq(self.near, other.near)
            && bits_eq(self.far, other.far)
            && mat3_bits_eq(&self.view.upper_left3(), &other.view.upper_left3())
            && mat4_bits_eq(&self.proj, &other.proj)
    }

    /// A grouping key for cross-stream batched preprocessing: an FNV-1a
    /// hash over **exactly** the bit-fields [`Camera::is_translation_of`]
    /// compares (viewport, intrinsics, view rotation `W`, projection
    /// matrix). Two cameras that satisfy the translation bound always hash
    /// equal, so a scheduler can group M candidate streams in O(M) — one
    /// key per camera — instead of O(M²) pairwise bit-compares. Hash
    /// collisions are possible in principle, so group formation must still
    /// confirm each member against the group leader with
    /// `is_translation_of` (O(1) per member); a key match is a filter, not
    /// a proof.
    ///
    /// # Examples
    ///
    /// ```
    /// use gsplat::camera::Camera;
    /// use gsplat::math::Vec3;
    /// let a = Camera::look_at(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, 640, 480, 1.0);
    /// let shift = Vec3::new(0.3, 0.0, 0.0);
    /// let b = Camera::look_at(shift + Vec3::new(0.0, 0.0, 5.0), shift, 640, 480, 1.0);
    /// assert!(b.is_translation_of(&a));
    /// assert_eq!(a.group_key(), b.group_key());
    /// ```
    pub fn group_key(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |bits: u32| {
            for byte in bits.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        mix(self.width);
        mix(self.height);
        mix(self.fov_y.to_bits());
        mix(self.near.to_bits());
        mix(self.far.to_bits());
        let w = self.view.upper_left3();
        for c in 0..3 {
            mix(w.cols[c].x.to_bits());
            mix(w.cols[c].y.to_bits());
            mix(w.cols[c].z.to_bits());
        }
        for c in 0..4 {
            mix(self.proj.cols[c].x.to_bits());
            mix(self.proj.cols[c].y.to_bits());
            mix(self.proj.cols[c].z.to_bits());
            mix(self.proj.cols[c].w.to_bits());
        }
        h
    }

    /// Focal length in pixels along x and y — the EWA projection Jacobian
    /// scale factors.
    #[inline]
    pub fn focal(&self) -> (f32, f32) {
        let fy = self.height as f32 / (2.0 * (self.fov_y * 0.5).tan());
        // Square pixels: fx == fy; the aspect ratio only widens the frustum.
        (fy, fy)
    }

    /// Transforms a world point into camera space.
    #[inline]
    pub fn to_camera_space(&self, p: Vec3) -> Vec3 {
        self.view.transform_point(p).truncate()
    }

    /// Conservative sphere-vs-frustum test used for Gaussian culling.
    ///
    /// Returns `true` when a sphere at `center` with `radius` may intersect
    /// the view frustum (using camera-space plane distances with a guard-band
    /// slack as in the reference renderer's `1.3×` tile bound).
    pub fn sphere_visible(&self, center: Vec3, radius: f32) -> bool {
        let cam = self.to_camera_space(center);
        let depth = -cam.z;
        if depth + radius < self.near || depth - radius > self.far {
            return false;
        }
        // Half-extents of the frustum cross-section at this depth, with a
        // 30% guard band to match the reference culling slack.
        let half_h = (self.fov_y * 0.5).tan() * depth.max(self.near) * 1.3;
        let half_w = half_h * self.width as f32 / self.height as f32;
        cam.x.abs() - radius <= half_w && cam.y.abs() - radius <= half_h
    }
}

/// Generates an orbit of viewpoints around a scene center, mimicking the
/// dataset's capture trajectories (used for Fig. 21's per-viewpoint sweep).
///
/// # Examples
///
/// ```
/// use gsplat::camera::orbit_viewpoints;
/// use gsplat::math::Vec3;
/// let cams = orbit_viewpoints(Vec3::ZERO, 4.0, 0.5, 8, 800, 600, 60f32.to_radians());
/// assert_eq!(cams.len(), 8);
/// ```
pub fn orbit_viewpoints(
    center: Vec3,
    radius: f32,
    height: f32,
    count: usize,
    width: u32,
    height_px: u32,
    fov_y: f32,
) -> Vec<Camera> {
    (0..count)
        .map(|i| {
            let theta = i as f32 / count as f32 * std::f32::consts::TAU;
            let eye = center + Vec3::new(radius * theta.cos(), height, radius * theta.sin());
            Camera::look_at(eye, center, width, height_px, fov_y)
        })
        .collect()
}

/// A deterministic camera trajectory for frame-sequence workloads: the
/// temporally coherent viewpoint streams (VR head motion, orbit captures,
/// stereo eye pairs) that make per-frame early termination and the
/// incremental depth re-sort pay off across a sequence.
///
/// Frame `i` of an `n`-frame sequence maps to one camera; consecutive
/// frames are spatially close by construction, so depth orders between
/// them are nearly identical.
///
/// # Examples
///
/// ```
/// use gsplat::camera::CameraPath;
/// use gsplat::math::Vec3;
/// let path = CameraPath::orbit(Vec3::ZERO, 4.0, 1.0, 0.25);
/// let cams = path.cameras(16, 320, 240, 1.0);
/// assert_eq!(cams.len(), 16);
/// // Coherent: consecutive eyes are close together.
/// assert!((cams[0].eye() - cams[1].eye()).length() < 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum CameraPath {
    /// Partial orbit around `center`: `revolutions` turns spread over the
    /// whole sequence (use small fractions for coherent frames).
    Orbit {
        /// Orbit center (also the look-at target).
        center: Vec3,
        /// Orbit radius.
        radius: f32,
        /// Camera height above the center.
        height: f32,
        /// Turns completed over the full sequence (e.g. `0.25` = 90°).
        revolutions: f32,
    },
    /// Straight flythrough from `start` toward `look_at` at `velocity`
    /// world units per frame, looking along the travel direction, with a
    /// deterministic sinusoidal hand-shake of amplitude `shake` applied to
    /// the eye position.
    Flythrough {
        /// First frame's eye position.
        start: Vec3,
        /// Point defining the travel/look direction.
        look_at: Vec3,
        /// World units advanced per frame.
        velocity: f32,
        /// Hand-shake amplitude in world units (`0.0` = rail-smooth).
        shake: f32,
    },
    /// Stereo left/right eye pairs over a base path: frame `2k` is the
    /// left eye and `2k + 1` the right eye of base frame `k`, separated by
    /// `eye_separation` along the view-plane horizontal.
    Stereo {
        /// The head trajectory both eyes follow.
        base: Box<CameraPath>,
        /// Interpupillary distance in world units.
        eye_separation: f32,
    },
}

impl CameraPath {
    /// Convenience constructor for [`CameraPath::Orbit`].
    pub fn orbit(center: Vec3, radius: f32, height: f32, revolutions: f32) -> Self {
        CameraPath::Orbit {
            center,
            radius,
            height,
            revolutions,
        }
    }

    /// Convenience constructor for [`CameraPath::Flythrough`].
    pub fn flythrough(start: Vec3, look_at: Vec3, velocity: f32, shake: f32) -> Self {
        CameraPath::Flythrough {
            start,
            look_at,
            velocity,
            shake,
        }
    }

    /// Wraps this path into stereo left/right pairs.
    pub fn stereo(self, eye_separation: f32) -> Self {
        CameraPath::Stereo {
            base: Box::new(self),
            eye_separation,
        }
    }

    /// The `(eye, target)` pose of frame `frame` in an `n_frames`-long
    /// sequence.
    pub fn pose(&self, frame: usize, n_frames: usize) -> (Vec3, Vec3) {
        match self {
            CameraPath::Orbit {
                center,
                radius,
                height,
                revolutions,
            } => {
                let t = frame as f32 / n_frames.max(1) as f32;
                let theta = t * revolutions * std::f32::consts::TAU;
                let eye = *center + Vec3::new(radius * theta.cos(), *height, radius * theta.sin());
                (eye, *center)
            }
            CameraPath::Flythrough {
                start,
                look_at,
                velocity,
                shake,
            } => {
                let to = *look_at - *start;
                let dist = to.length();
                let dir = if dist > 1e-6 {
                    to / dist
                } else {
                    Vec3::new(0.0, 0.0, -1.0)
                };
                let up = Vec3::new(0.0, 1.0, 0.0);
                let right = normalized_or(dir.cross(up), Vec3::new(1.0, 0.0, 0.0));
                // Deterministic two-frequency hand shake (no RNG: sequences
                // must be reproducible bit-for-bit run to run).
                let p = frame as f32;
                let wobble =
                    right * (shake * (p * 0.9).sin()) + up * (0.5 * shake * (p * 1.7).cos());
                let eye = *start + dir * (*velocity * p) + wobble;
                // The target carries the same wobble, so the shake
                // translates the view but never spins it (the view
                // direction stays `dir` on every frame).
                (eye, eye + dir)
            }
            CameraPath::Stereo {
                base,
                eye_separation,
            } => {
                let (eye, target) = base.pose(frame / 2, n_frames.div_ceil(2));
                let offset = stereo_offset(eye, target, frame, *eye_separation);
                // Parallel (non-converged) stereo: both eye and target
                // shift, keeping the two view directions identical.
                (eye + offset, target + offset)
            }
        }
    }

    /// The camera for frame `frame` of an `n_frames` sequence.
    ///
    /// A stereo eye is the head camera [`Camera::translated`] by its
    /// offset, so both eyes of a pair carry the head's view rotation bit
    /// for bit and always satisfy [`Camera::is_translation_of`].
    pub fn camera(
        &self,
        frame: usize,
        n_frames: usize,
        width: u32,
        height: u32,
        fov_y: f32,
    ) -> Camera {
        if let CameraPath::Stereo {
            base,
            eye_separation,
        } = self
        {
            let (head_frame, head_frames) = (frame / 2, n_frames.div_ceil(2));
            let (eye, target) = base.pose(head_frame, head_frames);
            let head = base.camera(head_frame, head_frames, width, height, fov_y);
            return head.translated(stereo_offset(eye, target, frame, *eye_separation));
        }
        let (eye, target) = self.pose(frame, n_frames);
        Camera::look_at(eye, target, width, height, fov_y)
    }

    /// All `n_frames` cameras of the sequence.
    pub fn cameras(&self, n_frames: usize, width: u32, height: u32, fov_y: f32) -> Vec<Camera> {
        (0..n_frames)
            .map(|i| self.camera(i, n_frames, width, height, fov_y))
            .collect()
    }
}

/// World-space offset of stereo frame `frame`'s eye from the head pose
/// `(eye, target)`: half the separation along the view-plane horizontal,
/// left for even frames, right for odd ones.
fn stereo_offset(eye: Vec3, target: Vec3, frame: usize, eye_separation: f32) -> Vec3 {
    let dir = normalized_or(target - eye, Vec3::new(0.0, 0.0, -1.0));
    let right = normalized_or(
        dir.cross(Vec3::new(0.0, 1.0, 0.0)),
        Vec3::new(1.0, 0.0, 0.0),
    );
    let sign = if frame.is_multiple_of(2) { -0.5 } else { 0.5 };
    right * (sign * eye_separation)
}

/// `v.normalized()`, or `fallback` for (near-)zero vectors.
fn normalized_or(v: Vec3, fallback: Vec3) -> Vec3 {
    let len = v.length();
    if len > 1e-6 {
        v / len
    } else {
        fallback
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::Vec2;

    fn cam() -> Camera {
        Camera::look_at(Vec3::new(0.0, 0.0, 10.0), Vec3::ZERO, 640, 480, 1.0)
    }

    /// The pinhole projection of a world point to `(screen position,
    /// camera depth)`, top-left pixel-corner origin; `None` behind the
    /// near plane. The reference these tests check the camera's view and
    /// projection matrices against (splats project through
    /// `crate::projection`).
    fn project(c: &Camera, p: Vec3) -> Option<(Vec2, f32)> {
        let cam = c.to_camera_space(p);
        let depth = -cam.z;
        if depth <= c.near {
            return None;
        }
        let ndc = (c.proj * cam.extend(1.0)).perspective_divide();
        let x = (ndc.x * 0.5 + 0.5) * c.width as f32;
        let y = (0.5 - ndc.y * 0.5) * c.height as f32;
        Some((Vec2::new(x, y), depth))
    }

    #[test]
    fn project_center_lands_mid_screen() {
        let (p, depth) = project(&cam(), Vec3::ZERO).unwrap();
        assert!((p - Vec2::new(320.0, 240.0)).length() < 1e-2);
        assert!((depth - 10.0).abs() < 1e-4);
    }

    #[test]
    fn project_behind_camera_is_none() {
        assert!(project(&cam(), Vec3::new(0.0, 0.0, 20.0)).is_none());
    }

    #[test]
    fn projection_moves_right_for_positive_x() {
        let c = cam();
        let (p0, _) = project(&c, Vec3::ZERO).unwrap();
        let (p1, _) = project(&c, Vec3::new(1.0, 0.0, 0.0)).unwrap();
        assert!(p1.x > p0.x);
        // +y in world is up, which is smaller screen y.
        let (p2, _) = project(&c, Vec3::new(0.0, 1.0, 0.0)).unwrap();
        assert!(p2.y < p0.y);
    }

    #[test]
    fn sphere_culling_agrees_with_projection() {
        let c = cam();
        // Visible at the center.
        assert!(c.sphere_visible(Vec3::ZERO, 0.1));
        // Far outside the frustum to the side.
        assert!(!c.sphere_visible(Vec3::new(100.0, 0.0, 0.0), 0.1));
        // Behind the camera.
        assert!(!c.sphere_visible(Vec3::new(0.0, 0.0, 20.0), 0.1));
        // Huge radius makes the side sphere visible again.
        assert!(c.sphere_visible(Vec3::new(100.0, 0.0, 0.0), 120.0));
    }

    #[test]
    fn depth_increases_away_from_eye() {
        let c = cam();
        let depth = |p: Vec3| -c.to_camera_space(p).z;
        assert!(depth(Vec3::new(0.0, 0.0, -5.0)) > depth(Vec3::ZERO));
    }

    #[test]
    fn focal_matches_fov() {
        let c = Camera::look_at(
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::ZERO,
            800,
            800,
            std::f32::consts::FRAC_PI_2,
        );
        let (fx, fy) = c.focal();
        // tan(45°) = 1 → focal = height/2.
        assert!((fx - 400.0).abs() < 1e-3);
        assert_eq!(fx, fy);
    }

    #[test]
    fn orbit_path_is_coherent_and_circles_center() {
        let path = CameraPath::orbit(Vec3::new(1.0, 0.0, 2.0), 5.0, 1.5, 0.5);
        let cams = path.cameras(16, 320, 240, 1.0);
        assert_eq!(cams.len(), 16);
        for w in cams.windows(2) {
            let step = (w[0].eye() - w[1].eye()).length();
            assert!(step < 1.2, "orbit step too large for coherence: {step}");
        }
        for c in &cams {
            let (p, _) = project(c, Vec3::new(1.0, 0.0, 2.0)).unwrap();
            assert!((p - Vec2::new(160.0, 120.0)).length() < 1e-2);
        }
    }

    #[test]
    fn flythrough_advances_at_velocity_and_shakes() {
        let smooth = CameraPath::flythrough(
            Vec3::new(0.0, 1.0, 8.0),
            Vec3::new(0.0, 1.0, 0.0),
            0.25,
            0.0,
        );
        let cams = smooth.cameras(8, 160, 120, 1.0);
        // Rail-smooth: each frame advances exactly `velocity` along -z.
        for (i, c) in cams.iter().enumerate() {
            let expect = Vec3::new(0.0, 1.0, 8.0 - 0.25 * i as f32);
            assert!((c.eye() - expect).length() < 1e-5, "frame {i}");
        }
        let shaky = CameraPath::flythrough(
            Vec3::new(0.0, 1.0, 8.0),
            Vec3::new(0.0, 1.0, 0.0),
            0.25,
            0.1,
        );
        let shaky_cams = shaky.cameras(8, 160, 120, 1.0);
        let displaced = cams
            .iter()
            .zip(&shaky_cams)
            .filter(|(a, b)| (a.eye() - b.eye()).length() > 1e-4)
            .count();
        assert!(displaced >= 6, "shake must perturb most frames");
        // Shake stays bounded by its amplitude and translates only: the
        // view direction is identical to the rail-smooth camera's.
        let fwd =
            |c: &Camera| c.view_matrix().upper_left3().transpose() * Vec3::new(0.0, 0.0, -1.0);
        for (a, b) in cams.iter().zip(&shaky_cams) {
            assert!((a.eye() - b.eye()).length() <= 0.1 * 1.5 + 1e-5);
            assert!((fwd(a) - fwd(b)).length() < 1e-5, "shake spun the view");
        }
    }

    #[test]
    fn stereo_pairs_are_separated_and_parallel() {
        let base = CameraPath::orbit(Vec3::ZERO, 4.0, 1.0, 0.25);
        let stereo = base.stereo(0.06);
        let n = 8;
        for k in 0..n / 2 {
            let left = stereo.camera(2 * k, n, 160, 120, 1.0);
            let right = stereo.camera(2 * k + 1, n, 160, 120, 1.0);
            let sep = (left.eye() - right.eye()).length();
            assert!((sep - 0.06).abs() < 1e-4, "pair {k}: separation {sep}");
            // Parallel stereo: identical view directions.
            let fwd =
                |c: &Camera| c.view_matrix().upper_left3().transpose() * Vec3::new(0.0, 0.0, -1.0);
            assert!((fwd(&left) - fwd(&right)).length() < 1e-5);
        }
    }

    #[test]
    fn group_key_tracks_translation_bound() {
        let a = cam();
        // Pure translation: same key.
        let d = Vec3::new(0.25, -0.1, 0.4);
        let b = Camera::look_at(Vec3::new(0.0, 0.0, 10.0) + d, d, 640, 480, 1.0);
        assert!(b.is_translation_of(&a));
        assert_eq!(a.group_key(), b.group_key());
        // Rotated view, different viewport, different fov: all distinct keys.
        let spun = Camera::look_at(Vec3::new(1.0, 2.0, 10.0), Vec3::ZERO, 640, 480, 1.0);
        assert!(!spun.is_translation_of(&a));
        assert_ne!(spun.group_key(), a.group_key());
        let resized = Camera::look_at(Vec3::new(0.0, 0.0, 10.0), Vec3::ZERO, 320, 240, 1.0);
        assert_ne!(resized.group_key(), a.group_key());
        let zoomed = Camera::look_at(Vec3::new(0.0, 0.0, 10.0), Vec3::ZERO, 640, 480, 0.9);
        assert_ne!(zoomed.group_key(), a.group_key());
        // Stereo eyes always share a key (the guaranteed-batchable pair):
        // the short orbit, plus a sweep of orbits around the outdoor
        // scenes' view circle (radius 6) — heights 0.2..=2.1, arcs
        // 0.05..=0.95 rad, 8 pairs each — where eyes rebuilt through
        // `look_at` would round their rotations apart on ~10% of pairs.
        let mut paths = vec![(CameraPath::orbit(Vec3::ZERO, 4.0, 1.0, 0.25), 4)];
        for h in 2..=21 {
            for arc in 1..=19 {
                let turns = arc as f32 * 0.05 / std::f32::consts::TAU;
                paths.push((CameraPath::orbit(Vec3::ZERO, 6.0, h as f32 * 0.1, turns), 8));
            }
        }
        for (path, pairs) in paths {
            let stereo = path.stereo(0.065);
            for k in 0..pairs {
                let l = stereo.camera(2 * k, 2 * pairs, 160, 120, 1.0);
                let r = stereo.camera(2 * k + 1, 2 * pairs, 160, 120, 1.0);
                assert!(r.is_translation_of(&l), "{stereo:?} pair {k}");
                assert_eq!(l.group_key(), r.group_key(), "{stereo:?} pair {k}");
                assert_eq!(l.eye(), stereo.pose(2 * k, 2 * pairs).0);
            }
        }
    }

    #[test]
    fn paths_are_deterministic() {
        let path =
            CameraPath::flythrough(Vec3::new(2.0, 0.5, 6.0), Vec3::ZERO, 0.2, 0.05).stereo(0.07);
        let a = path.cameras(12, 128, 96, 1.0);
        let b = path.cameras(12, 128, 96, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn orbit_viewpoints_look_at_center() {
        let cams = orbit_viewpoints(Vec3::new(1.0, 0.0, 2.0), 5.0, 1.0, 6, 320, 240, 1.0);
        assert_eq!(cams.len(), 6);
        for c in &cams {
            let (p, _) = project(c, Vec3::new(1.0, 0.0, 2.0)).unwrap();
            assert!((p - Vec2::new(160.0, 120.0)).length() < 1e-2);
        }
    }
}
