//! Coarse spatial index over the Gaussian cloud for **incremental frustum
//! preprocessing**: a uniform grid built once per scene whose cells carry
//! conservative world-space AABBs (inflated by the 3σ extent of their
//! resident Gaussians), classified per frame against the view frustum as
//! fully-outside / fully-inside / boundary.
//!
//! The classification lattice drives three per-Gaussian fast paths, every
//! one of them **bit-exact** with the full [`crate::projection`] sweep:
//!
//! * **Fully-outside cells** — every resident provably fails
//!   [`Camera::sphere_visible`], so the whole cell is skipped without any
//!   per-Gaussian camera work (the full path would have paid the sphere
//!   test per resident just to cull it).
//! * **Fully-inside cells** — every resident provably passes the sphere
//!   test, so the test itself is skipped and projection starts directly.
//! * **Boundary cells** — the per-Gaussian sphere test runs exactly as in
//!   the full path.
//!
//! Orthogonally, a per-Gaussian cache in [`CullState`] holds the
//! **camera-invariant head** of the projection (the 3D covariance
//! `Σ = R S Sᵀ Rᵀ`, the tight-OBB cutoff, degree-0 SH colors, the
//! opacity/finiteness cull verdict) computed once at index build, plus the
//! view-rotation product `W Σ Wᵀ` tagged with a *rotation epoch*: under the
//! camera-delta bound ([`Camera::is_translation_of`]) the product is
//! bit-identical to the previous frame's and is replayed from the cache
//! instead of recomputed. Only the genuinely camera-dependent tail
//! (perspective Jacobian, conic, tight OBB, depth key) runs per frame —
//! which is why the output bits cannot differ from the full path's.
//!
//! Classification is recomputed every frame — it costs `O(cells)`, orders
//! of magnitude below `O(gaussians)` — while the previous frame's
//! classification is kept for change tracking ([`CullStats`]) and the
//! delta-soundness property tests.

use crate::camera::Camera;
use crate::gaussian::Gaussian;
use crate::math::{Mat3, Vec3};
use crate::projection::{culled_before_projection, tight_cutoff_sigmas, FrameTransform};

/// Target mean resident count per grid cell: coarse enough that per-frame
/// classification is negligible next to projection, fine enough that
/// frustum edges land in boundary cells rather than smearing whole-scene
/// cells into `Boundary`.
pub const TARGET_GAUSSIANS_PER_CELL: usize = 64;

/// Grid resolution bounds per axis. The floor keeps cells small enough
/// that frustum edges produce genuinely outside/inside cells even for
/// small (scaled-down) clouds — classifying a few hundred cells per frame
/// is noise next to projecting thousands of Gaussians — while the cap
/// bounds classification cost and memory for very large clouds.
const MIN_CELLS_PER_AXIS: usize = 8;
const MAX_CELLS_PER_AXIS: usize = 48;

/// Frustum classification of one grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellClass {
    /// Every live resident provably fails the sphere-vs-frustum cull: the
    /// whole cell is skipped.
    Outside,
    /// Every live resident provably passes the sphere-vs-frustum cull: the
    /// per-Gaussian test is skipped.
    Inside,
    /// Neither bound holds — residents take the full per-Gaussian path.
    Boundary,
}

/// One grid cell: the AABB of its live residents' means, the largest
/// resident 3σ bounding radius (the conservative inflation), and the live
/// resident count.
#[derive(Debug, Clone)]
struct Cell {
    /// Component-wise minimum of live resident means.
    lo: Vec3,
    /// Component-wise maximum of live resident means.
    hi: Vec3,
    /// Largest [`Gaussian::bounding_radius`] among live residents.
    radius: f32,
    /// Number of live residents (Gaussians not culled camera-invariantly).
    live: u32,
}

impl Cell {
    const EMPTY: Cell = Cell {
        lo: Vec3::splat(f32::INFINITY),
        hi: Vec3::splat(f32::NEG_INFINITY),
        radius: 0.0,
        live: 0,
    };
}

/// The per-scene spatial index: grid cells plus the per-Gaussian
/// camera-invariant projection head.
///
/// Built once per scene with [`SceneIndex::build`]; consumed by
/// [`crate::preprocess::preprocess_frame`] together with a
/// [`CullState`].
///
/// # Examples
///
/// ```
/// use gsplat::index::{CellClass, SceneIndex};
/// use gsplat::projection::FrameTransform;
/// use gsplat::scene::EVALUATED_SCENES;
/// let scene = EVALUATED_SCENES[4].generate_scaled(0.04);
/// let index = SceneIndex::build(&scene.gaussians);
/// assert_eq!(index.len(), scene.gaussians.len());
/// let mut classes = Vec::new();
/// index.classify_into(&FrameTransform::new(&scene.default_camera()), &mut classes);
/// // One entry per cell plus the trailing sentinel for dead Gaussians.
/// assert_eq!(classes.len(), index.cell_count() + 1);
/// ```
#[derive(Debug, Clone)]
pub struct SceneIndex {
    cells: Vec<Cell>,
    /// Cell id of each Gaussian.
    cell_of: Vec<u32>,
    /// Camera-invariant cull verdict ([`culled_before_projection`]).
    dead: Vec<bool>,
    /// Cached `Σ = R S Sᵀ Rᵀ` per Gaussian (bit-identical to recomputing).
    cov3d: Vec<Mat3>,
    /// Cached [`tight_cutoff_sigmas`] of each Gaussian's opacity.
    cutoff: Vec<f32>,
    /// Cached view-independent color for degree-0 SH Gaussians.
    base_color: Vec<Option<Vec3>>,
    /// SoA mirror of the means: the only geometric input the per-frame
    /// refresh needs, streamed without dragging the ~80-byte Gaussian
    /// structs (and their heap SH pointers) through the cache.
    means: Vec<Vec3>,
    /// SoA mirror of the opacities (bit-copies).
    opacities: Vec<f32>,
    /// Cached [`Gaussian::bounding_radius`] per Gaussian.
    radius: Vec<f32>,
    /// Fingerprint of the cloud the index was built from.
    fingerprint: u64,
}

impl SceneIndex {
    /// Builds the index for a Gaussian cloud: two `O(n)` sweeps (cull
    /// verdicts + world bounds, then cell assignment + AABB accumulation +
    /// the camera-invariant projection head).
    pub fn build(gaussians: &[Gaussian]) -> Self {
        let n = gaussians.len();
        let mut dead = Vec::with_capacity(n);
        let mut lo = Vec3::splat(f32::INFINITY);
        let mut hi = Vec3::splat(f32::NEG_INFINITY);
        let mut live_total = 0usize;
        for g in gaussians {
            let d = culled_before_projection(g);
            dead.push(d);
            if !d {
                lo = lo.min(g.mean);
                hi = hi.max(g.mean);
                live_total += 1;
            }
        }

        // Grid resolution: cube-root of the target cell count, clamped.
        let target_cells = (live_total / TARGET_GAUSSIANS_PER_CELL).max(1);
        let axis = ((target_cells as f32).cbrt().ceil() as usize)
            .clamp(MIN_CELLS_PER_AXIS, MAX_CELLS_PER_AXIS);
        let dims = if live_total == 0 { 1 } else { axis };
        let extent = hi - lo;
        let cell_size = Vec3::new(
            (extent.x / dims as f32).max(f32::MIN_POSITIVE),
            (extent.y / dims as f32).max(f32::MIN_POSITIVE),
            (extent.z / dims as f32).max(f32::MIN_POSITIVE),
        );

        let mut cells = vec![Cell::EMPTY; dims * dims * dims];
        let mut cell_of = Vec::with_capacity(n);
        let mut cov3d = Vec::with_capacity(n);
        let mut cutoff = Vec::with_capacity(n);
        let mut base_color = Vec::with_capacity(n);
        let mut means = Vec::with_capacity(n);
        let mut opacities = Vec::with_capacity(n);
        let mut radius = Vec::with_capacity(n);
        let clamp_axis = |v: f32| -> usize {
            // NaN casts to 0; anything else clamps into the grid.
            (v as usize).min(dims - 1)
        };
        for (i, g) in gaussians.iter().enumerate() {
            if dead[i] {
                // Dead Gaussians live in the sentinel cell past the grid,
                // which always classifies `Outside`: the hot loop skips
                // them with the same single lookup as a culled cell.
                cell_of.push((dims * dims * dims) as u32);
            } else {
                let cx = clamp_axis((g.mean.x - lo.x) / cell_size.x);
                let cy = clamp_axis((g.mean.y - lo.y) / cell_size.y);
                let cz = clamp_axis((g.mean.z - lo.z) / cell_size.z);
                let cell_id = (cz * dims + cy) * dims + cx;
                cell_of.push(cell_id as u32);
                let cell = &mut cells[cell_id];
                cell.lo = cell.lo.min(g.mean);
                cell.hi = cell.hi.max(g.mean);
                cell.radius = cell.radius.max(g.bounding_radius());
                cell.live += 1;
            }
            cov3d.push(g.covariance_3d());
            cutoff.push(tight_cutoff_sigmas(g.opacity));
            // Degree-0 SH is view-independent: evaluate once. The probe
            // direction is irrelevant (the basis reduces to the DC term).
            base_color.push((g.sh.degree() == 0).then(|| g.sh.evaluate(Vec3::new(0.0, 0.0, 1.0))));
            means.push(g.mean);
            opacities.push(g.opacity);
            radius.push(g.bounding_radius());
        }

        Self {
            cells,
            cell_of,
            dead,
            cov3d,
            cutoff,
            base_color,
            means,
            opacities,
            radius,
            fingerprint: cloud_fingerprint(gaussians),
        }
    }

    /// Number of indexed Gaussians.
    pub fn len(&self) -> usize {
        self.cell_of.len()
    }

    /// `true` when the indexed cloud is empty.
    pub fn is_empty(&self) -> bool {
        self.cell_of.is_empty()
    }

    /// Number of grid cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Fingerprint of the cloud this index was built from (see
    /// [`cloud_fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Cell id of each Gaussian. Dead Gaussians (see [`SceneIndex::dead`])
    /// carry the sentinel id [`SceneIndex::cell_count`], whose
    /// classification entry is always [`CellClass::Outside`].
    pub fn cell_of(&self) -> &[u32] {
        &self.cell_of
    }

    /// Camera-invariant cull verdict of each Gaussian
    /// ([`culled_before_projection`] precomputed).
    pub fn dead(&self) -> &[bool] {
        &self.dead
    }

    /// Live-resident count of cell `cell_id`.
    pub fn cell_live(&self, cell_id: usize) -> u32 {
        self.cells[cell_id].live
    }

    pub(crate) fn cov3d(&self) -> &[Mat3] {
        &self.cov3d
    }

    pub(crate) fn cutoff(&self) -> &[f32] {
        &self.cutoff
    }

    pub(crate) fn base_color(&self) -> &[Option<Vec3>] {
        &self.base_color
    }

    pub(crate) fn means(&self) -> &[Vec3] {
        &self.means
    }

    pub(crate) fn opacities(&self) -> &[f32] {
        &self.opacities
    }

    pub(crate) fn radius(&self) -> &[f32] {
        &self.radius
    }

    /// Classifies every cell against the frustum of `frame`, writing into
    /// `classes` (cleared and refilled; one entry per cell **plus** a
    /// trailing sentinel entry — always [`CellClass::Outside`] — that
    /// dead Gaussians' [`SceneIndex::cell_of`] ids point at).
    pub fn classify_into(&self, frame: &FrameTransform, classes: &mut Vec<CellClass>) {
        self.classify_widened_into(frame, Vec3::ZERO, Vec3::ZERO, classes);
    }

    /// [`SceneIndex::classify_into`] widened to cover a whole **round** of
    /// translation-bound cameras at once: `frame` is the round leader's
    /// transform, and every member camera's space differs from the
    /// leader's by a pure camera-space offset `d_m` (see
    /// [`crate::camera::Camera::is_translation_of`]). With `mid` and
    /// `spread` the component-wise center and half-range of the member
    /// offsets (leader included at `d = 0`), each cell's camera-space box
    /// is widened to contain its image in **every** member's camera space,
    /// so one classification pass yields verdicts that are simultaneously
    /// conservative for all members: `Outside` ⇒ every resident fails the
    /// sphere cull in every member frame, `Inside` ⇒ every resident passes
    /// it in every member frame. Verdicts feed only comparisons, never
    /// output arithmetic, which is why shared (widened) verdicts keep every
    /// member's emitted splat stream bit-exact with its solo run.
    pub fn classify_widened_into(
        &self,
        frame: &FrameTransform,
        mid: Vec3,
        spread: Vec3,
        classes: &mut Vec<CellClass>,
    ) {
        classes.clear();
        classes.extend(
            self.cells
                .iter()
                .map(|c| classify_cell_widened(c, frame, mid, spread)),
        );
        classes.push(CellClass::Outside);
    }
}

/// Conservative frustum classification of one cell.
///
/// Works on the camera-space AABB of the cell's mean-AABB corners plus the
/// resident-radius inflation `r`, mirroring [`Camera::sphere_visible`]'s
/// exact half-space structure. Soundness relies only on **monotonicity** of
/// the shared frustum-slope expressions (multiplication by positive
/// constants, `max`, and subtraction of a common term are all monotone
/// under IEEE-754 rounding), never on exact arithmetic:
///
/// * `Outside` requires that for every resident `(c, rad)` with `c` in the
///   mean-AABB and `0 ≤ rad ≤ r`, one of the sphere test's reject
///   conditions provably holds.
/// * `Inside` requires that every such resident provably passes all four
///   accept conditions.
///
/// Any non-finite intermediate (overflowing corners, infinite radius)
/// falls through to `Boundary` — comparisons with NaN are false, and an
/// explicit finiteness check guards the corner fold.
///
/// The widened form (`mid`/`spread` non-zero) grows the camera-space box
/// by the round members' offset range before the proofs run — see
/// [`SceneIndex::classify_widened_into`]. A round of one passes zeros;
/// adding `±0.0` cannot change any verdict because verdicts depend only
/// on numeric comparisons (where `-0.0 == 0.0`), never on output bits.
fn classify_cell_widened(
    cell: &Cell,
    frame: &FrameTransform,
    mid: Vec3,
    spread: Vec3,
) -> CellClass {
    if cell.live == 0 {
        // Nothing lives here; classification is never consulted. `Outside`
        // keeps the stats honest (zero Gaussians skipped).
        return CellClass::Outside;
    }
    // Camera-space bounds of the mean-AABB via the affine-AABB identity:
    // the image of a box under `x ↦ W x + t` has center `W c + t` and
    // half-extents `|W| h` — exact (the corner hull's AABB), at two
    // transforms per cell instead of eight. A wider round shifts the center by
    // the member-offset midpoint and inflates the half-extents by the
    // offset half-range, so the box covers every member's image of the
    // cell (the `CLASSIFY_PAD` below absorbs the extra f32 roundings the
    // same way it absorbs the transform's own).
    let center = frame.to_camera_space((cell.lo + cell.hi) * 0.5) + mid;
    let half_in = (cell.hi - cell.lo) * 0.5;
    let rot = frame.rotation();
    let abs_col = |c: usize| {
        Vec3::new(
            rot.cols[c].x.abs(),
            rot.cols[c].y.abs(),
            rot.cols[c].z.abs(),
        )
    };
    let half = abs_col(0) * half_in.x + abs_col(1) * half_in.y + abs_col(2) * half_in.z + spread;
    let lo = center - half;
    let hi = center + half;
    if !lo.is_finite() || !hi.is_finite() {
        return CellClass::Boundary;
    }
    // Guard against f32 evaluation error: the affine transform is not
    // evaluated monotonically over the box in f32, so an interior mean's
    // *computed* camera-space coordinate can exceed the computed corner
    // hull by a few ulps. Pad the bounds by a relative epsilon orders of
    // magnitude above that scale (the cost in classification tightness is
    // invisible at cell granularity). A pad that overflows to infinity
    // simply forces `Boundary`, which is always sound.
    const CLASSIFY_PAD: f32 = 1e-5;
    let pad = Vec3::new(
        lo.x.abs().max(hi.x.abs()),
        lo.y.abs().max(hi.y.abs()),
        lo.z.abs().max(hi.z.abs()),
    ) * CLASSIFY_PAD;
    let lo = lo - pad;
    let hi = hi + pad;
    let r = cell.radius;
    // Depth runs along -z: the nearest corner has the largest z.
    let d_min = -hi.z;
    let d_max = -lo.z;

    // --- Fully-outside proofs (every resident rejected). ---
    // Near/far: depth(c)+rad ≤ d_max+r and depth(c)-rad ≥ d_min-r.
    if d_max + r < frame.near() || d_min - r > frame.far() {
        return CellClass::Outside;
    }
    // Side planes against the *largest* frustum cross-section the cell can
    // see (half-width/height are monotone in depth).
    let hh_hi = frame.half_height_at(d_max);
    let hw_hi = frame.half_width_of(hh_hi);
    // Right: all x ≥ lo.x, so |x|-rad ≥ lo.x-r; left symmetric with -hi.x.
    if lo.x - r > hw_hi || -hi.x - r > hw_hi {
        return CellClass::Outside;
    }
    if lo.y - r > hh_hi || -hi.y - r > hh_hi {
        return CellClass::Outside;
    }

    // --- Fully-inside proofs (every resident accepted; rad ≥ 0 only). ---
    // depth+rad ≥ depth ≥ d_min and depth-rad ≤ depth ≤ d_max;
    // |x| ≤ max(|lo.x|, |hi.x|) against the *smallest* cross-section.
    let hh_lo = frame.half_height_at(d_min);
    let hw_lo = frame.half_width_of(hh_lo);
    let max_ax = lo.x.abs().max(hi.x.abs());
    let max_ay = lo.y.abs().max(hi.y.abs());
    if d_min >= frame.near() && d_max <= frame.far() && max_ax <= hw_lo && max_ay <= hh_lo {
        return CellClass::Inside;
    }
    CellClass::Boundary
}

/// Content fingerprint of a Gaussian cloud: FNV-1a over the length and
/// the bits of **every** Gaussian (mean, scale, rotation, opacity and SH
/// coefficients — full coverage, so two clouds differing anywhere the
/// index caches from hash differently). `O(total data)`, paid once per
/// [`SceneIndex::build`] and once per index/state (re)pairing — never per
/// frame.
pub fn cloud_fingerprint(gaussians: &[Gaussian]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mix = |h: u64, v: u64| (h ^ v).wrapping_mul(FNV_PRIME);
    h = mix(h, gaussians.len() as u64);
    for g in gaussians {
        h = mix(
            h,
            (g.mean.x.to_bits() as u64) | ((g.mean.y.to_bits() as u64) << 32),
        );
        h = mix(
            h,
            (g.mean.z.to_bits() as u64) | ((g.opacity.to_bits() as u64) << 32),
        );
        h = mix(
            h,
            (g.scale.x.to_bits() as u64) | ((g.scale.y.to_bits() as u64) << 32),
        );
        h = mix(
            h,
            (g.scale.z.to_bits() as u64) | ((g.rotation[0].to_bits() as u64) << 32),
        );
        h = mix(
            h,
            (g.rotation[1].to_bits() as u64) | ((g.rotation[2].to_bits() as u64) << 32),
        );
        h = mix(
            h,
            (g.rotation[3].to_bits() as u64) | ((g.sh.degree() as u64) << 32),
        );
        for c in g.sh.coeffs() {
            h = mix(h, (c.x.to_bits() as u64) | ((c.y.to_bits() as u64) << 32));
            h = mix(h, c.z.to_bits() as u64);
        }
    }
    h
}

/// Counters of the incremental preprocessing path, accumulated per frame
/// (the per-frame delta is available via [`CullStats::delta_since`]).
///
/// The cell counters follow the classification-change lattice: a cell is
/// *skipped* when fully outside, *refreshed* when fully inside with its
/// classification unchanged from the previous frame under the camera-delta
/// bound (its residents replay cached covariance work), and *re-projected*
/// otherwise (boundary, or a rotation delta invalidated the cache).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CullStats {
    /// Frames preprocessed through the index.
    pub frames: u64,
    /// Cells classified fully-outside — skipped wholesale.
    pub cells_skipped: u64,
    /// Fully-inside cells stable under the camera-delta bound.
    pub cells_refreshed: u64,
    /// Cells whose residents ran the per-Gaussian cull test and/or a full
    /// covariance rebuild.
    pub cells_reprojected: u64,
    /// Live Gaussians skipped without any per-Gaussian camera work
    /// (residents of fully-outside cells).
    pub gaussians_skipped: u64,
    /// Gaussians projected through the cached `W Σ Wᵀ` product (epoch hit
    /// under the translation bound).
    pub gaussians_refreshed: u64,
    /// Gaussians that recomputed the covariance product (epoch miss: first
    /// frame, or a rotation delta).
    pub gaussians_reprojected: u64,
}

impl CullStats {
    /// The counters accumulated since `earlier` (field-wise difference) —
    /// e.g. one frame's contribution.
    pub fn delta_since(&self, earlier: &CullStats) -> CullStats {
        CullStats {
            frames: self.frames - earlier.frames,
            cells_skipped: self.cells_skipped - earlier.cells_skipped,
            cells_refreshed: self.cells_refreshed - earlier.cells_refreshed,
            cells_reprojected: self.cells_reprojected - earlier.cells_reprojected,
            gaussians_skipped: self.gaussians_skipped - earlier.gaussians_skipped,
            gaussians_refreshed: self.gaussians_refreshed - earlier.gaussians_refreshed,
            gaussians_reprojected: self.gaussians_reprojected - earlier.gaussians_reprojected,
        }
    }

    /// Total Gaussians that took any per-frame decision (skipped, refreshed
    /// or re-projected).
    pub fn gaussians_touched(&self) -> u64 {
        self.gaussians_skipped + self.gaussians_refreshed + self.gaussians_reprojected
    }
}

/// Per-Gaussian cached covariance product `W Σ Wᵀ` (the six entries the
/// EWA expansion reads) tagged with the rotation epoch it was computed
/// under.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CovCacheEntry {
    /// Cached [`crate::projection::covariance_entries`] value.
    pub m: [f32; 6],
    /// Rotation epoch the entry is valid for (`0` = never computed).
    pub epoch: u32,
}

impl Default for CovCacheEntry {
    fn default() -> Self {
        Self {
            m: [0.0; 6],
            epoch: 0,
        }
    }
}

/// Temporal culling state of the incremental preprocess: the current
/// round's cell classification (plus the previous round's, for change
/// tracking), the epoch-tagged `W Σ Wᵀ` covariance cache, the round's
/// admission span, and the accumulated [`CullStats`].
///
/// Work is organised in **rounds**. [`CullState::begin_round`] runs one
/// cell classification covering every camera of the round, after which
/// each admitted camera ([`CullState::admits`]) emits its own frame
/// through [`crate::preprocess::preprocess_frame`]. A solo frame is a
/// round of one camera; a cross-stream batch (or the two eyes of a
/// stereo pair) is a round of M cameras that provably share the
/// pure-translation bound ([`Camera::is_translation_of`]) against the
/// round leader. The members then share **one** widened classification
/// ([`SceneIndex::classify_widened_into`]), whose verdicts are
/// conservative for every member, and **one** covariance cache: `W Σ Wᵀ`
/// depends on the camera only through the view rotation `W`, which the
/// bound makes bit-identical across the round, so an entry computed
/// while emitting any member's stream replays bit-exactly for every
/// other member. Everything genuinely per-camera (sphere tests in
/// `Boundary` cells, the projection tail, SH color, the depth sort) runs
/// with the member's own camera, so every member's output is bit-exact
/// with the full sweep — see DESIGN.md §7.
///
/// One `CullState` pairs with one [`SceneIndex`] and one sequence of
/// rounds (rounds are strictly sequential per state);
/// [`CullState::invalidate`] forgets the temporal state on a scene or
/// camera cut — results stay bit-exact either way, only reuse is lost.
///
/// # Examples
///
/// ```
/// use gsplat::camera::Camera;
/// use gsplat::index::{CullState, SceneIndex};
/// use gsplat::math::Vec3;
/// use gsplat::scene::EVALUATED_SCENES;
/// let scene = EVALUATED_SCENES[4].generate_scaled(0.04);
/// let index = SceneIndex::build(&scene.gaussians);
/// let left = scene.default_camera();
/// // A pure translation of the leader: always batchable.
/// let d = Vec3::new(0.065, 0.0, 0.0);
/// let right = Camera::look_at(left.eye() + d, Vec3::ZERO + d, left.width(), left.height(), left.fov_y());
/// assert!(right.is_translation_of(&left));
/// let mut cull = CullState::default();
/// cull.begin_round(&index, std::slice::from_ref(&left)); // a solo frame
/// assert!(cull.admits(&left) && !cull.admits(&right));
/// cull.begin_round(&index, &[left.clone(), right.clone()]); // a stereo pair
/// assert!(cull.admits(&left) && cull.admits(&right));
/// assert_eq!((cull.rounds(), cull.members_total()), (2, 3));
/// ```
#[derive(Debug, Default)]
pub struct CullState {
    classes: Vec<CellClass>,
    prev_classes: Vec<CellClass>,
    mcache: Vec<CovCacheEntry>,
    /// Current rotation epoch; bumped whenever a round leader's delta
    /// from the previous round's leader is not a pure translation.
    /// Entries tagged with an older epoch are stale.
    epoch: u32,
    /// Leader of the current round — the admission reference, and the
    /// next round's camera-delta reference (`None` = no round since the
    /// last invalidation).
    leader: Option<Camera>,
    /// Inclusive component-wise bounds of the round members' view-space
    /// translations — the admission span the widened classification
    /// provably covers.
    t_lo: Vec3,
    t_hi: Vec3,
    /// Fingerprint of the [`SceneIndex`] this state's caches were filled
    /// under (`0` = not yet paired). A state handed a *different* index
    /// auto-invalidates instead of replaying the previous scene's
    /// covariance products.
    paired_index: u64,
    /// Whether the `O(scene)` cloud-content check has run for the current
    /// pairing (done once by the indexed preprocess, not per frame).
    content_checked: bool,
    stats: CullStats,
    /// Rounds begun (each = one classification pass).
    rounds: u64,
    /// Member frames admitted across all rounds.
    members_total: u64,
}

impl CullState {
    /// Counters accumulated across all frames preprocessed with this
    /// state. Cell counters advance once per **round** (the shared
    /// classification runs once), Gaussian counters once per **member**
    /// (each member's emission sweep skips/replays/recomputes residents
    /// itself), and `frames` counts member frames.
    pub fn stats(&self) -> CullStats {
        self.stats
    }

    /// Rounds begun — each paid exactly one classification pass.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Member frames admitted across all rounds (`members_total / rounds`
    /// is the mean round occupancy).
    pub fn members_total(&self) -> u64 {
        self.members_total
    }

    /// Current per-cell classification (valid after the first round).
    pub fn classes(&self) -> &[CellClass] {
        &self.classes
    }

    /// Forgets all temporal state (classification history, covariance
    /// cache validity, the delta-bound reference camera, the active
    /// round). Call on a scene or camera cut; the next round re-projects
    /// everything.
    pub fn invalidate(&mut self) {
        self.prev_classes.clear();
        self.leader = None;
        // Epoch bump invalidates every cache entry without touching them.
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Extremely long sessions wrap the epoch; clear tags so no
            // stale entry can alias the restarted counter.
            for e in &mut self.mcache {
                e.epoch = u32::MAX;
            }
            self.epoch = 1;
        }
    }

    /// Starts a round over `cameras` (leader first): binds the state to
    /// `index` (auto-invalidating when handed a different index than the
    /// caches were filled under), sizes the caches, applies the
    /// camera-delta bound to the covariance cache (the epoch holds only
    /// when the new leader is a pure translation of the previous round's),
    /// records the members' view-translation admission span, and runs the
    /// **single** classification pass — widened by that span — whose
    /// verdicts serve every member. Cell counters fold once per round;
    /// Gaussian skip counters once per member (each member's sweep skips
    /// `Outside` residents itself).
    ///
    /// # Panics
    ///
    /// Panics when `cameras` is empty or any member is not a pure
    /// translation of the leader — callers must form rounds from *proven*
    /// members (key filter + `is_translation_of` confirmation); this is
    /// the soundness backstop, not the grouping mechanism.
    pub fn begin_round(&mut self, index: &SceneIndex, cameras: &[Camera]) {
        assert!(!cameras.is_empty(), "a round needs at least one camera");
        let (leader, rest) = (&cameras[0], &cameras[1..]);
        for (m, cam) in rest.iter().enumerate() {
            assert!(
                cam.is_translation_of(leader),
                "round member {} is not a pure translation of the leader",
                m + 1
            );
        }
        if self.paired_index != index.fingerprint() {
            // Re-pairing: every cached covariance product belongs to the
            // previous index's Gaussians — forget all temporal state.
            self.invalidate();
            self.paired_index = index.fingerprint();
            self.content_checked = false;
        }
        self.mcache.resize(index.len(), CovCacheEntry::default());
        let translation = self
            .leader
            .as_ref()
            .is_some_and(|prev| leader.is_translation_of(prev));
        if !translation {
            self.epoch = self.epoch.wrapping_add(1).max(1);
        }

        // Inclusive member view-translation bounds: the admission span.
        let t_leader = view_translation(leader);
        let (mut t_lo, mut t_hi) = (t_leader, t_leader);
        for cam in rest {
            let t = view_translation(cam);
            t_lo = t_lo.min(t);
            t_hi = t_hi.max(t);
        }
        self.t_lo = t_lo;
        self.t_hi = t_hi;

        // One widened classification covering every member: offsets are
        // relative to the leader (whose own offset is zero, so the bounds
        // always contain it); `spread` is non-negative by construction. A
        // round of one classifies with zero widening, exactly as
        // [`SceneIndex::classify_into`].
        let (mid, spread) = if rest.is_empty() {
            (Vec3::ZERO, Vec3::ZERO)
        } else {
            let (d_lo, d_hi) = (t_lo - t_leader, t_hi - t_leader);
            ((d_lo + d_hi) * 0.5, (d_hi - d_lo) * 0.5)
        };
        std::mem::swap(&mut self.classes, &mut self.prev_classes);
        index.classify_widened_into(&FrameTransform::new(leader), mid, spread, &mut self.classes);
        self.leader = Some(leader.clone());

        let members = cameras.len() as u64;
        self.rounds += 1;
        self.members_total += members;
        self.stats.frames += members;
        let history = self.prev_classes.len() == self.classes.len();
        // Skip the trailing sentinel entry — it holds no live residents.
        for (cell_id, class) in self.classes.iter().take(index.cell_count()).enumerate() {
            match class {
                CellClass::Outside => {
                    self.stats.cells_skipped += 1;
                    self.stats.gaussians_skipped += index.cell_live(cell_id) as u64 * members;
                }
                CellClass::Inside
                    if translation
                        && history
                        && self.prev_classes[cell_id] == CellClass::Inside =>
                {
                    self.stats.cells_refreshed += 1;
                }
                _ => self.stats.cells_reprojected += 1,
            }
        }
    }

    /// `true` when `camera` is covered by the current round's
    /// classification: the round leader itself, or a pure translation of
    /// it whose view-space translation lies inside the round's inclusive
    /// member span. The indexed preprocess requires this for every frame
    /// it emits — a camera outside the span could see residents the
    /// widened `Outside` proof never covered.
    pub fn admits(&self, camera: &Camera) -> bool {
        let Some(leader) = &self.leader else {
            return false;
        };
        if !camera.is_translation_of(leader) {
            return false;
        }
        let t = view_translation(camera);
        let bits = |v: Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
        // The leader's own translation is admitted even when non-finite,
        // where every span comparison below is false.
        bits(t) == bits(view_translation(leader))
            || (self.t_lo.x <= t.x
                && t.x <= self.t_hi.x
                && self.t_lo.y <= t.y
                && t.y <= self.t_hi.y
                && self.t_lo.z <= t.z
                && t.z <= self.t_hi.z)
    }

    /// Fingerprint of the index this state is currently paired with
    /// (`0` = not yet paired). The next [`CullState::begin_round`] with a
    /// different index auto-invalidates.
    pub(crate) fn paired_with(&self) -> u64 {
        self.paired_index
    }

    /// Runs `check` — the `O(scene)` cloud-content check — once per
    /// pairing.
    pub(crate) fn check_content_once(&mut self, check: impl FnOnce()) {
        if !self.content_checked {
            check();
            self.content_checked = true;
        }
    }

    /// Folds one member's projection counters into the accumulated stats.
    pub(crate) fn record_projection(&mut self, refreshed: u64, reprojected: u64) {
        self.stats.gaussians_refreshed += refreshed;
        self.stats.gaussians_reprojected += reprojected;
    }

    /// Disjoint borrows for one member's projection sweep: the round's
    /// classes, the shared mutable covariance cache, and the epoch
    /// entries must be tagged with.
    pub(crate) fn projection_parts(&mut self) -> (&[CellClass], &mut [CovCacheEntry], u32) {
        (&self.classes, &mut self.mcache, self.epoch)
    }
}

/// The view-space translation column of `camera`'s view matrix — the
/// one part of the view a pure-translation delta changes.
fn view_translation(camera: &Camera) -> Vec3 {
    camera.view_matrix().cols[3].truncate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::projection::project_gaussian;
    use crate::scene::EVALUATED_SCENES;

    fn scene() -> crate::scene::Scene {
        EVALUATED_SCENES[2].generate_scaled(0.04) // outdoor Train
    }

    #[test]
    fn build_covers_every_gaussian() {
        let s = scene();
        let index = SceneIndex::build(&s.gaussians);
        assert_eq!(index.len(), s.gaussians.len());
        assert!(index.cell_count() > 1);
        // Live Gaussians map into the grid; dead ones hit the sentinel.
        for (i, &c) in index.cell_of().iter().enumerate() {
            if index.dead()[i] {
                assert_eq!(c as usize, index.cell_count(), "gaussian {i}");
            } else {
                assert!((c as usize) < index.cell_count(), "gaussian {i}");
            }
        }
        let live: u64 = (0..index.cell_count())
            .map(|c| index.cell_live(c) as u64)
            .sum();
        let dead = index.dead().iter().filter(|&&d| d).count() as u64;
        assert_eq!(live + dead, s.gaussians.len() as u64);
    }

    #[test]
    fn dead_mask_matches_camera_invariant_cull() {
        let mut gaussians = scene().gaussians;
        gaussians[3].opacity = f32::NAN;
        gaussians[7].mean = crate::math::Vec3::new(f32::INFINITY, 0.0, 0.0);
        gaussians[11].opacity = 0.0001; // below the prune threshold
        let index = SceneIndex::build(&gaussians);
        for (i, g) in gaussians.iter().enumerate() {
            assert_eq!(index.dead()[i], culled_before_projection(g), "gaussian {i}");
        }
        assert!(index.dead()[3] && index.dead()[7] && index.dead()[11]);
    }

    #[test]
    fn classification_is_conservative_for_every_resident() {
        let s = scene();
        let index = SceneIndex::build(&s.gaussians);
        // A close-in camera so the frustum cuts through the cloud.
        let cam = Camera::look_at(
            s.center + crate::math::Vec3::new(0.0, 1.0, s.view_radius * 0.5),
            s.center,
            160,
            120,
            1.0,
        );
        let frame = FrameTransform::new(&cam);
        let mut classes = Vec::new();
        index.classify_into(&frame, &mut classes);
        let mut outside = 0;
        let mut inside = 0;
        for (i, g) in s.gaussians.iter().enumerate() {
            if index.dead()[i] {
                continue;
            }
            match classes[index.cell_of()[i] as usize] {
                CellClass::Outside => {
                    outside += 1;
                    assert!(
                        !cam.sphere_visible(g.mean, g.bounding_radius()),
                        "gaussian {i} visible inside an Outside cell"
                    );
                    assert!(project_gaussian(g, &cam, i as u32).is_none());
                }
                CellClass::Inside => {
                    inside += 1;
                    assert!(
                        cam.sphere_visible(g.mean, g.bounding_radius()),
                        "gaussian {i} culled inside an Inside cell"
                    );
                }
                CellClass::Boundary => {}
            }
        }
        // The close-in camera must actually exercise both terminal classes.
        assert!(outside > 0, "no outside gaussians — test camera too wide");
        assert!(inside > 0, "no inside gaussians — test camera too narrow");
    }

    #[test]
    fn nan_poisoned_cells_never_classify_terminally_wrong() {
        // A Gaussian with a finite-but-huge mean overflows the camera
        // transform; its cell must fall back to Boundary, never Outside.
        let mut gaussians = scene().gaussians;
        gaussians[0].mean = crate::math::Vec3::splat(1e38);
        let index = SceneIndex::build(&gaussians);
        let cam = scene().default_camera();
        let mut classes = Vec::new();
        index.classify_into(&FrameTransform::new(&cam), &mut classes);
        let class = classes[index.cell_of()[0] as usize];
        assert_ne!(class, CellClass::Inside);
        // Full-path agreement regardless of classification.
        if class == CellClass::Outside {
            assert!(project_gaussian(&gaussians[0], &cam, 0).is_none());
        }
    }

    #[test]
    fn epoch_bumps_on_rotation_and_holds_on_translation() {
        let s = scene();
        let index = SceneIndex::build(&s.gaussians);
        let mut state = CullState::default();
        let path = crate::camera::CameraPath::flythrough(
            s.center + crate::math::Vec3::new(0.0, 1.0, s.view_radius),
            s.center,
            0.05,
            0.01,
        );
        let cams = path.cameras(4, 96, 72, 1.0);
        let mut epochs = Vec::new();
        for cam in &cams {
            state.begin_round(&index, std::slice::from_ref(cam));
            epochs.push(state.projection_parts().2);
        }
        // Flythrough translates without spinning: one epoch for all frames.
        assert!(epochs.windows(2).all(|w| w[0] == w[1]), "{epochs:?}");
        // An orbit step rotates the view: the epoch must advance.
        let orbit = crate::camera::CameraPath::orbit(s.center, s.view_radius, 1.0, 0.25);
        let cam = orbit.camera(1, 8, 96, 72, 1.0);
        state.begin_round(&index, std::slice::from_ref(&cam));
        assert!(state.projection_parts().2 > epochs[0]);
        // Invalidation also advances it.
        let e = state.projection_parts().2;
        state.invalidate();
        state.begin_round(&index, std::slice::from_ref(&cam));
        assert!(state.projection_parts().2 > e);
    }

    /// A round of one classifies exactly like the unwidened
    /// [`SceneIndex::classify_into`].
    #[test]
    fn round_of_one_classifies_like_classify_into() {
        let s = scene();
        let index = SceneIndex::build(&s.gaussians);
        let cam = s.default_camera();
        let mut state = CullState::default();
        state.begin_round(&index, std::slice::from_ref(&cam));
        let mut classes = Vec::new();
        index.classify_into(&FrameTransform::new(&cam), &mut classes);
        assert_eq!(state.classes(), &classes[..]);
        assert!(state.admits(&cam));
        assert_eq!((state.rounds(), state.members_total()), (1, 1));
    }

    /// Builds `count` cameras sharing a **bit-identical** view rotation:
    /// an axis-aligned `-z` view whose look-at offset `(0, 0, -1)` is
    /// recovered exactly by `center - eye` for every member (x/y cancel
    /// to `+0.0`; `z` is snapped to a multiple of `0.25`, so `z - 1` is
    /// exact) — the translation bound holds by construction, not by luck.
    fn translated_cameras(base: Vec3, count: usize) -> Vec<Camera> {
        let z = (base.z * 4.0).round() / 4.0;
        (0..count)
            .map(|m| {
                let eye = Vec3::new(base.x + 0.5 * m as f32, base.y + 0.25 * m as f32, z);
                Camera::look_at(eye, eye + Vec3::new(0.0, 0.0, -1.0), 128, 96, 1.0)
            })
            .collect()
    }

    #[test]
    fn widened_verdicts_are_conservative_for_every_member() {
        let s = scene();
        let index = SceneIndex::build(&s.gaussians);
        let cams = translated_cameras(s.center + Vec3::new(0.0, 1.0, s.view_radius * 0.5), 4);
        let mut state = CullState::default();
        state.begin_round(&index, &cams);
        let classes = state.classes().to_vec();
        let mut outside = 0;
        let mut inside = 0;
        for cam in &cams {
            for (i, g) in s.gaussians.iter().enumerate() {
                if index.dead()[i] {
                    continue;
                }
                match classes[index.cell_of()[i] as usize] {
                    CellClass::Outside => {
                        outside += 1;
                        assert!(
                            !cam.sphere_visible(g.mean, g.bounding_radius()),
                            "gaussian {i} visible in an Outside cell for a member"
                        );
                    }
                    CellClass::Inside => {
                        inside += 1;
                        assert!(
                            cam.sphere_visible(g.mean, g.bounding_radius()),
                            "gaussian {i} culled in an Inside cell for a member"
                        );
                    }
                    CellClass::Boundary => {}
                }
            }
        }
        assert!(outside > 0, "no outside gaussians — camera too wide");
        assert!(inside > 0, "no inside gaussians — camera too narrow");
    }

    #[test]
    fn admission_requires_round_coverage() {
        let s = scene();
        let index = SceneIndex::build(&s.gaussians);
        let cams = translated_cameras(s.center + Vec3::new(0.0, 1.0, s.view_radius), 3);
        let mut state = CullState::default();
        assert!(!state.admits(&cams[0]), "no round active yet");
        state.begin_round(&index, &cams);
        for cam in &cams {
            assert!(state.admits(cam));
        }
        // A translation outside the member span is rejected even though
        // the bound itself holds.
        let far_eye = cams[0].eye() + Vec3::new(50.0, 0.0, 0.0);
        let far = Camera::look_at(far_eye, far_eye + Vec3::new(0.0, 0.0, -1.0), 128, 96, 1.0);
        assert!(far.is_translation_of(&cams[0]));
        assert!(!state.admits(&far));
        // A rotated camera is rejected outright.
        let spun = Camera::look_at(
            cams[0].eye() + Vec3::new(0.0, 2.0, 0.0),
            s.center,
            128,
            96,
            1.0,
        );
        assert!(!state.admits(&spun));
        // Points inside the span (e.g. the midpoint camera re-derived)
        // stay admitted after more rounds with the same leader.
        state.begin_round(&index, &cams);
        assert!(state.admits(&cams[1]));
        // A round of one admits its leader only.
        state.begin_round(&index, &cams[..1]);
        assert!(state.admits(&cams[0]) && !state.admits(&cams[1]));
    }

    #[test]
    fn epoch_holds_across_translated_rounds_and_bumps_on_rotation() {
        let s = scene();
        let index = SceneIndex::build(&s.gaussians);
        let mut state = CullState::default();
        let path = crate::camera::CameraPath::flythrough(
            s.center + Vec3::new(0.0, 1.0, s.view_radius),
            s.center,
            0.05,
            0.01,
        )
        .stereo(0.065);
        let mut epochs = Vec::new();
        for k in 0..4 {
            let l = path.camera(2 * k, 8, 96, 72, 1.0);
            let r = path.camera(2 * k + 1, 8, 96, 72, 1.0);
            state.begin_round(&index, &[l, r]);
            epochs.push(state.projection_parts().2);
        }
        // Stereo flythrough: every round's leader translates — one epoch.
        assert!(epochs.windows(2).all(|w| w[0] == w[1]), "{epochs:?}");
        assert_eq!(state.rounds(), 4);
        assert_eq!(state.members_total(), 8);
        assert_eq!(state.stats().frames, 8);
        // An orbit step rotates the leader: the epoch must advance.
        let orbit = crate::camera::CameraPath::orbit(s.center, s.view_radius, 1.0, 0.25);
        let cam = orbit.camera(1, 8, 96, 72, 1.0);
        state.begin_round(&index, std::slice::from_ref(&cam));
        assert!(state.projection_parts().2 > epochs[0]);
        // Invalidation also advances it and ends the round.
        let e = state.projection_parts().2;
        state.invalidate();
        assert!(!state.admits(&cam));
        state.begin_round(&index, std::slice::from_ref(&cam));
        assert!(state.projection_parts().2 > e);
    }

    #[test]
    #[should_panic(expected = "not a pure translation")]
    fn unprovable_member_panics() {
        let s = scene();
        let index = SceneIndex::build(&s.gaussians);
        let a = Camera::look_at(s.center + Vec3::new(0.0, 1.0, 4.0), s.center, 128, 96, 1.0);
        let spun = Camera::look_at(s.center + Vec3::new(2.0, 1.0, 4.0), s.center, 128, 96, 1.0);
        CullState::default().begin_round(&index, &[a, spun]);
    }

    #[test]
    fn fingerprint_tracks_cloud_identity() {
        let s = scene();
        let a = cloud_fingerprint(&s.gaussians);
        assert_eq!(a, cloud_fingerprint(&s.gaussians));
        let mut altered = s.gaussians.clone();
        altered[0].mean.x += 1.0;
        assert_ne!(a, cloud_fingerprint(&altered));
        assert_ne!(a, cloud_fingerprint(&s.gaussians[1..]));
        assert_eq!(SceneIndex::build(&s.gaussians).fingerprint(), a);
    }

    #[test]
    fn empty_and_all_dead_clouds_build() {
        let index = SceneIndex::build(&[]);
        assert!(index.is_empty());
        assert_eq!(index.cell_count(), 1);
        let dead_cloud = vec![
            Gaussian::isotropic(Vec3::ZERO, 0.1, 0.0, Vec3::splat(0.5)),
            Gaussian::isotropic(Vec3::new(1.0, 0.0, 0.0), 0.1, 0.001, Vec3::splat(0.5)),
        ];
        let index = SceneIndex::build(&dead_cloud);
        assert_eq!(index.len(), 2);
        assert!(index.dead().iter().all(|&d| d));
        let cam = Camera::look_at(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, 64, 64, 1.0);
        let mut classes = Vec::new();
        index.classify_into(&FrameTransform::new(&cam), &mut classes);
        assert!(classes.iter().all(|&c| c == CellClass::Outside));
    }

    #[test]
    fn cull_stats_delta_and_touched() {
        let a = CullStats {
            frames: 2,
            cells_skipped: 10,
            cells_refreshed: 4,
            cells_reprojected: 6,
            gaussians_skipped: 100,
            gaussians_refreshed: 50,
            gaussians_reprojected: 25,
        };
        let b = CullStats {
            frames: 3,
            cells_skipped: 15,
            cells_refreshed: 6,
            cells_reprojected: 9,
            gaussians_skipped: 160,
            gaussians_refreshed: 80,
            gaussians_reprojected: 30,
        };
        let d = b.delta_since(&a);
        assert_eq!(d.frames, 1);
        assert_eq!(d.gaussians_skipped, 60);
        assert_eq!(d.gaussians_touched(), 60 + 30 + 5);
    }
}
