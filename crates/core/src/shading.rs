//! Fragment shading and shader-side partial blending.
//!
//! The Gaussian fragment shader is deliberately simple (paper §III-B): one
//! dot product against the conic, one exponential, and the alpha-pruning
//! branch. Quad merging appends a short epilogue — a warp shuffle plus one
//! front-to-back blend — executed only by merge-flagged quads (Fig. 15).
//!
//! The draw shades a quad as four fragment lanes ([`QuadLanes`]) with
//! [`shade_pair`]: the Gaussian power of all four lanes in one loop, one
//! `exp` per covered lane whose power is not positive, then opacity, the
//! [`ALPHA_MAX`] clamp, the prune test and the premultiply as lane loops,
//! and a merge pair's back quad blended behind it lane by lane. Each lane
//! forms the `f32` operations of a per-fragment
//! [`fragment_alpha`](gsplat::blend::fragment_alpha) → premultiply →
//! `ffb` in the same order (Rust never contracts them into FMAs), so the
//! lanes equal the per-fragment evaluation bit for bit;
//! `crates/core/tests/props.rs` keeps that evaluation as the oracle.

use gsplat::blend::{gaussian_power, ALPHA_MAX, ALPHA_PRUNE_THRESHOLD};
use gsplat::color::Rgba;
use gsplat::splat::Splat;

/// One shaded (and possibly merged) quad as four fragment lanes of
/// pre-multiplied RGBA, in fragment order (0,0), (1,0), (0,1), (1,1).
/// A lane whose `alive` bit is clear holds zeros.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct QuadLanes {
    /// Pre-multiplied red per lane.
    pub r: [f32; 4],
    /// Pre-multiplied green per lane.
    pub g: [f32; 4],
    /// Pre-multiplied blue per lane.
    pub b: [f32; 4],
    /// Alpha per lane.
    pub a: [f32; 4],
    /// Bit `i` set when lane `i` reaches the blender: a covered fragment
    /// that survived alpha pruning, in the front or the back quad.
    pub alive: u8,
}

impl QuadLanes {
    /// Fragment `i` (0..4) as pre-multiplied RGBA.
    #[inline]
    pub fn fragment(&self, i: usize) -> Rgba {
        Rgba::new(self.r[i], self.g[i], self.b[i], self.a[i])
    }
}

/// The fragment work [`shade_pair`] counts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ShadeCounters {
    /// Covered fragments shaded.
    pub shaded_fragments: u64,
    /// Shaded fragments killed by alpha pruning (`α < 1/255`).
    pub alpha_pruned_fragments: u64,
    /// Quads (merge pairs count once) with no fragment left to blend.
    pub dead_quads: u64,
}

/// Shades the quad at pixel `origin` for the `front` `(splat, coverage)`
/// and, for a QRU merge pair, its `back` quad at the same position, which
/// the shader blends behind the front (paper Fig. 15: `ffb(front, back)`
/// per pixel; a lane where only one side is alive passes it through).
/// Returns the lanes to blend, or `None` — counted as a dead quad — when
/// no fragment survived pruning.
// vrlint: hot
pub fn shade_pair(
    origin: (u32, u32),
    front: (&Splat, u8),
    back: Option<(&Splat, u8)>,
    counters: &mut ShadeCounters,
) -> Option<QuadLanes> {
    let mut lanes = shade_lanes(origin, front.0, front.1, counters);
    if let Some((splat, coverage)) = back {
        lanes = merge_lanes(&lanes, &shade_lanes(origin, splat, coverage, counters));
    }
    if lanes.alive == 0 {
        counters.dead_quads += 1;
        return None;
    }
    Some(lanes)
}

/// Shades one quad's covered fragments into pre-multiplied lanes.
// vrlint: hot
fn shade_lanes(
    origin: (u32, u32),
    splat: &Splat,
    coverage: u8,
    counters: &mut ShadeCounters,
) -> QuadLanes {
    let mut power = [0.0f32; 4];
    for (i, p) in power.iter_mut().enumerate() {
        let dx = (origin.0 + (i as u32 & 1)) as f32 + 0.5 - splat.center.x;
        let dy = (origin.1 + (i as u32 >> 1)) as f32 + 0.5 - splat.center.y;
        *p = gaussian_power(splat.conic, dx, dy);
    }
    // `gaussian_falloff`: 0 for a positive (invalid) power, else `exp`,
    // for the covered lanes. `exp` has no side effect, so the optimiser
    // may evaluate it on all four lanes and select: the selected values
    // are the same bits, and that is faster than branching per lane.
    let mut falloff = [0.0f32; 4];
    for (i, (f, &p)) in falloff.iter_mut().zip(&power).enumerate() {
        let invalid = p > 0.0;
        if coverage >> i & 1 != 0 && !invalid {
            *f = p.exp();
        }
    }
    let mut alpha = [0.0f32; 4];
    let mut alive = 0u8;
    for (i, (a, &f)) in alpha.iter_mut().zip(&falloff).enumerate() {
        let value = (splat.opacity * f).min(ALPHA_MAX);
        let pruned = value < ALPHA_PRUNE_THRESHOLD;
        let keep = (coverage >> i & 1 != 0) & !pruned;
        *a = if keep { value } else { 0.0 };
        alive |= (keep as u8) << i;
    }
    let premultiply = |c: f32| {
        let mut out = [0.0f32; 4];
        for (i, (o, &a)) in out.iter_mut().zip(&alpha).enumerate() {
            if alive >> i & 1 != 0 {
                *o = c * a;
            }
        }
        out
    };
    let covered = (coverage & 0xF).count_ones() as u64;
    counters.shaded_fragments += covered;
    counters.alpha_pruned_fragments += covered - alive.count_ones() as u64;
    QuadLanes {
        r: premultiply(splat.color.x),
        g: premultiply(splat.color.y),
        b: premultiply(splat.color.z),
        a: alpha,
        alive,
    }
}

/// The shader-side partial blend of a merge pair, lane by lane:
/// `ffb(c1, c2) = c1 + (1 - α1)·c2` in pre-multiplied space where both
/// lanes are alive, else the alive one (a lane alive on neither side
/// stays zero).
// vrlint: hot
fn merge_lanes(front: &QuadLanes, back: &QuadLanes) -> QuadLanes {
    let t = front.a.map(|a| 1.0 - a);
    let ffb = |f: [f32; 4], b: [f32; 4]| {
        let mut out = b;
        for (i, ((o, f), t)) in out.iter_mut().zip(f).zip(t).enumerate() {
            let f_alive = front.alive >> i & 1 != 0;
            let b_alive = back.alive >> i & 1 != 0;
            let both = f + *o * t;
            *o = if f_alive & b_alive {
                both
            } else if f_alive {
                f
            } else {
                *o
            };
        }
        out
    };
    QuadLanes {
        r: ffb(front.r, back.r),
        g: ffb(front.g, back.g),
        b: ffb(front.b, back.b),
        a: ffb(front.a, back.a),
        alive: front.alive | back.alive,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsplat::blend::blend_over;
    use gsplat::math::{Vec2, Vec3};

    fn test_splat(cx: f32, cy: f32, opacity: f32, color: Vec3) -> Splat {
        Splat {
            center: Vec2::new(cx, cy),
            depth: 1.0,
            conic: (0.05, 0.0, 0.05),
            axis_major: Vec2::new(10.0, 0.0),
            axis_minor: Vec2::new(0.0, 10.0),
            color,
            opacity,
            source: 0,
        }
    }

    /// The lanes of one unmerged quad at the origin.
    fn shade(splat: &Splat, coverage: u8, counters: &mut ShadeCounters) -> Option<QuadLanes> {
        shade_pair((0, 0), (splat, coverage), None, counters)
    }

    #[test]
    fn shading_respects_coverage_and_pruning() {
        let splat = test_splat(1.0, 1.0, 0.9, Vec3::new(1.0, 0.0, 0.0));
        let mut counters = ShadeCounters::default();
        let lanes = shade(&splat, 0b0101, &mut counters).unwrap();
        assert_eq!(lanes.alive & !0b0101, 0, "alive must be subset of coverage");
        assert!(lanes.alive & 1 != 0, "center fragment must be alive");
        // Near the center, alpha approaches the opacity.
        assert!(lanes.a[0] > 0.8);
        // Uncovered lanes hold zeros; red is pre-multiplied by alpha.
        assert_eq!(lanes.fragment(1), Rgba::TRANSPARENT);
        assert_eq!(lanes.r[0], lanes.a[0]);
        assert_eq!(counters.shaded_fragments, 2);
        assert_eq!(counters.alpha_pruned_fragments, 0);
    }

    #[test]
    fn distant_fragments_are_pruned() {
        let mut splat = test_splat(1000.0, 1000.0, 0.9, Vec3::splat(1.0));
        splat.conic = (1.0, 0.0, 1.0);
        let mut counters = ShadeCounters::default();
        assert_eq!(shade(&splat, 0xF, &mut counters), None);
        assert_eq!(
            counters,
            ShadeCounters {
                shaded_fragments: 4,
                alpha_pruned_fragments: 4,
                dead_quads: 1,
            }
        );
    }

    #[test]
    fn merge_matches_sequential_blend() {
        let s1 = test_splat(1.0, 1.0, 0.6, Vec3::new(1.0, 0.0, 0.0));
        let s2 = test_splat(1.0, 1.0, 0.8, Vec3::new(0.0, 1.0, 0.0));
        let mut counters = ShadeCounters::default();
        let front = shade(&s1, 0xF, &mut counters).unwrap();
        let back = shade(&s2, 0xF, &mut counters).unwrap();
        let merged = shade_pair((0, 0), (&s1, 0xF), Some((&s2, 0xF)), &mut counters).unwrap();
        assert_eq!(merged.alive, 0xF);
        for i in 0..4 {
            // ffb(c1, c2) = c1 + (1 - a1) * c2, computed the same way.
            let t = 1.0 - front.a[i];
            assert_eq!(merged.r[i], front.r[i] + back.r[i] * t);
            assert_eq!(merged.g[i], front.g[i] + back.g[i] * t);
            assert_eq!(merged.a[i], front.a[i] + back.a[i] * t);
        }
    }

    #[test]
    fn merge_passes_through_single_alive_lane() {
        let s1 = test_splat(1.0, 1.0, 0.6, Vec3::new(1.0, 0.0, 0.0));
        let mut far = s1;
        far.center = Vec2::new(1000.0, 1000.0);
        let mut counters = ShadeCounters::default();
        let front = shade(&s1, 0xF, &mut counters).unwrap();
        // The back quad is fully pruned: the front passes through as is.
        let merged = shade_pair((0, 0), (&s1, 0xF), Some((&far, 0xF)), &mut counters).unwrap();
        assert_eq!(merged, front);
        // The same with the roles swapped.
        let merged = shade_pair((0, 0), (&far, 0xF), Some((&s1, 0xF)), &mut counters).unwrap();
        assert_eq!(merged, front);
    }

    #[test]
    fn merge_is_associativity_preserving_through_rop() {
        // Blending (merged) into a destination equals blending the two
        // fragments sequentially — the core QM correctness property.
        let s1 = test_splat(1.0, 1.0, 0.5, Vec3::new(0.9, 0.1, 0.3));
        let s2 = test_splat(1.0, 1.0, 0.7, Vec3::new(0.2, 0.8, 0.4));
        let mut counters = ShadeCounters::default();
        let front = shade(&s1, 0xF, &mut counters).unwrap();
        let back = shade(&s2, 0xF, &mut counters).unwrap();
        let merged = shade_pair((0, 0), (&s1, 0xF), Some((&s2, 0xF)), &mut counters).unwrap();

        let dest = Rgba::new(0.1, 0.1, 0.1, 0.3); // pre-multiplied, in front
        let seq = blend_over(blend_over(dest, front.fragment(0)), back.fragment(0));
        let one = blend_over(dest, merged.fragment(0));
        assert!(seq.max_abs_diff(one) < 1e-6);
    }
}
