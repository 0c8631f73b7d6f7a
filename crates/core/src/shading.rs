//! Fragment shading and shader-side partial blending.
//!
//! The Gaussian fragment shader is deliberately simple (paper §III-B): one
//! dot product against the conic, one exponential, and the alpha-pruning
//! branch. Quad merging appends a short epilogue — a warp shuffle plus one
//! front-to-back blend — executed only by merge-flagged quads (Fig. 15).

use gpu_sim::quad::{Quad, ShadedQuad};
use gsplat::blend::fragment_alpha;
use gsplat::math::Vec3;
use gsplat::splat::Splat;

/// Shades one quad: evaluates the Gaussian falloff alpha per covered
/// fragment and applies alpha pruning (α < 1/255 lanes are killed).
// vrlint: hot
// vrlint: allow-block(VL01[index], reason = "fragment lanes index fixed [T; 4] quad arrays with i in 0..4")
pub fn shade_quad(quad: &Quad, splat: &Splat) -> ShadedQuad {
    let mut rgb = [Vec3::ZERO; 4];
    let mut alpha = [0.0f32; 4];
    let mut alive = 0u8;
    for i in 0..4 {
        if !quad.covers(i) {
            continue;
        }
        let (x, y) = quad.fragment_xy(i);
        let dx = x as f32 + 0.5 - splat.center.x;
        let dy = y as f32 + 0.5 - splat.center.y;
        if let Some(a) = fragment_alpha(splat.opacity, splat.conic, dx, dy) {
            rgb[i] = splat.color;
            alpha[i] = a;
            alive |= 1 << i;
        }
    }
    ShadedQuad {
        quad: *quad,
        rgb,
        alpha,
        alive,
        merged: false,
    }
}

/// Pre-multiplied RGBA of one shaded fragment, handling both straight
/// (just-shaded) and already-merged quads.
#[inline]
pub fn premultiplied_fragment(sq: &ShadedQuad, i: usize) -> (Vec3, f32) {
    if sq.merged {
        // Merged quads already carry pre-multiplied partial blends.
        (sq.rgb[i], sq.alpha[i])
    } else {
        (sq.rgb[i] * sq.alpha[i], sq.alpha[i])
    }
}

/// Shader-side partial blend of a merge pair (paper Fig. 15): the back
/// quad's threads fetch the front quad's fragments via warp shuffle and
/// blend `ffb(front, back)` per pixel, producing one merged quad.
///
/// Both quads cover the same quad position; per-pixel, a lane where only
/// one source is alive passes that source through.
///
/// # Panics
///
/// Panics (debug) when the quads are not at the same framebuffer position.
pub fn merge_pair(front: &ShadedQuad, back: &ShadedQuad) -> ShadedQuad {
    debug_assert_eq!(
        front.quad.origin, back.quad.origin,
        "merge pair must share a quad position"
    );
    let mut rgb = [Vec3::ZERO; 4];
    let mut alpha = [0.0f32; 4];
    let mut alive = 0u8;
    for i in 0..4 {
        let f_alive = front.alive & (1 << i) != 0;
        let b_alive = back.alive & (1 << i) != 0;
        if !f_alive && !b_alive {
            continue;
        }
        alive |= 1 << i;
        let (f_rgb, f_a) = premultiplied_fragment(front, i);
        let (b_rgb, b_a) = premultiplied_fragment(back, i);
        if f_alive && b_alive {
            // ffb(c1, c2) = c1 + (1 - a1) * c2 in pre-multiplied space.
            let t = 1.0 - f_a;
            rgb[i] = f_rgb + b_rgb * t;
            alpha[i] = f_a + b_a * t;
        } else if f_alive {
            rgb[i] = f_rgb;
            alpha[i] = f_a;
        } else {
            rgb[i] = b_rgb;
            alpha[i] = b_a;
        }
    }
    ShadedQuad {
        quad: front.quad,
        rgb,
        alpha,
        alive,
        merged: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::tiles::{QuadPos, TileId};
    use gsplat::math::Vec2;

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

    fn full_quad(x: u32, y: u32) -> Quad {
        Quad {
            tile: TileId {
                x: x / 16,
                y: y / 16,
            },
            pos: QuadPos {
                x: ((x % 16) / 2) as u8,
                y: ((y % 16) / 2) as u8,
            },
            origin: (x, y),
            coverage: 0xF,
            splat: 0,
        }
    }

    #[test]
    fn shading_respects_coverage_and_pruning() {
        let splat = test_splat(1.0, 1.0, 0.9, Vec3::new(1.0, 0.0, 0.0));
        let mut q = full_quad(0, 0);
        q.coverage = 0b0101;
        let sq = shade_quad(&q, &splat);
        assert_eq!(
            sq.alive & !q.coverage,
            0,
            "alive must be subset of coverage"
        );
        assert!(sq.alive & 1 != 0, "center fragment must be alive");
        // Near the center, alpha approaches the opacity.
        assert!(sq.alpha[0] > 0.8);
    }

    #[test]
    fn distant_fragments_are_pruned() {
        let mut splat = test_splat(1000.0, 1000.0, 0.9, Vec3::splat(1.0));
        splat.conic = (1.0, 0.0, 1.0);
        let sq = shade_quad(&full_quad(0, 0), &splat);
        assert!(sq.is_dead());
    }

    #[test]
    fn merge_matches_sequential_blend() {
        let s1 = test_splat(1.0, 1.0, 0.6, Vec3::new(1.0, 0.0, 0.0));
        let s2 = test_splat(1.0, 1.0, 0.8, Vec3::new(0.0, 1.0, 0.0));
        let q = full_quad(0, 0);
        let front = shade_quad(&q, &s1);
        let back = shade_quad(&q, &s2);
        let merged = merge_pair(&front, &back);
        assert!(merged.merged);
        for i in 0..4 {
            let (f_rgb, f_a) = premultiplied_fragment(&front, i);
            let (b_rgb, b_a) = premultiplied_fragment(&back, i);
            let expect_rgb = f_rgb + b_rgb * (1.0 - f_a);
            let expect_a = f_a + b_a * (1.0 - f_a);
            let (m_rgb, m_a) = premultiplied_fragment(&merged, i);
            assert!((m_rgb - expect_rgb).length() < 1e-6);
            assert!((m_a - expect_a).abs() < 1e-6);
        }
    }

    #[test]
    fn merge_passes_through_single_alive_lane() {
        let s1 = test_splat(1.0, 1.0, 0.6, Vec3::new(1.0, 0.0, 0.0));
        let q = full_quad(0, 0);
        let front = shade_quad(&q, &s1);
        let mut back = shade_quad(&q, &s1);
        back.alive = 0; // back quad fully pruned
        let merged = merge_pair(&front, &back);
        assert_eq!(merged.alive, front.alive);
        let (m_rgb, m_a) = premultiplied_fragment(&merged, 0);
        let (f_rgb, f_a) = premultiplied_fragment(&front, 0);
        assert_eq!(m_rgb, f_rgb);
        assert_eq!(m_a, f_a);
    }

    #[test]
    fn merge_is_associativity_preserving_through_rop() {
        // Blending (merged) into a destination equals blending the two
        // fragments sequentially — the core QM correctness property.
        use gsplat::blend::blend_over;
        use gsplat::color::Rgba;
        let s1 = test_splat(1.0, 1.0, 0.5, Vec3::new(0.9, 0.1, 0.3));
        let s2 = test_splat(1.0, 1.0, 0.7, Vec3::new(0.2, 0.8, 0.4));
        let q = full_quad(0, 0);
        let front = shade_quad(&q, &s1);
        let back = shade_quad(&q, &s2);
        let merged = merge_pair(&front, &back);

        let dest = Rgba::new(0.1, 0.1, 0.1, 0.3); // pre-multiplied, in front
                                                  // Sequential: dest ⊕ front ⊕ back.
        let (f_rgb, f_a) = premultiplied_fragment(&front, 0);
        let (b_rgb, b_a) = premultiplied_fragment(&back, 0);
        let seq = blend_over(
            blend_over(dest, Rgba::from_rgb(f_rgb, f_a)),
            Rgba::from_rgb(b_rgb, b_a),
        );
        // Merged: dest ⊕ merged.
        let (m_rgb, m_a) = premultiplied_fragment(&merged, 0);
        let one = blend_over(dest, Rgba::from_rgb(m_rgb, m_a));
        assert!(seq.max_abs_diff(one) < 1e-6);
    }
}
