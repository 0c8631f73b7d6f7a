//! The simulated draw's fragment shading one fragment at a time, as the
//! reference `vrpipe::shading::shade_pair` must equal bit for bit: each
//! covered fragment through `gsplat::blend::fragment_alpha` into a
//! straight-color shaded quad, a QRU merge pair blended into one
//! pre-multiplied quad flagged `merged`, and each live fragment blended
//! over its destination pixel.

use crate::quad::Quad;
use gsplat::blend::{blend_over, fragment_alpha};
use gsplat::color::Rgba;
use gsplat::math::Vec3;
use gsplat::splat::Splat;

/// A quad annotated with shaded fragment data. After shading, each alive
/// fragment carries a straight-alpha color; after a merge, `rgb`/`alpha`
/// hold a pre-multiplied partial blend and `merged` is set.
#[derive(Debug, Clone, Copy)]
pub struct ShadedQuad {
    pub quad: Quad,
    pub rgb: [Vec3; 4],
    pub alpha: [f32; 4],
    /// Fragments that survived alpha pruning (a subset of the coverage).
    pub alive: u8,
    pub merged: bool,
}

/// Shades one quad: the Gaussian falloff alpha per covered fragment, with
/// alpha pruning (`α < 1/255` fragments are killed).
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

/// Pre-multiplied RGBA of fragment `i` of a shaded or merged quad.
pub fn premultiplied_fragment(sq: &ShadedQuad, i: usize) -> (Vec3, f32) {
    if sq.merged {
        (sq.rgb[i], sq.alpha[i])
    } else {
        (sq.rgb[i] * sq.alpha[i], sq.alpha[i])
    }
}

/// The shader-side partial blend of a merge pair: `ffb(front, back)` per
/// pixel where both are alive, else the alive one.
pub fn merge_pair(front: &ShadedQuad, back: &ShadedQuad) -> ShadedQuad {
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

/// CROP's blend of fragment `i` of `sq` over the destination pixel.
pub fn blend(dest: Rgba, sq: &ShadedQuad, i: usize) -> Rgba {
    let (rgb, a) = premultiplied_fragment(sq, i);
    blend_over(dest, Rgba::from_rgb(rgb, a))
}
