// The 2×2-fragment quad of the tests — the smallest unit of work in the
// hardware pipeline (paper §II-A: "the ROP units operate at a quad
// granularity") in one self-contained value. Shared test support: the
// gpu-sim unit tests and the gpu-sim and vrpipe property tests include
// it with `include!`, after importing `QuadPos` and `TileId` from
// `gpu_sim::tiles`.

/// A 2×2 block of fragments of one primitive, addressed by its screen tile
/// and quad position within it. The fine raster hands the draw only a
/// quad's position and coverage; this self-contained form is what the
/// reference rasters, the QRU packer and the shading oracle of the tests
/// compare.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quad {
    /// Screen tile containing the quad.
    pub tile: TileId,
    /// Quad position within the tile (the QRU register address).
    pub pos: QuadPos,
    /// Top-left pixel coordinate of the quad in the framebuffer.
    pub origin: (u32, u32),
    /// 4-bit coverage mask: bit i set when fragment i is inside the
    /// primitive. Fragment order: (0,0), (1,0), (0,1), (1,1).
    pub coverage: u8,
    /// Index into the draw call's splat list (the source primitive).
    pub splat: u32,
}

impl Quad {
    /// Pixel coordinate of fragment `i` (0..4).
    ///
    /// # Panics
    ///
    /// Panics (debug) when `i >= 4`.
    #[inline]
    pub fn fragment_xy(&self, i: usize) -> (u32, u32) {
        debug_assert!(i < 4);
        (
            self.origin.0 + (i as u32 & 1),
            self.origin.1 + (i as u32 >> 1),
        )
    }

    /// Number of covered fragments.
    #[inline]
    pub fn coverage_count(&self) -> u32 {
        (self.coverage & 0xF).count_ones()
    }

    /// `true` when fragment `i` is covered.
    #[inline]
    pub fn covers(&self, i: usize) -> bool {
        self.coverage & (1 << i) != 0
    }
}
