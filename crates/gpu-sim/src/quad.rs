//! The test suite's quad ([`Quad`]), from the shared test support in
//! `tests/support/quad.rs`: the library's fine raster emits only a quad's
//! position and coverage.

use crate::tiles::{QuadPos, TileId};

include!("../tests/support/quad.rs");

mod tests {
    use super::*;

    fn quad() -> Quad {
        Quad {
            tile: TileId { x: 1, y: 2 },
            pos: QuadPos { x: 3, y: 4 },
            origin: (22, 40),
            coverage: 0b1011,
            splat: 9,
        }
    }

    #[test]
    fn fragment_positions() {
        let q = quad();
        assert_eq!(q.fragment_xy(0), (22, 40));
        assert_eq!(q.fragment_xy(1), (23, 40));
        assert_eq!(q.fragment_xy(2), (22, 41));
        assert_eq!(q.fragment_xy(3), (23, 41));
    }

    #[test]
    fn coverage_queries() {
        let q = quad();
        assert_eq!(q.coverage_count(), 3);
        assert!(q.covers(0) && q.covers(1) && !q.covers(2) && q.covers(3));
    }
}
