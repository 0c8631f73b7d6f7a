//! The steady-state simulated draw allocates nothing: after one warm-up
//! draw, every further `try_draw_in_place` on the same `DrawScratch` and
//! targets makes zero heap allocations, for every pipeline variant and
//! both fragment kernels.
//!
//! Allocations are counted per thread by a counting global allocator, so
//! this lives in its own test binary. The draws run with `threads: 1`, the
//! serving configuration, where the whole draw stays on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gpu_sim::config::GpuConfig;
use gsplat::preprocess::preprocess;
use gsplat::scene::scene_by_name;
use gsplat::{ColorBuffer, DepthStencilBuffer, FragmentKernel};
use vrpipe::{try_draw_in_place, DrawScratch, PipelineVariant};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call forwards unchanged to the system allocator; the
// per-thread counter is a const-initialised `Cell` with no destructor, so
// touching it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: forwards the caller's layout contract to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    // SAFETY: `ptr` came from `alloc` above, i.e. from `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn warmed_draws_do_not_allocate() {
    for scene in ["Lego", "Train"] {
        let scene = scene_by_name(scene)
            .expect("evaluated scene")
            .generate_scaled(0.06);
        let cam = scene.default_camera();
        let splats = preprocess(&scene, &cam).splats;
        for variant in PipelineVariant::ALL {
            for kernel in [FragmentKernel::Scalar, FragmentKernel::Soa] {
                let gpu = GpuConfig {
                    kernel,
                    threads: 1,
                    ..GpuConfig::default()
                };
                let mut color = ColorBuffer::new(cam.width(), cam.height(), gpu.pixel_format);
                let mut ds = DepthStencilBuffer::new(cam.width(), cam.height());
                let mut scratch = DrawScratch::default();
                let mut draw = || {
                    try_draw_in_place(&splats, &gpu, variant, &mut color, &mut ds, &mut scratch)
                        .expect("valid draw")
                };
                let warm = draw();
                for i in 1..=2 {
                    let before = allocations();
                    let stats = draw();
                    let made = allocations() - before;
                    assert_eq!(
                        made,
                        0,
                        "{} {variant} {kernel:?}: draw {} allocated {made} times",
                        scene.spec.name,
                        i + 1
                    );
                    assert_eq!(stats, warm, "a warmed draw must repeat the first");
                }
            }
        }
    }
}
