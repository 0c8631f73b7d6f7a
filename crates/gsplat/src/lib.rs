//! # gsplat — 3D Gaussian splatting substrate
//!
//! The rendering-algorithm foundation shared by every renderer in the
//! VR-Pipe reproduction: self-contained linear algebra, 3D Gaussian
//! primitives with spherical-harmonics color, EWA projection to 2D splats
//! with tight oriented bounding boxes, front-to-back alpha blending,
//! framebuffers with the stencil MSB termination flag, radix depth sorting,
//! and procedural scene generation standing in for the paper's trained
//! datasets (Table II).
//!
//! ## Quick example
//!
//! ```
//! use gsplat::{preprocess::preprocess, scene::EVALUATED_SCENES};
//!
//! // Generate a small version of the "Lego" workload and preprocess it.
//! let scene = EVALUATED_SCENES[4].generate_scaled(0.05);
//! let camera = scene.default_camera();
//! let out = preprocess(&scene, &camera);
//! assert!(out.splats.len() > 0);
//! ```
//!
//! Pipeline position (paper Fig. 4): `gsplat` covers *Preprocessing &
//! Sorting* and the math for *Vertex/Fragment shading*; the hardware
//! pipeline stages live in the `gpu-sim` crate and the VR-Pipe extensions
//! in the `vrpipe` crate.

pub mod asset;
pub mod blend;
pub mod camera;
pub mod color;
pub mod framebuffer;
pub mod gaussian;
pub mod index;
pub mod math;
pub mod par;
pub mod preprocess;
pub mod projection;
pub mod scene;
pub mod sh;
pub mod sort;
pub mod splat;
pub mod stream;

pub use asset::{AssetError, GaussianDefect, LoadPolicy, LoadReport, LoadedAsset};
pub use blend::{ALPHA_PRUNE_THRESHOLD, EARLY_TERMINATION_THRESHOLD};
pub use camera::{Camera, CameraPath};
pub use color::{PixelFormat, Rgba};
pub use framebuffer::{ColorBuffer, DepthStencilBuffer, TERMINATION_BIT};
pub use gaussian::Gaussian;
pub use index::{CellClass, CullState, CullStats, SceneIndex};
pub use par::{ThreadPolicy, WorkerPool};
pub use preprocess::PreprocessScratch;
pub use projection::FrameTransform;
pub use scene::{Scene, SceneKind, SceneSpec, EVALUATED_SCENES, LARGE_SCALE_SCENES};
pub use sort::{IncrementalSorter, ResortStats, SortScratch};
pub use splat::Splat;
pub use stream::{FragmentKernel, SplatStream, TileBitset};
