//! # gpu-sim — transaction-level graphics-pipeline GPU simulator
//!
//! Models the NVIDIA-like baseline GPU of the VR-Pipe paper (Table I): the
//! fixed-function graphics units (VPO, rasterizer, tile binning, PROP,
//! ZROP, CROP with its 16 KB color cache), the SIMT shader-core throughput
//! model, and a pipelined batch timing engine with back-pressure semantics.
//!
//! This crate substitutes for the heavily modified Emerald
//! (gem5 + GPGPU-Sim) infrastructure the paper built on; DESIGN.md §2
//! explains why a transaction-level model preserves the behaviour the
//! paper's results derive from. The pipeline *orchestration* — assembling
//! these units into the Baseline / QM / HET / HET+QM variants — lives in
//! the `vrpipe` crate.
//!
//! ```
//! use gpu_sim::config::GpuConfig;
//! use gpu_sim::microbench::tile_binning_probe;
//!
//! let cfg = GpuConfig::default();
//! // The §VII-A tile-binning cliff: 33 round-robin tiles degenerate to
//! // one quad per warp.
//! assert_eq!(tile_binning_probe(&cfg, 33, 330).warps, 330);
//! ```

pub mod binning;
pub mod cache;
pub mod config;
pub mod microbench;
#[cfg(test)]
mod quad;
pub mod raster;
pub mod stats;
pub mod tiles;
pub mod timing;

pub use config::GpuConfig;
pub use stats::{PipelineStats, Unit};
pub use tiles::{QuadPos, TileGridId, TileId, Tiling};
