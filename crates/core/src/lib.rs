//! # vrpipe — Streamlining the Hardware Graphics Pipeline for Volume Rendering
//!
//! A full reproduction of **VR-Pipe** (HPCA 2025): two hardware extensions
//! to the conventional graphics pipeline that accelerate volume-rendering
//! workloads such as 3D Gaussian splatting.
//!
//! * **HET — hardware early termination** ([`het`]): repurposes the stencil
//!   MSB as a per-pixel termination flag; quads of fully terminated pixels
//!   are discarded before fragment shading.
//! * **QM — multi-granular tile binning with quad merging** ([`qm`]): a
//!   tile-grid coalescing unit plus a quad reorder unit that pairs
//!   overlapping quads so the fragment shader partially blends them,
//!   halving ROP traffic for merged pairs.
//!
//! The [`pipeline`] module assembles the unit models from `gpu-sim` into
//! the four evaluated variants ([`PipelineVariant`]); [`Renderer`] is the
//! end-to-end entry point. [`sequence`] turns the single-frame renderers
//! into temporally coherent frame streams ([`Session`]), and [`serve`]
//! schedules many such streams over one [`SharedScene`] — shared scene +
//! spatial index, private per-stream state — across a persistent worker
//! pool, with dynamic admission/eviction, per-stream deadlines, failure
//! containment ([`StreamPhase`], [`serve::faults`]) and deterministic
//! overload degradation ([`serve::degrade`]).
//!
//! ```
//! use gpu_sim::config::GpuConfig;
//! use gsplat::scene::EVALUATED_SCENES;
//! use vrpipe::{PipelineVariant, Renderer};
//!
//! let scene = EVALUATED_SCENES[4].generate_scaled(0.04); // small "Lego"
//! let cam = scene.default_camera();
//! let base = Renderer::new(GpuConfig::default(), PipelineVariant::Baseline)
//!     .render(&scene, &cam);
//! let vrp = Renderer::new(GpuConfig::default(), PipelineVariant::HetQm)
//!     .render(&scene, &cam);
//! assert!(vrp.stats.total_cycles < base.stats.total_cycles);
//! ```

pub mod cost;
pub mod energy;
pub mod het;
pub mod pipeline;
pub mod qm;
pub mod renderer;
pub mod sequence;
pub mod serve;
pub mod shading;
pub mod variant;

pub use cost::HardwareCost;
pub use energy::EnergyModel;
pub use pipeline::{
    draw, draw_with_scratch, try_draw, try_draw_in_place, try_draw_with_scratch, DrawError,
    DrawOutput, DrawScratch,
};
pub use renderer::{Frame, FrameScratch, Renderer, TimeBreakdown};
pub use sequence::{FrameInput, SequenceConfig, SequenceFrameRecord, Session, SharedScene};
pub use serve::degrade::{QualityLadder, QualityRung};
pub use serve::faults::{FaultAction, FaultInjector, FaultKind, FaultPlan, PlannedFault};
pub use serve::{
    AdmissionPolicy, AttachOutcome, BatchStats, EvictReason, ReloadOutcome, SceneSource,
    SchedulePolicy, ServeReport, Server, ServerHandle, StreamFault, StreamPhase, StreamReport,
    StreamSpec,
};
pub use variant::PipelineVariant;
