//! Multi-session serving: N concurrent coherent streams over one shared
//! scene — the paper's deployment shape (many head-tracked viewers of the
//! same world) scaled past a single [`Session`] — now as a long-lived,
//! fault-tolerant service.
//!
//! A [`Server`] owns one [`SharedScene`] (scene + `Arc<SceneIndex>`, built
//! once), a set of streams (each its own [`CameraPath`] via
//! [`SequenceConfig`], resolution, backend and per-stream [`Session`]),
//! and a persistent [`WorkerPool`] with a run-to-completion task queue.
//! The scheduler dispatches **ready frames** — a stream is ready when it
//! is `Running`, has frames left and none in flight — across the pool
//! under the configured [`SchedulePolicy`].
//!
//! **Stream lifecycle.** Every stream walks the state machine
//! `Admitted → Running → {Completed, Evicted(reason), Failed(reason)}`
//! ([`StreamPhase`]). Streams attach and detach mid-flight
//! ([`Server::attach`] / [`Server::detach`] while idle, a cloneable
//! [`ServerHandle`] from anywhere — including from inside a running
//! stream's backend); admission is controlled against a capacity budget
//! ([`Server::with_admission`]): [`AdmissionPolicy::Queue`] parks excess
//! streams in `Admitted` until capacity frees, [`AdmissionPolicy::Reject`]
//! refuses them at the door ([`AttachOutcome::Rejected`] hands the spec
//! back).
//!
//! **Deadlines, EDF, watchdog.** A stream with a frame-rate target
//! ([`StreamSpec::with_deadline_ms`] / [`StreamSpec::with_target_fps`])
//! gives frame *i* the deadline `started + (i+1)·period`.
//! [`SchedulePolicy::Deadline`] serves ready streams
//! earliest-deadline-first. A watchdog evicts a stream whose in-flight
//! frame has not completed within `k × period` ([`Server::with_watchdog`])
//! — mid-flight when the pool is threaded, or on (late) completion when a
//! serial pool ran the frame inline, so both pool shapes converge on the
//! same [`EvictReason::Stalled`] report. Streams that opted into
//! [`StreamSpec::with_frame_dropping`] shed frames that are already a
//! full period past their deadline before they start: dropped frames are
//! *recorded* (`frames_dropped`, the `produced` index list), never
//! silently rendered differently. All of these rules are plain
//! functions of `now` (ms since the run started): [`Server::run`] reads
//! the clock once per wake-up and passes it in, so no other scheduler
//! step reads a clock.
//!
//! **Failure containment.** A backend returning a *transient*
//! [`DrawError`] ([`DrawError::is_transient`]) is retried with bounded
//! exponential backoff and deterministic seeded jitter ([`RetryPolicy`])
//! before the stream is marked [`StreamPhase::Failed`]; a panicking
//! backend is caught at the task boundary (the pool's panic isolation
//! plus [`gsplat::par::panic_message`] carry the payload back) and
//! surfaces as [`StreamFault::Panicked`] on *that stream only* — the
//! server keeps serving the rest. Deterministic chaos comes from the
//! [`faults`] module: a seeded [`faults::FaultPlan`] injects
//! Error/Panic/Stall/Transient faults at the backend seam, driving
//! `tests/serve_faults.rs`.
//!
//! **Bit-exactness under interleaving and faults.** Every *produced*
//! frame of every stream is bit-exact with running that stream alone in a
//! solo [`Session`], for any pool size, any service order, and any fault
//! plan targeting *other* streams, because the scheduler moves only
//! *whole frames* and every piece of mutable state a frame touches is
//! owned by exactly one stream: the sorter warm start and the
//! [`CullState`] (classification + covariance cache) live in that
//! stream's session and the backend's targets in its closure, each
//! stream's frames run in order with at most one in flight, and the
//! shared scene and [`SceneIndex`] are immutable. Faults are injected
//! *before* the frame renders, so a faulted attempt never half-mutates
//! session state; dropped frames are never rendered at all, and the
//! warm-start/cull machinery is bit-exact regardless of which frames
//! preceded (enforced by `tests/serve.rs`, the scheduling-shuffle
//! property test and the chaos suite). Rewind after an eviction or
//! failure calls [`Session::invalidate_temporal`], so a rerun is
//! bit-exact from frame 0.
//!
//! **Hot reload.** [`Server::reload_scene`] (idle) and
//! [`ServerHandle::reload_scene`] (mid-flight, from anywhere) swap the
//! server's [`SharedScene`] for one decoded from a [`SceneSource`] —
//! in-memory, raw bytes, or a `.gspa` file validated by
//! [`gsplat::asset`]. The swap is **all-or-nothing under an epoch
//! bump**: decoding and validation happen *before* anything is touched,
//! so a corrupt source returns a typed
//! [`AssetError`] and leaves the old scene,
//! every session and every in-flight frame exactly as they were — the
//! rollback is the absence of any mutation, which keeps attached streams
//! provably bit-exact with their solo sessions
//! (`tests/asset_faults.rs`). On success the scene epoch bumps and each
//! stream re-binds *lazily* at its next dispatched frame (temporal state
//! invalidated, shared index re-adopted) inside its own state lock, so a
//! busy stream's in-flight frame still completes against the scene `Arc`
//! it captured. A reload whose fingerprint equals the current scene's is
//! recognised as a no-op: the existing allocations (and every session's
//! warm state) are kept, so frames remain bit-exact across the swap.
//!
//! **Cross-stream batched preprocessing** (opt-in,
//! [`Server::with_batching`]). Viewers of one shared world are often
//! pure translations of each other — stereo eye pairs by construction,
//! co-moving spectators by choice. When batching is enabled the
//! scheduler groups ready frames by translation-bound camera key before
//! dispatch: the picked leader's [`Camera::group_key`] filters
//! candidates in O(M), [`Camera::is_translation_of`] confirms each
//! member bit-for-bit, and stereo eye pairs always batch (an even-frame
//! stereo stream contributes both eyes to one round). Every dispatch is
//! a round run as **one** pool task; a solo frame is a round of one. A
//! round of several borrows the leader stream's own [`CullState`]: one
//! widened cell-classification pass and one cached `W·Σ·Wᵀ` replay serve
//! every member, then each member renders its own frame with its own
//! fault seam, retry loop, panic containment and completion message.
//! Emitted splat streams are pure functions of per-Gaussian outcomes —
//! widened verdicts only migrate toward `Boundary`, never flip emission —
//! so every batched frame is bit-exact with its solo session, and a
//! faulting member never perturbs its batch-mates' bits (a partial
//! covariance-cache write is a pure function of the leader orientation,
//! identical no matter which member computed it). Unprovable deltas (and
//! non-indexed streams) form rounds of one. [`ServeReport::batch`]
//! records the round/occupancy accounting.
//!
//! [`Camera::group_key`]: gsplat::camera::Camera::group_key
//! [`Camera::is_translation_of`]: gsplat::camera::Camera::is_translation_of
//! [`CameraPath`]: gsplat::camera::CameraPath
//! [`SceneIndex`]: gsplat::index::SceneIndex

pub mod degrade;
pub mod faults;

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gsplat::asset::{self, AssetError, LoadPolicy};

use gpu_sim::config::GpuConfig;
use gsplat::camera::{Camera, CameraPath};
use gsplat::index::{CullState, CullStats};
use gsplat::par::{panic_message, WorkerPool};
use gsplat::scene::Scene;
use gsplat::sort::ResortStats;
use gsplat::ThreadPolicy;

use crate::pipeline::DrawError;
use crate::sequence::{
    FrameInput, SequenceConfig, SequenceFrameRecord, Session, SharedScene, VrPipeDraw,
};
use crate::variant::PipelineVariant;
use degrade::QualityLadder;
use faults::{FaultAction, FaultInjector};

/// Boxed per-frame backend of one stream: a closure over the preprocessed
/// [`FrameInput`] whose errors feed the retry machinery.
type TryRenderFn<R> = Box<dyn FnMut(FrameInput<'_>) -> Result<R, DrawError> + Send>;

/// Field-wise `now - earlier` over the session-lifetime resort counters,
/// so a [`StreamReport`] covers exactly one run.
fn resort_delta(now: ResortStats, earlier: &ResortStats) -> ResortStats {
    ResortStats {
        frames: now.frames - earlier.frames,
        repaired: now.repaired - earlier.repaired,
        radix_fallbacks: now.radix_fallbacks - earlier.radix_fallbacks,
        repair_shifts: now.repair_shifts - earlier.repair_shifts,
    }
}

/// SplitMix64 finalizer, the repo's standard bit mixer.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Nearest-rank percentile over an ascending-sorted slice (0.0 on empty).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// How the scheduler picks among ready streams.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// Serve the ready stream with the fewest started frames (no stream
    /// falls behind); ties rotate round-robin from the last dispatch.
    /// This is the default.
    #[default]
    OldestFirst,
    /// Pick a ready stream pseudo-randomly from the seed — a test policy
    /// that shuffles service order to *prove* scheduling cannot change
    /// output bits (it exercises interleavings the default never would).
    Seeded(u64),
    /// Earliest-deadline-first: among ready streams with a deadline, pick
    /// the one whose next frame is due soonest; streams without a
    /// deadline rank after every deadline stream and are served
    /// oldest-first among themselves.
    Deadline,
}

/// What happens when a stream is attached while the server is at its
/// admission capacity (see [`Server::with_admission`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Admit the stream but park it in [`StreamPhase::Admitted`] until a
    /// running stream reaches a terminal phase and frees capacity. This
    /// is the default.
    #[default]
    Queue,
    /// Refuse the stream at the door: [`Server::attach`] returns
    /// [`AttachOutcome::Rejected`] with the spec handed back. (A
    /// [`ServerHandle::attach`] under this policy silently drops the
    /// spec — the handle is fire-and-forget.)
    Reject,
}

/// Bounded exponential backoff with deterministic seeded jitter, applied
/// between retries of a transient [`DrawError`] (see
/// [`DrawError::is_transient`]). Delays are
/// `min(base·2^attempt, max) · (0.5 + 0.5·jitter)` where `jitter ∈ [0,1)`
/// is a pure hash of `(seed, stream, frame, attempt)` — the same fault
/// always backs off identically, so chaos runs are replayable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries before the stream is marked failed (0 = fail on first
    /// error).
    pub max_retries: u32,
    /// First-retry delay, ms.
    pub base_delay_ms: f64,
    /// Backoff ceiling, ms.
    pub max_delay_ms: f64,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for RetryPolicy {
    /// Three retries, 0.25 ms → 4 ms backoff — generous enough to clear
    /// injected transients, short enough for tests.
    fn default() -> Self {
        Self {
            max_retries: 3,
            base_delay_ms: 0.25,
            max_delay_ms: 4.0,
            seed: 0x5EED_0BAC,
        }
    }
}

impl RetryPolicy {
    /// No retries: the first backend error fails the stream.
    pub fn none() -> Self {
        Self {
            max_retries: 0,
            ..Self::default()
        }
    }

    /// The deterministic delay before retry `attempt` (0-based) of
    /// `frame` on stream `stream`, ms.
    pub fn backoff_ms(&self, stream: usize, frame: usize, attempt: u32) -> f64 {
        let exp = (self.base_delay_ms * (1u64 << attempt.min(20)) as f64).min(self.max_delay_ms);
        let h = mix64(
            self.seed
                ^ (stream as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (frame as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
                ^ ((attempt as u64 + 1).wrapping_mul(0x94D0_49BB_1331_11EB)),
        );
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        exp * (0.5 + 0.5 * unit)
    }
}

/// Why a stream was evicted (the scheduler gave up on it; its session
/// state is invalidated at rewind so a rerun is bit-exact from frame 0).
#[derive(Debug, Clone, PartialEq)]
pub enum EvictReason {
    /// The in-flight frame did not complete within the stall budget
    /// (`k × period`, see [`Server::with_watchdog`]).
    Stalled {
        /// Frame that was in flight when the watchdog fired.
        frame: usize,
        /// How long the scheduler had waited (or the frame took), ms.
        waited_ms: f64,
        /// The stall budget that was exceeded, ms.
        budget_ms: f64,
    },
    /// The stream was detached mid-run ([`Server::detach`] /
    /// [`ServerHandle::detach`]).
    Detached,
}

impl std::fmt::Display for EvictReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvictReason::Stalled {
                frame,
                waited_ms,
                budget_ms,
            } => write!(
                f,
                "stalled at frame {frame} ({waited_ms:.1} ms > budget {budget_ms:.1} ms)"
            ),
            EvictReason::Detached => write!(f, "detached"),
        }
    }
}

/// Why a stream failed (its own backend misbehaved; other streams are
/// untouched).
#[derive(Debug, Clone, PartialEq)]
pub enum StreamFault {
    /// The backend kept returning [`DrawError`] after `retries` retries
    /// (transient errors retry up to [`RetryPolicy::max_retries`];
    /// permanent ones fail immediately with the retry count so far).
    Render {
        /// The final error.
        error: DrawError,
        /// Retries performed before giving up.
        retries: u32,
    },
    /// The backend panicked; the payload was caught at the task boundary.
    Panicked {
        /// The panic payload, stringified.
        message: String,
        /// Frame whose attempt panicked.
        frame: usize,
    },
}

impl std::fmt::Display for StreamFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamFault::Render { error, retries } => {
                write!(f, "render error after {retries} retries: {error}")
            }
            StreamFault::Panicked { message, frame } => {
                write!(f, "backend panicked at frame {frame}: {message}")
            }
        }
    }
}

/// One stream's position in the lifecycle state machine
/// `Admitted → Running → {Completed, Evicted, Failed}`.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamPhase {
    /// Registered, waiting for admission capacity.
    Admitted,
    /// Being served.
    Running,
    /// Every frame of the budget was produced or (opted-in) dropped.
    Completed,
    /// The scheduler gave up on the stream.
    Evicted(EvictReason),
    /// The stream's own backend failed.
    Failed(StreamFault),
}

impl StreamPhase {
    /// `true` once the stream can make no further progress this run.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, StreamPhase::Admitted | StreamPhase::Running)
    }
}

/// One stream's definition: a name, its sequence (camera path, frame
/// budget, viewport, temporal/indexed knobs), the per-frame backend, and
/// the serving knobs (deadline, frame dropping, retry policy, fault
/// injection).
pub struct StreamSpec<R> {
    name: String,
    cfg: SequenceConfig,
    backend: TryRenderFn<R>,
    deadline_ms: Option<f64>,
    drop_late: bool,
    retry: RetryPolicy,
    injector: FaultInjector,
    ladder: QualityLadder,
    priority: i32,
}

impl<R> std::fmt::Debug for StreamSpec<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSpec")
            .field("name", &self.name)
            .field("cfg", &self.cfg)
            .field("deadline_ms", &self.deadline_ms)
            .field("drop_late", &self.drop_late)
            .field("ladder", &self.ladder.len())
            .field("priority", &self.priority)
            .finish_non_exhaustive()
    }
}

impl<R: Send + 'static> StreamSpec<R> {
    /// A stream rendering `cfg` through `render` — any backend that can
    /// consume a [`FrameInput`] (the three `swrender` backends, the
    /// in-shader workload model, or arbitrary instrumentation). State the
    /// backend needs across frames lives inside the closure.
    ///
    /// Configure the backend's own renderer **serially** (e.g.
    /// `SwConfig { threads: 1, .. }`): served parallelism comes from
    /// concurrent streams sharing the pool, and a backend that fork-joins
    /// over the whole host inside its frame oversubscribes it M-fold
    /// (results are bit-identical either way — only wall time suffers).
    pub fn new(
        name: impl Into<String>,
        cfg: SequenceConfig,
        mut render: impl FnMut(FrameInput<'_>) -> R + Send + 'static,
    ) -> Self {
        Self::fallible(name, cfg, move |f| Ok(render(f)))
    }

    /// Like [`StreamSpec::new`] but the backend can fail: transient
    /// [`DrawError`]s go through the stream's [`RetryPolicy`] before the
    /// stream is marked [`StreamPhase::Failed`]; permanent ones fail it
    /// immediately.
    pub fn fallible(
        name: impl Into<String>,
        cfg: SequenceConfig,
        render: impl FnMut(FrameInput<'_>) -> Result<R, DrawError> + Send + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            cfg,
            backend: Box::new(render),
            deadline_ms: None,
            drop_late: false,
            retry: RetryPolicy::default(),
            injector: FaultInjector::none(),
            ladder: QualityLadder::new(),
            priority: 0,
        }
    }

    /// Sets a per-frame deadline: frame *i* is due `(i+1)·period_ms`
    /// after the stream starts running. Enables the watchdog and makes
    /// the stream eligible for [`SchedulePolicy::Deadline`]. An infinite
    /// period — or one so long that its due times overflow to infinity —
    /// means "never due": no frame is missed, dropped or evicted, and EDF
    /// ranks the stream after every finite deadline.
    pub fn with_deadline_ms(mut self, period_ms: f64) -> Self {
        self.deadline_ms = (period_ms > 0.0).then_some(period_ms);
        self
    }

    /// [`StreamSpec::with_deadline_ms`] expressed as a frame-rate target.
    pub fn with_target_fps(self, fps: f64) -> Self {
        if fps > 0.0 {
            self.with_deadline_ms(1e3 / fps)
        } else {
            self
        }
    }

    /// Opt into graceful degradation: frames that are already a full
    /// period past their deadline before they start are *dropped* —
    /// recorded in `frames_dropped` and missing from `produced`, never
    /// silently rendered differently. Requires a deadline.
    pub fn with_frame_dropping(mut self) -> Self {
        self.drop_late = true;
        self
    }

    /// Replaces the retry policy (default [`RetryPolicy::default`]).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Attaches a fault injector (see [`faults`]) at the backend seam —
    /// consulted once per render attempt, before the real backend runs.
    pub fn with_faults(mut self, injector: FaultInjector) -> Self {
        self.injector = injector;
        self
    }

    /// Attaches a quality ladder (see [`degrade`]): under sustained
    /// deadline misses the scheduler steps the stream down to the
    /// ladder's cheaper derived configurations (and back up once it runs
    /// on time again), instead of dropping frames or letting the watchdog
    /// evict. Every produced frame's rung is recorded in
    /// [`StreamReport::rungs`]; frames at rung `r` are bit-exact with a
    /// solo session configured at rung `r`.
    pub fn with_ladder(mut self, ladder: QualityLadder) -> Self {
        self.ladder = ladder;
        self
    }

    /// Sets the stream's brownout priority (default 0). Under server-level
    /// overload ([`Server::with_brownout`]) *lower*-priority streams are
    /// stepped down their ladders first; higher values are degraded last.
    pub fn with_priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// The stream's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The stream's sequence configuration.
    pub fn cfg(&self) -> &SequenceConfig {
        &self.cfg
    }

    /// The per-frame deadline, if set.
    pub fn deadline_ms(&self) -> Option<f64> {
        self.deadline_ms
    }

    /// The stream's quality ladder (a one-rung ladder = no degradation
    /// headroom).
    pub fn ladder(&self) -> &QualityLadder {
        &self.ladder
    }

    /// The stream's brownout priority.
    pub fn priority(&self) -> i32 {
        self.priority
    }
}

impl StreamSpec<SequenceFrameRecord> {
    /// The built-in simulated-hardware backend: a [`StreamSpec::fallible`]
    /// closure drawing every frame the way [`Session::run_vrpipe`] does,
    /// into render targets and a [`crate::pipeline::DrawScratch`] the
    /// closure owns. Draw errors feed the stream's [`RetryPolicy`] /
    /// [`StreamPhase::Failed`] machinery instead of leaking into the
    /// output type.
    ///
    /// The draw's host threading is pinned serial (`gpu.threads = 1`,
    /// bit-identical results by the determinism contract): served
    /// parallelism comes from concurrent streams sharing the pool, not
    /// from each frame fork-joining over the whole host.
    pub fn vrpipe(
        name: impl Into<String>,
        cfg: SequenceConfig,
        gpu: GpuConfig,
        variant: PipelineVariant,
    ) -> Self {
        let mut draw = VrPipeDraw::new(GpuConfig { threads: 1, ..gpu }, variant);
        Self::fallible(name, cfg, move |f| draw.draw(f))
    }
}

/// Mutable per-stream state, touched by at most one worker at a time (the
/// scheduler never has two frames of one stream in flight).
struct StreamState<R> {
    /// Per-rung render-cost factors, scaling [`FaultKind::Load`]
    /// injections at the backend seam.
    cost_scales: Vec<f64>,
    session: Session,
    backend: TryRenderFn<R>,
    injector: FaultInjector,
    retry: RetryPolicy,
}

/// Scheduler-owned bookkeeping of one stream — everything the run loop
/// mutates without touching the stream's mutex (which a stalled zombie
/// task may hold). Times are ms since the current run started: the
/// scheduler's rules read them against the `now_ms` that
/// [`Server::run`] passes in, never against a clock of their own.
struct Sched<R> {
    phase: StreamPhase,
    /// Frames of this stream currently in flight (0 or 1 for rounds of
    /// one; a stereo self-pair dispatches 2). The stream is busy while
    /// this is non-zero.
    in_flight_frames: usize,
    /// Frames of this stream delivered by ≥2-member batch rounds.
    frames_batched: usize,
    /// Next frame index to start (dispatch and drop both advance it).
    cursor: usize,
    /// `(frame, output)` in completion order (= frame order: one in
    /// flight, in-order dispatch).
    outputs: Vec<(usize, R)>,
    /// Frame indices shed by graceful degradation.
    dropped: Vec<usize>,
    /// Accepted per-frame latencies, ms, in completion order.
    latencies: Vec<f64>,
    deadline_misses: usize,
    retries: u32,
    busy_ms: f64,
    /// Dispatch epoch: bumped on eviction/detach so completions from
    /// zombie tasks are recognised and discarded.
    generation: u32,
    /// When the stream entered `Running`, ms (deadline origin).
    started_at: f64,
    /// When the in-flight frame was dispatched, ms (watchdog origin;
    /// meaningful only while `in_flight_frames > 0`).
    dispatched_at: f64,
    /// Current quality-ladder rung (0 = full quality). Only the scheduler
    /// writes it, and only while no frame is in flight for the stream —
    /// rung switches happen *between* dispatches, never mid-frame.
    rung: usize,
    /// Rung of each accepted output, parallel to `outputs`.
    rungs: Vec<u8>,
    /// Consecutive deadline misses at the current rung (hysteresis).
    consec_misses: u32,
    /// Consecutive on-time frames at the current rung (hysteresis).
    consec_hits: u32,
    /// Ladder step-downs this run (hysteresis + brownout).
    steps_down: usize,
    /// Ladder step-ups this run.
    steps_up: usize,
    /// Step-downs forced by the server-level brownout detector.
    brownout_steps: usize,
}

impl<R> Default for Sched<R> {
    fn default() -> Self {
        Self {
            phase: StreamPhase::Admitted,
            in_flight_frames: 0,
            frames_batched: 0,
            cursor: 0,
            outputs: Vec::new(),
            dropped: Vec::new(),
            latencies: Vec::new(),
            deadline_misses: 0,
            retries: 0,
            busy_ms: 0.0,
            generation: 0,
            started_at: 0.0,
            dispatched_at: 0.0,
            rung: 0,
            rungs: Vec::new(),
            consec_misses: 0,
            consec_hits: 0,
            steps_down: 0,
            steps_up: 0,
            brownout_steps: 0,
        }
    }
}

/// One registered stream: immutable identity + scheduler bookkeeping +
/// the shared mutable state handed to worker tasks.
struct StreamEntry<R> {
    /// Stable id (monotonic across attach/detach; [`Server::add_stream`]
    /// returns it).
    id: usize,
    name: String,
    budget: usize,
    indexed: bool,
    deadline_ms: Option<f64>,
    drop_late: bool,
    /// Hysteresis: consecutive misses before stepping down.
    down_after: u32,
    /// Hysteresis: consecutive on-time frames before stepping up.
    up_after: u32,
    /// Brownout priority — lower values are degraded first.
    priority: i32,
    /// Marked for removal at the end of the current run.
    detached: bool,
    /// The session's temporal state must be invalidated before the next
    /// run (set when a run ends in a non-`Completed` phase).
    needs_reset: bool,
    /// The quality ladder's derived configurations in rung order, built
    /// once at registration (never empty: index 0 is the base config
    /// tagged rung 0, and its length is the ladder depth). Immutable, so
    /// batch formation reads cameras from it without the stream's mutex
    /// and each frame task renders from a clone of the same `Arc` — the
    /// formation-time cameras are the bits the render computes.
    rung_cfgs: Arc<[SequenceConfig]>,
    /// Session-lifetime counter baseline at the start of the current run.
    baseline: (ResortStats, CullStats),
    /// The server scene epoch this stream's session is bound to; when it
    /// trails the server's, the next dispatched frame re-binds (temporal
    /// invalidation + shared-index adoption) inside the stream's lock.
    scene_epoch: u64,
    sched: Sched<R>,
    state: Arc<Mutex<StreamState<R>>>,
}

impl<R> StreamEntry<R> {
    /// Quality-ladder depth (1 = no degradation headroom).
    fn rung_count(&self) -> usize {
        self.rung_cfgs.len()
    }

    /// When `frame` is due, ms since the run started:
    /// `started + (frame+1)·period`. Infinite without a deadline or with
    /// an infinite period — such a frame is never due.
    fn due_ms(&self, frame: usize) -> f64 {
        self.deadline_ms.map_or(f64::INFINITY, |period| {
            self.sched.started_at + (frame + 1) as f64 * period
        })
    }

    /// Running, nothing in flight and frames left: dispatchable now.
    fn is_ready(&self) -> bool {
        matches!(self.sched.phase, StreamPhase::Running)
            && self.sched.in_flight_frames == 0
            && self.sched.cursor < self.budget
    }

    /// The camera this stream renders `frame` with at its current rung —
    /// the expression the frame task evaluates, so formation-time
    /// membership proofs hold bit for bit at render time.
    fn camera(&self, frame: usize) -> Camera {
        let cfg = &self.rung_cfgs[self.sched.rung];
        cfg.path
            .camera(frame, cfg.frames, cfg.width, cfg.height, cfg.fov_y)
    }
}

/// Where a [`Server::reload_scene`] gets its replacement scene from.
///
/// The byte and path variants route through [`gsplat::asset`]'s
/// validated loader under the given [`LoadPolicy`]; an already-built
/// [`SharedScene`] is accepted as-is (it can only exist with a computed
/// fingerprint).
#[derive(Debug)]
pub enum SceneSource {
    /// An already-validated in-memory scene.
    Shared(Box<SharedScene>),
    /// An encoded asset, decoded and validated at the swap point.
    Bytes(Vec<u8>, LoadPolicy),
    /// A `.gspa` file, read and validated at the swap point.
    Path(PathBuf, LoadPolicy),
}

/// What a successful [`Server::reload_scene`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReloadOutcome {
    /// The scene epoch after this reload (bumps on every successful
    /// reload, changed or not).
    pub epoch: u64,
    /// Fingerprint of the scene now being served.
    pub fingerprint: u64,
    /// `false` when the source's fingerprint matched the current scene:
    /// the old allocations (and all warm per-stream state) were kept.
    pub changed: bool,
    /// Gaussians the loader quarantined (0 for [`SceneSource::Shared`]
    /// or [`LoadPolicy::Strict`] sources).
    pub quarantined: usize,
}

/// Commands a [`ServerHandle`] (or the idle server) feeds the scheduler.
/// The spec is boxed so the enum (and [`Msg`], which carries it) stays
/// small next to its other variants.
enum Command<R> {
    Attach { id: usize, spec: Box<StreamSpec<R>> },
    Detach { id: usize },
    Reload { source: SceneSource },
}

/// Everything that flows to the scheduler over its one channel: frame
/// completions and lifecycle commands share it, so a command sent before
/// a completion is always observed first (FIFO).
enum Msg<R> {
    Done {
        id: usize,
        generation: u32,
        frame: usize,
        /// Quality-ladder rung the frame rendered at (rides the
        /// completion so zombie discards carry their rung away with
        /// them).
        rung: u8,
        latency_ms: f64,
        retries: u32,
        /// `true` when the frame was served by a ≥2-member batch round.
        batched: bool,
        result: Result<R, StreamFault>,
    },
    Cmd(Command<R>),
}

/// Outcome of [`Server::attach`].
#[derive(Debug)]
pub enum AttachOutcome<R> {
    /// The stream was registered under `id`.
    Admitted {
        /// The stream's stable id.
        id: usize,
    },
    /// [`AdmissionPolicy::Reject`]: the server is at capacity; the spec
    /// is handed back untouched (boxed, so the enum stays small).
    Rejected {
        /// The refused spec.
        spec: Box<StreamSpec<R>>,
        /// The capacity that was full.
        capacity: usize,
    },
}

impl<R> AttachOutcome<R> {
    /// The admitted id, or `None` when rejected.
    pub fn id(&self) -> Option<usize> {
        match self {
            AttachOutcome::Admitted { id } => Some(*id),
            AttachOutcome::Rejected { .. } => None,
        }
    }
}

/// A cloneable remote control for a [`Server`]: attach and detach streams
/// from anywhere — another thread, or a running stream's own backend —
/// while [`Server::run`] is in flight. Commands ride the scheduler's
/// completion channel, so one sent from inside a frame task is processed
/// before that frame's own completion.
pub struct ServerHandle<R> {
    tx: mpsc::Sender<Msg<R>>,
    next_id: Arc<AtomicUsize>,
}

impl<R> Clone for ServerHandle<R> {
    fn clone(&self) -> Self {
        Self {
            tx: self.tx.clone(),
            next_id: Arc::clone(&self.next_id),
        }
    }
}

impl<R: Send + 'static> ServerHandle<R> {
    /// Queues `spec` for attachment and returns its id immediately. The
    /// stream is admitted when the scheduler processes the command
    /// (silently dropped under [`AdmissionPolicy::Reject`] at capacity —
    /// use [`Server::attach`] for a synchronous verdict).
    pub fn attach(&self, spec: StreamSpec<R>) -> usize {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let _ = self.tx.send(Msg::Cmd(Command::Attach {
            id,
            spec: Box::new(spec),
        }));
        id
    }

    /// Queues detachment of stream `id`: it is reported as
    /// [`EvictReason::Detached`] for the current run and removed from the
    /// server afterwards.
    pub fn detach(&self, id: usize) {
        let _ = self.tx.send(Msg::Cmd(Command::Detach { id }));
    }

    /// Queues a mid-flight scene reload from `source`. Fire-and-forget:
    /// the outcome (success or typed [`AssetError`]) is recorded in the
    /// run's [`ServeReport::reloads`]. A failed load swaps nothing —
    /// every stream keeps serving the old scene bit-exactly; use
    /// [`Server::reload_scene`] for a synchronous verdict while idle.
    pub fn reload_scene(&self, source: SceneSource) {
        let _ = self.tx.send(Msg::Cmd(Command::Reload { source }));
    }
}

/// Per-stream results and counters of one [`Server::run`].
#[derive(Debug)]
pub struct StreamReport<R> {
    /// The stream's stable id.
    pub id: usize,
    /// Stream name.
    pub name: String,
    /// Where the stream ended the run.
    pub phase: StreamPhase,
    /// Per-frame backend outputs, in frame order (dropped frames are
    /// absent — see `produced`).
    pub frames: Vec<R>,
    /// Frame indices of `frames` (identical to `0..frames.len()` unless
    /// frames were dropped).
    pub produced: Vec<usize>,
    /// Frames shed by graceful degradation (late past their deadline).
    pub frames_dropped: usize,
    /// Produced frames that completed after their deadline.
    pub deadline_misses: usize,
    /// Backend retries performed across the run.
    pub retries: u32,
    /// Median accepted frame latency, ms (0 when nothing was produced).
    pub latency_p50_ms: f64,
    /// 99th-percentile accepted frame latency, ms.
    pub latency_p99_ms: f64,
    /// Wall time spent inside this stream's frame tasks, ms.
    pub busy_ms: f64,
    /// Delivered frame rate over the whole run's wall clock.
    pub fps: f64,
    /// Incremental re-sort counters (warm-start reuse).
    pub resort: ResortStats,
    /// Incremental culling counters (index reuse; zero when not indexed).
    pub cull: CullStats,
    /// `true` when this stream's session holds the [`SharedScene`]'s
    /// `Arc<SceneIndex>` allocation (not a private copy).
    pub shares_index: bool,
    /// Quality-ladder rung of each produced frame, parallel to
    /// `produced`/`frames` (all 0 for streams without a ladder).
    pub rungs: Vec<u8>,
    /// Quality-ladder depth the stream was registered with (1 = no
    /// ladder).
    pub rung_count: usize,
    /// Ladder step-downs during the run (hysteresis + brownout).
    pub rung_steps_down: usize,
    /// Ladder step-ups during the run (recovery).
    pub rung_steps_up: usize,
    /// Step-downs forced by the server-level brownout detector (also
    /// counted in `rung_steps_down`).
    pub brownout_steps: usize,
    /// Produced frames that were served by ≥2-member batch rounds
    /// (0 unless [`Server::with_batching`] is on and the stream's
    /// cameras proved translation-bound with a batch-mate).
    pub frames_batched: usize,
}

impl<R> StreamReport<R> {
    /// Produced frames per rung: `occupancy()[r]` counts the frames
    /// rendered at rung `r`. Always sums to `produced.len()` — the
    /// invariant `tests/serve_degrade.rs` checks.
    pub fn rung_occupancy(&self) -> Vec<usize> {
        let mut occ = vec![0usize; self.rung_count.max(1)];
        let top = occ.len() - 1;
        for &r in &self.rungs {
            occ[(r as usize).min(top)] += 1;
        }
        occ
    }
}

/// Aggregate results of one [`Server::run`].
#[derive(Debug)]
pub struct ServeReport<R> {
    /// Per-stream reports, in registration order.
    pub streams: Vec<StreamReport<R>>,
    /// Wall time of the whole run, ms.
    pub wall_ms: f64,
    /// Frames delivered across all streams.
    pub total_frames: usize,
    /// Aggregate delivered frame rate (all streams / wall clock).
    pub aggregate_fps: f64,
    /// Streams whose sessions share the scene's one `Arc<SceneIndex>`.
    pub index_sharers: usize,
    /// Streams that requested indexed preprocessing.
    pub indexed_streams: usize,
    /// Outcome of every [`ServerHandle::reload_scene`] processed during
    /// the run, in processing order (failed reloads swap nothing).
    pub reloads: Vec<Result<ReloadOutcome, AssetError>>,
    /// The scene epoch at the end of the run.
    pub scene_epoch: u64,
    /// Batched-preprocessing accounting for the run (all zero when
    /// [`Server::with_batching`] is off).
    pub batch: BatchStats,
}

/// Batch-round accounting of one [`Server::run`] under
/// [`Server::with_batching`]. A *round* is one dispatch by a
/// batch-eligible leader (an indexed stream on a batching server);
/// rounds that found no provable batch-mate are rounds of one, counted in
/// `solo_frames`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Batch-eligible dispatch rounds (batched + rounds of one).
    pub rounds: usize,
    /// Rounds that dispatched ≥2 members as one widened pass.
    pub batched_rounds: usize,
    /// Frames dispatched by ≥2-member rounds.
    pub batched_frames: usize,
    /// Frames dispatched solo by eligible leaders that found no
    /// provable batch-mate (the fallback path).
    pub solo_frames: usize,
    /// Occupancy histogram: `occupancy[i]` counts rounds that
    /// dispatched `i + 1` member frames. The schema invariant
    /// `Σ (i+1)·occupancy[i] == batched_frames + solo_frames` always
    /// holds (the `serve-batch` experiment gates on it).
    pub occupancy: Vec<usize>,
}

impl BatchStats {
    /// Fraction of eligible rounds that found no batch-mate
    /// (0.0 when no eligible round was dispatched).
    pub fn fallback_ratio(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            (self.rounds - self.batched_rounds) as f64 / self.rounds as f64
        }
    }

    /// Frames dispatched through eligible rounds, batched or not.
    pub fn dispatched_frames(&self) -> usize {
        self.batched_frames + self.solo_frames
    }

    /// Mean members per batch-eligible round (1.0 = nothing batched).
    pub fn mean_occupancy(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.dispatched_frames() as f64 / self.rounds as f64
        }
    }
}

impl<R> ServeReport<R> {
    /// Fraction of indexed streams that share the single scene index
    /// allocation (1.0 = every indexed session reuses the shared `Arc`).
    pub fn index_share(&self) -> f64 {
        if self.indexed_streams == 0 {
            0.0
        } else {
            self.index_sharers as f64 / self.indexed_streams as f64
        }
    }

    /// The report of the stream named `name`, if any.
    pub fn stream(&self, name: &str) -> Option<&StreamReport<R>> {
        self.streams.iter().find(|s| s.name == name)
    }

    /// Streams that ended the run in `Completed`.
    pub fn completed(&self) -> usize {
        self.count(|p| matches!(p, StreamPhase::Completed))
    }

    /// Streams that ended the run in `Evicted`.
    pub fn evicted(&self) -> usize {
        self.count(|p| matches!(p, StreamPhase::Evicted(_)))
    }

    /// Streams that ended the run in `Failed`.
    pub fn failed(&self) -> usize {
        self.count(|p| matches!(p, StreamPhase::Failed(_)))
    }

    fn count(&self, f: impl Fn(&StreamPhase) -> bool) -> usize {
        self.streams.iter().filter(|s| f(&s.phase)).count()
    }
}

/// A fault-tolerant multi-stream serving loop: one [`SharedScene`], N
/// per-stream [`Session`]s, one persistent [`WorkerPool`].
///
/// Streams render frames in their own order with at most one frame in
/// flight each; the scheduler fills the pool with ready frames under the
/// configured [`SchedulePolicy`], walks each stream through the
/// [`StreamPhase`] lifecycle, retries transient backend errors, contains
/// panics to the faulting stream, and (for deadline streams) evicts
/// stalls and optionally sheds late frames. Sessions run with a
/// **serial** per-frame thread policy — parallelism comes from concurrent
/// streams sharing the pool, not from each frame fork-joining over the
/// whole host (which would oversubscribe it M-fold; see
/// [`gsplat::par::WorkerPool`]).
///
/// # Examples
///
/// ```
/// use gpu_sim::config::GpuConfig;
/// use gsplat::camera::CameraPath;
/// use gsplat::scene::EVALUATED_SCENES;
/// use vrpipe::{PipelineVariant, SequenceConfig, Server, SharedScene, StreamPhase, StreamSpec};
///
/// let scene = EVALUATED_SCENES[4].generate_scaled(0.04);
/// let shared = SharedScene::new(scene);
/// let mut server = Server::new(shared, 1);
/// for k in 0..2 {
///     let path = CameraPath::orbit(
///         server.shared().scene().center,
///         server.shared().scene().view_radius,
///         1.0 + k as f32 * 0.3,
///         0.02,
///     );
///     server.add_stream(StreamSpec::vrpipe(
///         format!("viewer-{k}"),
///         SequenceConfig::new(path, 3, 64, 48).with_index(),
///         GpuConfig::default(),
///         PipelineVariant::HetQm,
///     ));
/// }
/// let report = server.run();
/// assert_eq!(report.total_frames, 6);
/// assert_eq!(report.index_sharers, 2);
/// assert!(report.streams.iter().all(|s| s.phase == StreamPhase::Completed));
/// ```
pub struct Server<R> {
    shared: Arc<SharedScene>,
    pool: Arc<WorkerPool>,
    policy: SchedulePolicy,
    admission: AdmissionPolicy,
    capacity: Option<usize>,
    /// Stall budget multiplier: a deadline stream is evicted when a frame
    /// takes longer than `watchdog_k × period`.
    watchdog_k: f64,
    /// Server-level brownout threshold, ms of aggregate lateness
    /// (`None` = detector off).
    brownout_ms: Option<f64>,
    /// Cross-stream batched preprocessing ([`Server::with_batching`]).
    batching: bool,
    /// Batch-round accounting for the current run (drained into the
    /// report).
    batch: BatchStats,
    streams: Vec<StreamEntry<R>>,
    /// Bumped on every successful reload; streams trailing it re-bind at
    /// their next dispatch.
    scene_epoch: u64,
    /// Reload outcomes accumulated during the current run (drained into
    /// the report).
    reloads: Vec<Result<ReloadOutcome, AssetError>>,
    /// Round-robin cursor for tie-breaking.
    rr_next: usize,
    /// LCG state for [`SchedulePolicy::Seeded`].
    rng: u64,
    tx: mpsc::Sender<Msg<R>>,
    rx: mpsc::Receiver<Msg<R>>,
    next_id: Arc<AtomicUsize>,
}

impl<R> std::fmt::Debug for Server<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("streams", &self.streams.len())
            .field("workers", &self.pool.workers())
            .field("policy", &self.policy)
            .field("admission", &self.admission)
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl<R: Send + 'static> Server<R> {
    /// A server over `shared` with its own pool of `threads` workers
    /// (`0` = the host budget; see [`WorkerPool::new`]).
    pub fn new(shared: SharedScene, threads: usize) -> Self {
        Self::with_pool(Arc::new(shared), Arc::new(WorkerPool::new(threads)))
    }

    /// A server borrowing an existing pool — several servers (or other
    /// subsystems) can share one host-thread budget.
    pub fn with_pool(shared: Arc<SharedScene>, pool: Arc<WorkerPool>) -> Self {
        let (tx, rx) = mpsc::channel();
        Self {
            shared,
            pool,
            policy: SchedulePolicy::default(),
            admission: AdmissionPolicy::default(),
            capacity: None,
            watchdog_k: 4.0,
            brownout_ms: None,
            batching: false,
            batch: BatchStats::default(),
            streams: Vec::new(),
            scene_epoch: 0,
            reloads: Vec::new(),
            rr_next: 0,
            rng: 0,
            tx,
            rx,
            next_id: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// Replaces the scheduling policy (default
    /// [`SchedulePolicy::OldestFirst`]).
    pub fn with_policy(mut self, policy: SchedulePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Caps concurrently running streams at `capacity` (clamped to ≥ 1)
    /// under `policy` (default: unlimited, [`AdmissionPolicy::Queue`]).
    pub fn with_admission(mut self, capacity: usize, policy: AdmissionPolicy) -> Self {
        self.capacity = Some(capacity.max(1));
        self.admission = policy;
        self
    }

    /// Replaces the watchdog stall multiplier (default 4.0): a deadline
    /// stream is evicted when a frame exceeds `k × period`. Streams
    /// without a deadline are never watchdogged.
    pub fn with_watchdog(mut self, k: f64) -> Self {
        self.watchdog_k = k.max(1.0);
        self
    }

    /// Enables cross-stream batched preprocessing: before dispatching a
    /// ready indexed frame, the scheduler gathers every other ready
    /// indexed frame whose camera is provably a pure translation of it
    /// ([`Camera::is_translation_of`], pre-filtered in O(M) by
    /// [`Camera::group_key`]) — stereo eye pairs always batch — and runs
    /// the whole group as one widened classification pass plus one
    /// covariance replay. Every batched frame stays bit-exact with its
    /// solo session; frames whose deltas are not provable are rounds of
    /// one, exactly as on an unbatched server. Off by default because a
    /// batched round's culling work runs on the leader stream's cull
    /// state, so its counters accrue to the leader's
    /// [`StreamReport::cull`] and batch-mates' read zero for those frames;
    /// [`ServeReport::batch`] accounts the rounds themselves.
    ///
    /// [`Camera::group_key`]: gsplat::camera::Camera::group_key
    /// [`Camera::is_translation_of`]: gsplat::camera::Camera::is_translation_of
    pub fn with_batching(mut self) -> Self {
        self.batching = true;
        self
    }

    /// Arms the server-level brownout detector: whenever the *aggregate
    /// lateness* — summed over running deadline streams, how far each
    /// stream's next undelivered frame is past its deadline — exceeds
    /// `threshold_ms` at a frame completion, the scheduler steps the
    /// lowest-priority running stream with ladder headroom down one rung
    /// (ties broken by registration order; see
    /// [`StreamSpec::with_priority`]). At most one step per completion,
    /// so a single spike cannot cascade the whole fleet to the floor in
    /// one tick. Off by default.
    pub fn with_brownout(mut self, threshold_ms: f64) -> Self {
        self.brownout_ms = Some(threshold_ms.max(0.0));
        self
    }

    /// The shared scene every stream renders.
    pub fn shared(&self) -> &Arc<SharedScene> {
        &self.shared
    }

    /// The current scene epoch (0 until the first successful reload).
    pub fn scene_epoch(&self) -> u64 {
        self.scene_epoch
    }

    /// Swaps the served scene for one decoded from `source`, synchronously
    /// (idle-server counterpart of [`ServerHandle::reload_scene`]).
    ///
    /// All-or-nothing: the source is fully decoded and validated *before*
    /// any server state is touched, so on error the old scene, every
    /// session's warm state and the scene epoch are untouched — attached
    /// streams keep rendering bit-exactly as if the reload was never
    /// attempted. On success the epoch bumps; if the new scene's
    /// fingerprint matches the current one the existing allocations are
    /// kept (warm state survives, frames stay bit-exact), otherwise each
    /// stream re-binds at its next dispatched frame.
    ///
    /// # Errors
    ///
    /// Whatever [`gsplat::asset`]'s loader reports for the source.
    pub fn reload_scene(&mut self, source: SceneSource) -> Result<ReloadOutcome, AssetError> {
        // Decode/validate first: any failure returns before a single field
        // of the server (or any stream) is mutated — that *is* the
        // rollback guarantee.
        let (candidate, quarantined) = match source {
            SceneSource::Shared(shared) => (*shared, 0),
            SceneSource::Bytes(bytes, policy) => {
                let loaded = asset::decode_scene(&bytes, policy)?;
                (
                    SharedScene::new(loaded.scene),
                    loaded.report.quarantined.len(),
                )
            }
            SceneSource::Path(path, policy) => {
                let loaded = asset::load_scene(&path, policy)?;
                (
                    SharedScene::new(loaded.scene),
                    loaded.report.quarantined.len(),
                )
            }
        };
        let previous_epoch = self.scene_epoch;
        self.scene_epoch += 1;
        let changed = candidate.fingerprint() != self.shared.fingerprint();
        if changed {
            // In-flight frames hold their own `Arc<SharedScene>` clone and
            // finish against the old scene; streams re-bind lazily at
            // their next dispatch (entry epoch trails the server's).
            self.shared = Arc::new(candidate);
        } else {
            // Same bits: keep the existing allocations so index sharing
            // and every session's warm temporal state survive. Only
            // entries already bound to the scene being re-confirmed may
            // skip the re-bind — a stream still trailing an *earlier*
            // changed reload keeps its pending rebind, or it would render
            // the new scene against its stale index.
            for e in &mut self.streams {
                if e.scene_epoch == previous_epoch {
                    e.scene_epoch = self.scene_epoch;
                }
            }
        }
        Ok(ReloadOutcome {
            epoch: self.scene_epoch,
            fingerprint: self.shared.fingerprint(),
            changed,
            quarantined,
        })
    }

    /// The worker pool frames are scheduled onto.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Number of registered streams.
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// A cloneable handle for mid-flight [`ServerHandle::attach`] /
    /// [`ServerHandle::detach`].
    pub fn handle(&self) -> ServerHandle<R> {
        ServerHandle {
            tx: self.tx.clone(),
            next_id: Arc::clone(&self.next_id),
        }
    }

    /// Registers a stream, subject to admission control. Admitted streams
    /// get a fresh serial-policy [`Session`], prepared against the shared
    /// scene (indexed configurations adopt the shared `Arc<SceneIndex>` —
    /// built now, once, if this is the first). Under
    /// [`AdmissionPolicy::Reject`] at capacity, the spec is handed back.
    pub fn attach(&mut self, spec: StreamSpec<R>) -> AttachOutcome<R> {
        if let Some(capacity) = self.rejecting_at() {
            return AttachOutcome::Rejected {
                spec: Box::new(spec),
                capacity,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.register(id, spec);
        AttachOutcome::Admitted { id }
    }

    /// The admission check shared by [`Server::attach`] and the handle's
    /// attach: `Some(capacity)` when [`AdmissionPolicy::Reject`] is armed
    /// and the live (non-terminal, attached) streams fill the capacity.
    fn rejecting_at(&self) -> Option<usize> {
        let cap = self
            .capacity
            .filter(|_| self.admission == AdmissionPolicy::Reject)?;
        let active = self
            .streams
            .iter()
            .filter(|e| !e.sched.phase.is_terminal() && !e.detached)
            .count();
        (active >= cap).then_some(cap)
    }

    /// [`Server::attach`] for servers without admission limits: returns
    /// the stream id directly.
    ///
    /// # Panics
    ///
    /// If the stream is rejected (only possible under
    /// [`AdmissionPolicy::Reject`] with a capacity set).
    pub fn add_stream(&mut self, spec: StreamSpec<R>) -> usize {
        match self.attach(spec) {
            AttachOutcome::Admitted { id } => id,
            // vrlint: allow(VL01, reason = "documented # Panics wrapper; capacity-limited servers use attach() and handle Rejected")
            AttachOutcome::Rejected { spec, capacity } => panic!(
                "stream {:?} rejected: server at capacity {capacity}",
                spec.name
            ),
        }
    }

    /// Removes stream `id` from an idle server. Returns `false` when no
    /// such stream exists. (Mid-run detach goes through
    /// [`ServerHandle::detach`].)
    pub fn detach(&mut self, id: usize) -> bool {
        match self.find(id) {
            Some(k) => {
                self.streams.remove(k);
                true
            }
            None => false,
        }
    }

    /// Replaces stream `id`'s fault injector (e.g. healing an injected
    /// fault before a rerun). Returns `false` when no such stream exists.
    pub fn set_faults(&mut self, id: usize, injector: FaultInjector) -> bool {
        match self.find(id) {
            Some(k) => {
                lock_state(&self.streams[k].state).injector = injector;
                true
            }
            None => false,
        }
    }

    /// A clone of stream `id`'s current `Arc<SceneIndex>` (for sharing
    /// assertions in tests; `None` for non-indexed streams).
    pub fn stream_index(&self, id: usize) -> Option<Arc<gsplat::index::SceneIndex>> {
        let k = self.find(id)?;
        lock_state(&self.streams[k].state)
            .session
            .scene_index()
            .cloned()
    }

    fn find(&self, id: usize) -> Option<usize> {
        self.streams.iter().position(|e| e.id == id)
    }

    /// Builds the entry for an admitted spec.
    fn register(&mut self, id: usize, spec: StreamSpec<R>) {
        let mut session = Session::new(ThreadPolicy::serial());
        session.prepare_shared(&self.shared, &spec.cfg);
        let baseline = (session.resort_stats(), session.cull_stats());
        self.streams.push(StreamEntry {
            id,
            name: spec.name,
            budget: spec.cfg.frames,
            indexed: spec.cfg.indexed,
            deadline_ms: spec.deadline_ms,
            drop_late: spec.drop_late,
            down_after: spec.ladder.down_after(),
            up_after: spec.ladder.up_after(),
            priority: spec.priority,
            detached: false,
            needs_reset: false,
            // Derived once: rung switches are then pure index changes.
            rung_cfgs: spec.ladder.derive_all(&spec.cfg).into(),
            baseline,
            scene_epoch: self.scene_epoch,
            sched: Sched::default(),
            state: Arc::new(Mutex::new(StreamState {
                cost_scales: spec.ladder.cost_scales(&spec.cfg),
                session,
                backend: spec.backend,
                injector: spec.injector,
                retry: spec.retry,
            })),
        });
    }
}

/// Locks a stream's state, recovering from poisoning (panics are caught
/// inside the frame task, but stay robust anyway).
fn lock_state<R>(state: &Arc<Mutex<StreamState<R>>>) -> std::sync::MutexGuard<'_, StreamState<R>> {
    match state.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl<R: Send + 'static> Server<R> {
    /// Serves every registered stream to a terminal phase across the pool
    /// and returns per-stream outputs and counters. Streams are then
    /// rewound for the next run: `Completed` streams keep their warm
    /// temporal state (still bit-exact — the temporal machinery never
    /// approximates — just cheaper, which is what benchmark repetitions
    /// want), while evicted/failed streams get
    /// [`Session::invalidate_temporal`] so their rerun is bit-exact from
    /// frame 0. Detached streams are removed after reporting.
    pub fn run(&mut self) -> ServeReport<R> {
        let t0 = Instant::now();
        self.begin_run();
        let workers = self.pool.workers();
        let mut in_flight = 0usize;
        let mut msg = None;
        loop {
            // The scheduler's one clock read per wake-up: every
            // time-driven rule below takes `now_ms` as an argument.
            let now_ms = t0.elapsed().as_secs_f64() * 1e3;
            if let Some(m) = msg.take() {
                self.handle_msg(m, &mut in_flight, now_ms);
            }
            self.watchdog(&mut in_flight, now_ms);
            // Apply everything else that arrived while we slept (or
            // before the run started), then make progress
            // deterministically: promotions first, sheds second, dispatch
            // last.
            self.pump(&mut in_flight, now_ms);
            self.promote_admitted(now_ms);
            self.drop_late_frames(now_ms);
            self.dispatch_ready(&mut in_flight, workers, now_ms);
            if in_flight == 0 && self.all_settled() {
                break;
            }
            msg = match self.watch_tick() {
                // Deadline streams need wall-clock ticks for the watchdog
                // and the frame-shedding rule even while nothing
                // completes.
                Some(tick) => match self.rx.recv_timeout(tick) {
                    Ok(m) => Some(m),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => {
                        // vrlint: allow(VL01, reason = "self.tx keeps a sender alive for the scheduler's lifetime, so the channel cannot disconnect")
                        unreachable!("scheduler holds a sender")
                    }
                },
                // vrlint: allow(VL01, reason = "self.tx keeps a sender alive for the scheduler's lifetime, so the channel cannot disconnect")
                None => Some(self.rx.recv().expect("scheduler holds a sender")),
            };
        }
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        self.finish_run(wall_ms)
    }

    /// Drains the channel without blocking.
    fn pump(&mut self, in_flight: &mut usize, now_ms: f64) {
        while let Ok(m) = self.rx.try_recv() {
            self.handle_msg(m, in_flight, now_ms);
        }
    }

    /// Processes pending commands and stale completions left over from a
    /// previous run, and re-arms sessions flagged for a temporal reset.
    fn begin_run(&mut self) {
        let mut stray = 0usize;
        // Only commands and zombies of the previous run's generations can
        // be queued here, and neither reads the time.
        self.pump(&mut stray, 0.0);
        debug_assert_eq!(stray, 0, "no live dispatches outside run()");
        // Fresh per-run batch accounting.
        self.batch = BatchStats::default();
        for e in &mut self.streams {
            if e.needs_reset {
                // Blocking lock: a zombie from the previous run may still
                // hold the state; correctness over latency here.
                let mut st = lock_state(&e.state);
                st.session.invalidate_temporal();
                e.needs_reset = false;
                e.baseline = (st.session.resort_stats(), st.session.cull_stats());
            } else {
                let st = lock_state(&e.state);
                e.baseline = (st.session.resort_stats(), st.session.cull_stats());
            }
        }
    }

    /// `Admitted → Running` while capacity allows, in registration order;
    /// a promoted stream's deadlines count from `now_ms`.
    fn promote_admitted(&mut self, now_ms: f64) {
        let cap = self.capacity.unwrap_or(usize::MAX);
        let mut running = self
            .streams
            .iter()
            .filter(|e| matches!(e.sched.phase, StreamPhase::Running))
            .count();
        for e in &mut self.streams {
            if !matches!(e.sched.phase, StreamPhase::Admitted) {
                continue;
            }
            if running >= cap {
                break;
            }
            e.sched.started_at = now_ms;
            if e.budget == 0 {
                e.sched.phase = StreamPhase::Completed;
            } else {
                e.sched.phase = StreamPhase::Running;
                running += 1;
            }
        }
    }

    /// Graceful degradation: sheds frames that are already a full period
    /// past their deadline before they start (opt-in per stream) — frame
    /// `i` goes once `now_ms` is past `due(i) + period`, which is
    /// `due(i + 1)`.
    fn drop_late_frames(&mut self, now_ms: f64) {
        for e in &mut self.streams {
            if !e.drop_late || !e.is_ready() {
                continue;
            }
            while e.sched.cursor < e.budget && now_ms > e.due_ms(e.sched.cursor + 1) {
                e.sched.dropped.push(e.sched.cursor);
                e.sched.cursor += 1;
                // A shed frame is a missed deadline for the ladder too:
                // the hysteresis sees it and can step down before the
                // stream falls far enough behind to drop more.
                Self::apply_hysteresis(e, true);
            }
            if e.sched.cursor >= e.budget {
                e.sched.phase = StreamPhase::Completed;
            }
        }
    }

    /// Fills the pool with ready frames, one round per pool task. A round
    /// has one member unless batching is on, the picked stream is
    /// indexed, and batch-mates are provable.
    fn dispatch_ready(&mut self, in_flight: &mut usize, workers: usize, now_ms: f64) {
        while *in_flight < workers {
            let Some(k) = self.pick() else { break };
            if !(self.batching && self.streams[k].indexed) {
                let frame = self.streams[k].sched.cursor;
                self.dispatch(vec![(k, frame)], in_flight, now_ms);
                continue;
            }
            let members = self.form_batch(k);
            let m = members.len();
            self.batch.rounds += 1;
            if self.batch.occupancy.len() < m {
                self.batch.occupancy.resize(m, 0);
            }
            self.batch.occupancy[m - 1] += 1;
            if m >= 2 {
                self.batch.batched_rounds += 1;
                self.batch.batched_frames += m;
            } else {
                // No provable batch-mate: the frame is its own round of
                // one, exactly as on an unbatched server.
                self.batch.solo_frames += 1;
            }
            self.dispatch(members, in_flight, now_ms);
        }
    }

    /// Collects the batch round led by stream `k`'s next frame: the
    /// leader, its stereo sibling (eye pairs always batch), and every
    /// other ready indexed frame provably a pure translation of the
    /// leader — the leader's [`Camera::group_key`] filters candidates in
    /// O(M), [`Camera::is_translation_of`] confirms each bit-for-bit.
    /// Returned `(stream index, frame)` pairs keep each stream's frames
    /// in frame order.
    ///
    /// [`Camera::group_key`]: gsplat::camera::Camera::group_key
    /// [`Camera::is_translation_of`]: gsplat::camera::Camera::is_translation_of
    fn form_batch(&self, k: usize) -> Vec<(usize, usize)> {
        let lead_frame = self.streams[k].sched.cursor;
        let mut members = vec![(k, lead_frame)];
        let leader = self.streams[k].camera(lead_frame);
        let key = leader.group_key();
        self.push_stereo_sibling(k, lead_frame, &leader, &mut members);
        for (j, o) in self.streams.iter().enumerate() {
            if j == k || !o.is_ready() || !o.indexed {
                continue;
            }
            let cam = o.camera(o.sched.cursor);
            if cam.group_key() == key && cam.is_translation_of(&leader) {
                members.push((j, o.sched.cursor));
                self.push_stereo_sibling(j, o.sched.cursor, &leader, &mut members);
            }
        }
        members
    }

    /// Stereo eye pairs always batch: when stream `j`'s `frame` is the
    /// even (left) eye of a [`CameraPath::Stereo`] sequence and the odd
    /// (right) eye is provably a pure translation of the round leader,
    /// the sibling frame joins the same round.
    fn push_stereo_sibling(
        &self,
        j: usize,
        frame: usize,
        leader: &Camera,
        members: &mut Vec<(usize, usize)>,
    ) {
        let e = &self.streams[j];
        let stereo = matches!(e.rung_cfgs[e.sched.rung].path, CameraPath::Stereo { .. });
        if stereo
            && frame.is_multiple_of(2)
            && frame + 1 < e.budget
            && e.camera(frame + 1).is_translation_of(leader)
        {
            members.push((j, frame + 1));
        }
    }

    /// Dispatches one round — `members[0]` is the leader — as a single
    /// pool task at `now_ms`. Each member frame runs lock → rebind →
    /// fault seam → retry → `catch_unwind` ([`render_member`]) and sends
    /// its own completion, so a faulting member fails only its own
    /// stream. A round of one renders through its stream's session, which
    /// runs the frame as a round of one on its own [`CullState`]; a round
    /// of several borrows the **leader** stream's `CullState` for one
    /// widened classification pass and one covariance replay serving
    /// every member, and the round's cull counters accrue to the leader's
    /// session.
    fn dispatch(&mut self, members: Vec<(usize, usize)>, in_flight: &mut usize, now_ms: f64) {
        let batched = members.len() >= 2;
        let mut tasks: Vec<RoundMember<R>> = Vec::with_capacity(members.len());
        for &(k, frame) in &members {
            let e = &mut self.streams[k];
            e.sched.cursor = frame + 1;
            e.sched.in_flight_frames += 1;
            e.sched.dispatched_at = now_ms;
            *in_flight += 1;
            // Scene-epoch fence, latched on the stream's first member of
            // the round: a stream that trails a successful reload re-binds
            // inside its own lock before this frame renders.
            let rebind = e.scene_epoch != self.scene_epoch;
            e.scene_epoch = self.scene_epoch;
            // The rung is latched here, between dispatches — the task
            // renders this whole frame at one rung, and hysteresis or
            // brownout can only move the *next* frame.
            tasks.push(RoundMember {
                id: e.id,
                frame,
                rung: e.sched.rung as u8,
                cfgs: Arc::clone(&e.rung_cfgs),
                generation: e.sched.generation,
                rebind,
                indexed: e.indexed,
                state: Arc::clone(&e.state),
            });
        }
        let shared = Arc::clone(&self.shared);
        let tx = self.tx.clone();
        // Run-to-completion round task.
        self.pool.submit(move || {
            // One Complete guard per member, created before anything can
            // fail: exactly one Done per dispatched frame even if this
            // task aborts. The Vec drops front-to-back, so completions
            // arrive in frame order per stream.
            let mut completes: Vec<Complete<R>> = tasks
                .iter()
                .map(|m| Complete {
                    tx: tx.clone(),
                    id: m.id,
                    generation: m.generation,
                    frame: m.frame,
                    rung: m.rung,
                    batched,
                    msg: None,
                })
                .collect();
            let t0 = Instant::now();
            // Lock every distinct member stream in ascending stream-id
            // order — a total order shared by every round task, so
            // concurrent rounds cannot deadlock (they cannot overlap in
            // streams anyway: a member is idle at formation and in flight
            // from dispatch to its last completion).
            let mut order: Vec<usize> = Vec::new();
            for (i, m) in tasks.iter().enumerate() {
                if !order.iter().any(|&o| tasks[o].id == m.id) {
                    order.push(i);
                }
            }
            order.sort_by_key(|&o| tasks[o].id);
            let guard_of: Vec<usize> = tasks
                .iter()
                .map(|m| order.iter().position(|&o| tasks[o].id == m.id).unwrap_or(0))
                .collect();
            let mut guards: Vec<_> = order.iter().map(|&o| lock_state(&tasks[o].state)).collect();
            for (i, m) in tasks.iter().enumerate() {
                if m.rebind {
                    // The scene changed under this stream: cold-start its
                    // temporal machinery (sorter warm start + cull epochs)
                    // and adopt the new shared index, so every frame from
                    // here is bit-exact with a solo session on the new
                    // scene.
                    let st = &mut *guards[guard_of[i]];
                    st.session.invalidate_temporal();
                    if m.indexed {
                        st.session.attach_index(Arc::clone(shared.index()));
                    }
                }
            }
            // A round of several takes the leader's cull state out of its
            // session (under the leader's lock, held above) for ONE widened
            // classification pass over the members' cameras — bit-identical
            // to what each render will compute (same config, same
            // expression, same inputs).
            let mut round = batched.then(|| {
                let cameras: Vec<Camera> = tasks
                    .iter()
                    .map(|m| {
                        let cfg = m.cfg();
                        cfg.path
                            .camera(m.frame, cfg.frames, cfg.width, cfg.height, cfg.fov_y)
                    })
                    .collect();
                let mut cull = std::mem::take(guards[guard_of[0]].session.cull_mut());
                cull.begin_round(shared.index(), &cameras);
                cull
            });
            let scene = shared.scene_arc();
            for (i, m) in tasks.iter().enumerate() {
                let st = &mut *guards[guard_of[i]];
                let (result, retries) = render_member(st, &scene, m, round.as_mut());
                completes[i].msg = Some(Msg::Done {
                    id: m.id,
                    generation: m.generation,
                    frame: m.frame,
                    rung: m.rung,
                    latency_ms: t0.elapsed().as_secs_f64() * 1e3,
                    retries,
                    batched,
                    result,
                });
            }
            if let Some(cull) = round {
                *guards[guard_of[0]].session.cull_mut() = cull;
            }
            drop(guards);
            // `completes` drops last: every lock is released before any
            // completion is observed.
        });
    }

    /// Handles one completion or command; `now_ms` is when it was
    /// observed (deadline-miss accounting and brownout lateness).
    fn handle_msg(&mut self, msg: Msg<R>, in_flight: &mut usize, now_ms: f64) {
        match msg {
            Msg::Cmd(Command::Attach { id, spec }) => {
                // Handle-attach is fire-and-forget: a rejection drops it.
                if self.rejecting_at().is_none() {
                    self.register(id, *spec);
                }
            }
            Msg::Cmd(Command::Reload { source }) => {
                let outcome = self.reload_scene(source);
                self.reloads.push(outcome);
            }
            Msg::Cmd(Command::Detach { id }) => {
                let Some(k) = self.find(id) else { return };
                self.streams[k].detached = true;
                if !self.streams[k].sched.phase.is_terminal() {
                    self.evict(k, EvictReason::Detached, in_flight);
                }
            }
            Msg::Done {
                id,
                generation,
                frame,
                rung,
                latency_ms,
                retries,
                batched,
                result,
            } => {
                let Some(k) = self.find(id) else { return };
                if self.streams[k].sched.generation != generation {
                    return; // zombie of an evicted/detached epoch
                }
                let budget_ms = self.stall_budget(k);
                let e = &mut self.streams[k];
                e.sched.in_flight_frames = e.sched.in_flight_frames.saturating_sub(1);
                *in_flight -= 1;
                e.sched.busy_ms += latency_ms;
                e.sched.retries += retries;
                if e.sched.phase.is_terminal() {
                    // A batch-mate completing after its own stream already
                    // reached a terminal phase this round (e.g. the right
                    // eye of a stereo pair whose left eye failed): the
                    // counters above are settled, the result is discarded.
                    return;
                }
                // Watchdog parity for serial pools: a frame that ran
                // inline on the scheduler thread could not be evicted
                // mid-stall, so evict on its (late) completion instead —
                // both pool shapes converge on the same report.
                if let Some(budget_ms) = budget_ms.filter(|&b| latency_ms > b) {
                    let reason = EvictReason::Stalled {
                        frame,
                        waited_ms: latency_ms,
                        budget_ms,
                    };
                    self.evict(k, reason, in_flight);
                    return;
                }
                match result {
                    Ok(out) => {
                        e.sched.latencies.push(latency_ms);
                        // On time up to and including the due instant.
                        let missed = now_ms > e.due_ms(frame);
                        if missed {
                            e.sched.deadline_misses += 1;
                        }
                        e.sched.rungs.push(rung);
                        e.sched.outputs.push((frame, out));
                        if batched {
                            e.sched.frames_batched += 1;
                        }
                        // Hysteresis AFTER recording: the step only
                        // affects the next dispatched frame.
                        Self::apply_hysteresis(e, missed);
                        // A stereo self-pair's left eye must not mark the
                        // stream Completed while the right eye is still
                        // in flight — its Done would be discarded above.
                        if e.sched.cursor >= e.budget && e.sched.in_flight_frames == 0 {
                            e.sched.phase = StreamPhase::Completed;
                        }
                        // Evaluated at completions only: at most one
                        // brownout step per delivered frame.
                        self.brownout_shed(now_ms);
                    }
                    Err(fault) => {
                        e.sched.phase = StreamPhase::Failed(fault);
                    }
                }
            }
        }
    }

    /// The one eviction path (watchdog, late completion on a serial pool,
    /// detach): frames still in flight become zombies of the bumped
    /// generation — their completions stop at the fence in
    /// [`Server::handle_msg`] and their scheduler capacity is freed now,
    /// so healthy and queued streams proceed — and the stream ends
    /// `Evicted(reason)`.
    fn evict(&mut self, k: usize, reason: EvictReason, in_flight: &mut usize) {
        let s = &mut self.streams[k].sched;
        *in_flight -= s.in_flight_frames;
        s.in_flight_frames = 0;
        s.generation += 1;
        s.phase = StreamPhase::Evicted(reason);
    }

    /// Per-stream ladder hysteresis: `down_after` consecutive deadline
    /// misses step down one rung, `up_after` consecutive on-time frames
    /// step back up. Counters reset on every step and on every
    /// miss/hit flip, so a stream oscillating at the boundary stays put.
    fn apply_hysteresis(e: &mut StreamEntry<R>, missed: bool) {
        let rung_count = e.rung_count();
        if rung_count <= 1 {
            return;
        }
        if missed {
            e.sched.consec_hits = 0;
            e.sched.consec_misses += 1;
            if e.sched.consec_misses >= e.down_after && e.sched.rung + 1 < rung_count {
                e.sched.rung += 1;
                e.sched.steps_down += 1;
                e.sched.consec_misses = 0;
            }
        } else {
            e.sched.consec_misses = 0;
            e.sched.consec_hits += 1;
            if e.sched.consec_hits >= e.up_after && e.sched.rung > 0 {
                e.sched.rung -= 1;
                e.sched.steps_up += 1;
                e.sched.consec_hits = 0;
            }
        }
    }

    /// Aggregate lateness across running deadline streams at `now_ms`:
    /// for each, how far its next undelivered frame is past its
    /// deadline. Frames already shed by frame dropping count as
    /// delivered — the metric recovers once a stream is back on schedule
    /// by any means.
    fn aggregate_lateness_ms(&self, now_ms: f64) -> f64 {
        self.streams
            .iter()
            .filter(|e| matches!(e.sched.phase, StreamPhase::Running))
            .map(|e| {
                let delivered = e.sched.outputs.len() + e.sched.dropped.len();
                (now_ms - e.due_ms(delivered)).max(0.0)
            })
            .sum()
    }

    /// The stream the brownout detector would step down next: the
    /// lowest-priority running stream with ladder headroom, ties broken
    /// by registration order. `None` when every candidate is floored.
    fn brownout_target(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (k, e) in self.streams.iter().enumerate() {
            if !matches!(e.sched.phase, StreamPhase::Running) {
                continue;
            }
            if e.sched.rung + 1 >= e.rung_count() {
                continue;
            }
            match best {
                None => best = Some(k),
                Some(b) => {
                    if e.priority < self.streams[b].priority {
                        best = Some(k);
                    }
                }
            }
        }
        best
    }

    /// Server-level overload shedding: one ladder step down for the
    /// brownout target when aggregate lateness at `now_ms` exceeds the
    /// armed threshold — quality degrades fleet-wide in priority order
    /// before the watchdog ever has to evict.
    fn brownout_shed(&mut self, now_ms: f64) {
        let Some(threshold) = self.brownout_ms else {
            return;
        };
        if self.aggregate_lateness_ms(now_ms) <= threshold {
            return;
        }
        let Some(k) = self.brownout_target() else {
            return;
        };
        let e = &mut self.streams[k];
        e.sched.rung += 1;
        e.sched.steps_down += 1;
        e.sched.brownout_steps += 1;
        e.sched.consec_misses = 0;
        e.sched.consec_hits = 0;
    }

    /// Evicts running deadline streams whose in-flight frame has waited
    /// more than the stall budget at `now_ms` (threaded pools; serial
    /// pools converge via the late-completion check in
    /// [`Server::handle_msg`]).
    fn watchdog(&mut self, in_flight: &mut usize, now_ms: f64) {
        for k in 0..self.streams.len() {
            let Some(budget_ms) = self.stall_budget(k) else {
                continue;
            };
            let s = &self.streams[k].sched;
            if s.in_flight_frames == 0 || !matches!(s.phase, StreamPhase::Running) {
                continue;
            }
            let waited_ms = now_ms - s.dispatched_at;
            if waited_ms > budget_ms {
                // The zombie task keeps a pool worker until it returns.
                let reason = EvictReason::Stalled {
                    frame: s.cursor - 1,
                    waited_ms,
                    budget_ms,
                };
                self.evict(k, reason, in_flight);
            }
        }
    }

    /// The stall budget of stream `k`, ms (`None` = no deadline, never
    /// watchdogged).
    fn stall_budget(&self, k: usize) -> Option<f64> {
        self.streams[k].deadline_ms.map(|p| p * self.watchdog_k)
    }

    /// `true` once every stream is in a terminal phase.
    fn all_settled(&self) -> bool {
        self.streams.iter().all(|e| e.sched.phase.is_terminal())
    }

    /// The receive timeout while any deadline stream is live (watchdog
    /// and shed rules need wall-clock ticks), else `None` (block).
    fn watch_tick(&self) -> Option<Duration> {
        let live = self.streams.iter().any(|e| {
            e.deadline_ms.is_some()
                && matches!(e.sched.phase, StreamPhase::Running | StreamPhase::Admitted)
        });
        live.then(|| Duration::from_millis(1))
    }

    /// Picks the next stream to dispatch among the ready ones (running,
    /// idle, frames remaining), or `None`.
    fn pick(&mut self) -> Option<usize> {
        let ready: Vec<usize> = (0..self.streams.len())
            .filter(|&i| self.streams[i].is_ready())
            .collect();
        if ready.is_empty() {
            return None;
        }
        match self.policy {
            SchedulePolicy::OldestFirst => self.pick_oldest(&ready),
            SchedulePolicy::Seeded(seed) => {
                // SplitMix64 step over the running state (seeded once).
                if self.rng == 0 {
                    self.rng = seed | 1;
                }
                self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let z = mix64(self.rng);
                Some(ready[(z % ready.len() as u64) as usize])
            }
            SchedulePolicy::Deadline => {
                // EDF over the ready deadline streams (the first
                // registered wins a tie); deadline-less streams only when
                // no deadline stream is ready.
                let due = |i: usize| self.streams[i].due_ms(self.streams[i].sched.cursor);
                let edf = ready
                    .iter()
                    .copied()
                    .filter(|&i| self.streams[i].deadline_ms.is_some())
                    .min_by(|&a, &b| due(a).total_cmp(&due(b)));
                edf.or_else(|| self.pick_oldest(&ready))
            }
        }
    }

    /// Fewest started frames first; ties rotate round-robin from the
    /// cursor so equal streams are served fairly. `None` only for an
    /// empty `ready`.
    fn pick_oldest(&mut self, ready: &[usize]) -> Option<usize> {
        let n = self.streams.len();
        let sid = ready
            .iter()
            .copied()
            .min_by_key(|&i| (self.streams[i].sched.cursor, (i + n - self.rr_next % n) % n))?;
        self.rr_next = (sid + 1) % n;
        Some(sid)
    }

    /// Builds the report, rewinds every stream for the next run and
    /// removes detached entries.
    fn finish_run(&mut self, wall_ms: f64) -> ServeReport<R> {
        let shared_index = self.shared.index_if_built();
        let mut streams = Vec::with_capacity(self.streams.len());
        let mut total_frames = 0usize;
        let mut index_sharers = 0usize;
        let mut indexed_streams = 0usize;
        for e in &mut self.streams {
            let sched = std::mem::take(&mut e.sched);
            let phase = match sched.phase {
                // A stream still Admitted/Running when the loop settled
                // can only be one that never got work (budget exhausted
                // races are impossible: terminal phases are set on
                // completion). Normalise for the report.
                StreamPhase::Admitted | StreamPhase::Running => StreamPhase::Completed,
                p => p,
            };
            // Keep the dispatch epoch monotonic so zombies from this run
            // can never masquerade as next-run completions.
            e.sched.generation = sched.generation.wrapping_add(1);
            let (produced, frames): (Vec<usize>, Vec<R>) = sched.outputs.into_iter().unzip();
            total_frames += frames.len();
            // try_lock: an evicted stream's zombie may still hold the
            // state. Fall back to empty deltas; begin_run() re-baselines.
            let (resort, cull, shares_index) = match e.state.try_lock() {
                Ok(st) => {
                    let shares = match (shared_index, st.session.scene_index()) {
                        (Some(shared), Some(own)) => Arc::ptr_eq(shared, own),
                        _ => false,
                    };
                    (
                        resort_delta(st.session.resort_stats(), &e.baseline.0),
                        st.session.cull_stats().delta_since(&e.baseline.1),
                        shares,
                    )
                }
                Err(_) => (ResortStats::default(), CullStats::default(), false),
            };
            if e.indexed {
                indexed_streams += 1;
                if shares_index {
                    index_sharers += 1;
                }
            }
            // Rewind: completed streams keep warm temporal state; any
            // other outcome re-arms a frame-0 reset (the satellite fix —
            // sorter warm start AND CullState epochs).
            e.needs_reset = !matches!(phase, StreamPhase::Completed);
            let mut latencies = sched.latencies;
            latencies.sort_by(|a, b| a.total_cmp(b));
            streams.push(StreamReport {
                id: e.id,
                name: e.name.clone(),
                phase,
                fps: frames.len() as f64 / (wall_ms / 1e3).max(1e-12),
                frames,
                produced,
                frames_dropped: sched.dropped.len(),
                deadline_misses: sched.deadline_misses,
                retries: sched.retries,
                rungs: sched.rungs,
                rung_count: e.rung_count(),
                rung_steps_down: sched.steps_down,
                rung_steps_up: sched.steps_up,
                brownout_steps: sched.brownout_steps,
                latency_p50_ms: percentile(&latencies, 0.50),
                latency_p99_ms: percentile(&latencies, 0.99),
                busy_ms: sched.busy_ms,
                resort,
                cull,
                shares_index,
                frames_batched: sched.frames_batched,
            });
        }
        self.streams.retain(|e| !e.detached);
        ServeReport {
            streams,
            wall_ms,
            total_frames,
            aggregate_fps: total_frames as f64 / (wall_ms / 1e3).max(1e-12),
            index_sharers,
            indexed_streams,
            reloads: std::mem::take(&mut self.reloads),
            scene_epoch: self.scene_epoch,
            batch: std::mem::take(&mut self.batch),
        }
    }
}

/// Per-member payload of one round's pool task.
struct RoundMember<R> {
    id: usize,
    frame: usize,
    rung: u8,
    /// The stream's rung table (shared with its scheduler entry).
    cfgs: Arc<[SequenceConfig]>,
    generation: u32,
    /// Re-bind the stream's session to the current scene before its
    /// first frame of this round (scene-epoch fence, once per stream).
    rebind: bool,
    /// Whether the stream preprocesses through the shared index (a
    /// re-bind then adopts the new scene's index).
    indexed: bool,
    state: Arc<Mutex<StreamState<R>>>,
}

impl<R> RoundMember<R> {
    /// The configuration this frame renders at (its latched rung).
    fn cfg(&self) -> &SequenceConfig {
        &self.cfgs[usize::from(self.rung)]
    }
}

/// Renders one round member's frame on its locked stream state: the fault
/// seam, the bounded retry loop and panic containment. `round` is the
/// borrowed leader cull state of a round of several (`None` for a round
/// of one). Returns the frame's result and the retries it took.
fn render_member<R>(
    st: &mut StreamState<R>,
    scene: &Scene,
    m: &RoundMember<R>,
    mut round: Option<&mut CullState>,
) -> (Result<R, StreamFault>, u32) {
    let frame = m.frame;
    let rung_ix = m.rung as usize;
    // Load injections scale with the rung's render cost: degrading
    // genuinely sheds the injected overload.
    let cost_scale = st.cost_scales.get(rung_ix).copied().unwrap_or(1.0);
    let mut retries = 0u32;
    loop {
        // The fault seam fires BEFORE the real backend: an injected fault
        // never half-mutates session state, which is what keeps faulted
        // streams' sessions replayable and other streams' bits
        // untouchable. A round's shared cull state only ever holds pure
        // functions of the leader orientation, identical no matter which
        // member wrote them, so a faulting member cannot move its
        // batch-mates' bits either.
        let injected = st.injector.intercept_scaled(frame, retries, cost_scale);
        let attempt: Result<Result<R, DrawError>, String> = match injected {
            Some(FaultAction::Fail(e)) => Ok(Err(e)),
            Some(FaultAction::Panic(msg)) => {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                    // vrlint: allow(VL01, reason = "fault-injection seam: the panic exists to be caught by the enclosing catch_unwind")
                    || -> Result<R, DrawError> { panic!("{msg}") },
                ))
                .map_err(|p| panic_message(p.as_ref()))
            }
            other => {
                if let Some(FaultAction::Sleep(d)) = other {
                    std::thread::sleep(d);
                }
                let StreamState {
                    session, backend, ..
                } = &mut *st;
                // The rung's derived configuration drives the whole frame.
                let cfg = m.cfg();
                let round = round.as_deref_mut();
                // catch_unwind INSIDE the locks: a panicking backend
                // unwinds into this Err arm, not past the guards, so no
                // mutex is poisoned.
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    session.render_frame(scene, cfg, frame, round, backend)
                }))
                .map_err(|p| panic_message(p.as_ref()))
            }
        };
        match attempt {
            Err(message) => return (Err(StreamFault::Panicked { message, frame }), retries),
            Ok(Ok(out)) => return (Ok(out), retries),
            Ok(Err(error)) => {
                if error.is_transient() && retries < st.retry.max_retries {
                    let delay = st.retry.backoff_ms(m.id, frame, retries);
                    if delay > 0.0 {
                        std::thread::sleep(Duration::from_secs_f64(delay / 1e3));
                    }
                    retries += 1;
                } else {
                    return (Err(StreamFault::Render { error, retries }), retries);
                }
            }
        }
    }
}

/// Completion backstop: exactly one `Done` per dispatched frame. The
/// normal path parks its message here; if the task aborts before that,
/// the drop sends a `Failed` placeholder instead — the scheduler can
/// never be stranded in `recv`.
struct Complete<R> {
    tx: mpsc::Sender<Msg<R>>,
    id: usize,
    generation: u32,
    frame: usize,
    rung: u8,
    batched: bool,
    msg: Option<Msg<R>>,
}

impl<R> Drop for Complete<R> {
    fn drop(&mut self) {
        let msg = self.msg.take().unwrap_or(Msg::Done {
            id: self.id,
            generation: self.generation,
            frame: self.frame,
            rung: self.rung,
            latency_ms: 0.0,
            retries: 0,
            batched: self.batched,
            result: Err(StreamFault::Panicked {
                message: "frame task aborted before reporting".into(),
                frame: self.frame,
            }),
        });
        let _ = self.tx.send(msg);
    }
}

#[cfg(test)]
mod tests {
    use super::faults::FaultKind;
    use super::*;
    use gsplat::camera::CameraPath;
    use gsplat::math::Vec3;
    use gsplat::scene::EVALUATED_SCENES;

    fn shared_scene() -> SharedScene {
        SharedScene::new(EVALUATED_SCENES[4].generate_scaled(0.03))
    }

    fn orbit_cfg(shared: &SharedScene, phase: f32, frames: usize) -> SequenceConfig {
        let s = shared.scene();
        SequenceConfig::new(
            CameraPath::orbit(s.center, s.view_radius, 1.0 + phase, 0.03),
            frames,
            64,
            48,
        )
        .with_index()
    }

    #[test]
    fn server_serves_every_stream_its_full_budget() {
        let shared = shared_scene();
        let mut server = Server::new(shared, 2);
        for k in 0..3 {
            let cfg = orbit_cfg(server.shared(), k as f32 * 0.2, 2 + k);
            server.add_stream(StreamSpec::vrpipe(
                format!("s{k}"),
                cfg,
                GpuConfig::default(),
                PipelineVariant::HetQm,
            ));
        }
        let report = server.run();
        assert_eq!(report.total_frames, 2 + 3 + 4);
        for (k, s) in report.streams.iter().enumerate() {
            assert_eq!(s.frames.len(), 2 + k, "{}", s.name);
            assert_eq!(s.phase, StreamPhase::Completed, "{}", s.name);
            assert_eq!(s.produced, (0..2 + k).collect::<Vec<_>>());
            assert_eq!(s.frames_dropped, 0);
            assert_eq!(s.retries, 0);
            assert!(s.latency_p50_ms > 0.0);
            assert!(s.latency_p99_ms >= s.latency_p50_ms);
            assert!(s.shares_index);
        }
        assert_eq!(report.completed(), 3);
        assert_eq!(report.index_sharers, 3);
        assert_eq!(report.indexed_streams, 3);
        assert!((report.index_share() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn idle_reload_is_all_or_nothing_and_epoch_fenced() {
        let mut server: Server<usize> = Server::new(shared_scene(), 1);
        let old_fp = server.shared().fingerprint();
        let old_arc = Arc::clone(server.shared());
        assert_eq!(server.scene_epoch(), 0);

        // Failed reload: typed error, nothing swapped, epoch untouched.
        let err = server
            .reload_scene(SceneSource::Bytes(vec![0u8; 64], LoadPolicy::Strict))
            .expect_err("garbage bytes must not load");
        assert!(matches!(err, AssetError::BadMagic { .. }));
        assert_eq!(server.scene_epoch(), 0);
        assert!(Arc::ptr_eq(server.shared(), &old_arc));

        // Same-fingerprint reload: success, epoch bumps, allocations kept.
        let bytes = asset::encode_scene(server.shared().scene());
        let outcome = server
            .reload_scene(SceneSource::Bytes(bytes, LoadPolicy::Strict))
            .expect("clean bytes load");
        assert_eq!(outcome.epoch, 1);
        assert!(!outcome.changed);
        assert_eq!(outcome.fingerprint, old_fp);
        assert!(
            Arc::ptr_eq(server.shared(), &old_arc),
            "no-op swap keeps the Arc"
        );

        // Different scene: success, swap visible, epoch bumps again.
        let other = EVALUATED_SCENES[2].generate_scaled(0.02);
        let outcome = server
            .reload_scene(SceneSource::Shared(Box::new(SharedScene::new(other))))
            .expect("in-memory scene swaps");
        assert!(outcome.changed);
        assert_eq!(outcome.epoch, 2);
        assert_ne!(server.shared().fingerprint(), old_fp);
        assert_eq!(server.scene_epoch(), 2);
    }

    #[test]
    fn empty_and_zero_frame_servers_terminate() {
        let mut server: Server<usize> = Server::new(shared_scene(), 1);
        let report = server.run();
        assert_eq!(report.total_frames, 0);
        let shared = shared_scene();
        let cfg = SequenceConfig::new(
            CameraPath::orbit(shared.scene().center, 1.0, 1.0, 0.1),
            0,
            32,
            32,
        );
        let mut server = Server::new(shared, 2);
        server.add_stream(StreamSpec::new("empty", cfg, |f| f.splats.len()));
        let report = server.run();
        assert_eq!(report.total_frames, 0);
        assert_eq!(report.streams[0].frames.len(), 0);
        assert_eq!(report.streams[0].phase, StreamPhase::Completed);
    }

    #[test]
    fn oldest_first_never_lets_a_stream_fall_behind() {
        // One-worker pool → dispatch order is fully policy-driven; record
        // the service order and check the lag bound.
        let shared = shared_scene();
        let mut server = Server::new(shared, 1);
        let log = Arc::new(Mutex::new(Vec::new()));
        for k in 0..3usize {
            let cfg = SequenceConfig::new(
                CameraPath::orbit(server.shared().scene().center, 2.0, 1.0, 0.05),
                4,
                32,
                24,
            );
            let log = Arc::clone(&log);
            server.add_stream(StreamSpec::new(format!("s{k}"), cfg, move |f| {
                log.lock().unwrap().push((k, f.index));
                f.index
            }));
        }
        server.run();
        let log = log.lock().unwrap();
        assert_eq!(log.len(), 12);
        // After every prefix, completed-frame counts differ by at most 1.
        let mut counts = [0usize; 3];
        for &(k, _) in log.iter() {
            counts[k] += 1;
            let lo = counts.iter().min().unwrap();
            let hi = counts.iter().max().unwrap();
            assert!(hi - lo <= 1, "unfair schedule: {counts:?}");
        }
    }

    /// A panicking backend must be contained: the faulting stream is
    /// reported `Failed(Panicked)` with the payload, every other stream
    /// completes, and the server (and its pool) stay usable.
    #[test]
    fn panicking_stream_is_contained_not_fatal() {
        for threads in [1usize, 2] {
            let shared = shared_scene();
            let mk_cfg = |shared: &SharedScene| {
                SequenceConfig::new(
                    CameraPath::orbit(shared.scene().center, 2.0, 1.0, 0.05),
                    3,
                    32,
                    24,
                )
            };
            let cfg = mk_cfg(&shared);
            let cfg2 = mk_cfg(&shared);
            let mut server = Server::new(shared, threads);
            server.add_stream(StreamSpec::new("boom", cfg, |_| -> usize {
                panic!("backend failure (expected in this test)")
            }));
            server.add_stream(StreamSpec::new("calm", cfg2, |f| f.splats.len()));
            let report = server.run();
            let boom = report.stream("boom").expect("reported");
            match &boom.phase {
                StreamPhase::Failed(StreamFault::Panicked { message, frame }) => {
                    assert!(
                        message.contains("backend failure (expected in this test)"),
                        "threads={threads}: payload lost: {message}"
                    );
                    assert_eq!(*frame, 0);
                }
                p => panic!("threads={threads}: expected Failed(Panicked), got {p:?}"),
            }
            assert_eq!(boom.frames.len(), 0);
            let calm = report.stream("calm").expect("reported");
            assert_eq!(calm.phase, StreamPhase::Completed, "threads={threads}");
            assert_eq!(calm.frames.len(), 3);
            // The server is still serviceable: rerun completes the calm
            // stream again (the panicking one fails again, contained).
            let again = server.run();
            assert_eq!(again.stream("calm").unwrap().frames.len(), 3);
            assert_eq!(again.failed(), 1);
        }
    }

    #[test]
    fn transient_backend_errors_are_retried_to_success() {
        let shared = shared_scene();
        let cfg = SequenceConfig::new(
            CameraPath::orbit(shared.scene().center, 2.0, 1.0, 0.05),
            3,
            32,
            24,
        );
        let mut server = Server::new(shared, 1);
        let mut failures_left = 2u32;
        server.add_stream(
            StreamSpec::fallible("flaky", cfg, move |f| {
                if f.index == 1 && failures_left > 0 {
                    failures_left -= 1;
                    return Err(DrawError::backend("spurious", true));
                }
                Ok(f.splats.len())
            })
            .with_retry(RetryPolicy {
                base_delay_ms: 0.0,
                max_delay_ms: 0.0,
                ..RetryPolicy::default()
            }),
        );
        let report = server.run();
        let s = &report.streams[0];
        assert_eq!(s.phase, StreamPhase::Completed);
        assert_eq!(s.frames.len(), 3);
        assert_eq!(s.retries, 2);
    }

    #[test]
    fn permanent_backend_errors_fail_without_retries() {
        let shared = shared_scene();
        let cfg = SequenceConfig::new(
            CameraPath::orbit(shared.scene().center, 2.0, 1.0, 0.05),
            3,
            32,
            24,
        );
        let mut server = Server::new(shared, 1);
        server.add_stream(StreamSpec::fallible(
            "doomed",
            cfg,
            |f| -> Result<usize, DrawError> {
                if f.index == 1 {
                    Err(DrawError::backend("broken lens", false))
                } else {
                    Ok(f.splats.len())
                }
            },
        ));
        let report = server.run();
        let s = &report.streams[0];
        match &s.phase {
            StreamPhase::Failed(StreamFault::Render { error, retries }) => {
                assert_eq!(*retries, 0, "permanent errors must not retry");
                assert!(!error.is_transient());
            }
            p => panic!("expected Failed(Render), got {p:?}"),
        }
        assert_eq!(s.frames.len(), 1, "frame 0 was produced before the fault");
    }

    #[test]
    fn rerun_replays_warm_but_bit_exact() {
        let shared = shared_scene();
        let mut server = Server::new(shared, 1);
        let cfg = orbit_cfg(server.shared(), 0.0, 3);
        server.add_stream(StreamSpec::vrpipe(
            "s0",
            cfg,
            GpuConfig::default(),
            PipelineVariant::Het,
        ));
        let a = server.run();
        let b = server.run();
        let stats = |r: &ServeReport<SequenceFrameRecord>| {
            r.streams[0]
                .frames
                .iter()
                .map(|f| f.stats.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(stats(&a), stats(&b));
        // Counters are per-run (baselined), not session-lifetime: each
        // report covers exactly its own three frames.
        assert_eq!(a.streams[0].resort.frames, 3);
        assert_eq!(b.streams[0].resort.frames, 3);
        assert_eq!(a.streams[0].cull.frames, 3);
        assert_eq!(b.streams[0].cull.frames, 3);
    }

    #[test]
    fn idle_detach_removes_and_attach_readmits() {
        let shared = shared_scene();
        let mut server = Server::new(shared, 1);
        let cfg = orbit_cfg(server.shared(), 0.0, 2);
        let cfg2 = orbit_cfg(server.shared(), 0.3, 2);
        let a = server.add_stream(StreamSpec::vrpipe(
            "a",
            cfg,
            GpuConfig::default(),
            PipelineVariant::Het,
        ));
        let b = server.add_stream(StreamSpec::vrpipe(
            "b",
            cfg2,
            GpuConfig::default(),
            PipelineVariant::Het,
        ));
        assert_ne!(a, b);
        assert!(server.detach(a));
        assert!(!server.detach(a), "double detach is a no-op");
        assert_eq!(server.stream_count(), 1);
        let report = server.run();
        assert_eq!(report.streams.len(), 1);
        assert_eq!(report.streams[0].name, "b");
    }

    #[test]
    fn reject_admission_hands_the_spec_back() {
        let shared = shared_scene();
        let mut server = Server::new(shared, 1).with_admission(1, AdmissionPolicy::Reject);
        let cfg = orbit_cfg(server.shared(), 0.0, 1);
        let cfg2 = orbit_cfg(server.shared(), 0.1, 1);
        let first = server.attach(StreamSpec::vrpipe(
            "first",
            cfg,
            GpuConfig::default(),
            PipelineVariant::Het,
        ));
        assert!(first.id().is_some());
        match server.attach(StreamSpec::vrpipe(
            "second",
            cfg2,
            GpuConfig::default(),
            PipelineVariant::Het,
        )) {
            AttachOutcome::Rejected { spec, capacity } => {
                assert_eq!(spec.name(), "second");
                assert_eq!(capacity, 1);
            }
            AttachOutcome::Admitted { .. } => panic!("capacity 1 must reject the second stream"),
        }
        assert_eq!(server.stream_count(), 1);
    }

    #[test]
    fn deadline_policy_serves_urgent_streams_first() {
        // One worker, two deadline streams with very different periods:
        // EDF must start the tight-deadline stream first even though the
        // relaxed one was registered first.
        let shared = shared_scene();
        let mut server = Server::new(shared, 1).with_policy(SchedulePolicy::Deadline);
        let order = Arc::new(Mutex::new(Vec::new()));
        for (k, period) in [(0usize, 10_000.0), (1usize, 1_000.0)] {
            let cfg = SequenceConfig::new(
                CameraPath::orbit(server.shared().scene().center, 2.0, 1.0, 0.05),
                2,
                32,
                24,
            );
            let order = Arc::clone(&order);
            server.add_stream(
                StreamSpec::new(format!("s{k}"), cfg, move |f| {
                    order.lock().unwrap().push((k, f.index));
                    f.index
                })
                .with_deadline_ms(period),
            );
        }
        let report = server.run();
        assert_eq!(report.completed(), 2);
        let order = order.lock().unwrap();
        assert_eq!(order.len(), 4);
        assert_eq!(order[0].0, 1, "tight deadline must be served first");
        assert_eq!(
            report
                .streams
                .iter()
                .map(|s| s.deadline_misses)
                .sum::<usize>(),
            0,
            "generous periods must not be missed"
        );
    }

    #[test]
    fn retry_backoff_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        for attempt in 0..8 {
            let a = p.backoff_ms(3, 7, attempt);
            let b = p.backoff_ms(3, 7, attempt);
            assert_eq!(a, b, "same key must give the same delay");
            assert!(a >= 0.5 * p.base_delay_ms);
            assert!(a <= p.max_delay_ms);
        }
        assert_ne!(
            p.backoff_ms(0, 0, 0),
            p.backoff_ms(1, 0, 0),
            "jitter must differ across streams"
        );
        assert_eq!(RetryPolicy::none().max_retries, 0);
    }

    #[test]
    fn faulted_runs_rewind_bit_exact_from_frame_zero() {
        // The rewind-fix satellite: after a failed run, the session's
        // sorter warm start and CullState epochs are invalidated, so the
        // healed rerun replays from a cold frame 0 — bit-exact with the
        // very first (cold) run.
        let shared = shared_scene();
        let mut server = Server::new(shared, 1);
        let cfg = orbit_cfg(server.shared(), 0.0, 3);
        let id = server.add_stream(StreamSpec::vrpipe(
            "healed",
            cfg,
            GpuConfig::default(),
            PipelineVariant::Het,
        ));
        let clean = server.run();
        assert_eq!(clean.streams[0].phase, StreamPhase::Completed);
        let clean_stats: Vec<_> = clean.streams[0]
            .frames
            .iter()
            .map(|f| f.stats.clone())
            .collect();

        // Break it mid-sequence, then heal and rerun.
        server.set_faults(id, FaultInjector::at(2, FaultKind::Error));
        let broken = server.run();
        assert!(matches!(
            broken.streams[0].phase,
            StreamPhase::Failed(StreamFault::Render { .. })
        ));
        assert_eq!(broken.streams[0].frames.len(), 2);
        assert_eq!(
            broken.streams[0].retries,
            RetryPolicy::default().max_retries,
            "persistent transient-classified faults must exhaust retries"
        );

        server.set_faults(id, FaultInjector::none());
        let healed = server.run();
        assert_eq!(healed.streams[0].phase, StreamPhase::Completed);
        let healed_stats: Vec<_> = healed.streams[0]
            .frames
            .iter()
            .map(|f| f.stats.clone())
            .collect();
        assert_eq!(
            healed_stats, clean_stats,
            "rerun must be bit-exact from frame 0"
        );
        // Cold start is visible in the resort counters: frame 0 cannot be
        // warm-started after the reset (matches the very first run).
        assert_eq!(
            healed.streams[0].resort.repaired,
            clean.streams[0].resort.repaired
        );
    }

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile(&[], 0.50), 0.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
        let single = [7.5];
        assert_eq!(percentile(&single, 0.0), 7.5);
        assert_eq!(percentile(&single, 0.50), 7.5);
        assert_eq!(percentile(&single, 1.0), 7.5);
        let dup = [2.0, 2.0, 2.0, 2.0];
        assert_eq!(percentile(&dup, 0.50), 2.0);
        assert_eq!(percentile(&dup, 0.99), 2.0);
        let two = [1.0, 3.0];
        assert_eq!(percentile(&two, 0.0), 1.0);
        assert_eq!(percentile(&two, 1.0), 3.0);
        // q past 1.0 clamps to the last element instead of indexing out.
        assert_eq!(percentile(&two, 2.0), 3.0);
    }

    #[test]
    fn backoff_saturates_at_large_attempt() {
        let policy = RetryPolicy::default();
        // The exponential term is capped by max_delay_ms; the shift is
        // clamped so huge attempt numbers neither overflow nor panic.
        for attempt in [20, 21, 63, 64, 1_000, u32::MAX] {
            let d = policy.backoff_ms(3, 5, attempt);
            assert!(d.is_finite());
            assert!(
                d >= policy.max_delay_ms * 0.5 && d <= policy.max_delay_ms,
                "attempt {attempt}: {d} outside jittered saturation band"
            );
        }
        // Deterministic: same (stream, frame, attempt) → same delay.
        assert_eq!(
            policy.backoff_ms(3, 5, u32::MAX),
            policy.backoff_ms(3, 5, u32::MAX)
        );
        // Early attempts still grow before the cap bites.
        assert!(policy.backoff_ms(0, 0, 0) <= policy.backoff_ms(0, 0, 30) + policy.max_delay_ms);
    }

    #[test]
    fn watchdog_budget_is_k_times_period_and_clamped() {
        let mut server: Server<usize> = Server::new(shared_scene(), 1);
        let cfg = orbit_cfg(server.shared(), 0.0, 2);
        let backend = StreamSpec::new("deadline", cfg.clone(), |_| 0usize).with_deadline_ms(25.0);
        server.add_stream(backend);
        // Default k = 4 → budget = 4 × 25 ms.
        assert_eq!(server.stall_budget(0), Some(100.0));
        server = server.with_watchdog(2.5);
        assert_eq!(server.stall_budget(0), Some(62.5));
        // k clamps at 1.0: the budget can never undercut one period.
        server = server.with_watchdog(0.0);
        assert_eq!(server.stall_budget(0), Some(25.0));
        // No deadline → no stall budget (watchdog disarmed).
        let free = StreamSpec::new("free", cfg, |_| 0usize);
        server.add_stream(free);
        assert_eq!(server.stall_budget(1), None);
    }

    #[test]
    fn brownout_target_prefers_lowest_priority_with_headroom() {
        let mut server: Server<usize> = Server::new(shared_scene(), 1);
        let cfg = orbit_cfg(server.shared(), 0.0, 2);
        let mk = |name: &str, prio: i32, ladder: QualityLadder| {
            StreamSpec::new(name.to_string(), cfg.clone(), |_| 0usize)
                .with_priority(prio)
                .with_ladder(ladder)
        };
        // vip: high priority, no ladder headroom — structurally immune.
        server.add_stream(mk("vip", 10, QualityLadder::new()));
        // bulk-a/bulk-b: same low priority, headroom; registration order
        // breaks the tie.
        server.add_stream(mk("bulk-a", 0, QualityLadder::standard()));
        server.add_stream(mk("bulk-b", 0, QualityLadder::standard()));
        // mid: between, with headroom.
        server.add_stream(mk("mid", 5, QualityLadder::standard()));
        for e in &mut server.streams {
            e.sched.phase = StreamPhase::Running;
        }
        assert_eq!(server.brownout_target(), Some(1), "lowest priority first");
        // Floor bulk-a: next candidate is bulk-b, not mid or vip.
        server.streams[1].sched.rung = 2;
        assert_eq!(server.brownout_target(), Some(2));
        server.streams[2].sched.rung = 2;
        assert_eq!(server.brownout_target(), Some(3), "then the mid tier");
        server.streams[3].sched.rung = 2;
        assert_eq!(
            server.brownout_target(),
            None,
            "vip has no headroom: never a target"
        );
        // Non-running streams are skipped even with headroom.
        server.streams[1].sched.rung = 0;
        server.streams[1].sched.phase = StreamPhase::Completed;
        assert_eq!(server.brownout_target(), None);
    }

    // ---- the scheduler's time-driven rules at scripted times ----

    /// A server whose streams (one per entry of `periods`, `frames` each,
    /// backends never run) were promoted at `started_ms`. The rules are
    /// then called directly at chosen `now_ms` values: no clock, no
    /// sleeps.
    fn scripted(
        policy: SchedulePolicy,
        periods: &[Option<f64>],
        frames: usize,
        started_ms: f64,
    ) -> Server<usize> {
        let mut server = Server::new(shared_scene(), 1).with_policy(policy);
        for (k, &period) in periods.iter().enumerate() {
            let cfg = SequenceConfig::new(
                CameraPath::orbit(server.shared().scene().center, 2.0, 1.0, 0.05),
                frames,
                32,
                24,
            );
            let mut spec = StreamSpec::new(format!("s{k}"), cfg, |f| f.index)
                .with_ladder(QualityLadder::standard());
            if let Some(period) = period {
                spec = spec.with_deadline_ms(period).with_frame_dropping();
            }
            server.add_stream(spec);
        }
        server.promote_admitted(started_ms);
        server
    }

    /// Marks stream `k`'s next frame in flight since `at_ms`, as
    /// [`Server::dispatch`] would, without running it.
    fn start_frame(server: &mut Server<usize>, k: usize, at_ms: f64, in_flight: &mut usize) {
        let s = &mut server.streams[k].sched;
        s.cursor += 1;
        s.in_flight_frames += 1;
        s.dispatched_at = at_ms;
        *in_flight += 1;
    }

    /// Stream `k`'s completion of `frame` after `latency_ms` of work.
    fn done(server: &Server<usize>, k: usize, frame: usize, latency_ms: f64) -> Msg<usize> {
        Msg::Done {
            id: server.streams[k].id,
            generation: server.streams[k].sched.generation,
            frame,
            rung: 0,
            latency_ms,
            retries: 0,
            batched: false,
            result: Ok(frame),
        }
    }

    #[test]
    fn completion_at_the_due_instant_is_on_time_and_later_is_a_miss() {
        // Started at 5 ms with a 10 ms period: frame i is due at 15 + 10i.
        let mut server = scripted(SchedulePolicy::OldestFirst, &[Some(10.0)], 4, 5.0);
        let mut in_flight = 0;
        start_frame(&mut server, 0, 5.0, &mut in_flight);
        server.handle_msg(done(&server, 0, 0, 1.0), &mut in_flight, 15.0);
        assert_eq!(
            server.streams[0].sched.deadline_misses, 0,
            "at due: on time"
        );
        start_frame(&mut server, 0, 15.0, &mut in_flight);
        server.handle_msg(done(&server, 0, 1, 1.0), &mut in_flight, 25.000_001);
        assert_eq!(
            server.streams[0].sched.deadline_misses, 1,
            "past due: a miss"
        );
        assert_eq!(in_flight, 0);
        assert_eq!(server.streams[0].sched.outputs, vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn frames_drop_only_once_past_due_plus_period() {
        // Frame i is due at 10(i+1) and droppable only past 10(i+2).
        let mut server = scripted(SchedulePolicy::OldestFirst, &[Some(10.0)], 4, 0.0);
        server.drop_late_frames(20.0);
        assert!(
            server.streams[0].sched.dropped.is_empty(),
            "at due + period"
        );
        server.drop_late_frames(20.5);
        assert_eq!(server.streams[0].sched.dropped, vec![0]);
        assert_eq!(server.streams[0].sched.cursor, 1);
        server.drop_late_frames(30.0);
        assert_eq!(server.streams[0].sched.dropped, vec![0], "frame 1 not yet");
        // A frame in flight is never shed from under its stream.
        let mut in_flight = 0;
        start_frame(&mut server, 0, 30.0, &mut in_flight);
        server.drop_late_frames(100.0);
        assert_eq!(server.streams[0].sched.dropped, vec![0]);
        // Once idle again, every overdue frame goes and the budget is
        // accounted: 45 ms is past frame 2's 40 but not frame 3's 50.
        server.streams[0].sched.in_flight_frames = 0;
        server.drop_late_frames(45.0);
        assert_eq!(server.streams[0].sched.dropped, vec![0, 2]);
        assert_eq!(server.streams[0].sched.phase, StreamPhase::Running);
        server.drop_late_frames(50.5);
        assert_eq!(server.streams[0].sched.dropped, vec![0, 2, 3]);
        assert_eq!(server.streams[0].sched.phase, StreamPhase::Completed);
    }

    #[test]
    fn watchdog_evicts_only_once_waited_exceeds_k_periods() {
        // Budget 4 × 10 ms; the frame was dispatched at 3 ms.
        let mut server = scripted(SchedulePolicy::OldestFirst, &[Some(10.0), None], 4, 0.0);
        let mut in_flight = 0;
        start_frame(&mut server, 0, 3.0, &mut in_flight);
        start_frame(&mut server, 1, 3.0, &mut in_flight);
        server.watchdog(&mut in_flight, 43.0);
        assert_eq!(
            server.streams[0].sched.phase,
            StreamPhase::Running,
            "waited = k·period"
        );
        let zombie = done(&server, 0, 0, 0.0);
        server.watchdog(&mut in_flight, 43.5);
        let stalled = StreamPhase::Evicted(EvictReason::Stalled {
            frame: 0,
            waited_ms: 40.5,
            budget_ms: 40.0,
        });
        assert_eq!(server.streams[0].sched.phase, stalled);
        assert_eq!(in_flight, 1, "the evicted frame's slot is freed");
        assert_eq!(
            server.streams[1].sched.phase,
            StreamPhase::Running,
            "no deadline: never watchdogged"
        );
        // The zombie's completion stops at the generation fence.
        server.handle_msg(zombie, &mut in_flight, 50.0);
        assert!(server.streams[0].sched.outputs.is_empty());
        assert_eq!(in_flight, 1);

        // A serial pool ran the frame inline: the same budget, checked on
        // the late completion, converges on the same report.
        let mut server = scripted(SchedulePolicy::OldestFirst, &[Some(10.0)], 4, 0.0);
        let mut in_flight = 0;
        start_frame(&mut server, 0, 3.0, &mut in_flight);
        server.handle_msg(done(&server, 0, 0, 40.0), &mut in_flight, 43.0);
        assert_eq!(
            server.streams[0].sched.outputs.len(),
            1,
            "latency = budget: kept"
        );
        start_frame(&mut server, 0, 43.0, &mut in_flight);
        server.handle_msg(done(&server, 0, 1, 40.5), &mut in_flight, 83.5);
        let stalled = StreamPhase::Evicted(EvictReason::Stalled {
            frame: 1,
            waited_ms: 40.5,
            budget_ms: 40.0,
        });
        assert_eq!(server.streams[0].sched.phase, stalled);
        assert_eq!(in_flight, 0);
    }

    #[test]
    fn edf_serves_the_earliest_due_frame_first() {
        let periods = [
            Some(30.0),
            None,
            Some(10.0),
            Some(10.0),
            Some(f64::INFINITY),
        ];
        let mut server = scripted(SchedulePolicy::Deadline, &periods, 4, 0.0);
        let mut in_flight = 0;
        let mut order = Vec::new();
        while let Some(k) = server.pick() {
            order.push(k);
            start_frame(&mut server, k, 0.0, &mut in_flight);
        }
        // Dues 10, 10 (tie: registration order), 30, never (still a
        // deadline stream), then the deadline-less stream.
        assert_eq!(order, vec![2, 3, 0, 4, 1]);
        // Frame 1 of stream 2 (due 20) now precedes frame 0 of stream 0
        // (due 30).
        server.streams[0].sched.cursor = 0;
        server.streams[0].sched.in_flight_frames = 0;
        server.streams[2].sched.in_flight_frames = 0;
        assert_eq!(server.pick(), Some(2));
    }

    #[test]
    fn aggregate_lateness_sums_running_streams_past_due() {
        let periods = [Some(10.0), Some(4.0), None, Some(10.0)];
        let mut server = scripted(SchedulePolicy::OldestFirst, &periods, 4, 0.0);
        // Stream 1 delivered two frames (one produced, one shed): its next
        // frame is due at 12. Stream 3 completed: it no longer counts.
        server.streams[1].sched.outputs.push((0, 0));
        server.streams[1].sched.dropped.push(1);
        server.streams[3].sched.phase = StreamPhase::Completed;
        assert_eq!(server.aggregate_lateness_ms(10.0), 0.0, "at due: not late");
        assert_eq!(server.aggregate_lateness_ms(25.0), 15.0 + 13.0);
        // Brownout steps only above its threshold, lowest priority first.
        server.brownout_ms = Some(28.0);
        server.brownout_shed(25.0);
        assert_eq!(server.streams[0].sched.brownout_steps, 0, "at threshold");
        server.brownout_ms = Some(27.5);
        server.brownout_shed(25.0);
        assert_eq!(server.streams[0].sched.brownout_steps, 1);
        assert_eq!(server.streams[0].sched.rung, 1);
    }

    /// An infinite period (or one whose dues overflow to infinity) is
    /// never due: the stream completes with no miss, drop or eviction,
    /// and EDF ranks it without converting the due to a clock type.
    #[test]
    fn streams_that_are_never_due_complete_under_edf() {
        let never_due: [fn(StreamSpec<usize>) -> StreamSpec<usize>; 3] = [
            |s| s.with_deadline_ms(f64::INFINITY),
            |s| s.with_deadline_ms(1e25),
            |s| s.with_target_fps(1e-30),
        ];
        for (i, set_period) in never_due.iter().enumerate() {
            for threads in [1usize, 2] {
                let mut server =
                    Server::new(shared_scene(), threads).with_policy(SchedulePolicy::Deadline);
                let cfg = SequenceConfig::new(
                    CameraPath::orbit(server.shared().scene().center, 2.0, 1.0, 0.05),
                    3,
                    32,
                    24,
                );
                let spec = StreamSpec::new("never-due", cfg, |f| f.index).with_frame_dropping();
                server.add_stream(set_period(spec));
                let report = server.run();
                let s = &report.streams[0];
                assert_eq!(
                    s.phase,
                    StreamPhase::Completed,
                    "case {i}, threads {threads}"
                );
                assert_eq!(s.frames, vec![0, 1, 2], "case {i}, threads {threads}");
                assert_eq!(s.deadline_misses, 0, "case {i}, threads {threads}");
                assert_eq!(s.frames_dropped, 0, "case {i}, threads {threads}");
            }
        }
    }

    // ---- cross-stream batched preprocessing ----

    /// FNV-1a digest of everything frame-bit-relevant in a frame input:
    /// the emitted splat stream and the preprocessing counters. `cull`
    /// is deliberately excluded — a batched round's culling work accrues
    /// to the leader's cull state, which is the one counter batching is
    /// allowed to move.
    fn splat_digest(f: &FrameInput<'_>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in format!("{}|{:?}|{:?}", f.index, f.splats, f.preprocess).into_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        h
    }

    /// Axis-aligned −z flythrough: the camera basis is bit-identical
    /// across frames and across power-of-two x/y eye offsets, so every
    /// such stream is provably a pure translation of every other.
    fn translated_flythrough(
        shared: &SharedScene,
        dx: f32,
        dy: f32,
        frames: usize,
    ) -> SequenceConfig {
        let c = shared.scene().center;
        let start = Vec3::new(c.x + dx, c.y + dy, c.z + 6.0);
        SequenceConfig::new(
            CameraPath::flythrough(start, start + Vec3::new(0.0, 0.0, -8.0), 0.25, 0.01),
            frames,
            64,
            48,
        )
        .with_index()
    }

    fn digest_spec(name: &str, cfg: SequenceConfig) -> StreamSpec<u64> {
        StreamSpec::new(name, cfg, |f| splat_digest(&f))
    }

    /// A fleet of translation-bound flythrough streams batches, and every
    /// stream's frames stay bit-exact with the same server run unbatched
    /// — on serial and threaded pools.
    #[test]
    fn translation_fleet_batches_and_stays_bit_exact() {
        const FRAMES: usize = 4;
        let offsets = [(0.0, 0.0), (0.5, 0.0), (0.0, 0.25), (0.5, 0.25)];
        let run = |batching: bool, threads: usize| {
            let shared = shared_scene();
            let mut server = Server::new(shared, threads);
            if batching {
                server = server.with_batching();
            }
            for (k, &(dx, dy)) in offsets.iter().enumerate() {
                let cfg = translated_flythrough(server.shared(), dx, dy, FRAMES);
                server.add_stream(digest_spec(&format!("s{k}"), cfg));
            }
            server.run()
        };
        let solo = run(false, 2);
        assert_eq!(solo.batch, BatchStats::default(), "batching is opt-in");
        assert!(solo.streams.iter().all(|s| s.frames_batched == 0));
        for threads in [1usize, 4] {
            let batched = run(true, threads);
            for (b, s) in batched.streams.iter().zip(&solo.streams) {
                assert_eq!(b.phase, StreamPhase::Completed, "{}", b.name);
                assert_eq!(b.frames, s.frames, "{} bit-parity", b.name);
                assert_eq!(b.produced, s.produced, "{}", b.name);
            }
            let stats = &batched.batch;
            assert_eq!(stats.dispatched_frames(), offsets.len() * FRAMES);
            assert!(
                stats.batched_frames > 0,
                "fleet must actually batch: {stats:?}"
            );
            assert_eq!(
                stats
                    .occupancy
                    .iter()
                    .enumerate()
                    .map(|(i, n)| (i + 1) * n)
                    .sum::<usize>(),
                stats.dispatched_frames(),
                "occupancy histogram accounts every dispatched frame"
            );
            let per_stream: usize = batched.streams.iter().map(|s| s.frames_batched).sum();
            assert_eq!(per_stream, stats.batched_frames);
        }
    }

    /// A lone stereo stream self-pairs: both eyes of every pair ride one
    /// round (occupancy 2 on 100% of eligible frames) and stay bit-exact
    /// with the unbatched run.
    #[test]
    fn stereo_stream_self_pairs_every_frame() {
        const FRAMES: usize = 6; // three eye pairs
        let run = |batching: bool| {
            let shared = shared_scene();
            let mut server = Server::new(shared, 2);
            if batching {
                server = server.with_batching();
            }
            let c = server.shared().scene().center;
            let start = Vec3::new(c.x, c.y, c.z + 6.0);
            let cfg = SequenceConfig::new(
                CameraPath::flythrough(start, start + Vec3::new(0.0, 0.0, -8.0), 0.25, 0.01)
                    .stereo(0.065),
                FRAMES,
                64,
                48,
            )
            .with_index();
            server.add_stream(digest_spec("hmd", cfg));
            server.run()
        };
        let solo = run(false);
        let batched = run(true);
        assert_eq!(batched.streams[0].phase, StreamPhase::Completed);
        assert_eq!(batched.streams[0].frames, solo.streams[0].frames);
        let stats = &batched.batch;
        assert_eq!(stats.rounds, FRAMES / 2, "one round per eye pair");
        assert_eq!(stats.batched_rounds, stats.rounds, "100% pair occupancy");
        assert_eq!(stats.occupancy, vec![0, FRAMES / 2]);
        assert_eq!(stats.solo_frames, 0);
        assert_eq!(batched.streams[0].frames_batched, FRAMES);
        assert!(stats.fallback_ratio().abs() < 1e-12);
        assert!((stats.mean_occupancy() - 2.0).abs() < 1e-12);
    }

    /// Rotation-distinct orbit streams can never prove membership: every
    /// frame demonstrably falls back to the exact solo path — full
    /// per-stream session cull accounting, identical records.
    #[test]
    fn unprovable_deltas_fall_back_to_the_solo_path() {
        const FRAMES: usize = 3;
        let run = |batching: bool| {
            let shared = shared_scene();
            let mut server = Server::new(shared, 2);
            if batching {
                server = server.with_batching();
            }
            for k in 0..3 {
                let cfg = orbit_cfg(server.shared(), k as f32 * 0.2, FRAMES);
                server.add_stream(StreamSpec::vrpipe(
                    format!("s{k}"),
                    cfg,
                    GpuConfig::default(),
                    PipelineVariant::HetQm,
                ));
            }
            server.run()
        };
        let solo = run(false);
        let batched = run(true);
        let stats = &batched.batch;
        assert_eq!(stats.batched_frames, 0, "orbits must not batch: {stats:?}");
        assert_eq!(stats.solo_frames, 3 * FRAMES);
        assert_eq!(stats.occupancy, vec![3 * FRAMES]);
        assert!((stats.fallback_ratio() - 1.0).abs() < 1e-12);
        for (b, s) in batched.streams.iter().zip(&solo.streams) {
            assert_eq!(b.frames_batched, 0, "{}", b.name);
            assert_eq!(b.cull, s.cull, "{}", b.name);
            assert_eq!(b.cull.frames as usize, FRAMES, "{}", b.name);
        }
    }
}
