//! Deterministic fault injection for the serve scheduler's chaos suite.
//!
//! A [`FaultPlan`] is a *seeded, per-stream schedule* of faults; each
//! stream's slice of the plan becomes a [`FaultInjector`] attached to its
//! [`StreamSpec`](crate::serve::StreamSpec). The injector sits at the
//! **backend seam**: the frame task consults it once per render attempt,
//! *before* invoking the real backend, so an injected fault never mutates
//! the stream's session state — which is what lets the chaos tests prove
//! that a fault on stream A cannot perturb stream B's bits (nothing
//! outside A's own state machine is ever touched).
//!
//! The four fault kinds map onto the failure modes a long-lived server
//! must survive:
//!
//! * [`FaultKind::Error`] — a *persistent* backend error: every attempt
//!   (including all three retries) fails, so the stream exhausts its
//!   retries and is marked `Failed` with the full retry count.
//! * [`FaultKind::Transient`]`(n)` — the first `n` attempts fail, then
//!   the real render succeeds: recovered iff `n <= 3`.
//! * [`FaultKind::Stall`]`(ms)` — the frame sleeps `ms` before rendering:
//!   watchdog-eviction territory when `ms` exceeds the stream's stall
//!   budget.
//! * [`FaultKind::Panic`] — the backend panics; caught at the task
//!   boundary and reported as a per-stream fault (the pool survives).
//! * [`FaultKind::Load`]`(ms)` — sustained work inflation: the frame
//!   sleeps `ms` *scaled by the rung's render-cost factor* before every
//!   attempt, modelling a backend that is genuinely `ms` slower at full
//!   quality. Unlike `Stall` it fires on every attempt, and degrading to a
//!   cheaper quality-ladder rung proportionally shrinks the injected
//!   latency — the seam the brownout chaos tests drive.
//!
//! Everything is deterministic: an injector is a pure function of
//! `(frame, attempt)`, and [`FaultPlan::seeded`] derives its schedule
//! from a seed with a SplitMix64 stream — the same seed always yields the
//! same chaos, so a failing chaos run is replayable bit for bit.

use std::time::Duration;

use crate::pipeline::DrawError;

/// One injectable fault kind (see the module docs for semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Persistent backend error: every attempt of the frame fails with a
    /// transient-classified [`DrawError::Backend`], so retry logic runs
    /// to exhaustion before the stream is marked failed.
    Error,
    /// The backend panics on the frame's first attempt.
    Panic,
    /// The frame sleeps this many milliseconds before rendering normally.
    Stall(u64),
    /// The first `n` attempts fail with a transient error, then the real
    /// render runs — recovered by `n` retries.
    Transient(u32),
    /// Sustained overload: every attempt of the frame sleeps `ms`
    /// milliseconds *at full quality*, scaled down by the cost factor of
    /// the quality-ladder rung the frame renders at (see
    /// [`FaultInjector::intercept_scaled`]).
    Load(u64),
}

/// What the frame task must do for one `(frame, attempt)`, resolved by
/// [`FaultInjector::intercept_scaled`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Return this error instead of rendering.
    Fail(DrawError),
    /// Panic with this message (caught at the task boundary).
    Panic(String),
    /// Sleep this long, then render normally.
    Sleep(Duration),
}

/// One planned fault: which stream, which frame, what kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedFault {
    /// Stream index the fault targets (registration order).
    pub stream: usize,
    /// Frame index the fault fires on.
    pub frame: usize,
    /// The fault kind.
    pub kind: FaultKind,
}

/// A deterministic per-stream fault schedule. Build one explicitly with
/// [`FaultPlan::new`] + [`FaultPlan::with_fault`], or derive a random —
/// but fully seed-determined — schedule with [`FaultPlan::seeded`]; then
/// hand each stream its slice via [`FaultPlan::injector`].
///
/// # Examples
///
/// ```
/// use vrpipe::serve::faults::{FaultKind, FaultPlan};
/// let plan = FaultPlan::new()
///     .with_fault(0, 2, FaultKind::Transient(1))
///     .with_fault(3, 1, FaultKind::Panic);
/// assert!(plan.injector(0).intercept_scaled(2, 0, 1.0).is_some());
/// assert!(plan.injector(0).intercept_scaled(2, 1, 1.0).is_none()); // recovered
/// assert!(plan.injector(1).intercept_scaled(2, 0, 1.0).is_none()); // other streams untouched
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<PlannedFault>,
}

/// SplitMix64 step — the repo's standard seeded stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// An empty plan (no faults anywhere).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one fault to the schedule.
    pub fn with_fault(mut self, stream: usize, frame: usize, kind: FaultKind) -> Self {
        self.faults.push(PlannedFault {
            stream,
            frame,
            kind,
        });
        self
    }

    /// A seed-determined random schedule over `streams` streams of
    /// `frames` frames each: roughly half the streams get one fault at a
    /// random frame, with the kind (and stall length / transient depth)
    /// drawn from the same seeded stream. Identical seeds yield identical
    /// plans — chaos runs are replayable.
    pub fn seeded(seed: u64, streams: usize, frames: usize) -> Self {
        let mut plan = Self::new();
        if frames == 0 {
            return plan;
        }
        let mut state = seed | 1;
        for stream in 0..streams {
            let draw = splitmix(&mut state);
            if draw & 1 == 0 {
                continue; // this stream stays healthy
            }
            let frame = (splitmix(&mut state) % frames as u64) as usize;
            let kind = match splitmix(&mut state) % 4 {
                0 => FaultKind::Error,
                1 => FaultKind::Panic,
                2 => FaultKind::Stall(20 + (splitmix(&mut state) % 40)),
                _ => FaultKind::Transient(1 + (splitmix(&mut state) % 3) as u32),
            };
            plan = plan.with_fault(stream, frame, kind);
        }
        plan
    }

    /// Every planned fault, in insertion order.
    pub fn faults(&self) -> &[PlannedFault] {
        &self.faults
    }

    /// The planned faults targeting `stream`.
    pub fn faults_for(&self, stream: usize) -> impl Iterator<Item = &PlannedFault> {
        self.faults.iter().filter(move |f| f.stream == stream)
    }

    /// The injector carrying `stream`'s slice of the plan.
    pub fn injector(&self, stream: usize) -> FaultInjector {
        FaultInjector {
            schedule: self.faults_for(stream).map(|f| (f.frame, f.kind)).collect(),
        }
    }
}

/// One stream's fault schedule, consulted by the frame task once per
/// render attempt. Stateless — [`FaultInjector::intercept_scaled`] is a
/// pure function of `(frame, attempt, cost scale)`, so a rewound rerun replays exactly the
/// same faults (deterministic chaos, deterministic recovery).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultInjector {
    /// `(frame, kind)` pairs, first match wins.
    schedule: Vec<(usize, FaultKind)>,
}

impl FaultInjector {
    /// An injector that never fires (the default for healthy streams).
    pub fn none() -> Self {
        Self::default()
    }

    /// An injector with a single fault at `frame`.
    pub fn at(frame: usize, kind: FaultKind) -> Self {
        Self {
            schedule: vec![(frame, kind)],
        }
    }

    /// `true` when no fault is scheduled.
    pub fn is_empty(&self) -> bool {
        self.schedule.is_empty()
    }

    /// What attempt `attempt` of frame `frame` must do instead of (or
    /// before) the real render; `None` = render normally. `cost_scale` is
    /// the frame's render-cost scale in `(0, 1]` (1 = full quality): a
    /// [`FaultKind::Load`] sleep is multiplied by it, so a frame
    /// rendered at a cheaper quality-ladder rung genuinely absorbs less of
    /// the injected overload. All other fault kinds ignore the scale.
    /// Still a pure function of its arguments — seeded chaos runs replay
    /// bit for bit.
    pub fn intercept_scaled(
        &self,
        frame: usize,
        attempt: u32,
        cost_scale: f64,
    ) -> Option<FaultAction> {
        let (_, kind) = self.schedule.iter().find(|(f, _)| *f == frame)?;
        match *kind {
            FaultKind::Load(ms) => {
                let scaled = (ms as f64 * cost_scale.clamp(0.0, 1.0)).round() as u64;
                Some(FaultAction::Sleep(Duration::from_millis(scaled)))
            }
            FaultKind::Error => Some(FaultAction::Fail(DrawError::backend(
                format!("injected persistent error at frame {frame} (attempt {attempt})"),
                true,
            ))),
            FaultKind::Panic if attempt == 0 => Some(FaultAction::Panic(format!(
                "injected panic at frame {frame} (expected under fault injection)"
            ))),
            FaultKind::Panic => None,
            FaultKind::Stall(ms) if attempt == 0 => {
                Some(FaultAction::Sleep(Duration::from_millis(ms)))
            }
            FaultKind::Stall(_) => None,
            FaultKind::Transient(n) if attempt < n => Some(FaultAction::Fail(DrawError::backend(
                format!("injected transient fault at frame {frame} (attempt {attempt} of {n})"),
                true,
            ))),
            FaultKind::Transient(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_bounded() {
        let a = FaultPlan::seeded(0xC0FFEE, 8, 6);
        let b = FaultPlan::seeded(0xC0FFEE, 8, 6);
        assert_eq!(a, b, "same seed must yield the same plan");
        let c = FaultPlan::seeded(0xBEEF, 8, 6);
        assert_ne!(a, c, "different seeds should differ (overwhelmingly)");
        for f in a.faults() {
            assert!(f.stream < 8);
            assert!(f.frame < 6);
        }
        assert!(FaultPlan::seeded(1, 4, 0).faults().is_empty());
    }

    #[test]
    fn transient_faults_clear_after_n_attempts() {
        let inj = FaultInjector::at(3, FaultKind::Transient(2));
        assert!(
            matches!(inj.intercept_scaled(3, 0, 1.0), Some(FaultAction::Fail(e)) if e.is_transient())
        );
        assert!(matches!(
            inj.intercept_scaled(3, 1, 1.0),
            Some(FaultAction::Fail(_))
        ));
        assert_eq!(inj.intercept_scaled(3, 2, 1.0), None);
        assert_eq!(
            inj.intercept_scaled(2, 0, 1.0),
            None,
            "other frames unaffected"
        );
    }

    #[test]
    fn persistent_errors_never_clear() {
        let inj = FaultInjector::at(1, FaultKind::Error);
        for attempt in 0..16 {
            assert!(
                matches!(
                    inj.intercept_scaled(1, attempt, 1.0),
                    Some(FaultAction::Fail(_))
                ),
                "attempt {attempt}"
            );
        }
    }

    #[test]
    fn panic_and_stall_fire_once() {
        let p = FaultInjector::at(0, FaultKind::Panic);
        assert!(matches!(
            p.intercept_scaled(0, 0, 1.0),
            Some(FaultAction::Panic(_))
        ));
        assert_eq!(p.intercept_scaled(0, 1, 1.0), None);
        let s = FaultInjector::at(2, FaultKind::Stall(30));
        assert_eq!(
            s.intercept_scaled(2, 0, 1.0),
            Some(FaultAction::Sleep(Duration::from_millis(30)))
        );
        assert_eq!(s.intercept_scaled(2, 1, 1.0), None);
    }

    #[test]
    fn load_fires_every_attempt_and_scales_with_rung_cost() {
        let inj = FaultInjector::at(1, FaultKind::Load(100));
        for attempt in 0..4 {
            assert_eq!(
                inj.intercept_scaled(1, attempt, 1.0),
                Some(FaultAction::Sleep(Duration::from_millis(100))),
                "load is sustained across attempts (attempt {attempt})"
            );
        }
        assert_eq!(
            inj.intercept_scaled(1, 0, 0.25),
            Some(FaultAction::Sleep(Duration::from_millis(25))),
            "quarter-cost rung absorbs a quarter of the overload"
        );
        // Out-of-range scales clamp instead of amplifying.
        assert_eq!(
            inj.intercept_scaled(1, 0, 7.0),
            Some(FaultAction::Sleep(Duration::from_millis(100)))
        );
        assert_eq!(
            inj.intercept_scaled(0, 0, 1.0),
            None,
            "other frames unaffected"
        );
    }

    #[test]
    fn stall_ignores_cost_scale() {
        let inj = FaultInjector::at(2, FaultKind::Stall(40));
        assert_eq!(
            inj.intercept_scaled(2, 0, 0.25),
            Some(FaultAction::Sleep(Duration::from_millis(40)))
        );
    }
}
