//! Zero-dependency fork-join primitives for the parallel render paths.
//!
//! A frame forks through one primitive, [`with_crew`]: it keeps helper
//! threads for the length of one call while the calling thread posts
//! batches of claims to them one at a time. The simulated draw's spine
//! posts each closed round of tile shards and runs ahead;
//! [`for_each_claimed`] posts one slice of items as a single batch and
//! takes it back (the software renderers' bands, binning and the
//! preprocess fan-out). `with_crew`'s `std::thread::scope` is the only
//! scoped spawn here, so the workspace stays buildable offline.
//! [`WorkerPool`] is the other thread owner: it runs whole frame tasks of
//! many streams.
//!
//! Everything here is *deterministic by construction* for the ways the
//! renderers use it:
//!
//! * A [`Crew`] runs every claim of a posted batch exactly once, and
//!   [`Crew::take`] returns only after all of them have finished, so
//!   batches never overlap: whatever one batch's claims write, the next
//!   batch's claims see complete.
//! * [`for_each_claimed`] hands every item to exactly one thread as a
//!   disjoint `&mut`. Items own disjoint data (a tile, a row band, a
//!   chunk's output), so which thread claims an item — which varies from
//!   run to run — never reaches a result.
//! * [`BinScratch::build`] merges per-chunk partial bins **in chunk
//!   order**, so every bin's item list preserves the input order exactly
//!   (the stable front-to-back blend order the renderers rely on).

use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};

/// Number of worker threads for a request of `requested` (`0` = the host
/// default), clamped to `work` items so tiny draws stay serial.
///
/// The host default is one worker per available CPU, overridable with the
/// `VRPIPE_HOST_THREADS` environment variable (read once per process) —
/// CI runs the test suite under `VRPIPE_HOST_THREADS=1` and `=4` to pin
/// both sides of the determinism contract on any runner. Like the
/// `threads` config knobs this is a *host* setting: it can never change
/// rendered results, only wall time.
fn effective_threads(requested: usize, work: usize) -> usize {
    let t = if requested == 0 {
        default_host_threads()
    } else {
        requested
    };
    t.clamp(1, work.max(1))
}

/// The process-wide default worker count (`VRPIPE_HOST_THREADS` override,
/// else one per available CPU), cached after the first read.
fn default_host_threads() -> usize {
    static CACHE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var("VRPIPE_HOST_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Work-distribution policy threaded down from the renderer configs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPolicy {
    /// Worker threads (`0` = one per available CPU).
    pub threads: usize,
}

impl ThreadPolicy {
    /// A serial policy (used as the reference in determinism tests).
    pub fn serial() -> Self {
        Self { threads: 1 }
    }

    /// Workers this policy yields for `work` items.
    pub fn workers(&self, work: usize) -> usize {
        effective_threads(self.threads, work)
    }
}

/// Runs `job(item, i)` once for every item `i` of `items`, on up to
/// `workers` host threads: the calling thread and a [`with_crew`] crew of
/// `workers.min(items.len()) - 1` helpers, which claim the items as one
/// batch. Every fan-out of the software renderers, binning and
/// preprocessing goes through it.
///
/// * **Claims.** Each thread takes the next unclaimed item as it
///   finishes one; which thread runs which item varies from run to run.
///   Results stay deterministic when items own disjoint data.
/// * **Inline run.** With one worker (or `0`), or at most one item, every
///   item runs on the calling thread in index order: no fork, no
///   allocation.
/// * **Panics.** A panic in `job` reaches the caller with its own payload,
///   whichever thread ran the item.
///
/// # Examples
///
/// ```
/// use gsplat::par::for_each_claimed;
/// let mut squares = vec![0usize; 10];
/// for_each_claimed(3, &mut squares, |sq, i| *sq = i * i);
/// assert_eq!(squares[9], 81);
/// ```
pub fn for_each_claimed<T: Send>(
    workers: usize,
    items: &mut [T],
    job: impl Fn(&mut T, usize) + Sync,
) {
    let n = items.len();
    let helpers = workers.min(n).saturating_sub(1);
    if helpers == 0 {
        for (i, item) in items.iter_mut().enumerate() {
            job(item, i);
        }
        return;
    }
    with_crew(
        helpers,
        |slots: &Bands<'_, T>, i| job(&mut slots.take(i)[0], i),
        |crew| {
            crew.post(Bands::new(items, 1), n);
            crew.take();
        },
    );
}

/// Polls of the post counter a helper makes before it sleeps, yielding
/// its CPU between polls (so a helper never holds a CPU the calling
/// thread waits for): about as long as the calling thread takes to
/// record and post its next batch, so a steady stream of batches reaches
/// the helpers without a wake-up call.
const CREW_POLLS: u32 = 1 << 10;

/// What the threads of one [`with_crew`] call share.
struct CrewShared<W> {
    /// The posted batch. Helpers hold a read guard while they run its
    /// claims, so the lead's write guard in [`Crew::take`] waits out the
    /// claims still running.
    posted: RwLock<Option<W>>,
    /// Claims of the posted batch (0 when none is posted). Written only
    /// under `posted`'s write guard and read under a read guard (or by
    /// the lead, its writer), so the lock orders it: `Relaxed`.
    claims: AtomicUsize,
    /// The next unclaimed claim of the posted batch; ordered like
    /// `claims`.
    next: AtomicUsize,
    /// Claims of the posted batch that have finished: a claim's
    /// `Release` increment pairs with the `Acquire` load in
    /// [`Crew::idle`]. (The batch's data itself is handed back under
    /// `posted`'s write guard in [`Crew::take`].)
    finished: AtomicUsize,
    /// Posts so far: a helper waits for it to move.
    posts: AtomicU64,
    /// Set once, when the lead leaves: helpers exit.
    dismissed: AtomicBool,
    /// Helpers asleep on `wake` (under `sleep`); a post wakes them only
    /// when there are any. `posts`, `dismissed` and `sleepers` are
    /// `SeqCst`: a helper raises `sleepers` before its last look at
    /// `posts`, a post raises `posts` before it looks at `sleepers`, so
    /// one of the two always sees the other and no wake-up is lost.
    sleepers: AtomicUsize,
    sleep: Mutex<()>,
    wake: Condvar,
    /// The payload of the first helper claim that panicked.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// The calling thread's handle on the helpers of a [`with_crew`] call: it
/// posts one batch of claims at a time, may run claims itself, and takes
/// the batch back once every claim has run.
pub struct Crew<'a, W> {
    shared: &'a CrewShared<W>,
    job: &'a (dyn Fn(&W, usize) + Sync),
    helpers: usize,
}

impl<W> Crew<'_, W> {
    /// Helper threads beside the calling thread (0: the caller runs every
    /// claim itself).
    pub fn helpers(&self) -> usize {
        self.helpers
    }

    /// Posts `work` with `claims` claims (`0..claims`). Helpers start on
    /// them at once; the caller goes on with its own work, may run claims
    /// with [`Crew::help`], and collects the batch with [`Crew::take`].
    ///
    /// # Panics
    ///
    /// Panics when a batch is already posted and not yet taken.
    pub fn post(&self, work: W, claims: usize) {
        let shared = self.shared;
        let mut posted = shared
            .posted
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        assert!(posted.is_none(), "a crew holds one batch at a time");
        // No helper holds the batch here, so each one that claims from
        // it sees these counters.
        shared.next.store(0, Ordering::Relaxed);
        shared.finished.store(0, Ordering::Relaxed);
        shared.claims.store(claims, Ordering::Relaxed);
        *posted = Some(work);
        drop(posted);
        if self.helpers > 0 {
            shared.posts.fetch_add(1, Ordering::SeqCst);
            if shared.sleepers.load(Ordering::SeqCst) > 0 {
                // Taking the lock orders this wake-up after the sleeper's
                // last look at `posts`.
                drop(shared.sleep.lock().unwrap_or_else(PoisonError::into_inner));
                shared.wake.notify_all();
            }
        }
    }

    /// Runs one unclaimed claim of the posted batch on the calling
    /// thread; `false` when none is left.
    pub fn help(&self) -> bool {
        let shared = self.shared;
        let posted = shared.posted.read().unwrap_or_else(PoisonError::into_inner);
        let Some(work) = posted.as_ref() else {
            return false;
        };
        let k = shared.next.fetch_add(1, Ordering::Relaxed);
        if k >= shared.claims.load(Ordering::Relaxed) {
            return false;
        }
        (self.job)(work, k);
        shared.finished.fetch_add(1, Ordering::Release);
        true
    }

    /// Whether every claim of the posted batch has finished (`true` when
    /// nothing is posted): [`Crew::take`] would not wait.
    pub fn idle(&self) -> bool {
        let shared = self.shared;
        shared.finished.load(Ordering::Acquire) >= shared.claims.load(Ordering::Relaxed)
    }

    /// Runs the posted batch's unclaimed claims on the calling thread,
    /// waits for the helpers' claims still running, and returns the batch
    /// (`None` when nothing is posted).
    ///
    /// # Panics
    ///
    /// Panics with the payload of a claim that panicked on a helper.
    pub fn take(&self) -> Option<W> {
        while self.help() {}
        let shared = self.shared;
        let work = shared
            .posted
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        shared.claims.store(0, Ordering::Relaxed);
        if let Some(payload) = shared
            .panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        {
            std::panic::resume_unwind(payload);
        }
        work
    }

    /// A helper thread's loop: wait for a post (polling, then asleep),
    /// then claim from the posted batch until none is left.
    fn serve(&self) {
        let shared = self.shared;
        let mut seen = 0;
        loop {
            let mut polls = 0;
            loop {
                let posts = shared.posts.load(Ordering::SeqCst);
                if posts != seen {
                    seen = posts;
                    break;
                }
                if shared.dismissed.load(Ordering::SeqCst) {
                    return;
                }
                if polls < CREW_POLLS {
                    polls += 1;
                    std::thread::yield_now();
                    continue;
                }
                let sleep = shared.sleep.lock().unwrap_or_else(PoisonError::into_inner);
                shared.sleepers.fetch_add(1, Ordering::SeqCst);
                let asleep = shared.posts.load(Ordering::SeqCst) == seen
                    && !shared.dismissed.load(Ordering::SeqCst);
                let sleep = if asleep {
                    shared
                        .wake
                        .wait(sleep)
                        .unwrap_or_else(PoisonError::into_inner)
                } else {
                    sleep
                };
                shared.sleepers.fetch_sub(1, Ordering::SeqCst);
                drop(sleep);
                polls = 0;
            }
            let posted = shared.posted.read().unwrap_or_else(PoisonError::into_inner);
            let Some(work) = posted.as_ref() else {
                continue;
            };
            loop {
                let k = shared.next.fetch_add(1, Ordering::Relaxed);
                if k >= shared.claims.load(Ordering::Relaxed) {
                    break;
                }
                let claim = std::panic::AssertUnwindSafe(|| (self.job)(work, k));
                if let Err(payload) = std::panic::catch_unwind(claim) {
                    shared
                        .panic
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .get_or_insert(payload);
                }
                shared.finished.fetch_add(1, Ordering::Release);
            }
        }
    }
}

/// Runs `lead` on the calling thread with a [`Crew`] of `helpers` threads
/// that live for the whole call and run `job(work, k)` for the claims of
/// each batch `lead` posts. Spawning once per call, not once per batch,
/// keeps a batch's hand-off to a few atomic operations while the helpers
/// are polling.
///
/// * **One batch at a time.** `lead` posts a batch with [`Crew::post`],
///   goes on with its own work while the helpers claim, may run claims
///   itself with [`Crew::help`], and collects the batch with
///   [`Crew::take`], which runs the unclaimed rest and waits for the
///   claims still running. A batch's claims all finish before the next
///   batch is posted.
/// * **No helpers.** With `helpers == 0` nothing is spawned: every claim
///   runs on the calling thread, in claim order, in [`Crew::help`] or
///   [`Crew::take`].
/// * **Panics.** A claim that panics on a helper re-raises on the calling
///   thread, with its own payload, at the next [`Crew::take`] (or when
///   `lead` returns). A panic in `lead` dismisses the helpers before it
///   leaves the call.
///
/// A batch `lead` returns without taking is taken when it returns, at
/// every helper count: each of its claims runs once, a helper's panic
/// re-raises, and the batch is dropped.
///
/// # Examples
///
/// ```
/// use gsplat::par::with_crew;
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// let sums = with_crew(
///     2,
///     |round: &Vec<AtomicUsize>, k| {
///         round[k].fetch_add(k, Ordering::Relaxed);
///     },
///     |crew| {
///         let mut sums = Vec::new();
///         for _ in 0..3 {
///             crew.post((0..4).map(|_| AtomicUsize::new(0)).collect(), 4);
///             // ... the calling thread's own work runs here ...
///             let round = crew.take().expect("posted");
///             sums.push(round.iter().map(|c| c.load(Ordering::Relaxed)).sum::<usize>());
///         }
///         sums
///     },
/// );
/// assert_eq!(sums, vec![6, 6, 6]);
/// ```
pub fn with_crew<W: Send + Sync, R>(
    helpers: usize,
    job: impl Fn(&W, usize) + Sync,
    lead: impl FnOnce(&Crew<'_, W>) -> R,
) -> R {
    let shared = CrewShared {
        posted: RwLock::new(None),
        claims: AtomicUsize::new(0),
        next: AtomicUsize::new(0),
        finished: AtomicUsize::new(0),
        posts: AtomicU64::new(0),
        dismissed: AtomicBool::new(false),
        sleepers: AtomicUsize::new(0),
        sleep: Mutex::new(()),
        wake: Condvar::new(),
        panic: Mutex::new(None),
    };
    let crew = Crew {
        shared: &shared,
        job: &job,
        helpers,
    };
    let run = |crew: &Crew<'_, W>| {
        let out = lead(crew);
        crew.take();
        out
    };
    if helpers == 0 {
        return run(&crew);
    }
    /// Dismisses the helpers however `lead` leaves, so the scope never
    /// waits on a sleeping helper.
    struct Dismiss<'a, W>(&'a CrewShared<W>);
    impl<W> Drop for Dismiss<'_, W> {
        fn drop(&mut self) {
            let shared = self.0;
            shared.dismissed.store(true, Ordering::SeqCst);
            drop(shared.sleep.lock().unwrap_or_else(PoisonError::into_inner));
            shared.wake.notify_all();
        }
    }
    // Helpers run claims only of a posted batch, and `run` takes the last
    // one, so every helper panic has re-raised by the time `run` returns.
    std::thread::scope(|s| {
        for _ in 0..helpers {
            s.spawn(|| crew.serve());
        }
        let _dismiss = Dismiss(&shared);
        run(&crew)
    })
}

/// Splits `n` work items into contiguous per-worker chunks (the fan-out
/// geometry of every projection sweep), pairing each `start..end` range
/// with the matching disjoint `&mut` window of `state`.
///
/// `state` carries per-item mutable context through the fan-out — e.g. the
/// per-Gaussian covariance cache of the indexed preprocess, where worker
/// `w` owns exactly the cache entries of its Gaussian range. `state` must
/// either have length `n` (windows align with the ranges) or be empty
/// (every window is empty — for sweeps with no per-item state).
///
/// The chunk geometry is identical to the projection fan-out in
/// `preprocess`: `ceil(n / workers)` items per chunk, in index order, so
/// chunk-order concatenation of worker outputs reproduces the serial
/// sweep's order exactly.
///
/// # Examples
///
/// ```
/// use gsplat::par::chunked_ranges_mut;
/// let mut state = vec![0u32; 10];
/// let parts = chunked_ranges_mut(10, 3, &mut state);
/// assert_eq!(parts.len(), 3);
/// assert_eq!(parts[0].0, 0..4);
/// assert_eq!(parts[2].0, 8..10);
/// assert_eq!(parts[2].1.len(), 2);
/// ```
///
/// # Panics
///
/// Panics when `state` is non-empty but shorter than `n`.
pub fn chunked_ranges_mut<S>(
    n: usize,
    workers: usize,
    state: &mut [S],
) -> Vec<(std::ops::Range<usize>, &mut [S])> {
    assert!(
        state.is_empty() || state.len() >= n,
        "state slice ({}) shorter than the work-item count ({n})",
        state.len()
    );
    let workers = workers.max(1);
    let chunk = n.div_ceil(workers).max(1);
    let mut parts = Vec::with_capacity(workers);
    let mut rest = state;
    let mut pos = 0;
    while pos < n {
        let end = (pos + chunk).min(n);
        let take = (end - pos).min(rest.len());
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(take);
        rest = tail;
        parts.push((pos..end, head));
        pos = end;
    }
    parts
}

/// Disjoint mutable windows over a buffer, claimable once each from any
/// thread: [`for_each_claimed`] hands out its items as one-element bands.
struct Bands<'a, T> {
    slots: Vec<Mutex<Option<&'a mut [T]>>>,
}

impl<'a, T> Bands<'a, T> {
    /// Splits `data` into bands of `band_len` elements (the last band may
    /// be shorter).
    ///
    /// # Panics
    ///
    /// Panics when `band_len` is zero.
    fn new(data: &'a mut [T], band_len: usize) -> Self {
        assert!(band_len > 0, "band length must be non-zero");
        Self {
            slots: data
                .chunks_mut(band_len)
                .map(|c| Mutex::new(Some(c)))
                .collect(),
        }
    }

    /// Claims band `i` (each band may be taken exactly once).
    ///
    /// # Panics
    ///
    /// Panics when the band was already taken.
    fn take(&self, i: usize) -> &'a mut [T] {
        self.slots[i]
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .take()
            // vrlint: allow(VL01, reason = "documented # Panics contract: each band is claimed exactly once")
            .expect("band taken twice")
    }
}

/// Reusable scratch for deterministic parallel binning: items are split
/// into one contiguous chunk per worker, each chunk is binned into its own
/// partial table, and partials are merged in chunk order so each bin's
/// item list preserves input order exactly.
#[derive(Debug, Default)]
pub struct BinScratch {
    /// Merged per-bin item lists (valid after [`BinScratch::build`]).
    bins: Vec<Vec<u32>>,
    /// Per-chunk partial tables, kept allocated across draws.
    partials: Vec<Vec<Vec<u32>>>,
}

impl BinScratch {
    /// Builds per-bin lists for `n_items` items over `n_bins` bins.
    /// `emit(i, push)` must call `push(bin)` for every bin item `i` falls
    /// into; it runs concurrently on worker threads.
    ///
    /// Returns the total number of (item, bin) pairs emitted.
    pub fn build<F>(&mut self, n_bins: usize, n_items: usize, policy: ThreadPolicy, emit: F) -> u64
    where
        F: Fn(u32, &mut dyn FnMut(u32)) + Sync,
    {
        self.bins.resize_with(n_bins, Vec::new);
        for bin in &mut self.bins {
            bin.clear();
        }

        let workers = policy.workers(n_items);
        if workers <= 1 {
            let mut total = 0u64;
            for i in 0..n_items as u32 {
                emit(i, &mut |bin| {
                    self.bins[bin as usize].push(i);
                    total += 1;
                });
            }
            return total;
        }

        // One partial per chunk, one chunk per worker.
        self.partials.resize_with(workers, Vec::new);
        let chunk = n_items.div_ceil(workers);
        for_each_claimed(workers, &mut self.partials, |partial, c| {
            partial.resize_with(n_bins, Vec::new);
            for bin in partial.iter_mut() {
                bin.clear();
            }
            let start = (c * chunk).min(n_items);
            let end = ((c + 1) * chunk).min(n_items);
            for i in start as u32..end as u32 {
                emit(i, &mut |bin| partial[bin as usize].push(i));
            }
        });

        // Chunk-order merge: bin lists end up in global input order.
        let mut total = 0u64;
        for bin in 0..n_bins {
            for partial in &mut self.partials {
                total += partial[bin].len() as u64;
                self.bins[bin].append(&mut partial[bin]);
            }
        }
        total
    }

    /// The merged bins from the last [`BinScratch::build`].
    pub fn bins(&self) -> &[Vec<u32>] {
        &self.bins
    }
}

/// A boxed run-to-completion task for the [`WorkerPool`].
type PoolTask = Box<dyn FnOnce() + Send + 'static>;

/// Best-effort human-readable rendering of a panic payload — the `&str`
/// and `String` payloads produced by `panic!`/`assert!` are extracted
/// verbatim; anything else (a custom `panic_any` value) gets a
/// placeholder. This is the seam that lets a submitter receive *what* a
/// task panicked with instead of just losing the payload to the pool's
/// isolation boundary (see [`WorkerPool::submit`]).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Shared queue state behind the pool's mutex.
#[derive(Default)]
struct PoolState {
    /// Pending tasks in submission (FIFO) order.
    tasks: VecDeque<PoolTask>,
    /// Set once, on drop: workers drain the queue and exit.
    shutdown: bool,
}

/// Queue + wakeups shared between the pool handle and its workers.
#[derive(Default)]
struct PoolQueue {
    state: Mutex<PoolState>,
    /// Signalled on task submission (workers wait here for work).
    ready: Condvar,
}

/// A persistent worker pool with a **run-to-completion** task queue: tasks
/// are picked up in FIFO submission order and each runs on one worker until
/// it returns — there is no preemption and no work splitting inside a task.
///
/// This is the host-thread budget for *multi-stream* workloads: where the
/// fork-join primitives above parallelise **within** one frame (and M
/// independent frame loops would oversubscribe the host M-fold), a
/// `WorkerPool` runs M streams' frame tasks over one fixed set of workers,
/// so the budget is shared instead of multiplied. Scheduling order can
/// never change results — a task owns all the state it touches for its
/// whole run (see `vrpipe::serve` for the bit-exactness argument).
///
/// # Sizing and `VRPIPE_HOST_THREADS`
///
/// Like the fork-join primitives, a request of `0` workers resolves to the
/// process-wide host default: one worker per available CPU, overridden by
/// the `VRPIPE_HOST_THREADS` environment variable (read once per process).
/// An explicit request is honoured as given, clamped below at 1. A
/// **one-worker pool spawns no threads at all**: [`WorkerPool::submit`]
/// runs the task inline on the calling thread, so the 1-thread degeneracy
/// (e.g. `VRPIPE_HOST_THREADS=1` in CI) is exactly a serial loop with zero
/// queue or wakeup overhead.
///
/// # Examples
///
/// ```
/// use gsplat::par::WorkerPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
/// let pool = WorkerPool::new(2);
/// assert_eq!(pool.workers(), 2);
/// let hits = Arc::new(AtomicUsize::new(0));
/// for _ in 0..8 {
///     let hits = Arc::clone(&hits);
///     pool.submit(move || {
///         hits.fetch_add(1, Ordering::SeqCst);
///     });
/// }
/// drop(pool); // drains the queue and joins the workers
/// assert_eq!(hits.load(Ordering::SeqCst), 8);
/// ```
pub struct WorkerPool {
    queue: Arc<PoolQueue>,
    handles: Vec<std::thread::JoinHandle<()>>,
    workers: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .field("serial", &self.is_serial())
            .finish()
    }
}

impl WorkerPool {
    /// A pool of `threads` workers (`0` = the host default, i.e. one per
    /// available CPU or the `VRPIPE_HOST_THREADS` override). A resolved
    /// size of 1 spawns no threads; tasks run inline on the submitter.
    pub fn new(threads: usize) -> Self {
        let workers = effective_threads(threads, usize::MAX);
        let queue = Arc::new(PoolQueue::default());
        let handles = if workers <= 1 {
            Vec::new()
        } else {
            (0..workers)
                .map(|_| {
                    let queue = Arc::clone(&queue);
                    std::thread::spawn(move || loop {
                        let task = {
                            let mut state = queue.state.lock().unwrap_or_else(|p| p.into_inner());
                            loop {
                                if let Some(task) = state.tasks.pop_front() {
                                    break task;
                                }
                                if state.shutdown {
                                    return;
                                }
                                state = queue.ready.wait(state).unwrap_or_else(|p| p.into_inner());
                            }
                        };
                        // A panicking task must not kill the worker (the
                        // pool would silently shrink and eventually hang
                        // its submitters) nor leak its in-flight slot. The
                        // default panic hook still reports the panic; any
                        // state the task poisoned surfaces to its owner on
                        // the next lock.
                        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
                    })
                })
                .collect()
        };
        Self {
            queue,
            handles,
            workers,
        }
    }

    /// Number of workers the pool resolves work onto (≥ 1; a serial pool
    /// reports 1 and is the calling thread itself).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// `true` when the pool runs tasks inline on the calling thread (one
    /// worker — no threads were spawned).
    pub fn is_serial(&self) -> bool {
        self.handles.is_empty()
    }

    /// Enqueues `task`. On a serial pool the task runs **inline, to
    /// completion, before `submit` returns**; otherwise it is appended to
    /// the FIFO queue and picked up by the next free worker.
    ///
    /// Panic isolation is uniform across pool sizes: a panicking task is
    /// caught (inline on a serial pool, at the worker boundary otherwise)
    /// and its payload dropped — the pool never shrinks and the submitter
    /// never unwinds. A submitter that needs the payload back catches it
    /// inside the task and reports it with [`panic_message`], as
    /// `vrpipe::serve` does.
    pub fn submit(&self, task: impl FnOnce() + Send + 'static) {
        if self.handles.is_empty() {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
            return;
        }
        let mut state = self.queue.state.lock().unwrap_or_else(|p| p.into_inner());
        state.tasks.push_back(Box::new(task));
        drop(state);
        self.queue.ready.notify_one();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.queue.state.lock().unwrap_or_else(|p| p.into_inner());
            state.shutdown = true;
        }
        self.queue.ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    fn policies() -> [ThreadPolicy; 3] {
        [
            ThreadPolicy::serial(),
            ThreadPolicy { threads: 3 },
            ThreadPolicy { threads: 0 },
        ]
    }

    /// Every item runs exactly once at 1–5 workers, for empty item lists
    /// and for fewer items than workers.
    #[test]
    fn every_item_runs_exactly_once() {
        for workers in 1..=5 {
            for n in [0usize, 1, 3, 37] {
                let mut hits = vec![0u32; n];
                for_each_claimed(workers, &mut hits, |h, i| *h += 1 + i as u32);
                let want: Vec<u32> = (1..=n as u32).collect();
                assert_eq!(hits, want, "workers={workers} n={n}");
            }
        }
    }

    /// Holds each thread's first item until `threads` threads have started
    /// one, so every thread takes part (gives up after five seconds, so a
    /// broken fork fails its test instead of hanging it).
    fn wait_for_all(started: &Mutex<Vec<std::thread::ThreadId>>, threads: usize) {
        let me = std::thread::current().id();
        let mut seen = started.lock().unwrap();
        if seen.contains(&me) {
            return;
        }
        seen.push(me);
        drop(seen);
        let t0 = std::time::Instant::now();
        while started.lock().unwrap().len() < threads && t0.elapsed().as_secs() < 5 {
            std::thread::yield_now();
        }
    }

    /// Items run on at most `min(workers, n)` distinct threads, the calling
    /// thread among them, and every thread of a full fork takes part.
    #[test]
    fn claims_run_on_at_most_min_workers_threads() {
        let caller = std::thread::current().id();
        for workers in 1..=4 {
            for n in [1usize, 2, 64] {
                let started = Mutex::new(Vec::new());
                let mut ran_on = vec![None; n];
                for_each_claimed(workers, &mut ran_on, |t, _| {
                    wait_for_all(&started, workers.min(n));
                    *t = Some(std::thread::current().id());
                });
                let mut threads: Vec<_> = ran_on.iter().map(|t| t.expect("ran")).collect();
                threads.sort_unstable_by_key(|t| format!("{t:?}"));
                threads.dedup();
                assert_eq!(threads.len(), workers.min(n), "workers={workers} n={n}");
                assert!(threads.contains(&caller), "workers={workers} n={n}");
            }
        }
    }

    /// One worker runs inline, on the calling thread, in index order.
    #[test]
    fn one_worker_runs_inline_in_index_order() {
        let caller = std::thread::current().id();
        let log = Mutex::new(Vec::new());
        for_each_claimed(1, &mut [(); 5], |_, i| {
            assert_eq!(std::thread::current().id(), caller);
            log.lock().unwrap().push(i);
        });
        assert_eq!(log.into_inner().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    /// A fork of 3 inside a task of a 2-worker pool (a served backend with
    /// `threads > 1`) covers every item; four tasks keep both pool workers
    /// forking.
    #[test]
    fn a_fork_inside_a_pool_task_covers_every_item() {
        let pool = WorkerPool::new(2);
        let results = Arc::new(Mutex::new(Vec::new()));
        for task in 0..4u32 {
            let results = Arc::clone(&results);
            pool.submit(move || {
                let mut hits = vec![0u32; 40];
                for_each_claimed(3, &mut hits, |h, i| *h += task * 100 + i as u32);
                results.lock().unwrap().push((task, hits));
            });
        }
        drop(pool);
        let mut results = results.lock().unwrap().clone();
        results.sort();
        assert_eq!(results.len(), 4);
        for (task, hits) in results {
            let want: Vec<u32> = (0..40).map(|i| task * 100 + i).collect();
            assert_eq!(hits, want, "task {task}");
        }
    }

    /// A job's panic reaches the caller with its own message, not as a
    /// generic "a scoped thread panicked", whether the calling thread or a
    /// helper ran the panicking item.
    #[test]
    fn a_job_panic_keeps_its_payload() {
        let caller = std::thread::current().id();
        for workers in 1..=3 {
            for on_helper in [false, true] {
                if on_helper && workers == 1 {
                    continue;
                }
                let started = Mutex::new(Vec::new());
                let caught = std::panic::catch_unwind(|| {
                    for_each_claimed(workers, &mut [(); 8], |_, _| {
                        wait_for_all(&started, workers);
                        if (std::thread::current().id() != caller) == on_helper {
                            panic!("claim failed, on_helper={on_helper} (expected in this test)");
                        }
                    });
                });
                let payload = caught.expect_err("the job panicked");
                assert_eq!(
                    panic_message(payload.as_ref()),
                    format!("claim failed, on_helper={on_helper} (expected in this test)"),
                    "workers={workers}"
                );
            }
        }
    }

    /// Every claim of every batch runs exactly once, for empty batches and
    /// for fewer claims than threads, and a taken batch holds every
    /// claim's effect.
    #[test]
    fn crew_runs_every_claim_of_every_batch_once() {
        for helpers in 0..=3 {
            let rounds = with_crew(
                helpers,
                |hits: &Vec<AtomicUsize>, k| {
                    hits[k].fetch_add(1, Ordering::Relaxed);
                },
                |crew| {
                    assert_eq!(crew.helpers(), helpers);
                    assert!(crew.take().is_none(), "nothing posted yet");
                    let mut rounds: Vec<Vec<usize>> = Vec::new();
                    for n in [0usize, 1, 3, 37, 5, 0, 64] {
                        crew.post((0..n).map(|_| AtomicUsize::new(0)).collect(), n);
                        let hits = crew.take().expect("posted");
                        rounds.push(hits.iter().map(|h| h.load(Ordering::Relaxed)).collect());
                    }
                    rounds
                },
            );
            for (round, n) in rounds.iter().zip([0usize, 1, 3, 37, 5, 0, 64]) {
                assert_eq!(round, &vec![1; n], "helpers={helpers}");
            }
        }
    }

    /// With no helpers every claim runs on the calling thread, in claim
    /// order, in `help` (one at a time) or `take` (the rest); `idle`
    /// holds once every posted claim has finished.
    #[test]
    fn crew_without_helpers_runs_claims_on_the_caller() {
        let caller = std::thread::current().id();
        let log = Mutex::new(Vec::new());
        with_crew(
            0,
            |_: &(), k| {
                assert_eq!(std::thread::current().id(), caller);
                log.lock().unwrap().push(k);
            },
            |crew| {
                assert!(crew.idle() && !crew.help(), "nothing posted");
                crew.post((), 4);
                assert!(log.lock().unwrap().is_empty(), "post runs nothing");
                assert!(!crew.idle());
                assert!(crew.help());
                assert_eq!(*log.lock().unwrap(), vec![0]);
                assert!(!crew.idle());
                assert!(crew.take().is_some());
                assert!(crew.idle() && !crew.help(), "taken");
            },
        );
        assert_eq!(log.into_inner().unwrap(), vec![0, 1, 2, 3]);
    }

    /// A batch `lead` returns without taking still runs every claim once,
    /// at every helper count.
    #[test]
    fn crew_finishes_an_untaken_batch() {
        for helpers in 0..=3 {
            let hits: Vec<AtomicUsize> = (0..37).map(|_| AtomicUsize::new(0)).collect();
            with_crew(
                helpers,
                |hits: &&[AtomicUsize], k| {
                    hits[k].fetch_add(1, Ordering::Relaxed);
                },
                |crew| crew.post(&hits[..], 37),
            );
            let hits: Vec<usize> = hits.iter().map(|h| h.load(Ordering::Relaxed)).collect();
            assert_eq!(hits, vec![1; 37], "helpers={helpers}");
        }
    }

    /// A claim that panics on a helper re-raises at the lead's `take` with
    /// its own payload; a panic in the lead dismisses the helpers instead
    /// of hanging the call.
    #[test]
    fn crew_panics_reach_the_caller() {
        let started = AtomicBool::new(false);
        let caught = std::panic::catch_unwind(|| {
            with_crew(
                1,
                |_: &(), _| {
                    started.store(true, Ordering::SeqCst);
                    panic!("helper claim failed (expected in this test)");
                },
                |crew| {
                    crew.post((), 1);
                    // Only the helper can start the claim before `take`.
                    while !started.load(Ordering::SeqCst) {
                        std::hint::spin_loop();
                    }
                    crew.take();
                    unreachable!("take re-raises the helper's panic");
                },
            )
        });
        let payload = caught.expect_err("the helper's claim panicked");
        assert_eq!(
            panic_message(payload.as_ref()),
            "helper claim failed (expected in this test)"
        );
        let caught = std::panic::catch_unwind(|| {
            with_crew(
                2,
                |_: &(), _| {},
                |crew| {
                    crew.post((), 8);
                    panic!("lead failed (expected in this test)");
                },
            )
        });
        assert_eq!(
            panic_message(caught.expect_err("the lead panicked").as_ref()),
            "lead failed (expected in this test)"
        );
    }

    #[test]
    fn bands_are_disjoint_and_complete() {
        let mut data = vec![0u32; 100];
        {
            let bands = Bands::new(&mut data, 16);
            let mut lens = vec![0usize; 7];
            for_each_claimed(4, &mut lens, |len, i| {
                let band = bands.take(i);
                for v in band.iter_mut() {
                    *v += 1 + i as u32;
                }
                *len = band.len();
            });
            assert_eq!(lens.iter().sum::<usize>(), 100);
        }
        // Every element written exactly once, by its band's worker.
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, 1 + (i / 16) as u32);
        }
    }

    #[test]
    #[should_panic(expected = "band taken twice")]
    fn double_take_panics() {
        let mut data = vec![0u8; 8];
        let bands = Bands::new(&mut data, 4);
        let _a = bands.take(0);
        let _b = bands.take(0);
    }

    #[test]
    fn bin_scratch_matches_serial_order() {
        // Items hash into bins; parallel build must equal the serial one.
        let n_items = 500usize;
        let n_bins = 7usize;
        let keys_of = |i: u32, push: &mut dyn FnMut(u32)| {
            push(i % n_bins as u32);
            if i.is_multiple_of(3) {
                push((i / 3) % n_bins as u32);
            }
        };
        let mut serial = BinScratch::default();
        let t0 = serial.build(n_bins, n_items, ThreadPolicy::serial(), keys_of);
        for policy in policies() {
            let mut par = BinScratch::default();
            let t = par.build(n_bins, n_items, policy, keys_of);
            assert_eq!(t, t0);
            assert_eq!(par.bins(), serial.bins(), "{policy:?}");
        }
    }

    #[test]
    fn bin_scratch_reuse_resets_state() {
        let mut scratch = BinScratch::default();
        scratch.build(4, 100, ThreadPolicy::default(), |i, push| push(i % 4));
        let first: Vec<Vec<u32>> = scratch.bins().to_vec();
        // Rebuild with fewer bins and items: stale state must not leak.
        scratch.build(2, 10, ThreadPolicy::default(), |i, push| push(i % 2));
        assert_eq!(scratch.bins().len(), 2);
        assert_eq!(scratch.bins()[0], vec![0, 2, 4, 6, 8]);
        scratch.build(4, 100, ThreadPolicy::default(), |i, push| push(i % 4));
        assert_eq!(scratch.bins(), first.as_slice());
    }

    #[test]
    fn chunked_ranges_cover_exactly_once() {
        for (n, workers) in [(10, 3), (7, 7), (7, 12), (100, 1), (0, 4), (5, 2)] {
            let mut state: Vec<usize> = (0..n).collect();
            let parts = chunked_ranges_mut(n, workers, &mut state);
            let mut seen = 0;
            for (range, window) in &parts {
                assert_eq!(range.len(), window.len(), "n={n} workers={workers}");
                assert_eq!(range.start, seen);
                // The window really is the matching slice of `state`.
                for (offset, v) in window.iter().enumerate() {
                    assert_eq!(*v, range.start + offset);
                }
                seen = range.end;
            }
            assert_eq!(seen, n, "n={n} workers={workers}");
            assert!(parts.len() <= workers.max(1));
        }
    }

    #[test]
    fn chunked_ranges_allow_empty_state() {
        let parts = chunked_ranges_mut::<u8>(9, 4, &mut []);
        assert_eq!(parts.len(), 3); // ceil(9/4) = 3 items per chunk
        assert!(parts.iter().all(|(_, w)| w.is_empty()));
        assert_eq!(parts.last().unwrap().0, 6..9);
    }

    #[test]
    #[should_panic(expected = "shorter than the work-item count")]
    fn chunked_ranges_reject_short_state() {
        let mut state = [0u8; 3];
        let _ = chunked_ranges_mut(5, 2, &mut state);
    }

    #[test]
    fn effective_threads_clamps() {
        assert_eq!(effective_threads(1, 100), 1);
        assert_eq!(effective_threads(8, 3), 3);
        assert_eq!(effective_threads(4, 0), 1);
        assert!(effective_threads(0, 1000) >= 1);
    }

    /// A default-sized pool resolves to the same host budget as the
    /// fork-join primitives: `VRPIPE_HOST_THREADS` (cached once per
    /// process) or one worker per available CPU — under CI's
    /// `VRPIPE_HOST_THREADS=1` leg this pool is serial, under `=4` it has
    /// exactly 4 workers.
    #[test]
    fn pool_size_follows_the_host_budget() {
        let budget = effective_threads(0, usize::MAX);
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), budget);
        assert_eq!(pool.is_serial(), budget == 1);
        // Explicit requests are honoured as given, clamped below at 1.
        assert_eq!(WorkerPool::new(3).workers(), 3);
        assert_eq!(WorkerPool::new(1).workers(), 1);
    }

    /// The 1-worker degeneracy spawns no threads: tasks run inline on the
    /// submitting thread, to completion, before `submit` returns.
    #[test]
    fn serial_pool_runs_inline_with_zero_overhead() {
        let pool = WorkerPool::new(1);
        assert!(pool.is_serial());
        let ran_on = Arc::new(Mutex::new(None));
        let slot = Arc::clone(&ran_on);
        let mut order = Vec::new();
        pool.submit(move || {
            *slot.lock().unwrap() = Some(std::thread::current().id());
        });
        // Inline execution: the effect is visible immediately after submit.
        assert_eq!(
            ran_on.lock().unwrap().expect("task ran"),
            std::thread::current().id()
        );
        for i in 0..4 {
            let log = Arc::new(Mutex::new(Vec::new()));
            let l = Arc::clone(&log);
            pool.submit(move || l.lock().unwrap().push(i));
            order.extend(log.lock().unwrap().drain(..));
        }
        assert_eq!(order, vec![0, 1, 2, 3], "inline FIFO == submission order");
    }

    /// Returns once every task submitted to `pool` before the call has
    /// finished: one rendezvous task per worker can all run at once only
    /// after every worker is done with the earlier tasks (FIFO pickup). A
    /// serial pool ran them inline already.
    fn drain(pool: &WorkerPool) {
        if pool.is_serial() {
            return;
        }
        let rendezvous = Arc::new(std::sync::Barrier::new(pool.workers() + 1));
        for _ in 0..pool.workers() {
            let r = Arc::clone(&rendezvous);
            pool.submit(move || {
                r.wait();
            });
        }
        rendezvous.wait();
    }

    /// Parallel pools run every task exactly once, off the submitter.
    #[test]
    fn parallel_pool_completes_all_tasks_on_workers() {
        let pool = WorkerPool::new(3);
        assert!(!pool.is_serial());
        let main_id = std::thread::current().id();
        let hits = Arc::new(AtomicUsize::new(0));
        let off_thread = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let hits = Arc::clone(&hits);
            let off_thread = Arc::clone(&off_thread);
            pool.submit(move || {
                hits.fetch_add(1, Ordering::SeqCst);
                if std::thread::current().id() != main_id {
                    off_thread.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        drain(&pool);
        assert_eq!(hits.load(Ordering::SeqCst), 64);
        assert_eq!(off_thread.load(Ordering::SeqCst), 64);
        // The pool stays usable after draining (persistent, not fork-join).
        let again = Arc::new(AtomicUsize::new(0));
        let a = Arc::clone(&again);
        pool.submit(move || {
            a.fetch_add(1, Ordering::SeqCst);
        });
        drain(&pool);
        assert_eq!(again.load(Ordering::SeqCst), 1);
    }

    /// A panicking task does not kill its worker: the pool stays at full
    /// strength and keeps running later tasks.
    #[test]
    fn panicking_tasks_do_not_kill_the_pool() {
        let pool = WorkerPool::new(2);
        for _ in 0..4 {
            pool.submit(|| panic!("task panic (expected in this test)"));
        }
        drain(&pool); // would hang if a worker died
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let hits = Arc::clone(&hits);
            pool.submit(move || {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        drain(&pool);
        assert_eq!(hits.load(Ordering::SeqCst), 8);
    }

    /// Panic **payload propagation**, the way serve's frame tasks do it: a
    /// task that catches its own panic reports the message through
    /// [`panic_message`], and the pool stays fully usable afterwards — on
    /// the inline 1-worker degeneracy and on a real 4-worker pool alike.
    #[test]
    fn panic_payloads_propagate_to_the_submitter() {
        for workers in [1usize, 4] {
            let pool = WorkerPool::new(workers);
            let reports = Arc::new(Mutex::new(Vec::new()));
            let submit_reporting = |task: Box<dyn FnOnce() + Send>| {
                let reports = Arc::clone(&reports);
                pool.submit(move || {
                    if let Err(p) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)) {
                        reports.lock().unwrap().push(panic_message(p.as_ref()));
                    }
                });
            };
            for k in 0..3 {
                submit_reporting(Box::new(move || {
                    panic!("task {k} failed (expected in this test)")
                }));
            }
            // A non-panicking task through the same seam reports nothing.
            let clean = Arc::new(AtomicUsize::new(0));
            let c = Arc::clone(&clean);
            submit_reporting(Box::new(move || {
                c.fetch_add(1, Ordering::SeqCst);
            }));
            drain(&pool);
            let mut got = reports.lock().unwrap().clone();
            got.sort();
            assert_eq!(
                got,
                (0..3)
                    .map(|k| format!("task {k} failed (expected in this test)"))
                    .collect::<Vec<_>>(),
                "workers={workers}"
            );
            assert_eq!(clean.load(Ordering::SeqCst), 1, "workers={workers}");
            // Subsequent submits succeed: the pool kept every worker.
            let hits = Arc::new(AtomicUsize::new(0));
            for _ in 0..8 {
                let hits = Arc::clone(&hits);
                pool.submit(move || {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
            }
            drain(&pool);
            assert_eq!(hits.load(Ordering::SeqCst), 8, "workers={workers}");
        }
    }

    /// The serial pool's inline path shares the parallel pool's panic
    /// isolation: a plain `submit` of a panicking task neither unwinds
    /// into the submitter nor wedges later submissions.
    #[test]
    fn serial_submit_contains_panics_inline() {
        let pool = WorkerPool::new(1);
        pool.submit(|| panic!("inline panic (expected in this test)"));
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        pool.submit(move || {
            r.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    /// `panic_message` extracts the payload forms `panic!` produces.
    #[test]
    fn panic_message_extracts_common_payloads() {
        let p = std::panic::catch_unwind(|| panic!("plain &str")).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "plain &str");
        let p = std::panic::catch_unwind(|| panic!("formatted {}", 7)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "formatted 7");
        let p = std::panic::catch_unwind(|| std::panic::panic_any(42u32)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "non-string panic payload");
    }

    /// Dropping a pool with queued work drains the queue first: shutdown
    /// is graceful, never lossy.
    #[test]
    fn drop_drains_pending_tasks() {
        let hits = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(2);
            for _ in 0..32 {
                let hits = Arc::clone(&hits);
                pool.submit(move || {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
            }
        } // drop joins the workers
        assert_eq!(hits.load(Ordering::SeqCst), 32);
    }
}
