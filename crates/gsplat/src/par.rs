//! Zero-dependency fork-join primitives for the parallel render paths.
//!
//! [`for_each_claimed`] is the one place a frame forks: every parallel
//! phase (the simulated draw's prologue and tile shards, the software
//! renderers' bands, binning, the preprocess fan-out) hands it a slice of
//! items and one state per worker. It runs on `std::thread::scope`, so the
//! workspace stays buildable offline; moving it onto a persistent pool is
//! a change to that one function. [`WorkerPool`] is the other thread
//! owner: it runs whole frame tasks of many streams.
//!
//! Everything here is *deterministic by construction* for the ways the
//! renderers use it:
//!
//! * [`for_each_claimed`] hands every item to exactly one worker, and each
//!   worker's state to one thread. Items own disjoint data (a tile, a row
//!   band, a chunk's output), so which worker claims an item — which
//!   varies from run to run — never reaches a result.
//! * [`Bands`] hands out disjoint `&mut` windows of a buffer, each
//!   claimable once, so ownership of every element is fixed however the
//!   claims are scheduled.
//! * [`BinScratch::build`] merges per-chunk partial bins **in chunk
//!   order**, so every bin's item list preserves the input order exactly
//!   (the stable front-to-back blend order the renderers rely on).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Number of worker threads for a request of `requested` (`0` = the host
/// default), clamped to `work` items so tiny draws stay serial.
///
/// The host default is one worker per available CPU, overridable with the
/// `VRPIPE_HOST_THREADS` environment variable (read once per process) —
/// CI runs the test suite under `VRPIPE_HOST_THREADS=1` and `=4` to pin
/// both sides of the determinism contract on any runner. Like the
/// `threads` config knobs this is a *host* setting: it can never change
/// rendered results, only wall time.
pub fn effective_threads(requested: usize, work: usize) -> usize {
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

/// Runs `job(state, item, i)` for every claimed item `i` of `items`, on
/// one host worker per element of `states`. This is the workspace's only
/// fork site; every parallel phase of a frame goes through it.
///
/// * **Claims.** Each worker takes the next unclaimed item as it finishes
///   one. `order` is the claim order, a list of item indices (the
///   simulated draw claims its heaviest tiles first); `None` claims every
///   item in index order.
/// * **State.** Worker `w` owns `states[w]` for the whole call, so a
///   state is never used by two threads at once. The calling thread is
///   worker 0.
/// * **Inline run.** With one state, or at most one claim, every claim
///   runs on the calling thread in claim order: no fork, no allocation.
/// * **Panics.** A panic in `job` reaches the caller with its own payload
///   at every worker count: the first panicking worker's, in `states`
///   order.
///
/// Which worker runs which item varies from run to run. Results stay
/// deterministic when items own disjoint data and whatever the states
/// accumulate commutes.
///
/// # Examples
///
/// ```
/// use gsplat::par::for_each_claimed;
/// let mut squares = vec![0usize; 10];
/// // Three workers, no per-worker state; claim the last items first.
/// let order: Vec<u32> = (0..10).rev().collect();
/// for_each_claimed(&mut [(); 3], &mut squares, Some(&order), |_, sq, i| *sq = i * i);
/// assert_eq!(squares[9], 81);
/// ```
///
/// # Panics
///
/// Panics when `states` is empty, when `order` names an item twice or out
/// of range, and with the payload of a panic in `job`.
pub fn for_each_claimed<S: Send, T: Send>(
    states: &mut [S],
    items: &mut [T],
    order: Option<&[u32]>,
    job: impl Fn(&mut S, &mut T, usize) + Sync,
) {
    let claims = order.map_or(items.len(), <[u32]>::len);
    let item = |k: usize| order.map_or(k, |o| o[k] as usize);
    let (first, rest) = states.split_at_mut(1);
    let first = &mut first[0];
    if rest.is_empty() || claims <= 1 {
        for k in 0..claims {
            let i = item(k);
            job(first, &mut items[i], i);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let slots = Bands::new(items, 1);
    let work = |state: &mut S| loop {
        let k = next.fetch_add(1, Ordering::Relaxed);
        if k >= claims {
            break;
        }
        let i = item(k);
        job(state, &mut slots.take(i)[0], i);
    };
    let work = &work;
    std::thread::scope(|s| {
        let handles: Vec<_> = rest
            .iter_mut()
            .map(|state| s.spawn(move || work(state)))
            .collect();
        // A panic here unwinds out of the scope with its own payload once
        // the other workers have stopped.
        work(first);
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
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
/// worker thread. [`for_each_claimed`] hands out its items as one-element
/// bands; a job can claim windows of a second buffer by item index the
/// same way.
pub struct Bands<'a, T> {
    slots: Vec<Mutex<Option<&'a mut [T]>>>,
}

impl<'a, T> Bands<'a, T> {
    /// Splits `data` into bands of `band_len` elements (the last band may
    /// be shorter).
    ///
    /// # Panics
    ///
    /// Panics when `band_len` is zero.
    pub fn new(data: &'a mut [T], band_len: usize) -> Self {
        assert!(band_len > 0, "band length must be non-zero");
        Self {
            slots: data
                .chunks_mut(band_len)
                .map(|c| Mutex::new(Some(c)))
                .collect(),
        }
    }

    /// Number of bands.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when the source buffer was empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Claims band `i` (each band may be taken exactly once).
    ///
    /// # Panics
    ///
    /// Panics when the band was already taken.
    pub fn take(&self, i: usize) -> &'a mut [T] {
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
        for_each_claimed(
            &mut vec![(); workers],
            &mut self.partials,
            None,
            |_, partial, c| {
                partial.resize_with(n_bins, Vec::new);
                for bin in partial.iter_mut() {
                    bin.clear();
                }
                let start = (c * chunk).min(n_items);
                let end = ((c + 1) * chunk).min(n_items);
                for i in start as u32..end as u32 {
                    emit(i, &mut |bin| partial[bin as usize].push(i));
                }
            },
        );

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
/// isolation boundary (see [`WorkerPool::submit_caught`]).
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
    /// Tasks submitted but not yet finished (queued + running).
    in_flight: usize,
    /// Set once, on drop: workers drain the queue and exit.
    shutdown: bool,
}

/// Queue + wakeups shared between the pool handle and its workers.
#[derive(Default)]
struct PoolQueue {
    state: Mutex<PoolState>,
    /// Signalled on task submission (workers wait here for work).
    ready: Condvar,
    /// Signalled when `in_flight` drains to zero ([`WorkerPool::wait_idle`]).
    idle: Condvar,
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
/// Like [`effective_threads`], a request of `0` workers resolves to the
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
/// pool.wait_idle();
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
                        let mut state = queue.state.lock().unwrap_or_else(|p| p.into_inner());
                        state.in_flight -= 1;
                        if state.in_flight == 0 {
                            queue.idle.notify_all();
                        }
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

    /// A pool sized to the host budget (`VRPIPE_HOST_THREADS` override,
    /// else one worker per available CPU) — equivalent to `new(0)`.
    pub fn with_host_budget() -> Self {
        Self::new(0)
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
    /// never unwinds. Use [`WorkerPool::submit_caught`] when the submitter
    /// needs the panic payload back.
    pub fn submit(&self, task: impl FnOnce() + Send + 'static) {
        if self.handles.is_empty() {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
            return;
        }
        let mut state = self.queue.state.lock().unwrap_or_else(|p| p.into_inner());
        state.in_flight += 1;
        state.tasks.push_back(Box::new(task));
        drop(state);
        self.queue.ready.notify_one();
    }

    /// [`WorkerPool::submit`] with panic **payload propagation**: when the
    /// task panics, `on_panic` receives the panic message (extracted via
    /// [`panic_message`]) on the same thread that ran the task, after the
    /// unwind has been caught. The pool stays at full strength either way
    /// — this is the per-task fault boundary `vrpipe::serve` uses to turn
    /// a panicking stream backend into a per-stream failure report instead
    /// of a poisoned pool.
    ///
    /// `on_panic` itself must not panic (a panic there is swallowed by the
    /// pool's outer isolation, losing the report).
    pub fn submit_caught(
        &self,
        task: impl FnOnce() + Send + 'static,
        on_panic: impl FnOnce(String) + Send + 'static,
    ) {
        self.submit(move || {
            if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)) {
                on_panic(panic_message(payload.as_ref()));
            }
        });
    }

    /// Blocks until every submitted task has finished (condvar wait — no
    /// spinning). Completion-driven callers (e.g. the serve scheduler's
    /// channel) don't need this; it exists for fire-and-forget uses and
    /// tests.
    pub fn wait_idle(&self) {
        let mut state = self.queue.state.lock().unwrap_or_else(|p| p.into_inner());
        while state.in_flight > 0 {
            state = self
                .queue
                .idle
                .wait(state)
                .unwrap_or_else(|p| p.into_inner());
        }
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
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn policies() -> [ThreadPolicy; 3] {
        [
            ThreadPolicy::serial(),
            ThreadPolicy { threads: 3 },
            ThreadPolicy { threads: 0 },
        ]
    }

    /// Every item runs exactly once at 1–5 workers, for empty item lists
    /// and for fewer items than workers; a claim order runs exactly the
    /// items it names.
    #[test]
    fn every_item_runs_exactly_once() {
        for workers in 1..=5 {
            for n in [0usize, 1, 3, 37] {
                let mut hits = vec![0u32; n];
                for_each_claimed(&mut vec![(); workers], &mut hits, None, |_, h, _| *h += 1);
                assert!(hits.iter().all(|&h| h == 1), "workers={workers} n={n}");

                let order: Vec<u32> = (0..n as u32).rev().step_by(2).collect();
                let mut hits = vec![0u32; n];
                for_each_claimed(
                    &mut vec![(); workers],
                    &mut hits,
                    Some(&order),
                    |_, h, i| *h += 1 + i as u32,
                );
                for (i, &h) in hits.iter().enumerate() {
                    let named = order.contains(&(i as u32));
                    assert_eq!(
                        h,
                        if named { 1 + i as u32 } else { 0 },
                        "workers={workers} n={n}"
                    );
                }
            }
        }
    }

    /// Holds each worker's first job until every worker has started one,
    /// so all workers take part (gives up after five seconds, so a broken
    /// fork fails its test instead of hanging it).
    fn wait_for_all(started: &AtomicUsize, workers: usize) {
        started.fetch_add(1, Ordering::SeqCst);
        let t0 = std::time::Instant::now();
        while started.load(Ordering::SeqCst) < workers && t0.elapsed().as_secs() < 5 {
            std::thread::yield_now();
        }
    }

    /// A worker keeps its state on one thread for the whole call, every
    /// worker is its own thread, and the states together saw every item
    /// once.
    #[test]
    fn each_state_stays_on_one_thread() {
        for workers in 1..=4 {
            let started = AtomicUsize::new(0);
            let mut states = vec![Vec::new(); workers];
            for_each_claimed(&mut states, &mut [(); 64], None, |log, _, i| {
                if log.is_empty() {
                    wait_for_all(&started, workers);
                }
                log.push((std::thread::current().id(), i));
            });
            let mut threads = Vec::new();
            let mut seen = Vec::new();
            for log in &states {
                let thread = log[0].0;
                assert!(log.iter().all(|&(t, _)| t == thread), "workers={workers}");
                threads.push(thread);
                seen.extend(log.iter().map(|&(_, i)| i));
            }
            threads.sort_unstable_by_key(|t| format!("{t:?}"));
            threads.dedup();
            assert_eq!(threads.len(), workers, "one thread per worker");
            seen.sort_unstable();
            assert_eq!(seen, (0..64).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    /// One worker runs inline, on the calling thread, in claim order.
    #[test]
    fn one_worker_follows_the_claim_order_inline() {
        let caller = std::thread::current().id();
        let order = [3u32, 0, 4, 1];
        let mut log = Vec::new();
        for_each_claimed(
            std::slice::from_mut(&mut log),
            &mut [(); 5],
            Some(&order),
            |log, _, i| {
                assert_eq!(std::thread::current().id(), caller);
                log.push(i);
            },
        );
        assert_eq!(log, vec![3, 0, 4, 1]);
    }

    /// A job's panic reaches the caller with its own message at every
    /// worker count, not as a generic "a scoped thread panicked". The
    /// last worker panics — on more than one worker a spawned thread.
    #[test]
    fn a_job_panic_keeps_its_payload() {
        for workers in 1..=3 {
            let started = AtomicUsize::new(0);
            let mut states: Vec<(usize, bool)> = (0..workers).map(|w| (w, false)).collect();
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for_each_claimed(&mut states, &mut [(); 8], None, |(w, waited), _, _| {
                    if !*waited {
                        *waited = true;
                        wait_for_all(&started, workers);
                    }
                    if *w == workers - 1 {
                        panic!("worker {w} failed (expected in this test)");
                    }
                });
            }));
            let payload = caught.expect_err("the job panicked");
            assert_eq!(
                panic_message(payload.as_ref()),
                format!("worker {} failed (expected in this test)", workers - 1),
            );
        }
    }

    #[test]
    fn bands_are_disjoint_and_complete() {
        let mut data = vec![0u32; 100];
        {
            let bands = Bands::new(&mut data, 16);
            assert_eq!(bands.len(), 7);
            let mut lens = vec![0usize; 7];
            for_each_claimed(&mut [(); 4], &mut lens, None, |_, len, i| {
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
        let pool = WorkerPool::with_host_budget();
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
        pool.wait_idle(); // no-op on a serial pool
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
        pool.wait_idle();
        assert_eq!(hits.load(Ordering::SeqCst), 64);
        assert_eq!(off_thread.load(Ordering::SeqCst), 64);
        // The pool stays usable after draining (persistent, not fork-join).
        let again = Arc::new(AtomicUsize::new(0));
        let a = Arc::clone(&again);
        pool.submit(move || {
            a.fetch_add(1, Ordering::SeqCst);
        });
        pool.wait_idle();
        assert_eq!(again.load(Ordering::SeqCst), 1);
    }

    /// A panicking task neither kills its worker nor leaks its in-flight
    /// slot: the pool stays at full strength and `wait_idle` returns.
    #[test]
    fn panicking_tasks_do_not_kill_the_pool() {
        let pool = WorkerPool::new(2);
        for _ in 0..4 {
            pool.submit(|| panic!("task panic (expected in this test)"));
        }
        pool.wait_idle(); // would hang if the slot leaked
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let hits = Arc::clone(&hits);
            pool.submit(move || {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_idle(); // would hang if workers died
        assert_eq!(hits.load(Ordering::SeqCst), 8);
    }

    /// Panic **payload propagation**: a panicking task reports its message
    /// to the submitter through `submit_caught`, and the pool stays fully
    /// usable afterwards — on the inline 1-worker degeneracy and on a real
    /// 4-worker pool alike.
    #[test]
    fn panic_payloads_propagate_to_the_submitter() {
        for workers in [1usize, 4] {
            let pool = WorkerPool::new(workers);
            let reports = Arc::new(Mutex::new(Vec::new()));
            for k in 0..3 {
                let reports = Arc::clone(&reports);
                pool.submit_caught(
                    move || panic!("task {k} failed (expected in this test)"),
                    move |msg| reports.lock().unwrap().push(msg),
                );
            }
            // A non-panicking task through the same seam reports nothing.
            let clean = Arc::new(AtomicUsize::new(0));
            let c = Arc::clone(&clean);
            pool.submit_caught(
                move || {
                    c.fetch_add(1, Ordering::SeqCst);
                },
                |_| unreachable!("clean task must not report a panic"),
            );
            pool.wait_idle();
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
            pool.wait_idle();
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
