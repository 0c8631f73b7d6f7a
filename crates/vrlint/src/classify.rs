//! Module-class assignment and the declared lock/allow tables.
//!
//! Every workspace `.rs` file gets a [`FileClass`] from its path
//! (workspace-relative, `/`-separated). The class decides which rules
//! apply — the machine-checked mirror of DESIGN.md §11's prose:
//!
//! * **hot-path** (`no_panic`): the modules whose panics lose frames —
//!   `gsplat::{stream, sort, index, projection, par, preprocess}`,
//!   the `gsplat::asset` decode path, every `swrender` backend, and
//!   `vrpipe::{pipeline, serve, shading}`. VL01 applies file-wide.
//! * **result-affecting** (`determinism`): all library code whose
//!   output feeds frame bits or simulated stats. VL03 applies.
//! * **lock-discipline** (`lock_rules`): the three modules that take
//!   locks — `vrpipe::serve`, `gsplat::par`, `gsplat::asset`. VL04
//!   applies, against [`LOCK_ORDER`].
//! * **exempt**: tests, benches, examples, the offline shims, the
//!   bench harness and vrlint itself — panicking is how tests fail
//!   and harnesses time things. Only VL05 (unsafe-audit) and VL06 still
//!   run.
//! * **fork rule** (`fork_rule`): every file but [`FORK_SITE`] and test
//!   code (`tests/` directories). VL06 applies: no other file starts a
//!   thread.
//!
//! `#[cfg(test)]` blocks inside library files are exempted by the rule
//! engine, not here.

use crate::rules::Rule;

/// Which rule families apply to one file.
#[derive(Clone, Copy, Debug, Default)]
pub struct FileClass {
    /// VL01 applies file-wide (hot-path module).
    pub no_panic: bool,
    /// VL03 applies (module output affects results).
    pub determinism: bool,
    /// VL04 applies (module acquires locks).
    pub lock_rules: bool,
    /// Test/bench/example/shim/harness code: only VL05 and VL06 apply.
    pub exempt: bool,
    /// VL06 applies (not the fork site, not test code).
    pub fork_rule: bool,
}

/// The one file allowed to start threads: `gsplat::par`, home of the
/// fork-join primitive and the worker pool (VL06).
pub const FORK_SITE: &str = "crates/gsplat/src/par.rs";

/// Hot-path modules: a panic here drops a served frame (VL01).
const HOT_PATH: &[&str] = &[
    "crates/gsplat/src/stream.rs",
    "crates/gsplat/src/sort.rs",
    "crates/gsplat/src/index.rs",
    "crates/gsplat/src/projection.rs",
    "crates/gsplat/src/par.rs",
    "crates/gsplat/src/preprocess.rs",
    "crates/gsplat/src/asset.rs",
    "crates/core/src/pipeline.rs",
    "crates/core/src/serve.rs",
    "crates/core/src/serve/degrade.rs",
    "crates/core/src/shading.rs",
];

/// Lock-acquiring modules checked by VL04.
const LOCK_MODULES: &[&str] = &[
    "crates/core/src/serve.rs",
    "crates/gsplat/src/par.rs",
    "crates/gsplat/src/asset.rs",
];

/// Classifies a workspace-relative path.
pub fn classify(rel: &str) -> FileClass {
    let exempt = rel.starts_with("tests/")
        || rel.starts_with("examples/")
        || rel.starts_with("shims/")
        || rel.starts_with("crates/bench/")
        || rel.starts_with("crates/vrlint/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/");
    let fork_rule = rel != FORK_SITE && !rel.starts_with("tests/") && !rel.contains("/tests/");
    if exempt {
        return FileClass {
            exempt: true,
            fork_rule,
            ..FileClass::default()
        };
    }
    let hot = HOT_PATH.contains(&rel) || rel.starts_with("crates/swrender/src/");
    FileClass {
        no_panic: hot,
        determinism: rel.starts_with("crates/") && rel.contains("/src/"),
        lock_rules: LOCK_MODULES.contains(&rel),
        exempt: false,
        fork_rule,
    }
}

/// The declared lock order, outermost first. Acquiring a lock while
/// holding one at the same or a later position is a VL04 `order`
/// finding. `Condvar::wait` re-acquisitions of the same lock are the
/// sanctioned exception (the wait releases atomically).
pub const LOCK_ORDER: &[&str] = &[
    "serve.stream_state",
    "par.pool_queue",
    "par.band_slot",
    "asset.intern_table",
];

/// Maps a receiver path segment (or a named acquiring function) at an
/// acquisition site to its entry in [`LOCK_ORDER`]. Receivers that
/// call `.lock()`/`.wait()` but match nothing here are VL04
/// `undeclared` findings — every mutex in a lock-discipline module
/// must be declared.
pub struct LockSite {
    /// File the recognizer applies to.
    pub path: &'static str,
    /// Receiver path segment (`state` in `self.queue.state.lock()`)
    /// or free-function name (`lock_state(…)`).
    pub segment: &'static str,
    /// Name in [`LOCK_ORDER`].
    pub lock: &'static str,
}

pub const LOCK_SITES: &[LockSite] = &[
    LockSite {
        path: "crates/core/src/serve.rs",
        segment: "lock_state",
        lock: "serve.stream_state",
    },
    LockSite {
        path: "crates/core/src/serve.rs",
        segment: "state",
        lock: "serve.stream_state",
    },
    LockSite {
        path: "crates/gsplat/src/par.rs",
        segment: "state",
        lock: "par.pool_queue",
    },
    // Condvar waits re-acquire the pool-queue mutex.
    LockSite {
        path: "crates/gsplat/src/par.rs",
        segment: "ready",
        lock: "par.pool_queue",
    },
    LockSite {
        path: "crates/gsplat/src/par.rs",
        segment: "idle",
        lock: "par.pool_queue",
    },
    LockSite {
        path: "crates/gsplat/src/par.rs",
        segment: "slots",
        lock: "par.band_slot",
    },
    LockSite {
        path: "crates/gsplat/src/asset.rs",
        segment: "INTERNED",
        lock: "asset.intern_table",
    },
];

/// Index of a lock name in [`LOCK_ORDER`].
pub fn lock_rank(lock: &str) -> usize {
    LOCK_ORDER
        .iter()
        .position(|&l| l == lock)
        .unwrap_or(usize::MAX)
}

/// A rule-scoped builtin allowlist entry: `ident` in `path` is exempt
/// from `rule`, with the recorded reason. These are the contracts the
/// repo has already argued in DESIGN.md — kept here, not inline, so
/// module-wide justifications don't smear one comment per use site.
pub struct BuiltinAllow {
    pub rule: Rule,
    pub path: &'static str,
    pub ident: &'static str,
    pub reason: &'static str,
}

pub const BUILTIN_ALLOWS: &[BuiltinAllow] = &[
    BuiltinAllow {
        rule: Rule::VL03,
        path: "crates/core/src/serve.rs",
        ident: "Instant",
        reason: "Server::run reads the clock once per wake-up and passes now_ms to the \
                 scheduler rules; the frame task times its own latency. Frame bits are \
                 proven time-independent (DESIGN.md §9)",
    },
    BuiltinAllow {
        rule: Rule::VL03,
        path: "crates/gpu-sim/src/microbench.rs",
        ident: "HashSet",
        reason: "membership-dedup in a seeded measurement probe; no iteration order \
                 reaches a result",
    },
];

/// Finds the builtin allow covering `(rule, path, ident)`, if any.
pub fn builtin_allow(rule: Rule, rel: &str, ident: &str) -> Option<&'static BuiltinAllow> {
    BUILTIN_ALLOWS
        .iter()
        .find(|a| a.rule == rule && a.path == rel && a.ident == ident)
}
