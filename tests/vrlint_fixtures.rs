//! Fixture tests for the `vrlint` invariant checker: one deliberately
//! bad snippet per rule, asserting the exact rule id, sub-rule kind and
//! line number of the diagnostic — plus the suppression round-trip, the
//! lexer edge cases that would cause false positives, and a self-lint
//! of the real workspace (the machine-checked acceptance criterion:
//! zero unsuppressed findings).
//!
//! Fixture sources are lint inputs, never compiled — they only have to
//! lex like Rust.

use std::path::Path;

use vrlint::{lint_source, Options};

/// Unsuppressed, non-advisory findings as `(id, kind, line)` triples.
fn denied(rel: &str, src: &str) -> Vec<(&'static str, String, u32)> {
    let lint = lint_source(rel, src, Options::default());
    lint.findings
        .iter()
        .filter(|f| f.suppressed.is_none() && !f.advisory)
        .map(|f| (f.rule.id(), f.kind.to_string(), f.line))
        .collect()
}

/// A hot-path file with no locks (VL01 applies file-wide).
const HOT: &str = "crates/gsplat/src/sort.rs";
/// A result-affecting library file (VL03 applies, VL01 does not).
const LIB: &str = "crates/gscore/src/metrics.rs";

// ---------------------------------------------------------------- VL01

#[test]
fn vl01_unwrap_exact_line() {
    let src = "fn first(v: &[u32]) -> u32 {\n    *v.first().unwrap()\n}\n";
    assert_eq!(denied(HOT, src), vec![("VL01", "unwrap".into(), 2)]);
}

#[test]
fn vl01_expect_and_panic_macros() {
    let src = "fn f(v: &[u32]) -> u32 {\n\
               \x20   let x = v.first().expect(\"nonempty\");\n\
               \x20   if *x > 9 {\n\
               \x20       panic!(\"too big\");\n\
               \x20   }\n\
               \x20   unreachable!()\n\
               }\n";
    assert_eq!(
        denied(HOT, src),
        vec![
            ("VL01", "expect".into(), 2),
            ("VL01", "panic".into(), 4),
            ("VL01", "panic".into(), 6),
        ]
    );
}

#[test]
fn vl01_not_applied_outside_hot_modules() {
    // Same snippet in a non-hot library file: no VL01 (kept findable
    // under --pedantic as advisory, which must still not deny).
    let src = "fn first(v: &[u32]) -> u32 {\n    *v.first().unwrap()\n}\n";
    assert_eq!(denied(LIB, src), vec![]);
    let lint = lint_source(LIB, src, Options { pedantic: true });
    let advisory: Vec<_> = lint.findings.iter().filter(|f| f.advisory).collect();
    assert_eq!(advisory.len(), 1, "pedantic widening surfaces the unwrap");
    assert!(lint.denied().next().is_none(), "advisory never denies");
}

#[test]
fn vl01_index_only_inside_hot_functions() {
    // Plain indexing in a hot *module* is allowed (too noisy); inside a
    // `vrlint: hot` function it is a finding.
    let plain = "fn f(v: &[u32]) -> u32 {\n    v[0]\n}\n";
    assert_eq!(denied(HOT, plain), vec![]);
    let hot = "// vrlint: hot\nfn f(v: &[u32]) -> u32 {\n    v[0]\n}\n";
    assert_eq!(denied(HOT, hot), vec![("VL01", "index".into(), 3)]);
}

#[test]
fn vl01_array_literals_are_not_indexing() {
    // `&mut []`, `= [0; 4]`: a `[` after a keyword or `=` opens an
    // array literal, not an index expression.
    let src = "// vrlint: hot\n\
               fn f() -> usize {\n\
               \x20   let xs = [0u32; 4];\n\
               \x20   let ys: &mut [u32] = &mut [];\n\
               \x20   xs.len() + ys.len()\n\
               }\n";
    assert_eq!(denied(HOT, src), vec![]);
}

// ---------------------------------------------------------------- VL02

#[test]
fn vl02_alloc_in_hot_function() {
    let src = "// vrlint: hot\n\
               fn f(xs: &[u32]) -> Vec<u32> {\n\
               \x20   let mut buf = vec![0u8; 16];\n\
               \x20   buf.clear();\n\
               \x20   xs.iter().map(|x| x + 1).collect()\n\
               }\n";
    assert_eq!(
        denied(HOT, src),
        vec![("VL02", "vec".into(), 3), ("VL02", "collect".into(), 5)]
    );
}

#[test]
fn vl02_silent_outside_hot_functions() {
    let src = "fn f(xs: &[u32]) -> Vec<u32> {\n    xs.to_vec()\n}\n";
    assert_eq!(denied(HOT, src), vec![]);
}

// ---------------------------------------------------------------- VL03

#[test]
fn vl03_hash_container_exact_line() {
    let src = "use std::collections::HashMap;\n\
               fn f() -> usize {\n\
               \x20   let m: HashMap<u32, u32> = HashMap::default();\n\
               \x20   m.len()\n\
               }\n";
    assert_eq!(
        denied(LIB, src),
        vec![
            ("VL03", "hash".into(), 1),
            ("VL03", "hash".into(), 3),
            ("VL03", "hash".into(), 3),
        ]
    );
}

#[test]
fn vl03_wall_clock_and_entropy() {
    let src = "fn f() -> u64 {\n\
               \x20   let t = std::time::Instant::now();\n\
               \x20   let r = thread_rng();\n\
               \x20   t.elapsed().as_nanos() as u64 + r\n\
               }\n";
    assert_eq!(
        denied(LIB, src),
        vec![("VL03", "time".into(), 2), ("VL03", "rng".into(), 3)]
    );
}

// ---------------------------------------------------------------- VL04

/// The lock-discipline fixtures borrow `par.rs`'s declared table:
/// `state` → `par.pool_queue` (rank 1), `slots` → `par.band_slot`
/// (rank 2).
const LOCKED: &str = "crates/gsplat/src/par.rs";

#[test]
fn vl04_order_violation_exact_line() {
    let src = "impl P {\n\
               \x20   fn f(&self) {\n\
               \x20       let slot = self.slots.lock().unwrap_or_else(|p| p.into_inner());\n\
               \x20       let q = self.state.lock().unwrap_or_else(|p| p.into_inner());\n\
               \x20       drop(q);\n\
               \x20       drop(slot);\n\
               \x20   }\n\
               }\n";
    assert_eq!(denied(LOCKED, src), vec![("VL04", "order".into(), 4)]);
}

#[test]
fn vl04_ordered_nesting_is_clean() {
    // pool_queue (rank 1) then band_slot (rank 2): declared order.
    let src = "impl P {\n\
               \x20   fn f(&self) {\n\
               \x20       let q = self.state.lock().unwrap_or_else(|p| p.into_inner());\n\
               \x20       let slot = self.slots.lock().unwrap_or_else(|p| p.into_inner());\n\
               \x20       drop(slot);\n\
               \x20       drop(q);\n\
               \x20   }\n\
               }\n";
    assert_eq!(denied(LOCKED, src), vec![]);
}

#[test]
fn vl04_unwrap_on_lock_result() {
    let src = "impl P {\n\
               \x20   fn f(&self) {\n\
               \x20       let q = self.state.lock().unwrap();\n\
               \x20       drop(q);\n\
               \x20   }\n\
               }\n";
    // par.rs is also a hot-path module, so the same token draws VL01
    // too — both contracts independently forbid it.
    assert_eq!(
        denied(LOCKED, src),
        vec![
            ("VL01", "unwrap".into(), 3),
            ("VL04", "lock-unwrap".into(), 3),
        ]
    );
}

#[test]
fn vl04_undeclared_receiver() {
    let src = "impl P {\n\
               \x20   fn f(&self) {\n\
               \x20       let g = self.mystery.lock().unwrap_or_else(|p| p.into_inner());\n\
               \x20       drop(g);\n\
               \x20   }\n\
               }\n";
    assert_eq!(denied(LOCKED, src), vec![("VL04", "undeclared".into(), 3)]);
}

#[test]
fn vl04_guard_panic_in_serve_only() {
    // Panic-capable call while a serve guard is live → finding; the
    // identical shape under par.rs's per-call slot mutexes is allowed.
    let body = "impl S {\n\
                \x20   fn f(&self) {\n\
                \x20       let g = self.state.lock().unwrap_or_else(|p| p.into_inner());\n\
                \x20       self.q.front().unwrap();\n\
                \x20       drop(g);\n\
                \x20   }\n\
                }\n";
    let serve = denied("crates/core/src/serve.rs", body);
    assert!(
        serve.contains(&("VL04", "guard-panic".to_string(), 4)),
        "serve guards must not see panic-capable calls: {serve:?}"
    );
    assert!(
        !denied(LOCKED, body)
            .iter()
            .any(|(id, kind, _)| *id == "VL04" && kind == "guard-panic"),
        "guard-panic is scoped to the stream scheduler"
    );
}

#[test]
fn vl04_catch_unwind_exempts_guard_panic() {
    let src = "impl S {\n\
               \x20   fn f(&self) {\n\
               \x20       let g = self.state.lock().unwrap_or_else(|p| p.into_inner());\n\
               \x20       let r = catch_unwind(AssertUnwindSafe(|| self.q.front().unwrap()));\n\
               \x20       drop(g);\n\
               \x20       drop(r);\n\
               \x20   }\n\
               }\n";
    assert!(
        !denied("crates/core/src/serve.rs", src)
            .iter()
            .any(|(id, kind, _)| *id == "VL04" && kind == "guard-panic"),
        "the per-frame fault boundary is the sanctioned pattern"
    );
}

// ---------------------------------------------------------------- VL05

#[test]
fn vl05_unsafe_without_safety_comment() {
    let src = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
    let lint = lint_source(LIB, src, Options::default());
    assert_eq!(lint.unsafe_count, 1);
    assert_eq!(denied(LIB, src), vec![("VL05", "safety".into(), 2)]);
}

#[test]
fn vl05_safety_comment_justifies() {
    let src = "fn f(p: *const u8) -> u8 {\n\
               \x20   // SAFETY: caller guarantees `p` is valid for reads.\n\
               \x20   unsafe { *p }\n\
               }\n";
    let lint = lint_source(LIB, src, Options::default());
    assert_eq!(lint.unsafe_count, 1, "audited even when justified");
    assert_eq!(denied(LIB, src), vec![]);
}

// ---------------------------------------------------------------- VL06

#[test]
fn vl06_thread_starts_outside_par_exact_line() {
    let src = "fn f() {\n\
               \x20   std::thread::scope(|s| {\n\
               \x20       s.spawn(|| ());\n\
               \x20   });\n\
               \x20   let h = thread::spawn(|| ());\n\
               \x20   let b = std::thread::Builder::new();\n\
               \x20   drop((h, b, std::thread::current()));\n\
               }\n";
    // The scope's own `s.spawn` is not a path into std::thread, and
    // `thread::current` starts nothing.
    assert_eq!(
        denied(LIB, src),
        vec![
            ("VL06", "fork".into(), 2),
            ("VL06", "fork".into(), 5),
            ("VL06", "fork".into(), 6),
        ]
    );
    let import = "use std::thread::{\n    sleep,\n    spawn,\n};\n";
    assert_eq!(denied(LIB, import), vec![("VL06", "fork".into(), 3)]);
    // Harness and example code count too; only tests are exempt.
    assert_eq!(
        denied("crates/bench/src/main.rs", src).len(),
        3,
        "the bench harness starts no threads of its own"
    );
}

#[test]
fn vl06_allows_the_fork_site_and_tests() {
    let src = "fn f() {\n    std::thread::scope(|_| ());\n}\n";
    assert_eq!(denied("crates/gsplat/src/par.rs", src), vec![]);
    assert_eq!(denied("tests/parallel_determinism.rs", src), vec![]);
    assert_eq!(denied("crates/gpu-sim/tests/props.rs", src), vec![]);
    let in_test_block =
        "#[cfg(test)]\nmod tests {\n    fn f() {\n        std::thread::spawn(|| ());\n    }\n}\n";
    assert_eq!(denied(LIB, in_test_block), vec![]);
}

// ---------------------------------------------------------------- VL07

/// VL07 is a workspace-level rule: denied findings over a set of
/// in-memory files, as `(path, id, kind, line)`.
fn denied_ws(files: &[(&str, &str)]) -> Vec<(String, &'static str, String, u32)> {
    let files: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    let ws = vrlint::lint_sources(&files, Options::default());
    ws.denied()
        .map(|(path, f)| (path.to_string(), f.rule.id(), f.kind.to_string(), f.line))
        .collect()
}

#[test]
fn vl07_flags_a_pub_fn_nothing_names() {
    // A doc comment naming the function is not a caller.
    let src = "/// See [`lonely`].\n\
               pub fn lonely() -> u32 {\n\
               \x20   7\n\
               }\n\
               pub(crate) fn private_is_out_of_scope() {}\n";
    assert_eq!(
        denied_ws(&[(LIB, src)]),
        vec![(LIB.to_string(), "VL07", "uncalled".to_string(), 2)]
    );
}

#[test]
fn vl07_accepts_callers_in_other_files_and_in_library_code() {
    let lib = "pub fn helper() -> u32 {\n    7\n}\npub fn twice() -> u32 {\n    2 * inner()\n}\n\
               pub fn inner() -> u32 {\n    1\n}\n";
    // `helper` is named by an integration test, `twice` by the harness,
    // and `inner` by `twice` in its own file.
    let test = "#[test]\nfn t() {\n    assert_eq!(helper(), 7);\n}\n";
    let harness = "fn main() {\n    println!(\"{}\", twice());\n}\n";
    assert_eq!(
        denied_ws(&[
            (LIB, lib),
            ("tests/helper.rs", test),
            ("perfbench/src/main.rs", harness),
        ]),
        vec![]
    );
}

#[test]
fn vl07_own_unit_tests_are_not_callers() {
    let src = "pub fn reference_only(x: u32) -> u32 {\n\
               \x20   x + 1\n\
               }\n\
               #[cfg(test)]\n\
               mod tests {\n\
               \x20   #[test]\n\
               \x20   fn t() {\n\
               \x20       assert_eq!(super::reference_only(1), 2);\n\
               \x20   }\n\
               }\n";
    assert_eq!(
        denied_ws(&[(LIB, src)]),
        vec![(LIB.to_string(), "VL07", "uncalled".to_string(), 1)]
    );
    // Exempt files (tests, harnesses) define what they like.
    assert_eq!(denied_ws(&[("tests/support/oracle.rs", src)]), vec![]);
}

#[test]
fn vl07_yields_only_to_a_line_allow_with_a_reason() {
    let allowed = "// vrlint: allow(VL07, reason = \"kept as the documented entry point\")\n\
                   pub fn kept() {}\n";
    let files = [(LIB.to_string(), allowed.to_string())];
    let ws = vrlint::lint_sources(&files, Options::default());
    assert!(ws.denied().next().is_none(), "the allow silences it");
    let (_, finding) = ws.findings().next().expect("still counted");
    assert_eq!(finding.rule.id(), "VL07");
    assert!(finding.suppressed.is_some());
    assert_eq!(ws.files[0].suppressions[0].used, 1);
    // A file-wide allow does not cover VL07: each kept function argues
    // its own case.
    let file_wide = "// vrlint: allow-file(VL07, reason = \"whole module is API\")\n\
                     pub fn kept() {}\n";
    assert_eq!(
        denied_ws(&[(LIB, file_wide)]),
        vec![(LIB.to_string(), "VL07", "uncalled".to_string(), 2)]
    );
}

// ------------------------------------------------- suppressions & VL00

#[test]
fn suppression_round_trip() {
    let src = "fn f(v: &[u32]) -> u32 {\n\
               \x20   // vrlint: allow(VL01, reason = \"length checked by caller\")\n\
               \x20   *v.first().unwrap()\n\
               }\n";
    let lint = lint_source(HOT, src, Options::default());
    assert_eq!(denied(HOT, src), vec![], "annotated finding is silenced");
    assert_eq!(lint.findings.len(), 1, "the finding is still counted");
    assert!(lint.findings[0].suppressed.is_some());
    assert_eq!(lint.suppressions.len(), 1);
    assert_eq!(lint.suppressions[0].used, 1);
    assert_eq!(lint.suppressions[0].reason, "length checked by caller");
}

#[test]
fn suppression_is_rule_and_kind_scoped() {
    // An allow narrowed to VL01[index] must not silence an unwrap.
    let src = "// vrlint: hot\n\
               fn f(v: &[u32]) -> u32 {\n\
               \x20   // vrlint: allow(VL01[index], reason = \"bound audited\")\n\
               \x20   v[0] + v.last().unwrap()\n\
               }\n";
    assert_eq!(denied(HOT, src), vec![("VL01", "unwrap".into(), 4)]);
}

#[test]
fn allow_block_covers_the_next_block() {
    let src = "// vrlint: allow-block(VL01, reason = \"kernel bounds audited\")\n\
               fn f(v: &[u32]) -> u32 {\n\
               \x20   v.first().unwrap() + v.last().unwrap()\n\
               }\n\
               fn g(v: &[u32]) -> u32 {\n\
               \x20   *v.first().unwrap()\n\
               }\n";
    // Both unwraps in `f` are covered; the one in `g` is not.
    assert_eq!(denied(HOT, src), vec![("VL01", "unwrap".into(), 6)]);
}

#[test]
fn unused_suppression_is_reported_not_denied() {
    let src = "// vrlint: allow(VL01, reason = \"nothing here panics\")\n\
               fn f() -> u32 {\n\
               \x20   7\n\
               }\n";
    let lint = lint_source(HOT, src, Options::default());
    assert!(lint.denied().next().is_none());
    assert_eq!(lint.suppressions.len(), 1);
    assert_eq!(lint.suppressions[0].used, 0, "flagged for cleanup");
}

#[test]
fn vl00_missing_reason_is_denied() {
    let src = "fn f(v: &[u32]) -> u32 {\n\
               \x20   // vrlint: allow(VL01)\n\
               \x20   *v.first().unwrap()\n\
               }\n";
    let found = denied(HOT, src);
    assert!(
        found.contains(&("VL00", "directive".to_string(), 2)),
        "a suppression without a reason is itself a finding: {found:?}"
    );
}

// --------------------------------------------------- lexer edge cases

#[test]
fn lexer_ignores_strings_and_comments() {
    let src = "fn f() -> &'static str {\n\
               \x20   // a comment mentioning .unwrap() is not a call\n\
               \x20   /* nor /* a nested */ block one: panic!(\"no\") */\n\
               \x20   \"string .unwrap() contents\"\n\
               }\n";
    assert_eq!(denied(HOT, src), vec![]);
}

#[test]
fn lexer_raw_strings_with_fences() {
    // `"#` inside an `r##` string must not close it early; if it did,
    // the trailing unwrap-looking text would leak into the token
    // stream.
    let src = concat!(
        "fn f() -> &'static str {\n",
        "    r##",
        "\"quoted \"# .unwrap() still inside\"",
        "##\n",
        "}\n"
    );
    assert_eq!(denied(HOT, src), vec![]);
}

#[test]
fn cfg_test_blocks_are_exempt() {
    let src = "fn lib() -> u32 {\n\
               \x20   7\n\
               }\n\
               #[cfg(test)]\n\
               mod tests {\n\
               \x20   #[test]\n\
               \x20   fn t() {\n\
               \x20       super::lib().checked_mul(2).unwrap();\n\
               \x20   }\n\
               }\n";
    assert_eq!(denied(HOT, src), vec![], "tests may panic — that's failing");
}

#[test]
fn exempt_paths_only_get_the_unsafe_audit() {
    let src = "fn t(v: &[u32]) {\n\
               \x20   v.first().unwrap();\n\
               \x20   let h: std::collections::HashMap<u32, u32> = Default::default();\n\
               \x20   drop(h);\n\
               }\n";
    assert_eq!(denied("tests/integration.rs", src), vec![]);
    assert_eq!(denied("shims/rand/src/lib.rs", src), vec![]);
    assert_eq!(denied("crates/bench/src/main.rs", src), vec![]);
}

// ------------------------------------------------------- self-lint

#[test]
fn workspace_self_lint_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = vrlint::lint_workspace(&root, Options::default()).expect("lint workspace");
    let open: Vec<String> = ws
        .denied()
        .map(|(path, f)| {
            format!(
                "{path}:{} {}[{}] {}",
                f.line,
                f.rule.id(),
                f.kind,
                f.message
            )
        })
        .collect();
    assert!(
        open.is_empty(),
        "the workspace must carry zero unsuppressed findings:\n{}",
        open.join("\n")
    );
    assert_eq!(
        ws.unsafe_total,
        vrlint::PINNED_UNSAFE_BLOCKS,
        "unsafe count moved — update the pin deliberately or remove the block"
    );
    assert!(ws.hot_regions() > 0, "the hot markers must still be seeded");
}
