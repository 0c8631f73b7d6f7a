//! vrlint — the in-repo static invariant checker.
//!
//! The workspace's correctness story rests on contracts that prose and
//! tests alone cannot hold as the code grows: frames are bit-exact for
//! any thread count and service order, the steady-state frame loop
//! allocates nothing, decoding arbitrary bytes never panics, and a
//! panic inside the stream-state lock never poisons it. vrlint turns
//! those contracts into deny-by-default machine-checked rules:
//!
//! | rule | contract |
//! |------|----------|
//! | VL01 | no-panic in hot-path modules (`unwrap`/`expect`/`panic!`-family, slice indexing in `vrlint: hot` functions) |
//! | VL02 | no steady-state allocation in `vrlint: hot` functions |
//! | VL03 | determinism: no wall clock / seed-ordered containers / entropy in result-affecting modules |
//! | VL04 | lock discipline: declared locks, declared order, poison recovery, no panics while a guard is live |
//! | VL05 | unsafe audit: every `unsafe` carries `// SAFETY:` and the workspace count stays pinned |
//! | VL06 | one fork site: `std::thread::{scope, spawn, Builder}` only in `gsplat::par`, outside test code |
//! | VL07 | every library `pub fn` has a caller: its name appears in another workspace file or outside test code in its own |
//!
//! The tool is dependency-free — a hand-rolled lexer
//! ([`lexer`]), not `syn` — so it builds offline with the rest of the
//! workspace and runs as both a CLI (`cargo run -p vrlint -- --deny`)
//! and a library (the fixture suite, `tests/vrlint_fixtures.rs`,
//! drives [`rules::lint_source_with_class`] and the workspace scan
//! directly). DESIGN.md §11 is the prose half of this catalog.

pub mod classify;
pub mod lexer;
pub mod rules;

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

pub use classify::{classify, FileClass, BUILTIN_ALLOWS, LOCK_ORDER};
pub use rules::{lint_source, lint_source_with_class, FileLint, Finding, Options, Rule};

/// The audited workspace `unsafe` budget. The library crates are
/// `unsafe`-free; the only uses are the counting global allocator of
/// `tests/draw_alloc.rs` (`unsafe impl GlobalAlloc` and its `alloc` and
/// `dealloc`, which forward to `System`). Any further block must carry a
/// `// SAFETY:` comment *and* consciously raise this pin.
pub const PINNED_UNSAFE_BLOCKS: usize = 3;

/// Aggregated lint over the whole workspace.
#[derive(Default)]
pub struct WorkspaceLint {
    /// Per-file results, path-sorted (deterministic output).
    pub files: Vec<FileLint>,
    /// Total `unsafe` tokens across every scanned file.
    pub unsafe_total: usize,
    /// Synthetic workspace-level findings (e.g. the unsafe pin).
    pub workspace_findings: Vec<Finding>,
}

impl WorkspaceLint {
    /// All findings with their file paths, per-file order preserved.
    pub fn findings(&self) -> impl Iterator<Item = (&str, &Finding)> {
        self.files
            .iter()
            .flat_map(|f| f.findings.iter().map(move |x| (f.path.as_str(), x)))
            .chain(self.workspace_findings.iter().map(|x| ("(workspace)", x)))
    }

    /// Unsuppressed, non-advisory findings — what `--deny` fails on.
    pub fn denied(&self) -> impl Iterator<Item = (&str, &Finding)> {
        self.findings()
            .filter(|(_, f)| f.suppressed.is_none() && !f.advisory)
    }

    /// `(found, suppressed)` per rule, in [`Rule::ALL`] order. Found
    /// counts exclude advisory (pedantic-only) findings.
    pub fn per_rule(&self) -> [(usize, usize); Rule::ALL.len()] {
        let mut out = [(0usize, 0usize); Rule::ALL.len()];
        for (_, f) in self.findings() {
            if f.advisory {
                continue;
            }
            let slot = &mut out[Rule::ALL.iter().position(|r| *r == f.rule).unwrap_or(0)];
            slot.0 += 1;
            if f.suppressed.is_some() {
                slot.1 += 1;
            }
        }
        out
    }

    /// Inline suppressions across all files: `(path, suppression)`.
    pub fn suppressions(&self) -> impl Iterator<Item = (&str, &rules::Suppression)> {
        self.files
            .iter()
            .flat_map(|f| f.suppressions.iter().map(move |s| (f.path.as_str(), s)))
    }

    /// Distinct builtin-allowlist entries that actually fired, with
    /// how many findings each silenced.
    pub fn builtin_uses(&self) -> Vec<(usize, usize)> {
        let mut counts: Vec<(usize, usize)> = Vec::new();
        for (_, f) in self.findings() {
            if let Some(rules::SuppressedBy::Builtin(b)) = f.suppressed {
                match counts.iter_mut().find(|(i, _)| *i == b) {
                    Some((_, n)) => *n += 1,
                    None => counts.push((b, 1)),
                }
            }
        }
        counts.sort_unstable();
        counts
    }

    /// `vrlint: hot` regions seen across the workspace.
    pub fn hot_regions(&self) -> usize {
        self.files.iter().map(|f| f.hot_regions).sum()
    }
}

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn workspace_root_from(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Collects every workspace `.rs` file (skipping `target/` and VCS
/// directories), path-sorted for deterministic reports.
pub fn workspace_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lints the whole workspace rooted at `root`.
pub fn lint_workspace(root: &Path, opts: Options) -> io::Result<WorkspaceLint> {
    let mut files = Vec::new();
    for path in workspace_sources(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        files.push((rel, std::fs::read_to_string(&path)?));
    }
    Ok(lint_sources(&files, opts))
}

/// Lints a set of `(workspace-relative path, source)` files as one
/// workspace: the per-file rules, then the cross-file passes (the
/// unsafe pin and VL07).
pub fn lint_sources(files: &[(String, String)], opts: Options) -> WorkspaceLint {
    let mut ws = WorkspaceLint::default();
    for (rel, src) in files {
        let file = rules::lint_source(rel, src, opts);
        ws.unsafe_total += file.unsafe_count;
        ws.files.push(file);
    }
    lint_uncalled(&mut ws.files);
    if ws.unsafe_total > PINNED_UNSAFE_BLOCKS {
        ws.workspace_findings.push(Finding {
            rule: Rule::VL05,
            kind: "pin",
            line: 0,
            message: format!(
                "{} unsafe block(s) exceed the audited pin of {}",
                ws.unsafe_total, PINNED_UNSAFE_BLOCKS
            ),
            hint: "audit the new unsafe, add // SAFETY:, then raise \
                   vrlint::PINNED_UNSAFE_BLOCKS in the same change",
            suppressed: None,
            advisory: false,
            tok: 0,
        });
    }
    ws
}

/// VL07: a library `pub fn` is uncalled when no other file names it and
/// its own file names it only in its definitions (and in test code and
/// comments, which are not counted).
fn lint_uncalled(files: &mut [FileLint]) {
    let mut files_naming: BTreeMap<&str, usize> = BTreeMap::new();
    for f in files.iter() {
        for name in f.idents.keys() {
            *files_naming.entry(name).or_default() += 1;
        }
    }
    let mut found: Vec<(usize, Finding)> = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        for (name, line, tok) in &f.pub_fns {
            let defs = f.pub_fns.iter().filter(|d| d.0 == *name).count() as u32;
            let own_uses = f.idents.get(name).copied().unwrap_or(0);
            if files_naming.get(name.as_str()) == Some(&1) && own_uses == defs {
                found.push((
                    fi,
                    Finding {
                        rule: Rule::VL07,
                        kind: "uncalled",
                        line: *line,
                        message: format!("`pub fn {name}` has no caller outside its own tests"),
                        hint: "delete it (tests that used it as a reference keep a local \
                               copy), or justify with vrlint: allow(VL07, reason = \"…\")",
                        suppressed: None,
                        advisory: false,
                        tok: *tok,
                    },
                ));
            }
        }
    }
    for (fi, mut finding) in found {
        let file = &mut files[fi];
        file.suppress(&mut finding);
        file.findings.push(finding);
        file.findings.sort_by_key(|f| (f.line, f.rule));
    }
}
