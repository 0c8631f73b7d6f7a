//! The rule catalog (VL01–VL07) and the scoped matching engine.
//!
//! Rules run over the token stream from [`crate::lexer`], scoped three
//! ways:
//!
//! * by **file class** ([`mod@crate::classify`]) — which rule families
//!   apply to the file at all;
//! * by **`#[cfg(test)]` / `#[test]` blocks** — test code is exempt
//!   from VL01–VL04 (panicking is how tests fail) and from VL06;
//! * by **`// vrlint: hot` functions** — the steady-state frame loop,
//!   where VL02 (no allocation) and VL01's index sub-rule apply.
//!
//! Suppressions are comments, counted and reported, never silent:
//!
//! ```text
//! // vrlint: allow(VL01, reason = "slot filled by construction")
//! // vrlint: allow-block(VL01[index], reason = "band bounds audited")
//! // vrlint: allow-file(VL03, reason = "measurement-only module")
//! ```
//!
//! A plain `allow` covers its own line (or, standing alone, the next
//! code line); `allow-block` covers the next `{…}` block (put it above
//! a `fn` to cover the body); `allow-file` covers the file. A missing
//! `reason` is itself a denied finding (VL00). VL07 findings yield only
//! to a line-scope `allow`: each kept uncalled function argues its own
//! case.

use std::collections::BTreeMap;

use crate::classify::{self, FileClass};
use crate::lexer::{Lexed, Tok, TokKind};

/// Rule identifiers. VL00 is the meta-rule: malformed directives.
#[derive(Clone, Copy, PartialEq, Eq, Debug, PartialOrd, Ord)]
pub enum Rule {
    /// Malformed `vrlint:` directive.
    VL00,
    /// No-panic on hot paths.
    VL01,
    /// No steady-state allocation in `vrlint: hot` functions.
    VL02,
    /// Determinism: no wall clock, seed-dependent containers or
    /// entropy in result-affecting modules.
    VL03,
    /// Lock discipline: declared locks, declared order, no panicking
    /// on lock results, no panic-capable calls while a guard is live.
    VL04,
    /// Unsafe audit: every `unsafe` carries a `// SAFETY:` comment and
    /// the workspace count stays pinned.
    VL05,
    /// One fork site: no `std::thread::{scope, spawn, Builder}` outside
    /// `gsplat::par`.
    VL06,
    /// Every public function has a caller: a library `pub fn` whose
    /// name appears in no other workspace file and, in its own file,
    /// only in its definition, test code and comments is dead API.
    VL07,
}

impl Rule {
    pub const ALL: [Rule; 8] = [
        Rule::VL00,
        Rule::VL01,
        Rule::VL02,
        Rule::VL03,
        Rule::VL04,
        Rule::VL05,
        Rule::VL06,
        Rule::VL07,
    ];

    pub fn id(self) -> &'static str {
        match self {
            Rule::VL00 => "VL00",
            Rule::VL01 => "VL01",
            Rule::VL02 => "VL02",
            Rule::VL03 => "VL03",
            Rule::VL04 => "VL04",
            Rule::VL05 => "VL05",
            Rule::VL06 => "VL06",
            Rule::VL07 => "VL07",
        }
    }

    pub fn parse(s: &str) -> Option<Rule> {
        match s {
            "VL00" => Some(Rule::VL00),
            "VL01" => Some(Rule::VL01),
            "VL02" => Some(Rule::VL02),
            "VL03" => Some(Rule::VL03),
            "VL04" => Some(Rule::VL04),
            "VL05" => Some(Rule::VL05),
            "VL06" => Some(Rule::VL06),
            "VL07" => Some(Rule::VL07),
            _ => None,
        }
    }
}

/// How a finding was silenced, if it was.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SuppressedBy {
    /// Index into [`FileLint::suppressions`].
    Inline(usize),
    /// Index into [`classify::BUILTIN_ALLOWS`].
    Builtin(usize),
}

/// One diagnostic.
#[derive(Clone, Debug)]
pub struct Finding {
    pub rule: Rule,
    /// Sub-rule label (`unwrap`, `index`, `order`, …) — narrowable in
    /// suppressions as `VL01[index]`.
    pub kind: &'static str,
    pub line: u32,
    pub message: String,
    /// One-line fix hint.
    pub hint: &'static str,
    pub suppressed: Option<SuppressedBy>,
    /// Emitted only under `--pedantic` widening; never denied.
    pub advisory: bool,
    /// Token index, for block-scope suppression matching.
    pub(crate) tok: usize,
}

/// Where an inline suppression applies.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SupScope {
    Line,
    Block,
    File,
}

/// One parsed `vrlint: allow*` directive.
#[derive(Clone, Debug)]
pub struct Suppression {
    /// Line of the comment.
    pub line: u32,
    /// Line findings must sit on for `Line` scope.
    pub target_line: u32,
    pub scope: SupScope,
    /// Suppressed rules, each optionally narrowed to one kind.
    pub rules: Vec<(Rule, Option<String>)>,
    pub reason: String,
    /// Findings this suppression silenced.
    pub used: u32,
    /// Token range for `Block` scope (filled during the walk).
    block: Option<(usize, usize)>,
}

impl Suppression {
    fn covers(&self, rule: Rule, kind: &str, line: u32, tok: usize) -> bool {
        let rule_hit = self
            .rules
            .iter()
            .any(|(r, k)| *r == rule && k.as_deref().map(|k| k == kind).unwrap_or(true));
        if !rule_hit || (rule == Rule::VL07 && self.scope != SupScope::Line) {
            return false;
        }
        match self.scope {
            SupScope::File => true,
            SupScope::Line => line == self.target_line,
            SupScope::Block => self
                .block
                .map(|(a, b)| tok >= a && tok <= b)
                .unwrap_or(false),
        }
    }
}

/// Lint result for one file.
#[derive(Default, Debug)]
pub struct FileLint {
    pub path: String,
    pub findings: Vec<Finding>,
    pub suppressions: Vec<Suppression>,
    /// `unsafe` tokens seen (with or without SAFETY comments).
    pub unsafe_count: usize,
    /// `vrlint: hot` regions found.
    pub hot_regions: usize,
    /// `pub fn` definitions outside test code, for the workspace-level
    /// VL07 pass (library files only): `(name, line, token index)`.
    pub pub_fns: Vec<(String, u32, usize)>,
    /// Every identifier token in the file, for VL07, with its number of
    /// uses outside test code. Comments and literals are not tokens.
    pub idents: BTreeMap<String, u32>,
}

impl FileLint {
    /// Findings that deny: unsuppressed and not advisory.
    pub fn denied(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.suppressed.is_none() && !f.advisory)
    }

    /// Marks `f` suppressed by the first inline directive covering it.
    pub(crate) fn suppress(&mut self, f: &mut Finding) {
        if f.suppressed.is_some() {
            return;
        }
        if let Some(si) = self
            .suppressions
            .iter()
            .position(|s| s.covers(f.rule, f.kind, f.line, f.tok))
        {
            self.suppressions[si].used += 1;
            f.suppressed = Some(SuppressedBy::Inline(si));
        }
    }
}

/// Engine options.
#[derive(Default, Clone, Copy)]
pub struct Options {
    /// Widen VL01's panic-family checks to every non-exempt library
    /// file, reported as advisory (never denied).
    pub pedantic: bool,
}

// ---------------------------------------------------------------------
// Directive parsing
// ---------------------------------------------------------------------

enum Payload {
    Hot,
    Allow {
        scope: SupScope,
        rules: Vec<(Rule, Option<String>)>,
        reason: String,
    },
}

struct Directive {
    line: u32,
    payload: Payload,
}

fn parse_directives(lx: &Lexed<'_>, out: &mut FileLint) -> Vec<Directive> {
    let mut dirs = Vec::new();
    for c in &lx.comments {
        // A directive must open the comment: `// vrlint: …` (also
        // `/* vrlint: … */`). Prose that merely *mentions* `vrlint:`
        // mid-sentence (docs, this file) is not a directive.
        let body = c.text.trim_start_matches("//").trim_start_matches("/*");
        let body = match body.as_bytes().first() {
            Some(b'/') | Some(b'!') | Some(b'*') => &body[1..],
            _ => body,
        };
        let Some(rest) = body.trim_start().strip_prefix("vrlint:") else {
            continue;
        };
        let rest = rest.trim_start();
        // Stop a block comment's payload at its own terminator.
        let rest = rest.split("*/").next().unwrap_or(rest).trim_end();
        if rest == "hot" || rest.starts_with("hot ") {
            dirs.push(Directive {
                line: c.line,
                payload: Payload::Hot,
            });
            continue;
        }
        let scope = if rest.starts_with("allow-file(") {
            SupScope::File
        } else if rest.starts_with("allow-block(") {
            SupScope::Block
        } else if rest.starts_with("allow(") {
            SupScope::Line
        } else {
            out.findings.push(Finding {
                rule: Rule::VL00,
                kind: "directive",
                line: c.line,
                message: format!("unrecognized vrlint directive: `{rest}`"),
                hint: "expected `hot`, `allow(…)`, `allow-block(…)` or `allow-file(…)`",
                suppressed: None,
                advisory: false,
                tok: 0,
            });
            continue;
        };
        match parse_allow_args(rest) {
            Ok((rules, reason)) => dirs.push(Directive {
                line: c.line,
                payload: Payload::Allow {
                    scope,
                    rules,
                    reason,
                },
            }),
            Err(why) => out.findings.push(Finding {
                rule: Rule::VL00,
                kind: "directive",
                line: c.line,
                message: format!("malformed vrlint directive: {why}"),
                hint: "syntax: vrlint: allow(VL01[kind], reason = \"why this is sound\")",
                suppressed: None,
                advisory: false,
                tok: 0,
            }),
        }
    }
    dirs
}

/// A suppressed rule plus its optional sub-rule kind narrowing
/// (`VL01[index]` → `(VL01, Some("index"))`).
type RuleSpec = (Rule, Option<String>);

fn parse_allow_args(rest: &str) -> Result<(Vec<RuleSpec>, String), String> {
    let open = rest.find('(').ok_or("missing `(`")?;
    let close = rest.rfind(')').ok_or("missing `)`")?;
    if close <= open {
        return Err("missing `)`".into());
    }
    let mut inner = rest[open + 1..close].trim();
    let mut rules = Vec::new();
    let mut reason = None;
    while !inner.is_empty() {
        if let Some(r) = inner.strip_prefix("reason") {
            let r = r.trim_start();
            let r = r.strip_prefix('=').ok_or("expected `=` after `reason`")?;
            let r = r.trim_start();
            let r = r.strip_prefix('"').ok_or("reason must be quoted")?;
            let end = r.find('"').ok_or("unterminated reason string")?;
            reason = Some(r[..end].to_string());
            inner = r[end + 1..]
                .trim_start()
                .trim_start_matches(',')
                .trim_start();
        } else if inner.starts_with("VL") {
            let id = &inner[..4.min(inner.len())];
            let rule = Rule::parse(id).ok_or_else(|| format!("unknown rule id `{id}`"))?;
            inner = inner[id.len()..].trim_start();
            let kind = if let Some(k) = inner.strip_prefix('[') {
                let end = k.find(']').ok_or("unterminated `[kind]`")?;
                let kind = k[..end].to_string();
                inner = k[end + 1..].trim_start();
                Some(kind)
            } else {
                None
            };
            rules.push((rule, kind));
            inner = inner.trim_start_matches(',').trim_start();
        } else {
            return Err(format!("unexpected `{inner}`"));
        }
    }
    if rules.is_empty() {
        return Err("no rule ids named".into());
    }
    let reason = reason.ok_or("missing reason")?;
    if reason.trim().is_empty() {
        return Err("empty reason".into());
    }
    Ok((rules, reason))
}

// ---------------------------------------------------------------------
// Structure walk: cfg(test) / hot / allow-block / catch_unwind ranges
// ---------------------------------------------------------------------

#[derive(Default)]
struct Ranges {
    cfg_test: Vec<(usize, usize)>,
    hot: Vec<(usize, usize)>,
    catch_unwind: Vec<(usize, usize)>,
}

fn in_ranges(ranges: &[(usize, usize)], i: usize) -> bool {
    ranges.iter().any(|&(a, b)| i >= a && i <= b)
}

/// Walks the token stream once: brace structure, `#[cfg(test)]`
/// attachment, directive attachment (hot + allow-block), and
/// `catch_unwind(...)` argument ranges.
fn build_ranges(
    toks: &[Tok<'_>],
    lx: &Lexed<'_>,
    dirs: &mut [Directive],
    out: &mut FileLint,
) -> Ranges {
    let mut ranges = Ranges::default();

    // Line-scoped and file-scoped allows can be registered up front.
    let mut block_dirs: Vec<(usize, bool)> = Vec::new(); // (dir idx, consumed)
    for (di, d) in dirs.iter().enumerate() {
        match &d.payload {
            Payload::Hot => block_dirs.push((di, false)),
            Payload::Allow { scope, .. } if *scope == SupScope::Block => {
                block_dirs.push((di, false))
            }
            Payload::Allow {
                scope,
                rules,
                reason,
            } => {
                let target_line = if *scope == SupScope::Line && !lx.has_code_on(d.line) {
                    lx.next_code_line(d.line + 1).unwrap_or(d.line)
                } else {
                    d.line
                };
                out.suppressions.push(Suppression {
                    line: d.line,
                    target_line,
                    scope: *scope,
                    rules: rules.clone(),
                    reason: reason.clone(),
                    used: 0,
                    block: None,
                });
            }
        }
    }

    struct Mark {
        open: usize,
        cfg_test: bool,
        hot: bool,
        sups: Vec<usize>, // indices into out.suppressions
    }
    let mut stack: Vec<Mark> = Vec::new();
    let mut pending_cfg_test = false;
    let mut pending_hot = false;
    let mut pending_sups: Vec<usize> = Vec::new();

    let mut i = 0usize;
    while i < toks.len() {
        let t = toks[i];

        // Activate block directives whose comment line has arrived.
        for (di, consumed) in block_dirs.iter_mut() {
            if *consumed || dirs[*di].line > t.line {
                continue;
            }
            *consumed = true;
            match &dirs[*di].payload {
                Payload::Hot => pending_hot = true,
                Payload::Allow {
                    scope,
                    rules,
                    reason,
                } => {
                    out.suppressions.push(Suppression {
                        line: dirs[*di].line,
                        target_line: dirs[*di].line,
                        scope: *scope,
                        rules: rules.clone(),
                        reason: reason.clone(),
                        used: 0,
                        block: None,
                    });
                    pending_sups.push(out.suppressions.len() - 1);
                }
            }
        }

        // Attribute: `#[...]` / `#![...]` — flag test scopes, then skip.
        if t.is_punct('#') {
            let mut j = i + 1;
            if j < toks.len() && toks[j].is_punct('!') {
                j += 1;
            }
            if j < toks.len() && toks[j].is_punct('[') {
                let mut depth = 1usize;
                let mut k = j + 1;
                let mut is_test = false;
                while k < toks.len() && depth > 0 {
                    if toks[k].is_punct('[') {
                        depth += 1;
                    } else if toks[k].is_punct(']') {
                        depth -= 1;
                    } else if toks[k].is_ident("test") || toks[k].is_ident("bench") {
                        is_test = true;
                    }
                    k += 1;
                }
                if is_test {
                    pending_cfg_test = true;
                }
                i = k;
                continue;
            }
        }

        if t.is_punct('{') {
            stack.push(Mark {
                open: i,
                cfg_test: pending_cfg_test,
                hot: pending_hot,
                sups: std::mem::take(&mut pending_sups),
            });
            if pending_hot {
                out.hot_regions += 1;
            }
            pending_cfg_test = false;
            pending_hot = false;
        } else if t.is_punct('}') {
            if let Some(m) = stack.pop() {
                if m.cfg_test {
                    ranges.cfg_test.push((m.open, i));
                }
                if m.hot {
                    ranges.hot.push((m.open, i));
                }
                for si in m.sups {
                    out.suppressions[si].block = Some((m.open, i));
                }
            }
        } else if t.is_punct(';') && stack.iter().all(|m| m.open != i) {
            // An item ended without a block: attributes and block
            // directives aimed at it must not leak onto the next block.
            pending_cfg_test = false;
            pending_hot = false;
            for si in pending_sups.drain(..) {
                // Degrade to covering nothing; reported as unused.
                out.suppressions[si].block = None;
            }
        } else if t.is_ident("catch_unwind") && i + 1 < toks.len() && toks[i + 1].is_punct('(') {
            if let Some(close) = matching_paren(toks, i + 1) {
                ranges.catch_unwind.push((i + 1, close));
            }
        }
        i += 1;
    }
    ranges
}

/// Index of the `)` matching the `(` at `open`, if well-formed.
fn matching_paren(toks: &[Tok<'_>], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

// ---------------------------------------------------------------------
// The matchers
// ---------------------------------------------------------------------

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

const ALLOC_CALLS: &[&str] = &["to_vec", "to_owned", "to_string", "collect", "clone"];

const ALLOC_PATHS: &[(&str, &[&str])] = &[
    ("Vec", &["new", "with_capacity", "from"]),
    ("Box", &["new"]),
    ("String", &["new", "from", "with_capacity"]),
];

const NONDET_TYPES: &[(&str, &str, &str)] = &[
    (
        "Instant",
        "time",
        "wall-clock reads make results timing-dependent",
    ),
    (
        "SystemTime",
        "time",
        "wall-clock reads make results timing-dependent",
    ),
    (
        "HashMap",
        "hash",
        "iteration order is RandomState-seeded, different every run",
    ),
    (
        "HashSet",
        "hash",
        "iteration order is RandomState-seeded, different every run",
    ),
    (
        "thread_rng",
        "rng",
        "OS-entropy randomness is unreproducible",
    ),
    ("OsRng", "rng", "OS-entropy randomness is unreproducible"),
    (
        "from_entropy",
        "rng",
        "OS-entropy randomness is unreproducible",
    ),
    (
        "RandomState",
        "hash",
        "per-process hash seeds change iteration order every run",
    ),
];

/// Lints one file's source under its path-derived class.
pub fn lint_source(rel: &str, src: &str, opts: Options) -> FileLint {
    let class = classify::classify(rel);
    lint_source_with_class(rel, src, class, opts)
}

/// Lints with an explicit class (fixture entry point).
pub fn lint_source_with_class(rel: &str, src: &str, class: FileClass, opts: Options) -> FileLint {
    let mut out = FileLint {
        path: rel.to_string(),
        ..FileLint::default()
    };
    let lx = crate::lexer::lex(src);
    let mut dirs = parse_directives(&lx, &mut out);
    let ranges = build_ranges(&lx.toks, &lx, &mut dirs, &mut out);
    let toks = &lx.toks;

    let mut pending: Vec<Finding> = Vec::new();
    let push = |pending: &mut Vec<Finding>,
                rule: Rule,
                kind: &'static str,
                tok: usize,
                line: u32,
                message: String,
                hint: &'static str,
                advisory: bool| {
        pending.push(Finding {
            rule,
            kind,
            line,
            message,
            hint,
            suppressed: None,
            advisory,
            tok,
        });
    };

    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident && !(t.kind == TokKind::Punct && t.is_punct('[')) {
            continue;
        }
        let in_test = in_ranges(&ranges.cfg_test, i);
        let in_hot = in_ranges(&ranges.hot, i);
        let prev = i.checked_sub(1).map(|j| toks[j]);
        let next = toks.get(i + 1).copied();
        let prev_dot = prev.map(|p| p.is_punct('.')).unwrap_or(false);
        let next_paren = next.map(|n| n.is_punct('(')).unwrap_or(false);
        let next_bang = next.map(|n| n.is_punct('!')).unwrap_or(false);

        // --- VL05: unsafe audit (applies everywhere, even tests) ---
        if t.is_ident("unsafe") {
            out.unsafe_count += 1;
            let justified = lx
                .comments
                .iter()
                .any(|c| c.line <= t.line && c.end_line + 3 >= t.line && c.text.contains("SAFETY"));
            if !justified {
                push(
                    &mut pending,
                    Rule::VL05,
                    "safety",
                    i,
                    t.line,
                    "`unsafe` without a `// SAFETY:` comment".into(),
                    "state the invariant that makes this sound in a // SAFETY: comment \
                     directly above",
                    false,
                );
            }
        }
        if in_test {
            continue;
        }

        // --- VL06: one fork site ---
        if class.fork_rule && t.is_ident("thread") {
            if let Some((j, name)) = thread_fork_call(toks, i) {
                push(
                    &mut pending,
                    Rule::VL06,
                    "fork",
                    j,
                    toks[j].line,
                    format!("`thread::{name}` outside gsplat::par forks a second way"),
                    "fan out through gsplat::par::with_crew (one batch of items: \
                     par::for_each_claimed; whole tasks: par::WorkerPool); std \
                     threads start only in crates/gsplat/src/par.rs",
                    false,
                );
            }
        }

        // --- VL01: no-panic ---
        let vl01_scope = class.no_panic || in_hot;
        if vl01_scope || (opts.pedantic && !class.exempt) {
            let advisory = !vl01_scope;
            if t.kind == TokKind::Ident
                && prev_dot
                && next_paren
                && (t.text == "unwrap" || t.text == "expect")
            {
                push(
                    &mut pending,
                    Rule::VL01,
                    if t.text == "unwrap" {
                        "unwrap"
                    } else {
                        "expect"
                    },
                    i,
                    t.line,
                    format!("`.{}()` can panic on the hot path", t.text),
                    "return DrawError/AssetError, use .get()/.unwrap_or_else(), or justify \
                     with vrlint: allow(VL01, reason = \"…\")",
                    advisory,
                );
            }
            if t.kind == TokKind::Ident && next_bang && PANIC_MACROS.contains(&t.text) {
                push(
                    &mut pending,
                    Rule::VL01,
                    "panic",
                    i,
                    t.line,
                    format!("`{}!` aborts the frame on the hot path", t.text),
                    "return an error or prove the arm dead and justify with vrlint: \
                     allow(VL01, reason = \"…\")",
                    advisory,
                );
            }
        }
        if in_hot && t.is_punct('[') {
            // Index expression: `expr[…]` — prev is a value producer.
            // Keywords (`&mut []`, `return [..]`, `in [..]`) open array
            // literals, not index expressions.
            const NOT_RECEIVERS: &[&str] = &[
                "mut", "return", "in", "as", "else", "match", "move", "ref", "box", "break", "if",
                "static", "dyn", "const", "let",
            ];
            let indexish = prev
                .map(|p| {
                    (p.kind == TokKind::Ident && !NOT_RECEIVERS.contains(&p.text))
                        || p.is_punct(']')
                        || p.is_punct(')')
                })
                .unwrap_or(false);
            if indexish {
                push(
                    &mut pending,
                    Rule::VL01,
                    "index",
                    i,
                    t.line,
                    "slice index can panic inside the steady-state frame loop".into(),
                    "use .get()/.get_mut()/iterators, or justify the bound with vrlint: \
                     allow(VL01[index], reason = \"…\")",
                    false,
                );
            }
        }

        // --- VL02: no steady-state allocation (hot functions) ---
        if in_hot && t.kind == TokKind::Ident {
            let mut alloc: Option<&'static str> = None;
            if next_bang && (t.text == "vec" || t.text == "format") {
                alloc = Some(if t.text == "vec" { "vec" } else { "format" });
            }
            if prev_dot && next_paren_or_turbofish(toks, i) && ALLOC_CALLS.contains(&t.text) {
                alloc = Some(match t.text {
                    "to_vec" => "to_vec",
                    "to_owned" => "to_owned",
                    "to_string" => "to_string",
                    "collect" => "collect",
                    _ => "clone",
                });
            }
            if let Some((ty, fns)) = ALLOC_PATHS.iter().find(|(ty, _)| t.is_ident(ty)) {
                if toks.get(i + 1).map(|n| n.is_punct(':')).unwrap_or(false)
                    && toks.get(i + 2).map(|n| n.is_punct(':')).unwrap_or(false)
                    && toks
                        .get(i + 3)
                        .map(|n| fns.iter().any(|f| n.is_ident(f)))
                        .unwrap_or(false)
                {
                    alloc = Some(match *ty {
                        "Vec" => "vec",
                        "Box" => "box",
                        _ => "string",
                    });
                }
            }
            if let Some(kind) = alloc {
                push(
                    &mut pending,
                    Rule::VL02,
                    kind,
                    i,
                    t.line,
                    format!("`{}` allocates inside a vrlint: hot function", t.text),
                    "hoist the storage into DrawScratch / the owning struct; the \
                     steady-state frame loop must not allocate (DESIGN.md §4)",
                    false,
                );
            }
        }

        // --- VL03: determinism ---
        if class.library && t.kind == TokKind::Ident {
            if let Some((ident, kind, why)) = NONDET_TYPES.iter().find(|(id, _, _)| t.is_ident(id))
            {
                let builtin = classify::BUILTIN_ALLOWS
                    .iter()
                    .position(|a| a.rule == Rule::VL03 && a.path == rel && a.ident == *ident);
                pending.push(Finding {
                    rule: Rule::VL03,
                    kind,
                    line: t.line,
                    message: format!("`{ident}` in a result-affecting module: {why}"),
                    hint: "use seeded SplitMix64 / the rand shim, BTreeMap/BTreeSet, or \
                           simulated timing; frames must be bit-exact for any run",
                    suppressed: builtin.map(SuppressedBy::Builtin),
                    advisory: false,
                    tok: i,
                });
            }
        }
    }

    // --- VL04: lock discipline (stateful sub-pass) ---
    if class.lock_rules {
        lint_locks(rel, toks, &ranges, &mut pending);
    }

    // --- VL07 inputs: definitions and identifier uses ---
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let in_test = in_ranges(&ranges.cfg_test, i);
        *out.idents.entry(t.text.to_string()).or_default() += u32::from(!in_test);
        if class.library && !in_test && t.is_ident("pub") {
            if let Some(name) = pub_fn_name(toks, i) {
                out.pub_fns.push((name.text.to_string(), name.line, i));
            }
        }
    }

    // Resolve inline suppressions.
    for f in &mut pending {
        out.suppress(f);
    }
    out.findings.append(&mut pending);
    out.findings.sort_by_key(|f| (f.line, f.rule));
    out
}

/// For a `pub` token at `i`: the name token of the `pub fn` it opens
/// (`pub const fn`, `pub unsafe fn` too; `pub(crate) fn` is not public).
fn pub_fn_name<'a>(toks: &[Tok<'a>], i: usize) -> Option<Tok<'a>> {
    let mut j = i + 1;
    while toks.get(j)?.kind == TokKind::Ident
        && matches!(toks[j].text, "const" | "async" | "unsafe")
    {
        j += 1;
    }
    if !toks[j].is_ident("fn") {
        return None;
    }
    toks.get(j + 1)
        .copied()
        .filter(|n| n.kind == TokKind::Ident)
}

/// Thread-starting items of `std::thread`: VL06 allows them only in the
/// fork site.
const FORK_ITEMS: &[&str] = &["scope", "spawn", "Builder"];

/// For a `thread` token at `i`: the token index and name of the
/// thread-starting item it paths to — `thread::spawn`, or one named in a
/// `thread::{…}` import group.
fn thread_fork_call<'a>(toks: &[Tok<'a>], i: usize) -> Option<(usize, &'a str)> {
    let colons = toks.get(i + 1)?.is_punct(':') && toks.get(i + 2)?.is_punct(':');
    if !colons {
        return None;
    }
    let next = toks.get(i + 3)?;
    if next.is_punct('{') {
        return toks[i + 4..]
            .iter()
            .take_while(|t| !t.is_punct('}'))
            .position(|t| FORK_ITEMS.iter().any(|f| t.is_ident(f)))
            .map(|k| (i + 4 + k, toks[i + 4 + k].text));
    }
    FORK_ITEMS
        .iter()
        .any(|f| next.is_ident(f))
        .then_some((i + 3, next.text))
}

/// `.collect(` and `.collect::<…>(` both match.
fn next_paren_or_turbofish(toks: &[Tok<'_>], i: usize) -> bool {
    match toks.get(i + 1) {
        Some(n) if n.is_punct('(') => true,
        Some(n) if n.is_punct(':') => toks.get(i + 2).map(|m| m.is_punct(':')).unwrap_or(false),
        _ => false,
    }
}

// ---------------------------------------------------------------------
// VL04: lock discipline
// ---------------------------------------------------------------------

/// Files whose guards must never see a panic-capable call outside
/// `catch_unwind`: the stream-state lock outlives the frame (PR 6's
/// never-poison argument).
const GUARD_PANIC_FILES: &[&str] = &["crates/core/src/serve.rs"];

struct LiveGuard {
    lock: &'static str,
    /// Brace depth at acquisition; the guard dies when the enclosing
    /// block closes.
    depth: usize,
    /// No `let` binding: the guard is a temporary, dead at the next
    /// `;` at its depth.
    stmt_only: bool,
    binding: Option<String>,
}

fn lint_locks(rel: &str, toks: &[Tok<'_>], ranges: &Ranges, pending: &mut Vec<Finding>) {
    let mut guards: Vec<LiveGuard> = Vec::new();
    let mut depth = 0usize;

    for i in 0..toks.len() {
        let t = toks[i];
        if in_ranges(&ranges.cfg_test, i) {
            continue;
        }
        if t.is_punct('{') {
            depth += 1;
            continue;
        }
        if t.is_punct('}') {
            depth = depth.saturating_sub(1);
            guards.retain(|g| g.depth <= depth);
            continue;
        }
        if t.is_punct(';') {
            guards.retain(|g| !(g.stmt_only && g.depth == depth));
            continue;
        }
        // Explicit early drop: `drop(guard)`.
        if t.is_ident("drop")
            && toks.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false)
            && toks.get(i + 3).map(|n| n.is_punct(')')).unwrap_or(false)
        {
            if let Some(arg) = toks.get(i + 2) {
                if arg.kind == TokKind::Ident {
                    guards.retain(|g| g.binding.as_deref() != Some(arg.text));
                }
            }
        }

        // Panic-capable call while a guard is live (outside
        // catch_unwind): the never-poison contract, machine-checked.
        // Scoped to the stream scheduler — its locks outlive frames, so
        // poison there strands every later frame of the stream; par's
        // slot mutexes are per-call scratch.
        if GUARD_PANIC_FILES.contains(&rel)
            && !guards.is_empty()
            && !in_ranges(&ranges.catch_unwind, i)
            && t.kind == TokKind::Ident
        {
            let prev_dot = i > 0 && toks[i - 1].is_punct('.');
            let next_bang = toks.get(i + 1).map(|n| n.is_punct('!')).unwrap_or(false);
            let next_paren = toks.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false);
            let panicky = (next_bang && PANIC_MACROS.contains(&t.text))
                || (prev_dot && next_paren && (t.text == "unwrap" || t.text == "expect"));
            // `.lock().unwrap()` gets its own sharper finding below;
            // don't double-report it here.
            let on_lock_result = prev_dot
                && i >= 2
                && toks[i - 2].is_punct(')')
                && lock_call_closing_at(toks, i - 2);
            if panicky && !on_lock_result {
                let held = guards.iter().map(|g| g.lock).collect::<Vec<_>>().join(", ");
                pending.push(Finding {
                    rule: Rule::VL04,
                    kind: "guard-panic",
                    line: t.line,
                    message: format!(
                        "panic-capable `{}` while holding {held}: an unwind here poisons \
                         the lock",
                        t.text
                    ),
                    hint: "wrap the fallible region in catch_unwind inside the guard \
                           (DESIGN.md §9), or move the call outside the critical section",
                    suppressed: None,
                    advisory: false,
                    tok: i,
                });
            }
        }

        // Acquisition sites.
        let is_method = t.kind == TokKind::Ident
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false);
        let is_lockish = is_method && matches!(t.text, "lock" | "wait" | "read" | "write");
        let is_named_fn = t.kind == TokKind::Ident
            && toks.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false)
            && !(i > 0 && (toks[i - 1].is_punct('.') || toks[i - 1].is_ident("fn")))
            && classify::LOCK_SITES
                .iter()
                .any(|s| s.path == rel && s.segment == t.text);
        if !is_lockish && !is_named_fn {
            continue;
        }

        let lock = if is_named_fn {
            classify::LOCK_SITES
                .iter()
                .find(|s| s.path == rel && s.segment == t.text)
                .map(|s| s.lock)
        } else {
            let segs = receiver_segments(toks, i - 1);
            segs.iter().find_map(|seg| {
                classify::LOCK_SITES
                    .iter()
                    .find(|s| s.path == rel && s.segment == *seg)
                    .map(|s| s.lock)
            })
        };
        let Some(lock) = lock else {
            // Unknown receiver: `.read`/`.write` share names with
            // std::io, so only `.lock()`/`.wait()` must be declared.
            if is_lockish && matches!(t.text, "lock" | "wait") {
                pending.push(Finding {
                    rule: Rule::VL04,
                    kind: "undeclared",
                    line: t.line,
                    message: format!(
                        "`.{}()` on a receiver not in the declared lock table",
                        t.text
                    ),
                    hint: "name the mutex so it maps to vrlint::classify::LOCK_SITES, and \
                           add it to the declared lock order (DESIGN.md §11)",
                    suppressed: None,
                    advisory: false,
                    tok: i,
                });
            }
            continue;
        };

        let via_wait = t.is_ident("wait");
        // Order check against every live guard.
        for g in &guards {
            if via_wait && g.lock == lock {
                continue; // Condvar wait: atomic release + re-acquire.
            }
            if classify::lock_rank(lock) <= classify::lock_rank(g.lock) {
                pending.push(Finding {
                    rule: Rule::VL04,
                    kind: "order",
                    line: t.line,
                    message: format!(
                        "acquiring `{lock}` while holding `{}` violates the declared \
                         lock order",
                        g.lock
                    ),
                    hint: "acquire locks in LOCK_ORDER position order (outermost first) \
                           or drop the held guard first",
                    suppressed: None,
                    advisory: false,
                    tok: i,
                });
            }
        }

        // Panicking on the lock result.
        if let Some(close) = matching_paren(toks, i + 1) {
            if toks
                .get(close + 1)
                .map(|n| n.is_punct('.'))
                .unwrap_or(false)
            {
                if let Some(m) = toks.get(close + 2) {
                    if m.is_ident("unwrap") || m.is_ident("expect") {
                        pending.push(Finding {
                            rule: Rule::VL04,
                            kind: "lock-unwrap",
                            line: m.line,
                            message: format!(
                                "`.{}()` on the `{lock}` lock result: panicking on \
                                 poison re-poisons the owner",
                                m.text
                            ),
                            hint: "recover the guard: .unwrap_or_else(|p| p.into_inner()) \
                                   — the protected state is repaired or replaced by the \
                                   caller (DESIGN.md §9)",
                            suppressed: None,
                            advisory: false,
                            tok: close + 2,
                        });
                    }
                }
            }
        }

        // Track the new guard (waits re-acquire an existing binding).
        if !via_wait {
            let (binding, stmt_only) = statement_binding(toks, i);
            guards.push(LiveGuard {
                lock,
                depth,
                stmt_only,
                binding,
            });
        }
    }
}

/// True when the `)` at `close_idx` terminates a `lock(`/`wait(`/
/// `read(`/`write(` call — used to avoid double-reporting
/// `.lock().unwrap()` as both `lock-unwrap` and `guard-panic`.
fn lock_call_closing_at(toks: &[Tok<'_>], close_idx: usize) -> bool {
    // Reverse scan for the matching '(' then check the ident before it.
    let mut depth = 0isize;
    let mut k = close_idx;
    loop {
        let t = toks[k];
        if t.is_punct(')') {
            depth += 1;
        } else if t.is_punct('(') {
            depth -= 1;
            if depth == 0 {
                return k > 0
                    && matches!(toks[k - 1].text, "lock" | "wait" | "read" | "write")
                    && toks[k - 1].kind == TokKind::Ident;
            }
        }
        if k == 0 {
            return false;
        }
        k -= 1;
    }
}

/// Collects the receiver path segments before the `.` at `dot_idx`,
/// innermost first: `self.queue.state.lock()` → `["state", "queue",
/// "self"]`; `INTERNED.get_or_init(…).lock()` → `["get_or_init",
/// "INTERNED"]`; `results[i].lock()` → `["results"]`.
fn receiver_segments<'a>(toks: &[Tok<'a>], dot_idx: usize) -> Vec<&'a str> {
    let mut segs = Vec::new();
    let mut j = dot_idx as isize - 1;
    while j >= 0 {
        let t = toks[j as usize];
        if t.is_punct(')') || t.is_punct(']') {
            // Skip the balanced group.
            let (openc, closec) = if t.is_punct(')') {
                ('(', ')')
            } else {
                ('[', ']')
            };
            let mut depth = 0isize;
            while j >= 0 {
                let u = toks[j as usize];
                if u.is_punct(closec) {
                    depth += 1;
                } else if u.is_punct(openc) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j -= 1;
            }
            j -= 1;
            continue;
        }
        if t.kind == TokKind::Ident {
            segs.push(t.text);
            j -= 1;
            // Continue through `.` and `::` path separators.
            if j >= 1 && toks[j as usize].is_punct(':') && toks[j as usize - 1].is_punct(':') {
                j -= 2;
                continue;
            }
            if j >= 0 && toks[j as usize].is_punct('.') {
                j -= 1;
                continue;
            }
        }
        break;
    }
    segs
}

/// Walks back from an acquisition to its statement head: returns the
/// `let` binding name if the guard is bound, else marks it a
/// temporary.
fn statement_binding(toks: &[Tok<'_>], acq_idx: usize) -> (Option<String>, bool) {
    let mut j = acq_idx as isize - 1;
    let mut depth = 0isize; // balanced-group skip, reverse direction
    while j >= 0 {
        let t = toks[j as usize];
        if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth += 1;
        } else if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            if depth == 0 {
                break; // statement start (enclosing block/call opened)
            }
            depth -= 1;
        } else if depth == 0 && t.is_punct(';') {
            break;
        } else if depth == 0 && t.is_ident("let") {
            let mut k = j as usize + 1;
            if toks.get(k).map(|n| n.is_ident("mut")).unwrap_or(false) {
                k += 1;
            }
            if let Some(b) = toks.get(k) {
                if b.kind == TokKind::Ident {
                    return (Some(b.text.to_string()), false);
                }
            }
            return (None, false);
        }
        j -= 1;
    }
    (None, true)
}
