//! The project lint catalog and the per-file analyzer.
//!
//! Each lint encodes an invariant the platform's correctness argument
//! rests on (see DESIGN.md §"Static analysis & invariants" for the full
//! catalog with rationale):
//!
//! * **D1 `wall-clock`** — no wall-clock / ambient-nondeterminism calls
//!   (`Instant::now`, `SystemTime`, `thread_rng`, `env::var`) in
//!   simulation/TTI code. Virtual time must be the only clock.
//! * **D2 `nondet-iter`** — no `HashMap`/`HashSet` in per-TTI modules;
//!   their iteration order is seeded per-process and would break the
//!   live determinism contracts: a sharded master bit-identical to one
//!   shard, and the digests pinned in `tests/determinism.rs`. Use
//!   `BTreeMap`/`BTreeSet`.
//! * **P1 `panic`** — no `unwrap`/`expect`/`panic!`-family/indexing in
//!   the runtime paths of `proto`, `agent`, `controller`: a malformed
//!   frame or a lost session must surface as `flexran_types::Error`,
//!   never tear down the control plane.
//! * **R1 `rib-write`** — only `controller::rib`, the designated
//!   single writer `controller::updater`, and the shard container
//!   `controller::shard` (which owns one updater per shard and the
//!   read-only merge) may name RIB mutation methods (paper Fig. 5
//!   single-writer/multi-reader discipline, applied per shard: no
//!   module outside the shard's own updater may mutate its RIB).
//! * **A1 `hot-alloc`** — no allocating calls inside `*_into` function
//!   bodies, or inside any function annotated `// lint:no-alloc` on the
//!   lines directly above its `fn` (the zero-alloc hot-path contract
//!   gated at runtime by `experiments allocgate`). The annotation is
//!   how per-TTI paths whose names don't end in `_into` — shard
//!   RIB-slot bodies, the finish-cycle merge, interference coupling —
//!   opt into coverage.
//! * **U1 `unsafe`** — every `unsafe` token needs a `// SAFETY:` comment
//!   within the three preceding lines.
//!
//! Suppression: `// lint:allow(<key>[, <key>...])` on the same line or
//! the line directly above, with a justification in the trailing text.
//! Test code (`#[cfg(test)]` modules, `#[test]` functions) is exempt
//! from every lint except U1 — tests may panic, but unsafe stays
//! audited everywhere.

use std::collections::BTreeSet;

use crate::lexer::{lex, Comment, Tok, TokKind};

/// Lint identifiers. `A2`/`P2` are the interprocedural lints
/// computed over the workspace call graph (see [`crate::reach`]); the
/// rest are per-file token lints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintId {
    D1,
    D2,
    P1,
    R1,
    A1,
    U1,
    /// Transitive no-alloc: nothing reachable from a `*_into` /
    /// `lint:no-alloc` root may allocate.
    A2,
    /// Transitive panic-reachability: nothing reachable from the
    /// control-plane runtime crates may panic, even in other crates.
    P2,
}

impl LintId {
    pub const ALL: [LintId; 8] = [
        LintId::D1,
        LintId::D2,
        LintId::P1,
        LintId::R1,
        LintId::A1,
        LintId::U1,
        LintId::A2,
        LintId::P2,
    ];

    /// Stable id used in diagnostics and the baseline file.
    pub fn id(self) -> &'static str {
        match self {
            LintId::D1 => "D1",
            LintId::D2 => "D2",
            LintId::P1 => "P1",
            LintId::R1 => "R1",
            LintId::A1 => "A1",
            LintId::U1 => "U1",
            LintId::A2 => "A2",
            LintId::P2 => "P2",
        }
    }

    /// The key accepted by `// lint:allow(...)`.
    pub fn allow_key(self) -> &'static str {
        match self {
            LintId::D1 => "wall-clock",
            LintId::D2 => "nondet-iter",
            LintId::P1 => "panic",
            LintId::R1 => "rib-write",
            LintId::A1 => "hot-alloc",
            LintId::U1 => "unsafe",
            LintId::A2 => "alloc-reach",
            LintId::P2 => "panic-reach",
        }
    }

    pub fn from_id(s: &str) -> Option<LintId> {
        LintId::ALL.iter().copied().find(|l| l.id() == s)
    }
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub lint: LintId,
    /// Path relative to the workspace root.
    pub file: String,
    pub line: u32,
    pub message: String,
}

/// Severity is uniform today (every lint gates CI through the baseline);
/// the field exists so the JSON output is future-proof.
pub const SEVERITY: &str = "deny";

/// Which lints run for a crate. `krate` is the directory name under
/// `crates/` (`proto`, `controller`, ...).
pub fn lints_for_crate(krate: &str) -> Vec<LintId> {
    let mut out = Vec::new();
    // Determinism + nondeterministic iteration: everything that can sit
    // on a TTI path. `bench` measures wall time by design and `lint` is
    // this tool.
    if !matches!(krate, "bench" | "lint") {
        out.push(LintId::D1);
        out.push(LintId::D2);
    }
    // Panic-freedom on the control-plane runtime paths, plus the
    // campaign orchestrator: a panicking aggregator would take down a
    // multi-hour soak and lose every completed run's record.
    if matches!(krate, "proto" | "agent" | "controller" | "campaign") {
        out.push(LintId::P1);
    }
    // RIB single-writer discipline: the RIB lives in `controller`;
    // `apps` is covered too (belt and braces over the read-only
    // RibView). Other crates have unrelated methods with colliding
    // names (`SimHarness::agent_mut`).
    if matches!(krate, "controller" | "apps") {
        out.push(LintId::R1);
    }
    // Hot-path allocation and the unsafe audit apply everywhere.
    out.push(LintId::A1);
    out.push(LintId::U1);
    out
}

/// Modules inside `controller` allowed to name RIB mutation methods:
/// the RIB itself, the single-writer updater, and the shard container
/// (each shard owns exactly one updater; `merged_rib` adopts cloned
/// subtrees into a fresh, local forest). Everything else — master,
/// northbound, apps — must route writes through a shard's own updater.
fn r1_exempt(krate: &str, rel_path: &str) -> bool {
    krate == "controller"
        && (rel_path.ends_with("rib.rs")
            || rel_path.ends_with("updater.rs")
            || rel_path.ends_with("shard.rs"))
}

/// Analyze one file's source. `file` is the workspace-relative path used
/// in diagnostics; `krate` selects the active lint set.
pub fn analyze_source(krate: &str, file: &str, src: &str) -> Vec<Diagnostic> {
    let active = lints_for_crate(krate);
    let out = lex(src);
    let allows = collect_allows(&out.comments);
    let safety_lines: BTreeSet<u32> = out
        .comments
        .iter()
        .filter(|c| c.text.contains("SAFETY:"))
        .map(|c| c.line)
        .collect();
    let test_spans = find_test_spans(&out.toks);
    let mut into_bodies = find_into_bodies(&out.toks);
    into_bodies.extend(find_marked_bodies(&out.toks, &out.comments));

    let in_test = |line: u32| test_spans.iter().any(|(a, b)| (*a..=*b).contains(&line));
    let allowed = |lint: LintId, line: u32| {
        let key = lint.allow_key();
        allows
            .iter()
            .any(|(l, k)| (*l == line || *l + 1 == line) && k == key)
    };
    let in_into = |ti: usize| into_bodies.iter().any(|(a, b)| (*a..=*b).contains(&ti));

    let mut diags = Vec::new();
    let mut emit = |lint: LintId, line: u32, message: String| {
        if lint != LintId::U1 && in_test(line) {
            return;
        }
        if allowed(lint, line) {
            return;
        }
        diags.push(Diagnostic {
            lint,
            file: file.to_string(),
            line,
            message,
        });
    };

    let toks = &out.toks;
    for i in 0..toks.len() {
        let t = &toks[i];
        // P1 (indexing): `expr[...]` can panic. Detected as a `[` that
        // directly follows an expression tail (identifier, `)` or `]`),
        // which skips array literals, types, slice patterns and
        // attributes. Keywords (`let [a, b] = ..`) are excluded.
        if active.contains(&LintId::P1) && t.text == "[" && i > 0 && is_expr_tail(&toks[i - 1]) {
            emit(
                LintId::P1,
                t.line,
                "slice/array indexing can panic on a runtime path; use `.get()` / \
                 `.split_first()` or prove bounds and annotate `// lint:allow(panic)`"
                    .into(),
            );
        }
        if t.kind != TokKind::Ident {
            continue;
        }
        let line = t.line;
        match t.text.as_str() {
            // ------------------------- D1: wall clock -------------------
            "Instant" if active.contains(&LintId::D1) && seq(toks, i + 1, &["::", "now"]) => {
                emit(
                    LintId::D1,
                    line,
                    "wall-clock read (`Instant::now`) in deterministic code; \
                     use the sim clock / TTI, or justify with `// lint:allow(wall-clock)`"
                        .into(),
                );
            }
            "SystemTime" if active.contains(&LintId::D1) => {
                emit(
                    LintId::D1,
                    line,
                    "`SystemTime` in deterministic code; use the sim clock / TTI".into(),
                );
            }
            "thread_rng" if active.contains(&LintId::D1) => {
                emit(
                    LintId::D1,
                    line,
                    "`thread_rng` is seeded per-thread; use a seeded RNG".into(),
                );
            }
            "env"
                if active.contains(&LintId::D1)
                    && (seq(toks, i + 1, &["::", "var"])
                        || seq(toks, i + 1, &["::", "var_os"])) =>
            {
                emit(
                    LintId::D1,
                    line,
                    "environment read in deterministic code; thread configuration through \
                     explicit config structs"
                        .into(),
                );
            }
            // --------------------- D2: nondet iteration -----------------
            "HashMap" | "HashSet" if active.contains(&LintId::D2) => {
                emit(
                    LintId::D2,
                    line,
                    format!(
                        "`{}` has nondeterministic iteration order; use `BTree{}`",
                        t.text,
                        &t.text[4..]
                    ),
                );
            }
            // ------------------------ P1: panic-freedom -----------------
            "unwrap" | "expect"
                if active.contains(&LintId::P1)
                    && prev_is(toks, i, ".")
                    && next_is(toks, i + 1, "(") =>
            {
                emit(
                    LintId::P1,
                    line,
                    format!(
                        "`.{}()` on a runtime path; propagate `flexran_types::Error` instead",
                        t.text
                    ),
                );
            }
            "panic" | "unreachable" | "todo" | "unimplemented"
                if active.contains(&LintId::P1) && next_is(toks, i + 1, "!") =>
            {
                emit(
                    LintId::P1,
                    line,
                    format!("`{}!` on a runtime path; return an error instead", t.text),
                );
            }
            // --------------------- R1: RIB single-writer ----------------
            "agent_mut" | "remove_agent" | "mark_stale" | "mark_fresh" | "adopt_agent"
                if active.contains(&LintId::R1)
                    && !r1_exempt(krate, file)
                    && prev_is(toks, i, ".")
                    && next_is(toks, i + 1, "(") =>
            {
                emit(
                    LintId::R1,
                    line,
                    format!(
                        "RIB mutation (`.{}`) outside the single-writer updater \
                         (controller::updater) — route the write through RibUpdater",
                        t.text
                    ),
                );
            }
            // ------------------------- U1: unsafe audit -----------------
            "unsafe" => {
                let documented = (line.saturating_sub(3)..=line).any(|l| safety_lines.contains(&l));
                if !documented {
                    emit(
                        LintId::U1,
                        line,
                        "`unsafe` without a `// SAFETY:` comment in the 3 preceding lines".into(),
                    );
                }
            }
            _ => {}
        }

        // ------------------- A1: hot-path allocation --------------------
        if active.contains(&LintId::A1) && in_into(i) {
            if let Some(what) = alloc_pattern(toks, i) {
                emit(
                    LintId::A1,
                    line,
                    format!(
                        "allocation (`{what}`) inside a `*_into` hot path; reuse \
                         caller-provided scratch instead"
                    ),
                );
            }
        }
    }
    diags.sort_by_key(|a| (a.line, a.lint));
    diags
}

/// Allocating construct starting at token `i` inside an `_into` body.
pub(crate) fn alloc_pattern(toks: &[Tok], i: usize) -> Option<&'static str> {
    let t = &toks[i];
    if t.kind != TokKind::Ident {
        return None;
    }
    match t.text.as_str() {
        "Vec" | "String" | "Box" | "BTreeMap" | "BTreeSet" | "VecDeque" | "HashMap" | "HashSet" => {
            if seq(toks, i + 1, &["::", "new"]) || seq(toks, i + 1, &["::", "with_capacity"]) {
                return Some("constructor");
            }
            if t.text == "String" && seq(toks, i + 1, &["::", "from"]) {
                return Some("String::from");
            }
            if t.text == "Box" && seq(toks, i + 1, &["::", "new"]) {
                return Some("Box::new");
            }
            None
        }
        "vec" if next_is(toks, i + 1, "!") => Some("vec!"),
        "format" if next_is(toks, i + 1, "!") => Some("format!"),
        "clone" if prev_is(toks, i, ".") && next_is(toks, i + 1, "(") => Some(".clone()"),
        "to_vec" if prev_is(toks, i, ".") && next_is(toks, i + 1, "(") => Some(".to_vec()"),
        "to_string" if prev_is(toks, i, ".") && next_is(toks, i + 1, "(") => Some(".to_string()"),
        "to_owned" if prev_is(toks, i, ".") && next_is(toks, i + 1, "(") => Some(".to_owned()"),
        // `.collect()` and the turbofish form `.collect::<Vec<_>>()`.
        "collect"
            if prev_is(toks, i, ".")
                && (next_is(toks, i + 1, "(") || seq(toks, i + 1, &["::", "<"])) =>
        {
            Some(".collect()")
        }
        _ => None,
    }
}

/// Does `t` end an expression a `[` could index? Identifiers that are
/// really keywords introduce patterns/items instead and are excluded.
pub(crate) fn is_expr_tail(t: &Tok) -> bool {
    match t.kind {
        TokKind::Punct => t.text == ")" || t.text == "]",
        TokKind::Ident => !matches!(
            t.text.as_str(),
            "let"
                | "mut"
                | "ref"
                | "in"
                | "return"
                | "if"
                | "else"
                | "match"
                | "move"
                | "as"
                | "const"
                | "static"
                | "break"
                | "continue"
                | "where"
                | "unsafe"
                | "dyn"
                | "impl"
                | "for"
                | "while"
                | "loop"
                | "box"
                | "pub"
                | "crate"
                | "use"
                | "mod"
                | "enum"
                | "struct"
                | "union"
                | "trait"
                | "type"
                | "fn"
                | "Some"
                | "Ok"
                | "Err"
                | "None"
        ),
        _ => false,
    }
}

/// `toks[i..]` matches `texts` exactly.
pub(crate) fn seq(toks: &[Tok], i: usize, texts: &[&str]) -> bool {
    texts
        .iter()
        .enumerate()
        .all(|(k, want)| toks.get(i + k).is_some_and(|t| t.text == *want))
}

pub(crate) fn next_is(toks: &[Tok], i: usize, text: &str) -> bool {
    toks.get(i).is_some_and(|t| t.text == text)
}

pub(crate) fn prev_is(toks: &[Tok], i: usize, text: &str) -> bool {
    i > 0 && toks[i - 1].text == text
}

/// Parse `lint:allow(key, key2)` annotations out of comments, yielding
/// `(line, key)` pairs. Doc comments are documentation: a quoted
/// `lint:allow(...)` inside one (e.g. the annotation grammar described
/// in a module doc) must never suppress anything.
pub(crate) fn collect_allows(comments: &[Comment]) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for c in comments {
        if c.doc {
            continue;
        }
        let mut rest = c.text.as_str();
        while let Some(pos) = rest.find("lint:allow(") {
            rest = &rest[pos + "lint:allow(".len()..];
            let Some(end) = rest.find(')') else { break };
            for key in rest[..end].split(',') {
                let key = key.trim();
                if !key.is_empty() {
                    out.push((c.line, key.to_string()));
                }
            }
            rest = &rest[end..];
        }
    }
    out
}

/// Line spans `[start, end]` of `#[cfg(test)]` / `#[test]` items, or the
/// whole file when it opens with `#![cfg(test)]` (an out-of-line test
/// module, whose `#[cfg(test)] mod` declaration sits in another file).
pub(crate) fn find_test_spans(toks: &[Tok]) -> Vec<(u32, u32)> {
    if seq(toks, 0, &["#", "!", "[", "cfg", "(", "test", ")", "]"]) {
        return vec![(1, u32::MAX)];
    }
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text == "#" && next_is(toks, i + 1, "[") {
            // Collect idents inside the attribute.
            let attr_start = i;
            let mut depth = 0usize;
            let mut has_test = false;
            let mut j = i + 1;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    "test" if toks[j].kind == TokKind::Ident => has_test = true,
                    _ => {}
                }
                j += 1;
            }
            if has_test {
                // Skip any further attributes, then span the item body.
                let mut k = j + 1;
                while k < toks.len() && toks[k].text == "#" && next_is(toks, k + 1, "[") {
                    let mut d = 0usize;
                    k += 1;
                    while k < toks.len() {
                        match toks[k].text.as_str() {
                            "[" => d += 1,
                            "]" => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    k += 1;
                }
                // Find the item's opening brace (or `;` for an item
                // without a body).
                let mut paren = 0i32;
                while k < toks.len() {
                    match toks[k].text.as_str() {
                        "(" => paren += 1,
                        ")" => paren -= 1,
                        ";" if paren == 0 => break,
                        "{" if paren == 0 => {
                            let (end_line, end_tok) = match_brace(toks, k);
                            spans.push((toks[attr_start].line, end_line));
                            k = end_tok;
                            break;
                        }
                        _ => {}
                    }
                    k += 1;
                }
                i = k + 1;
                continue;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    spans
}

/// Token-index spans of the bodies of functions whose name ends in
/// `_into`.
fn find_into_bodies(toks: &[Tok]) -> Vec<(usize, usize)> {
    find_fn_bodies(toks, |toks, i| {
        toks.get(i + 1)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text.ends_with("_into"))
    })
}

/// Token spans of function bodies annotated `// lint:no-alloc` within
/// the three lines above their `fn` keyword (attributes may sit
/// between). These opt into the A1 hot-path allocation lint. Each
/// marker binds to the *first* `fn` that follows it, never to later
/// siblings that also happen to start within the window. Doc comments
/// never bind — a doc block *describing* the marker is not a marker.
fn find_marked_bodies(toks: &[Tok], comments: &[Comment]) -> Vec<(usize, usize)> {
    let markers: Vec<u32> = comments
        .iter()
        .filter(|c| !c.doc && c.text.contains("lint:no-alloc"))
        .map(|c| c.line)
        .collect();
    if markers.is_empty() {
        return Vec::new();
    }
    let mut marked_fns = BTreeSet::new();
    for marker in markers {
        let first = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                t.kind == TokKind::Ident
                    && t.text == "fn"
                    && t.line > marker
                    && t.line <= marker + 3
            })
            .map(|(i, _)| i)
            .next();
        if let Some(i) = first {
            marked_fns.insert(i);
        }
    }
    find_fn_bodies(toks, |_, i| marked_fns.contains(&i))
}

/// Token spans (exclusive of the braces) of every `fn` body for which
/// `qualifies(toks, fn_token_index)` holds.
fn find_fn_bodies(toks: &[Tok], qualifies: impl Fn(&[Tok], usize) -> bool) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind == TokKind::Ident && toks[i].text == "fn" && qualifies(toks, i) {
            // Scan to the body's opening brace at paren depth 0.
            let mut paren = 0i32;
            let mut k = i + 2;
            while k < toks.len() {
                match toks[k].text.as_str() {
                    "(" => paren += 1,
                    ")" => paren -= 1,
                    ";" if paren == 0 => break, // trait method declaration
                    "{" if paren == 0 => {
                        let (_, end_tok) = match_brace(toks, k);
                        spans.push((k + 1, end_tok.saturating_sub(1)));
                        k = end_tok;
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
            i = k + 1;
            continue;
        }
        i += 1;
    }
    spans
}

/// Given `toks[open]` == `{`, return `(line, index)` of the matching `}`.
pub(crate) fn match_brace(toks: &[Tok], open: usize) -> (u32, usize) {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return (t.line, k);
                }
            }
            _ => {}
        }
    }
    let last = toks.len().saturating_sub(1);
    (toks.last().map(|t| t.line).unwrap_or(1), last)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_ids(krate: &str, src: &str) -> Vec<(&'static str, u32)> {
        analyze_source(krate, "src/x.rs", src)
            .into_iter()
            .map(|d| (d.lint.id(), d.line))
            .collect()
    }

    #[test]
    fn d1_fires_and_allows() {
        let src = "fn f() {\n\
                   let t = Instant::now();\n\
                   let u = Instant::now(); // lint:allow(wall-clock) phase timing only\n\
                   }";
        assert_eq!(lint_ids("sim", src), vec![("D1", 2)]);
        // Not active for bench.
        assert!(lint_ids("bench", src).is_empty());
    }

    #[test]
    fn p1_needs_call_shape() {
        // `unwrap` as a plain identifier (e.g. a fn named unwrap_frames)
        // must not fire; `.unwrap()` must.
        let src = "fn f() { let unwrap = 1; let _ = x.unwrap(); }";
        assert_eq!(lint_ids("proto", src), vec![("P1", 1)]);
        assert!(lint_ids("stack", src).is_empty());
    }

    #[test]
    fn test_modules_are_exempt_except_unsafe() {
        let src = "#[cfg(test)]\nmod tests {\n fn f() { x.unwrap(); }\n\
                   fn g() { unsafe { y() } }\n}";
        let ids = lint_ids("proto", src);
        assert_eq!(ids, vec![("U1", 4)]);
        // An out-of-line test module marks itself with `#![cfg(test)]`.
        let src = "#![cfg(test)]\nfn f() { x.unwrap(); }\nfn g() { let a = v[0]; }";
        assert!(lint_ids("proto", src).is_empty());
    }

    #[test]
    fn a1_only_inside_into_bodies() {
        let src = "fn encode(x: u8) -> Vec<u8> { vec![x] }\n\
                   fn encode_into(x: u8, out: &mut Vec<u8>) { let s = format!(\"{x}\"); }\n";
        let ids = lint_ids("stack", src);
        assert_eq!(ids, vec![("A1", 2)]);
    }

    #[test]
    fn a1_covers_no_alloc_marked_bodies() {
        let src = "// lint:no-alloc — per-TTI path\n\
                   fn finish(out: &mut Vec<u8>) { let s = format!(\"x\"); }\n\
                   fn unmarked(out: &mut Vec<u8>) { let s = format!(\"x\"); }\n";
        let ids = lint_ids("controller", src);
        assert_eq!(ids, vec![("A1", 2)]);
    }

    #[test]
    fn a1_marker_reaches_past_attributes() {
        let src = "// lint:no-alloc\n\
                   #[inline]\n\
                   fn hot(out: &mut Vec<u8>) { let v = Vec::new(); }\n";
        let ids = lint_ids("stack", src);
        assert_eq!(ids, vec![("A1", 3)]);
    }

    #[test]
    fn a1_marker_too_far_above_does_not_bind() {
        let src = "// lint:no-alloc\n\n\n\n\
                   fn cold(out: &mut Vec<u8>) { let v = Vec::new(); }\n";
        assert!(lint_ids("stack", src).is_empty());
    }

    #[test]
    fn u1_satisfied_by_safety_comment() {
        let src = "// SAFETY: delegates to System with no invariants of its own.\n\
                   unsafe fn f() {}\n\
                   \n\n\n\n\
                   fn g() { unsafe { h() } }";
        let ids = lint_ids("bench", src);
        assert_eq!(ids, vec![("U1", 7)]);
    }

    #[test]
    fn r1_scoped_to_non_updater_modules() {
        let src = "fn f(rib: &mut Rib) { rib.agent_mut(e).mark_stale(t); }";
        let in_master = analyze_source("controller", "src/master.rs", src);
        assert_eq!(in_master.len(), 2);
        let in_updater = analyze_source("controller", "src/updater.rs", src);
        assert!(in_updater.is_empty());
        let in_shard = analyze_source("controller", "src/shard.rs", src);
        assert!(in_shard.is_empty(), "each shard owns its single writer");
    }

    #[test]
    fn r1_flags_cross_shard_adoption_outside_the_shard_module() {
        let src = "fn f(rib: &mut Rib, n: AgentNode) { rib.adopt_agent(n); }";
        let in_master = analyze_source("controller", "src/master.rs", src);
        assert_eq!(in_master.len(), 1, "adopting a subtree is a RIB write");
        let in_shard = analyze_source("controller", "src/shard.rs", src);
        assert!(in_shard.is_empty());
    }
}
