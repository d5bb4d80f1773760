//! Per-file symbol extraction: the facts the interprocedural lints need.
//!
//! One pass over a file's token stream produces a [`FileSummary`] — the
//! functions it defines (free functions, inherent and trait-impl
//! methods, trait default methods, and functions nested in other
//! bodies) together with, for each function:
//!
//! * every *call site* in its body (`f(..)`, `path::f(..)`, `.m(..)`),
//!   with closure bodies attributed to the enclosing function — a call
//!   made inside a closure is an edge from the function that owns the
//!   closure, which is how dynamic VSF swaps and iterator chains stay
//!   visible to reachability;
//! * every *allocation site* (the same pattern set as the per-file A1
//!   lint) not suppressed by `lint:allow(hot-alloc | alloc-reach)`;
//! * every *panic site* (the P1 pattern set: `unwrap`/`expect`,
//!   `panic!`-family macros, `expr[..]` indexing) not suppressed by
//!   `lint:allow(panic | panic-reach)`;
//! * its interprocedural annotation: `// lint:no-alloc` (A2 root).
//!
//! The interprocedural phase only ever consumes summaries, never source
//! text.

use crate::lexer::{lex, Comment, Tok, TokKind};
use crate::lints::{
    alloc_pattern, collect_allows, find_test_spans, is_expr_tail, match_brace, next_is, prev_is,
    seq,
};

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// Callee name (the identifier before the `(`).
    pub name: String,
    pub line: u32,
    /// `.name(..)` — method-call syntax.
    pub method: bool,
    /// `Qualifier::name(..)` — the path segment before the final `::`.
    pub qualifier: Option<String>,
    /// Call site carries `// lint:alloc-free-callee`: the callee has
    /// been audited not to allocate; A2 neither flags nor traverses it.
    pub assume_alloc_free: bool,
    /// Call site carries `lint:allow(alloc-reach)`: the callee's cone is
    /// a justified cold branch (rare control messages, crash recovery)
    /// exempt from the no-alloc contract — A2 does not traverse it.
    pub allow_alloc_reach: bool,
}

/// A direct allocation or panic site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// What fired (`format!`, `.clone()`, `.unwrap()`, `indexing`, ...).
    pub what: String,
    pub line: u32,
}

/// One function definition and its locally-derived facts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FnSym {
    pub name: String,
    /// Self type of the enclosing `impl` block, if any.
    pub impl_type: Option<String>,
    /// Trait name for `impl Trait for Type` methods and for trait
    /// declaration (default) methods.
    pub trait_name: Option<String>,
    pub line: u32,
    /// Inside a `#[cfg(test)]` module or `#[test]` item.
    pub is_test: bool,
    /// A2 root: name ends in `_into` or fn carries `// lint:no-alloc`.
    pub no_alloc_root: bool,
    pub calls: Vec<Call>,
    pub allocs: Vec<Site>,
    pub panics: Vec<Site>,
}

/// Everything the interprocedural phase needs to know about one file.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FileSummary {
    /// Crate directory name under `crates/`.
    pub krate: String,
    /// Workspace-relative path (forward slashes).
    pub file: String,
    pub fns: Vec<FnSym>,
}

/// Marker comment lines (non-doc) containing `needle`, for annotations
/// that bind to the first `fn` within the next three lines.
fn marker_lines(comments: &[Comment], needle: &str) -> Vec<u32> {
    comments
        .iter()
        .filter(|c| !c.doc && c.text.contains(needle))
        .map(|c| c.line)
        .collect()
}

/// Does any marker in `markers` bind to a `fn` token on `fn_line`?
/// Same window as the per-file A1 marker: the three lines above
/// (attributes may sit between), first-fn-wins semantics are enforced
/// by the caller passing fn lines in order.
fn marker_binds(markers: &[u32], bound: &mut [bool], fn_line: u32) -> bool {
    let mut hit = false;
    for (m, used) in markers.iter().zip(bound.iter_mut()) {
        if !*used && fn_line > *m && fn_line <= *m + 3 {
            *used = true;
            hit = true;
        }
    }
    hit
}

/// Keywords that can directly precede a `(` without being a call.
fn is_keyword(name: &str) -> bool {
    matches!(
        name,
        "if" | "while"
            | "for"
            | "match"
            | "return"
            | "loop"
            | "move"
            | "as"
            | "in"
            | "let"
            | "else"
            | "fn"
            | "pub"
            | "crate"
            | "super"
            | "self"
            | "where"
            | "break"
            | "continue"
            | "yield"
            | "await"
            | "box"
            | "ref"
            | "mut"
            | "dyn"
            | "impl"
            | "unsafe"
            | "const"
            | "static"
            | "use"
            | "mod"
            | "struct"
            | "enum"
            | "union"
            | "trait"
            | "type"
    )
}

/// CamelCase names in call position are tuple-struct / enum-variant
/// constructors (`EnbId(0)`, `Some(x)`): stack moves, never heap.
fn is_constructor_name(name: &str) -> bool {
    name.chars().next().is_some_and(|c| c.is_uppercase())
}

#[derive(Debug)]
struct ImplSpan {
    /// Token index range of the block body (inclusive of braces).
    start: usize,
    end: usize,
    type_name: Option<String>,
    trait_name: Option<String>,
}

/// Parse the header of an `impl` or `trait` item starting at token `i`
/// (the keyword itself) and return its body span + names.
fn parse_impl_or_trait(toks: &[Tok], i: usize) -> Option<ImplSpan> {
    let is_trait = toks[i].text == "trait";
    let mut k = i + 1;
    // Skip `<...>` generics, minding `->` inside bounds (`Fn() -> T`).
    let skip_generics = |k: &mut usize| {
        if next_is(toks, *k, "<") {
            let mut depth = 0i32;
            while *k < toks.len() {
                match toks[*k].text.as_str() {
                    "<" => depth += 1,
                    ">" if !prev_is(toks, *k, "-") => {
                        depth -= 1;
                        if depth == 0 {
                            *k += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                *k += 1;
            }
        }
    };
    skip_generics(&mut k);
    // Path up to `for`, `where` or `{`: remember the last plain ident.
    let take_path = |k: &mut usize| -> Option<String> {
        let mut last = None;
        while *k < toks.len() {
            let t = &toks[*k];
            match t.text.as_str() {
                "for" | "where" | "{" | ";" => break,
                "<" => skip_generics(k),
                _ => {
                    if t.kind == TokKind::Ident {
                        last = Some(t.text.clone());
                    }
                    *k += 1;
                }
            }
        }
        last
    };
    let first = take_path(&mut k);
    let (type_name, trait_name) = if is_trait {
        (None, first)
    } else if next_is(toks, k, "for") {
        k += 1;
        let ty = take_path(&mut k);
        (ty, first)
    } else {
        (first, None)
    };
    // Skip a `where` clause, then span the body.
    while k < toks.len() && toks[k].text != "{" && toks[k].text != ";" {
        k += 1;
    }
    if !next_is(toks, k, "{") {
        return None; // `impl Trait for Type;` — no body, nothing to scan.
    }
    let (_, end) = match_brace(toks, k);
    Some(ImplSpan {
        start: k,
        end,
        type_name,
        trait_name,
    })
}

/// Extract the symbol summary for one file.
pub fn summarize(krate: &str, file: &str, src: &str) -> FileSummary {
    let out = lex(src);
    let toks = &out.toks;
    let allows = collect_allows(&out.comments);
    let allowed = |keys: &[&str], line: u32| {
        allows
            .iter()
            .any(|(l, k)| (*l == line || *l + 1 == line) && keys.iter().any(|key| k == key))
    };
    let test_spans = find_test_spans(toks);
    let in_test = |line: u32| test_spans.iter().any(|(a, b)| (*a..=*b).contains(&line));

    // Impl / trait blocks (possibly nested in fn bodies — rare but legal).
    let mut impls: Vec<ImplSpan> = Vec::new();
    {
        let mut i = 0;
        while i < toks.len() {
            let t = &toks[i];
            if t.kind == TokKind::Ident && (t.text == "impl" || t.text == "trait") {
                // `impl` in type position (`impl Trait` as return/arg
                // type) has no body brace before the next `;`/`{` of an
                // fn — parse_impl_or_trait handles that by returning the
                // nearest brace, which for type-position `impl` would be
                // the *function* body. Filter: type-position `impl`
                // directly follows `->`, `:`, `(`, `,`, `=`, `&`, `<`
                // or `+`.
                let type_position = i > 0
                    && matches!(
                        toks[i - 1].text.as_str(),
                        "->" | ":" | "(" | "," | "=" | "&" | "<" | "+" | ">"
                    );
                if !type_position {
                    if let Some(span) = parse_impl_or_trait(toks, i) {
                        impls.push(span);
                    }
                }
            }
            i += 1;
        }
    }

    // Function definitions: every `fn` token, with its body span.
    // Nested fns get their own symbol; tokens are attributed to the
    // *innermost* enclosing body, so closure bodies belong to the
    // enclosing fn while nested fn bodies do not.
    let no_alloc_markers = marker_lines(&out.comments, "lint:no-alloc");
    let mut no_alloc_bound = vec![false; no_alloc_markers.len()];

    struct RawFn {
        sym: FnSym,
        body: Option<(usize, usize)>, // token span inclusive of braces
    }
    let mut fns: Vec<RawFn> = Vec::new();
    {
        let mut i = 0;
        while i < toks.len() {
            if toks[i].kind == TokKind::Ident && toks[i].text == "fn" {
                let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
                    i += 1;
                    continue; // `fn(` pointer type
                };
                let fn_line = toks[i].line;
                let (impl_type, trait_name) = impls
                    .iter()
                    .filter(|s| s.start < i && i < s.end)
                    .min_by_key(|s| s.end - s.start)
                    .map(|s| (s.type_name.clone(), s.trait_name.clone()))
                    .unwrap_or((None, None));
                // Body: scan past the signature to `{` at paren depth 0
                // (`;` first = trait declaration without a body).
                let mut paren = 0i32;
                let mut angle = 0i32;
                let mut k = i + 2;
                let mut body = None;
                while k < toks.len() {
                    match toks[k].text.as_str() {
                        "(" => paren += 1,
                        ")" => paren -= 1,
                        "<" => angle += 1,
                        ">" if !prev_is(toks, k, "-") && angle > 0 => angle -= 1,
                        ";" if paren == 0 => break,
                        "{" if paren == 0 => {
                            let (_, end) = match_brace(toks, k);
                            body = Some((k, end));
                            break;
                        }
                        _ => {}
                    }
                    k += 1;
                }
                let name = name_tok.text.clone();
                let no_alloc_root = name.ends_with("_into")
                    || marker_binds(&no_alloc_markers, &mut no_alloc_bound, fn_line);
                fns.push(RawFn {
                    sym: FnSym {
                        name,
                        impl_type,
                        trait_name,
                        line: fn_line,
                        is_test: in_test(fn_line),
                        no_alloc_root,
                        calls: Vec::new(),
                        allocs: Vec::new(),
                        panics: Vec::new(),
                    },
                    body,
                });
            }
            i += 1;
        }
    }

    // Attribute every token to the innermost enclosing fn body.
    let bodies: Vec<Option<(usize, usize)>> = fns.iter().map(|f| f.body).collect();
    let owner_of = move |ti: usize| -> Option<usize> {
        bodies
            .iter()
            .enumerate()
            .filter_map(|(fi, b)| {
                b.filter(|(a, z)| *a < ti && ti < *z)
                    .map(|(a, z)| (fi, z - a))
            })
            .min_by_key(|(_, span)| *span)
            .map(|(fi, _)| fi)
    };

    // Attribute spans (`#[...]`): their idents (`cfg`, `allow`, `derive`)
    // look exactly like call syntax and must not become edges.
    let mut attr_spans: Vec<(usize, usize)> = Vec::new();
    {
        let mut i = 0;
        while i < toks.len() {
            if toks[i].text == "#" && next_is(toks, i + 1, "[") {
                let mut depth = 0usize;
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
                        _ => {}
                    }
                    j += 1;
                }
                attr_spans.push((i, j));
                i = j + 1;
                continue;
            }
            i += 1;
        }
    }
    let in_attr = |ti: usize| attr_spans.iter().any(|(a, b)| (*a..=*b).contains(&ti));

    for i in 0..toks.len() {
        if in_attr(i) {
            continue;
        }
        let Some(fi) = owner_of(i) else { continue };
        let t = &toks[i];
        let line = t.line;

        // Indexing (panic site), same shape as P1.
        if t.text == "[" && i > 0 && is_expr_tail(&toks[i - 1]) {
            if !allowed(&["panic", "panic-reach"], line) {
                fns[fi].sym.panics.push(Site {
                    what: "indexing".into(),
                    line,
                });
            }
            continue;
        }
        if t.kind != TokKind::Ident {
            continue;
        }

        // Panic sites (P1 pattern set).
        let panic_site = match t.text.as_str() {
            "unwrap" | "expect" if prev_is(toks, i, ".") && next_is(toks, i + 1, "(") => {
                Some(format!(".{}()", t.text))
            }
            "panic" | "unreachable" | "todo" | "unimplemented" if next_is(toks, i + 1, "!") => {
                Some(format!("{}!", t.text))
            }
            _ => None,
        };
        if let Some(what) = panic_site {
            if !allowed(&["panic", "panic-reach"], line) {
                fns[fi].sym.panics.push(Site { what, line });
            }
            continue; // a panic site is never also a call edge
        }

        // Allocation sites (A1 pattern set). A token the alloc detector
        // claims (`.clone()`, `.collect()`, ...) is *only* an alloc
        // site, never also a call edge — otherwise every `.clone()`
        // would additionally surface as an unresolvable call.
        if let Some(what) = alloc_pattern(toks, i) {
            if !allowed(&["hot-alloc", "alloc-reach"], line) {
                fns[fi].sym.allocs.push(Site {
                    what: what.into(),
                    line,
                });
            }
            continue;
        }

        // Call sites: `name(` that is not a macro, a definition, or a
        // keyword. `name::<T>(` turbofish is matched too.
        if !next_is(toks, i + 1, "(") && !seq(toks, i + 1, &["::", "<"]) {
            continue;
        }
        if next_is(toks, i + 1, "!") || is_keyword(&t.text) {
            continue;
        }
        if prev_is(toks, i, "fn") {
            continue; // the definition itself
        }
        // Turbofish: verify a `(` follows the closed `::<...>`.
        if seq(toks, i + 1, &["::", "<"]) {
            let mut depth = 0i32;
            let mut k = i + 2;
            let mut ok = false;
            while k < toks.len() {
                match toks[k].text.as_str() {
                    "<" => depth += 1,
                    ">" if !prev_is(toks, k, "-") => {
                        depth -= 1;
                        if depth == 0 {
                            ok = next_is(toks, k + 1, "(");
                            break;
                        }
                    }
                    "(" | ")" | "{" | "}" | ";" => break,
                    _ => {}
                }
                k += 1;
            }
            if !ok {
                continue;
            }
        }
        let method = prev_is(toks, i, ".");
        let qualifier = if prev_is(toks, i, "::") && i >= 2 && toks[i - 2].kind == TokKind::Ident {
            Some(toks[i - 2].text.clone())
        } else {
            None
        };
        if !method && qualifier.is_none() && is_constructor_name(&t.text) {
            continue; // `EnbId(0)`, `Some(x)` — tuple constructors
        }
        fns[fi].sym.calls.push(Call {
            name: t.text.clone(),
            line,
            method,
            qualifier,
            assume_alloc_free: out.comments.iter().any(|c| {
                // Same line, or a *standalone* comment on the line above
                // (a trailing comment audits only its own line's call).
                !c.doc
                    && c.text.contains("lint:alloc-free-callee")
                    && (c.line == line
                        || (c.line + 1 == line && !toks.iter().any(|t| t.line == c.line)))
            }),
            allow_alloc_reach: allowed(&["alloc-reach"], line),
        });
    }

    FileSummary {
        krate: krate.to_string(),
        file: file.to_string(),
        fns: fns.into_iter().map(|f| f.sym).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(src: &str) -> FileSummary {
        summarize("stack", "crates/stack/src/x.rs", src)
    }

    #[test]
    fn extracts_free_fns_methods_and_trait_impls() {
        let src = "
            fn free() {}
            struct S;
            impl S { fn inherent(&self) {} }
            trait T { fn required(&self); fn defaulted(&self) { self.required(); } }
            impl T for S { fn required(&self) {} }
        ";
        let s = sym(src);
        let names: Vec<(&str, Option<&str>, Option<&str>)> = s
            .fns
            .iter()
            .map(|f| {
                (
                    f.name.as_str(),
                    f.impl_type.as_deref(),
                    f.trait_name.as_deref(),
                )
            })
            .collect();
        assert_eq!(
            names,
            vec![
                ("free", None, None),
                ("inherent", Some("S"), None),
                ("required", None, Some("T")),
                ("defaulted", None, Some("T")),
                ("required", Some("S"), Some("T")),
            ]
        );
        // The trait default method's call is attributed to it.
        let defaulted = &s.fns[3];
        assert_eq!(defaulted.calls.len(), 1);
        assert_eq!(defaulted.calls[0].name, "required");
        assert!(defaulted.calls[0].method);
    }

    #[test]
    fn closure_calls_attribute_to_enclosing_fn() {
        let src = "fn outer(v: &[u32]) -> u32 { v.iter().map(|x| helper(*x)).sum() }
                   fn helper(x: u32) -> u32 { x }";
        let s = sym(src);
        let outer = &s.fns[0];
        let callees: Vec<&str> = outer.calls.iter().map(|c| c.name.as_str()).collect();
        assert!(
            callees.contains(&"helper"),
            "closure call is an edge: {callees:?}"
        );
    }

    #[test]
    fn nested_fns_own_their_bodies() {
        let src = "fn outer() { fn inner() { alloc_here(); } inner(); }";
        let s = sym(src);
        assert_eq!(s.fns[0].name, "outer");
        assert_eq!(s.fns[1].name, "inner");
        let outer_calls: Vec<&str> = s.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        let inner_calls: Vec<&str> = s.fns[1].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(outer_calls, vec!["inner"]);
        assert_eq!(inner_calls, vec!["alloc_here"]);
    }

    #[test]
    fn constructors_and_macros_are_not_calls() {
        let src = "fn f() { let a = Some(EnbId(3)); println!(\"x\"); g(); }";
        let s = sym(src);
        let calls: Vec<&str> = s.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(calls, vec!["g"]);
    }

    #[test]
    fn qualified_calls_record_their_qualifier() {
        let src = "fn f() { WireWriter::with_capacity(9); x.encode_to(w); }";
        let s = sym(src);
        let c = &s.fns[0].calls;
        assert_eq!(c[0].qualifier.as_deref(), Some("WireWriter"));
        assert!(!c[0].method);
        assert_eq!(c[1].name, "encode_to");
        assert!(c[1].method);
    }

    #[test]
    fn roots_and_phase_markers_bind() {
        let src = "fn fill_into(out: &mut [u8]) {}
                   // lint:no-alloc
                   fn hot() {}
                   fn plain() {}";
        let s = sym(src);
        assert!(s.fns[0].no_alloc_root, "_into suffix");
        assert!(s.fns[1].no_alloc_root, "marker");
        assert!(!s.fns[2].no_alloc_root);
    }

    #[test]
    fn sites_respect_reach_allows() {
        let src = "fn f(v: &[u8]) {
            let a = v[0];
            let b = v[1]; // lint:allow(panic-reach) bounds checked above
            let s = x.to_vec();
            let t = x.to_vec(); // lint:allow(alloc-reach) cold path
        }";
        let s = sym(src);
        assert_eq!(s.fns[0].panics.len(), 1);
        assert_eq!(s.fns[0].panics[0].line, 2);
        assert_eq!(s.fns[0].allocs.len(), 1);
        assert_eq!(s.fns[0].allocs[0].line, 4);
    }

    #[test]
    fn alloc_free_callee_marks_the_call() {
        let src = "fn f() {
            audited(); // lint:alloc-free-callee verified by allocgate
            unaudited();
        }";
        let s = sym(src);
        assert!(s.fns[0].calls[0].assume_alloc_free);
        assert!(!s.fns[0].calls[1].assume_alloc_free);
    }

    #[test]
    fn doc_comment_markers_do_not_bind() {
        let src = "/// Call sites may carry `// lint:no-alloc` markers.\nfn documented() {}";
        let s = sym(src);
        assert!(!s.fns[0].no_alloc_root);
    }

    #[test]
    fn test_fns_are_tagged() {
        let src = "#[cfg(test)]\nmod tests { fn helper() {} }\nfn runtime() {}";
        let s = sym(src);
        assert!(s.fns[0].is_test);
        assert!(!s.fns[1].is_test);
    }
}
