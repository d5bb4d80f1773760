//! The conservative workspace call graph.
//!
//! Nodes are every [`FnSym`] extracted by [`crate::symbols`]; edges are
//! name-resolved call sites. Resolution is deliberately
//! over-approximate — when in doubt, an edge exists:
//!
//! * `.m(..)` method calls edge to **every** workspace method named `m`
//!   (inherent or trait impl). That is how trait dispatch is handled:
//!   a call through `dyn DlScheduler` reaches every implementation of
//!   the trait method, which is exactly the conservative answer for a
//!   platform whose whole point is swapping VSFs at runtime.
//! * `Type::f(..)` prefers the `f` defined in an `impl Type` block
//!   (`Self::f` resolves `Self` via the caller's impl), and falls back
//!   to every `f` in the workspace.
//! * Plain `f(..)` edges to every workspace function named `f`.
//!
//! Two filters keep the over-approximation honest instead of useless:
//!
//! * **Crate dependency direction** — an edge from crate `a` into crate
//!   `b` only exists if `a` (transitively) depends on `b` per the
//!   `Cargo.toml` graph. Without this, a `.send(..)` in the controller
//!   would "reach" the simulator's fault-injecting link (same method
//!   name), which cannot happen in a compiled binary.
//! * **The std allowlist** — calls that resolve to nothing in the
//!   workspace are *unknown*. Unknown calls to a curated list of
//!   allocation-free `std` names (slice/iterator/Option/arithmetic
//!   APIs) are accepted; anything else unknown is surfaced by A2 as a
//!   conservative finding unless the call site carries
//!   `// lint:alloc-free-callee`. Growth idioms (`push`, `insert`,
//!   `extend_from_slice`) are deliberately allowlisted: amortized
//!   pooled growth is this codebase's pattern, and the zero-alloc
//!   steady state is enforced at runtime by `experiments allocgate` at
//!   every scale-grid point — the lint hunts constructors, clones and
//!   formatters, the allocations pools can't amortize away.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

use crate::symbols::{Call, FileSummary, FnSym};

/// Allocation-free `std`/`core` names accepted when a call resolves to
/// nothing in the workspace. Kept sorted for readability; matched
/// exactly.
pub const STD_NO_ALLOC: &[&str] = &[
    // Slices, arrays, Vec (in-place / pooled growth).
    "as_bytes",
    "as_mut",
    "as_mut_slice",
    "as_ref",
    "as_slice",
    "as_str",
    "binary_search",
    "binary_search_by",
    "binary_search_by_key",
    "capacity",
    "chunks",
    "chunks_exact",
    "clear",
    "contains",
    "contains_key",
    "copy_from_slice",
    "dedup",
    "drain",
    "extend_from_slice",
    "fill",
    "first",
    "first_mut",
    "get",
    "get_mut",
    "get_or_insert_with",
    "insert",
    "is_empty",
    "iter",
    "iter_mut",
    "keys",
    "last",
    "last_mut",
    "len",
    "entry",
    "or_insert",
    "or_insert_with",
    "or_default",
    "pop",
    "pop_front",
    "push",
    "push_back",
    "push_front",
    "push_str",
    "remove",
    "resize",
    "retain",
    "reverse",
    "rotate_left",
    "rotate_right",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "split_at",
    "split_at_mut",
    "split_first",
    "split_last",
    "swap",
    "swap_remove",
    "truncate",
    "values",
    "values_mut",
    "windows",
    "append",
    // Iterator adaptors and consumers (lazy / in-place).
    "all",
    "any",
    "by_ref",
    "chain",
    "cloned",
    "copied",
    "count",
    "cycle",
    "enumerate",
    "filter",
    "filter_map",
    "find",
    "find_map",
    "flat_map",
    "flatten",
    "fold",
    "fuse",
    "inspect",
    "map",
    "map_while",
    "max",
    "max_by",
    "max_by_key",
    "min",
    "min_by",
    "min_by_key",
    "next",
    "next_back",
    "nth",
    "peekable",
    "peek",
    "position",
    "product",
    "rev",
    "scan",
    "skip",
    "skip_while",
    "step_by",
    "sum",
    "take",
    "take_while",
    "zip",
    // Option / Result plumbing.
    "and_then",
    "err",
    "expect_err",
    "filter",
    "flatten",
    "is_err",
    "is_none",
    "is_ok",
    "is_some",
    "is_some_and",
    "is_none_or",
    "map_err",
    "map_or",
    "map_or_else",
    "ok",
    "ok_or",
    "ok_or_else",
    "or",
    "or_else",
    "replace",
    "take",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "unwrap_unchecked",
    "xor",
    "and",
    "as_deref",
    "as_deref_mut",
    "cloned",
    "copied",
    "get_or_insert",
    "insert",
    "into_inner",
    "iter",
    "zip",
    // Numerics, ordering, conversion.
    "abs",
    "ceil",
    "clamp",
    "checked_add",
    "checked_div",
    "checked_mul",
    "checked_sub",
    "cmp",
    "div_euclid",
    "eq",
    "exp",
    "floor",
    "fract",
    "from_le_bytes",
    "from_be_bytes",
    "hash",
    "is_finite",
    "is_nan",
    "ln",
    "log10",
    "log2",
    "max",
    "min",
    "ne",
    "partial_cmp",
    "powf",
    "powi",
    "rem_euclid",
    "round",
    "saturating_add",
    "saturating_mul",
    "saturating_sub",
    "signum",
    "sqrt",
    "to_be_bytes",
    "to_le_bytes",
    "total_cmp",
    "trunc",
    "wrapping_add",
    "wrapping_mul",
    "wrapping_sub",
    "rotate_left",
    "leading_zeros",
    "trailing_zeros",
    "count_ones",
    "pow",
    "isqrt",
    "abs_diff",
    "midpoint",
    // str scanning (non-allocating views).
    "bytes",
    "char_indices",
    "chars",
    "ends_with",
    "find",
    "lines",
    "parse",
    "rfind",
    "split",
    "split_once",
    "split_whitespace",
    "splitn",
    "rsplit_once",
    "starts_with",
    "strip_prefix",
    "strip_suffix",
    "trim",
    "trim_end",
    "trim_end_matches",
    "trim_start",
    "trim_start_matches",
    "trim_matches",
    // mem / ptr / misc std facilities.
    "borrow",
    "borrow_mut",
    "default",
    "drop",
    "from",
    "into",
    "min_stack",
    "size_of",
    "swap",
    "take",
    "try_from",
    "try_into",
    // Time arithmetic (Instant/Duration math is alloc-free; *reading*
    // the clock is D1's business, not A2's).
    "as_micros",
    "as_millis",
    "as_nanos",
    "as_secs",
    "as_secs_f64",
    "checked_duration_since",
    "duration_since",
    "elapsed",
    "from_micros",
    "from_millis",
    "from_nanos",
    "from_secs",
    "from_secs_f64",
    "now",
    "saturating_duration_since",
    "subsec_nanos",
    // More in-place slice/collection/scalar APIs seen on workspace hot
    // paths. `reserve`/`resize_with`/`extend` are the same pooled-growth
    // class as `push` (amortized; gated at runtime by allocgate).
    "chunks_mut",
    "chunks_exact_mut",
    "copy_within",
    // `clone_from` reuses the destination's existing allocation — it is
    // the no-alloc-path *fix* for `a = b.clone()`, so it must not fire.
    "clone_from",
    "first_chunk",
    "last_chunk",
    "split_first_chunk",
    "split_last_chunk",
    "split_at_checked",
    "into_iter",
    "front",
    "front_mut",
    "back",
    "back_mut",
    "extend",
    "reserve",
    "resize_with",
    "then",
    "then_some",
    "div_ceil",
    "div_floor",
    "is_multiple_of",
    "rem",
    "cos",
    "sin",
    "tan",
    "atan2",
    "hypot",
    "mul_add",
    "to_bits",
    "from_bits",
    "from_utf8",
    "is_ascii_digit",
    "is_ascii_alphabetic",
    "is_ascii_alphanumeric",
    "is_ascii_whitespace",
    "eq_ignore_ascii_case",
    // Thread/synchronization primitives used by the worker pool: none
    // of these allocate per call (spawning threads does — `spawn` and
    // `scope` are deliberately NOT listed).
    "lock",
    "try_lock",
    "park",
    "park_timeout",
    "unpark",
    "yield_now",
    "notify_one",
    "notify_all",
    "wait",
    "wait_timeout",
    "store",
    "load",
    "fetch_add",
    "fetch_sub",
    "compare_exchange",
    // Socket I/O on established connections (kernel copies, no user
    // heap); connection *setup* helpers are not listed.
    "read",
    "write",
    "write_all",
    "flush",
    "set_nodelay",
    "set_nonblocking",
    "set_read_timeout",
    "set_write_timeout",
    // Vetted external deps. `rand` (seeded `SmallRng` draws are pure
    // arithmetic) and `bytes` (`put_*` grows a pooled `BytesMut`, same
    // amortized class as `push`; `freeze`/`split_to` are refcount ops).
    "random",
    "random_range",
    "random_bool",
    "put_u8",
    "put_u16",
    "put_u16_le",
    "put_u32",
    "put_u32_le",
    "put_u64",
    "put_u64_le",
    "put_slice",
    "get_u8",
    "get_u16",
    "get_u16_le",
    "get_u32",
    "get_u32_le",
    "get_u64",
    "get_u64_le",
    "advance",
    "remaining",
    "freeze",
    "split_to",
    "split_off",
    "copy_to_slice",
    "chunk",
    "has_remaining",
];

/// One fully-indexed function node.
#[derive(Debug)]
pub struct FnRef<'a> {
    pub sym: &'a FnSym,
    pub krate: &'a str,
    pub file: &'a str,
}

/// How one call site resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resolution {
    /// Edges into the workspace (node indices).
    Workspace(Vec<usize>),
    /// A `std` name from the allowlist — accepted, no edge.
    Std,
    /// Resolved to nothing: flagged conservatively by A2 unless the
    /// call site is annotated `// lint:alloc-free-callee`.
    Unknown,
}

/// The workspace call graph.
pub struct CallGraph<'a> {
    pub fns: Vec<FnRef<'a>>,
    /// Per-node resolved calls: `(call, resolution)`.
    pub calls: Vec<Vec<(&'a Call, Resolution)>>,
    by_name: BTreeMap<&'a str, Vec<usize>>,
    methods_by_name: BTreeMap<&'a str, Vec<usize>>,
    std_names: BTreeSet<&'static str>,
    /// crate dir -> transitive workspace dependencies (incl. itself).
    deps: BTreeMap<String, BTreeSet<String>>,
}

/// Primitive type names: valid call qualifiers (`u32::from`) that are
/// lowercase yet are std types, not module paths.
fn is_primitive(q: &str) -> bool {
    matches!(
        q,
        "u8" | "u16"
            | "u32"
            | "u64"
            | "u128"
            | "usize"
            | "i8"
            | "i16"
            | "i32"
            | "i64"
            | "i128"
            | "isize"
            | "f32"
            | "f64"
            | "bool"
            | "char"
            | "str"
    )
}

/// Parse `crates/*/Cargo.toml` `[dependencies]` sections into a map of
/// crate dir -> directly-depended workspace crate dirs. Workspace deps
/// are named `flexran-<dir>` (the core crate is plain `flexran`).
pub fn crate_deps(root: &Path) -> BTreeMap<String, BTreeSet<String>> {
    let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let crates_dir = root.join("crates");
    let Ok(entries) = fs::read_dir(&crates_dir) else {
        return direct;
    };
    let mut dirs: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    for dir in dirs {
        let Some(name) = dir.file_name().and_then(|n| n.to_str()).map(String::from) else {
            continue;
        };
        let Ok(text) = fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        let mut in_deps = false;
        let mut deps = BTreeSet::new();
        for line in text.lines() {
            let line = line.trim();
            if line.starts_with('[') {
                // dev-dependencies don't ship in the runtime binary; the
                // graph models what a deployed control plane can call.
                in_deps = line == "[dependencies]";
                continue;
            }
            if !in_deps {
                continue;
            }
            let Some(key) = line.split(['=', '.']).next().map(str::trim) else {
                continue;
            };
            if key == "flexran" {
                deps.insert("core".to_string());
            } else if let Some(dep) = key.strip_prefix("flexran-") {
                deps.insert(dep.to_string());
            }
        }
        direct.insert(name, deps);
    }
    // Transitive closure, including self.
    let keys: Vec<String> = direct.keys().cloned().collect();
    let mut closed: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for k in &keys {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut stack = vec![k.clone()];
        while let Some(cur) = stack.pop() {
            if !seen.insert(cur.clone()) {
                continue;
            }
            if let Some(ds) = direct.get(&cur) {
                for d in ds {
                    if !seen.contains(d) {
                        stack.push(d.clone());
                    }
                }
            }
        }
        closed.insert(k.clone(), seen);
    }
    closed
}

impl<'a> CallGraph<'a> {
    /// Build the graph over every summary. `deps` comes from
    /// [`crate_deps`]; an empty map disables the dependency-direction
    /// filter (unit tests).
    pub fn build(
        summaries: &'a [FileSummary],
        deps: BTreeMap<String, BTreeSet<String>>,
    ) -> CallGraph<'a> {
        let mut fns = Vec::new();
        for s in summaries {
            for f in &s.fns {
                fns.push(FnRef {
                    sym: f,
                    krate: &s.krate,
                    file: &s.file,
                });
            }
        }
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(&f.sym.name).or_default().push(i);
            if f.sym.impl_type.is_some() || f.sym.trait_name.is_some() {
                methods_by_name.entry(&f.sym.name).or_default().push(i);
            }
        }
        let mut graph = CallGraph {
            fns,
            calls: Vec::new(),
            by_name,
            methods_by_name,
            std_names: STD_NO_ALLOC.iter().copied().collect(),
            deps,
        };
        graph.calls = (0..graph.fns.len())
            .map(|i| {
                graph.fns[i]
                    .sym
                    .calls
                    .iter()
                    .map(|c| (c, graph.resolve(i, c)))
                    .collect()
            })
            .collect();
        graph
    }

    /// May code in crate `from` link against crate `to`?
    fn crate_reaches(&self, from: &str, to: &str) -> bool {
        if from == to || self.deps.is_empty() {
            return true;
        }
        self.deps.get(from).is_some_and(|ds| ds.contains(to))
    }

    fn visible(&self, caller: usize, targets: &[usize]) -> Vec<usize> {
        let from = self.fns[caller].krate;
        targets
            .iter()
            .copied()
            .filter(|&t| !self.fns[t].sym.is_test && self.crate_reaches(from, self.fns[t].krate))
            .collect()
    }

    /// Resolve one call site from node `caller`.
    pub fn resolve(&self, caller: usize, call: &Call) -> Resolution {
        if call.method {
            let targets = self
                .methods_by_name
                .get(call.name.as_str())
                .map(|t| self.visible(caller, t))
                .unwrap_or_default();
            if !targets.is_empty() {
                return Resolution::Workspace(targets);
            }
            return if self.std_names.contains(call.name.as_str()) {
                Resolution::Std
            } else {
                Resolution::Unknown
            };
        }
        if let Some(q) = &call.qualifier {
            let q = if q == "Self" {
                self.fns[caller].sym.impl_type.as_deref().unwrap_or("Self")
            } else {
                q.as_str()
            };
            // Primitive qualifiers (`u32::from`, `f64::from_bits`) are
            // lowercase but name std types, never module paths — without
            // this, `u32::from` would fall back onto every workspace
            // `from` (e.g. `Error::from`).
            if is_primitive(q) {
                return Resolution::Std;
            }
            if let Some(all) = self.by_name.get(call.name.as_str()) {
                let same_type: Vec<usize> = self
                    .visible(caller, all)
                    .into_iter()
                    .filter(|&t| self.fns[t].sym.impl_type.as_deref() == Some(q))
                    .collect();
                if !same_type.is_empty() {
                    return Resolution::Workspace(same_type);
                }
                // A lowercase qualifier is a module path (`rlc::encode`),
                // not a type: fall back to name resolution. An uppercase
                // one is a type — if none of its workspace impls define
                // the name, the callee is not workspace code.
                if q.chars().next().is_some_and(|c| c.is_lowercase()) {
                    let any = self.visible(caller, all);
                    if !any.is_empty() {
                        return Resolution::Workspace(any);
                    }
                }
            }
            // `Enum::Variant(..)` constructors and std-type associated
            // fns (`Vec::new`, `u32::from_le_bytes`): allocating
            // constructors are the alloc-site detector's business, not
            // an edge, so these are accepted here.
            if call.name.chars().next().is_some_and(|c| c.is_uppercase())
                || q.chars().next().is_some_and(|c| c.is_uppercase())
                || self.std_names.contains(call.name.as_str())
            {
                return Resolution::Std;
            }
            return Resolution::Unknown;
        }
        if let Some(all) = self.by_name.get(call.name.as_str()) {
            let targets = self.visible(caller, all);
            if !targets.is_empty() {
                return Resolution::Workspace(targets);
            }
        }
        if self.std_names.contains(call.name.as_str()) {
            Resolution::Std
        } else {
            Resolution::Unknown
        }
    }

    /// Human-readable label for node `i` (`Type::name` or `name`).
    pub fn label(&self, i: usize) -> String {
        let f = &self.fns[i];
        match (&f.sym.impl_type, &f.sym.trait_name) {
            (Some(t), _) => format!("{t}::{}", f.sym.name),
            (None, Some(tr)) => format!("{tr}::{}", f.sym.name),
            (None, None) => f.sym.name.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::summarize;

    fn graph_of(
        files: &[(&str, &str, &str)],
    ) -> (Vec<FileSummary>, BTreeMap<String, BTreeSet<String>>) {
        let summaries: Vec<FileSummary> = files
            .iter()
            .map(|(krate, file, src)| summarize(krate, file, src))
            .collect();
        (summaries, BTreeMap::new())
    }

    fn find(g: &CallGraph, name: &str) -> usize {
        g.fns
            .iter()
            .position(|f| f.sym.name == name)
            .unwrap_or_else(|| panic!("fn {name} not found"))
    }

    #[test]
    fn trait_method_calls_edge_to_every_impl() {
        let (summaries, deps) = graph_of(&[(
            "stack",
            "crates/stack/src/x.rs",
            "trait Sched { fn pick(&self) -> u32; }
             struct A; impl Sched for A { fn pick(&self) -> u32 { 1 } }
             struct B; impl Sched for B { fn pick(&self) -> u32 { 2 } }
             fn drive(s: &dyn Sched) -> u32 { s.pick() }",
        )]);
        let g = CallGraph::build(&summaries, deps);
        let drive = find(&g, "drive");
        let (_, res) = &g.calls[drive][0];
        let Resolution::Workspace(targets) = res else {
            panic!("expected workspace edges, got {res:?}");
        };
        // The declaration plus both impls — conservative dispatch.
        assert_eq!(targets.len(), 3);
        let labels: Vec<String> = targets.iter().map(|&t| g.label(t)).collect();
        assert!(labels.contains(&"A::pick".to_string()));
        assert!(labels.contains(&"B::pick".to_string()));
    }

    #[test]
    fn qualified_calls_prefer_the_matching_impl() {
        let (summaries, deps) = graph_of(&[(
            "stack",
            "crates/stack/src/x.rs",
            "struct A; impl A { fn make() -> A { A } }
             struct B; impl B { fn make() -> B { B } }
             fn f() { let _ = A::make(); }",
        )]);
        let g = CallGraph::build(&summaries, deps);
        let f = find(&g, "f");
        let (_, res) = &g.calls[f][0];
        assert_eq!(*res, Resolution::Workspace(vec![find(&g, "make")]));
        let Resolution::Workspace(t) = res else {
            unreachable!()
        };
        assert_eq!(g.label(t[0]), "A::make");
    }

    #[test]
    fn unknown_and_std_calls_classify() {
        let (summaries, deps) = graph_of(&[(
            "stack",
            "crates/stack/src/x.rs",
            "fn f(v: &mut Vec<u32>) { v.len(); v.mystery_method(); helper(); }",
        )]);
        let g = CallGraph::build(&summaries, deps);
        let f = find(&g, "f");
        let kinds: Vec<&Resolution> = g.calls[f].iter().map(|(_, r)| r).collect();
        assert_eq!(kinds[0], &Resolution::Std);
        assert_eq!(kinds[1], &Resolution::Unknown);
        assert_eq!(
            kinds[2],
            &Resolution::Unknown,
            "helper not defined anywhere"
        );
    }

    #[test]
    fn dependency_direction_filters_edges() {
        let (summaries, _) = graph_of(&[
            (
                "controller",
                "crates/controller/src/x.rs",
                "struct M; impl M { fn run(&self, t: &T) { t.send(); } } struct T;",
            ),
            (
                "sim",
                "crates/sim/src/y.rs",
                "struct Link; impl Link { fn send(&self) {} }",
            ),
            (
                "proto",
                "crates/proto/src/z.rs",
                "struct Tcp; impl Tcp { fn send(&self) {} }",
            ),
        ]);
        // controller depends on proto; sim is not in its cone.
        let mut deps = BTreeMap::new();
        deps.insert(
            "controller".to_string(),
            ["controller", "proto"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        );
        let g = CallGraph::build(&summaries, deps);
        let run = find(&g, "run");
        let (_, res) = &g.calls[run][0];
        let Resolution::Workspace(targets) = res else {
            panic!("expected edges")
        };
        let labels: Vec<String> = targets.iter().map(|&t| g.label(t)).collect();
        assert_eq!(labels, vec!["Tcp::send".to_string()], "sim edge filtered");
    }

    #[test]
    fn self_qualifier_resolves_via_the_enclosing_impl() {
        let (summaries, deps) = graph_of(&[(
            "stack",
            "crates/stack/src/x.rs",
            "struct A; impl A { fn helper() {} fn f() { Self::helper(); } }",
        )]);
        let g = CallGraph::build(&summaries, deps);
        let f = find(&g, "f");
        let (_, res) = &g.calls[f][0];
        assert_eq!(*res, Resolution::Workspace(vec![find(&g, "helper")]));
    }

    #[test]
    fn workspace_dep_parsing_is_transitive() {
        // Uses the real workspace: controller -> proto -> types.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let deps = crate_deps(&root);
        let c = deps.get("controller").expect("controller crate");
        assert!(c.contains("proto"));
        assert!(c.contains("types"), "transitive through proto");
        assert!(!c.contains("sim"), "controller does not link the simulator");
    }
}
