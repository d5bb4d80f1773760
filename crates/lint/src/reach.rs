//! The reachability engine: A2 and P2 over the workspace call graph.
//!
//! * **A2 `alloc-reach`** — from every no-alloc root (`*_into` name or
//!   `// lint:no-alloc` marker), walk the conservative graph; any
//!   allocation site in a reachable callee fires, and any call that
//!   resolves to nothing fires too ("I cannot prove this alloc-free")
//!   unless the call site carries `// lint:alloc-free-callee`. The
//!   root's *own* body is A1's per-file business — A2 reports only what
//!   per-file analysis cannot see.
//! * **P2 `panic-reach`** — roots are every runtime (non-test) function
//!   of the control-plane crates (`proto`, `agent`, `controller`),
//!   where P1 already enforces panic-freedom per file. P2 extends the
//!   guarantee *across the crate boundary*: explicit panics
//!   (`unwrap`/`expect`/`panic!`-family) in any other crate's function
//!   reachable from those roots fire. Indexing sites are left to P1:
//!   bounds-proved `s[i]` is pervasive and correct in the DSP math the
//!   control plane calls into, and flagging it transitively would bury
//!   the real signal (torn-down control planes come from `unwrap`, not
//!   from proven bounds).
//!
//! Every diagnostic carries its witness path (`root → … → callee`) so a
//! finding is actionable without re-running the analysis by hand.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::callgraph::{CallGraph, Resolution};
use crate::lints::{Diagnostic, LintId};

/// Crates whose runtime functions are P2 roots (the crates P1 already
/// covers per-file; keep the two in sync with `lints_for_crate`).
/// `campaign` is deliberately P1-only: per-file panic-freedom keeps the
/// orchestrator itself from tearing down a soak, but its call graph
/// reaches straight into the chaos harness, whose assertion-style
/// `expect`s are the point — transitive panic-reachability would flag
/// the entire test battery.
pub const P2_ROOT_CRATES: &[&str] = &["proto", "agent", "controller"];

/// Walk the graph from `roots`, following workspace edges for which
/// `edge_ok(caller, call, target)` holds. Returns the parent map:
/// `node -> (caller, call line)` for every node reached *through an
/// edge* (roots are reachable but have no parent).
fn bfs(
    graph: &CallGraph,
    roots: &[usize],
    mut edge_ok: impl FnMut(usize, &crate::symbols::Call, usize) -> bool,
) -> (Vec<usize>, BTreeMap<usize, (usize, u32)>) {
    let mut seen: BTreeSet<usize> = roots.iter().copied().collect();
    let mut queue: VecDeque<usize> = roots.iter().copied().collect();
    let mut order = Vec::new();
    let mut parent = BTreeMap::new();
    while let Some(n) = queue.pop_front() {
        order.push(n);
        for (call, res) in &graph.calls[n] {
            let Resolution::Workspace(targets) = res else {
                continue;
            };
            for &t in targets {
                if seen.contains(&t) || !edge_ok(n, call, t) {
                    continue;
                }
                seen.insert(t);
                parent.insert(t, (n, call.line));
                queue.push_back(t);
            }
        }
    }
    (order, parent)
}

/// Render the witness path `root → … → node` using graph labels,
/// elided in the middle if longer than five hops.
fn witness(graph: &CallGraph, parent: &BTreeMap<usize, (usize, u32)>, node: usize) -> String {
    let mut chain = vec![node];
    let mut cur = node;
    while let Some(&(p, _)) = parent.get(&cur) {
        chain.push(p);
        cur = p;
        if chain.len() > 32 {
            break; // cycle safety; parent maps are acyclic by construction
        }
    }
    chain.reverse();
    let labels: Vec<String> = chain.iter().map(|&i| graph.label(i)).collect();
    if labels.len() <= 5 {
        labels.join(" -> ")
    } else {
        format!(
            "{} -> {} -> ... -> {}",
            labels[0],
            labels[1],
            labels[labels.len() - 1]
        )
    }
}

/// Run both interprocedural lints. Diagnostics come back
/// deduplicated by `(file, line, lint)` and unsorted — the caller merges
/// them into the per-file stream and sorts once.
pub fn analyze(graph: &CallGraph) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut seen: BTreeSet<(String, u32, LintId)> = BTreeSet::new();
    let mut emit = |lint: LintId, file: &str, line: u32, message: String| {
        if seen.insert((file.to_string(), line, lint)) {
            diags.push(Diagnostic {
                lint,
                file: file.to_string(),
                line,
                message,
            });
        }
    };

    a2(graph, &mut emit);
    p2(graph, &mut emit);
    diags
}

fn a2(graph: &CallGraph, emit: &mut impl FnMut(LintId, &str, u32, String)) {
    let roots: Vec<usize> = (0..graph.fns.len())
        .filter(|&i| graph.fns[i].sym.no_alloc_root && !graph.fns[i].sym.is_test)
        .collect();
    for &root in &roots {
        // `lint:alloc-free-callee` cuts the edge (callee audited
        // alloc-free); `lint:allow(alloc-reach)` on a call site cuts it
        // too (justified cold branch — rare control message, crash
        // recovery — exempt from the steady-state no-alloc contract).
        let (order, parent) = bfs(graph, &[root], |_, call, _| {
            !call.assume_alloc_free && !call.allow_alloc_reach
        });
        for &n in &order {
            let f = &graph.fns[n];
            // Direct allocs in the root itself (and in any fn that is a
            // root in its own right) are A1's per-file findings.
            if !f.sym.no_alloc_root {
                for site in &f.sym.allocs {
                    emit(
                        LintId::A2,
                        f.file,
                        site.line,
                        format!(
                            "allocation (`{}`) reachable from no-alloc root `{}` \
                             [{}]; hoist it out of the hot path or annotate the call \
                             chain `// lint:allow(alloc-reach)` with a justification",
                            site.what,
                            graph.label(root),
                            witness(graph, &parent, n),
                        ),
                    );
                }
            }
            for (call, res) in &graph.calls[n] {
                if *res == Resolution::Unknown && !call.assume_alloc_free && !call.allow_alloc_reach
                {
                    emit(
                        LintId::A2,
                        f.file,
                        call.line,
                        format!(
                            "cannot prove `{}{}` alloc-free on the no-alloc path from `{}` \
                             [{}]; audit the callee and annotate \
                             `// lint:alloc-free-callee`, or allow with justification",
                            if call.method { "." } else { "" },
                            call.name,
                            graph.label(root),
                            witness(graph, &parent, n),
                        ),
                    );
                }
            }
        }
    }
}

fn p2(graph: &CallGraph, emit: &mut impl FnMut(LintId, &str, u32, String)) {
    let roots: Vec<usize> = (0..graph.fns.len())
        .filter(|&i| {
            let f = &graph.fns[i];
            P2_ROOT_CRATES.contains(&f.krate) && !f.sym.is_test
        })
        .collect();
    let (order, parent) = bfs(graph, &roots, |_, _, _| true);
    for &n in &order {
        let f = &graph.fns[n];
        if P2_ROOT_CRATES.contains(&f.krate) {
            continue; // P1 covers these per-file (with its own baseline)
        }
        for site in &f.sym.panics {
            if site.what == "indexing" {
                continue; // left to per-file P1 — see module docs
            }
            emit(
                LintId::P2,
                f.file,
                site.line,
                format!(
                    "`{}` reachable from the control plane [{}]; propagate \
                     `flexran_types::Error` instead of panicking under the master",
                    site.what,
                    witness(graph, &parent, n),
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::symbols::{summarize, FileSummary};

    fn run(files: &[(&str, &str, &str)]) -> Vec<Diagnostic> {
        let summaries: Vec<FileSummary> =
            files.iter().map(|(k, f, s)| summarize(k, f, s)).collect();
        let graph = CallGraph::build(&summaries, BTreeMap::new());
        analyze(&graph)
    }

    fn ids(diags: &[Diagnostic]) -> Vec<(&'static str, u32)> {
        diags.iter().map(|d| (d.lint.id(), d.line)).collect()
    }

    #[test]
    fn a2_fires_one_call_deep_and_reports_the_witness() {
        let src = "fn encode_into(out: &mut [u8]) { helper(out); }
fn helper(out: &mut [u8]) { let s = x.to_vec(); }";
        let diags = run(&[("stack", "crates/stack/src/x.rs", src)]);
        assert_eq!(ids(&diags), vec![("A2", 2)]);
        assert!(
            diags[0].message.contains("encode_into -> helper"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn a2_respects_alloc_free_callee_and_allow() {
        let src = "fn encode_into(out: &mut [u8]) {
            audited(out); // lint:alloc-free-callee verified by allocgate
        }";
        let diags = run(&[("stack", "crates/stack/src/x.rs", src)]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn a2_flags_unresolved_calls_conservatively() {
        let src = "fn encode_into(out: &mut [u8]) { out.mystery(); }";
        let diags = run(&[("stack", "crates/stack/src/x.rs", src)]);
        assert_eq!(ids(&diags), vec![("A2", 1)]);
        assert!(diags[0].message.contains("mystery"));
    }

    #[test]
    fn a2_negative_control_clean_transitive_path() {
        let src = "fn encode_into(out: &mut [u8]) { helper(out); }
fn helper(out: &mut [u8]) { out.len(); }";
        let diags = run(&[("stack", "crates/stack/src/x.rs", src)]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn p2_crosses_the_crate_boundary() {
        let proto = "fn decode(b: &[u8]) { flexran_stack_helper(b); }";
        let stack = "fn flexran_stack_helper(b: &[u8]) { b.first().unwrap(); }";
        let diags = run(&[
            ("proto", "crates/proto/src/x.rs", proto),
            ("stack", "crates/stack/src/y.rs", stack),
        ]);
        assert_eq!(ids(&diags), vec![("P2", 1)]);
        assert_eq!(diags[0].file, "crates/stack/src/y.rs");
        assert!(diags[0].message.contains("decode -> flexran_stack_helper"));
    }

    #[test]
    fn p2_does_not_refire_inside_p1_crates_or_from_tests() {
        // The unwrap in proto itself is P1's per-file finding, and the
        // stack helper is only called from a #[cfg(test)] fn.
        let proto = "fn decode(b: &[u8]) { b.first().unwrap(); }
#[cfg(test)]
mod tests { fn t() { flexran_stack_helper(&[]); } }";
        let stack = "fn flexran_stack_helper(b: &[u8]) { b.first().unwrap(); }";
        let diags = run(&[
            ("proto", "crates/proto/src/x.rs", proto),
            ("stack", "crates/stack/src/y.rs", stack),
        ]);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
