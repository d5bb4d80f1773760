#![forbid(unsafe_code)]
//! # flexran-lint
//!
//! A self-contained static analyzer that machine-enforces the workspace's
//! real-time invariants: determinism (no wall clock in TTI code, no
//! nondeterministic iteration), panic-freedom on control-plane runtime
//! paths, the RIB single-writer discipline, zero-allocation `*_into` hot
//! paths, and an audited `unsafe` surface. See [`lints`] for the catalog
//! and DESIGN.md §"Static analysis & invariants" for the rationale.
//!
//! Since v2 the analyzer is interprocedural: [`symbols`] extracts a
//! per-file symbol table on the same hand-rolled lexer, [`callgraph`]
//! builds a conservative workspace call graph over it, and [`reach`]
//! walks the graph to enforce the transitive lints (A2 no-alloc
//! reachability, P2 panic reachability).
//!
//! Run it with `cargo run -p flexran-lint` from the workspace root (the
//! `scripts/check.sh` gate does), or use [`run_workspace`] from tests.
//! Pre-existing violations are frozen in `lint-baseline.toml`
//! ([`baseline`]); anything new fails the run.

pub mod baseline;
pub mod callgraph;
pub mod lexer;
pub mod lints;
pub mod reach;
pub mod symbols;

use std::fs;
use std::path::{Path, PathBuf};

use baseline::{Baseline, Gated};
use callgraph::CallGraph;
use lints::Diagnostic;

/// Options for a workspace run.
#[derive(Debug, Default, Clone)]
pub struct Options {
    /// Ignore the baseline (report every violation as new).
    pub no_baseline: bool,
}

/// Outcome of a workspace run.
#[derive(Debug)]
pub struct Report {
    /// Every violation found, baseline-gated.
    pub gated: Gated,
    /// Files scanned.
    pub files: usize,
    /// The baseline that was applied (empty when missing/ignored).
    pub baseline: Baseline,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.gated.new.is_empty()
    }
}

/// Workspace-relative path of the baseline file.
pub const BASELINE_FILE: &str = "lint-baseline.toml";

/// Scan every crate under `<root>/crates/*/src` and gate the findings
/// against `<root>/lint-baseline.toml` (unless disabled).
pub fn run_workspace(root: &Path, opts: &Options) -> Result<Report, String> {
    let scan = scan_workspace(root)?;
    let baseline = if opts.no_baseline {
        Baseline::default()
    } else {
        load_baseline(root)?
    };
    Ok(Report {
        gated: baseline.gate(&scan.diags),
        files: scan.files,
        baseline,
    })
}

/// Raw scan result, before baseline gating.
#[derive(Debug)]
pub struct Scan {
    /// Per-file and interprocedural diagnostics, sorted.
    pub diags: Vec<Diagnostic>,
    pub files: usize,
}

/// Scan the workspace: per-file lints followed by the interprocedural
/// reachability lints over the assembled call graph. This is the raw
/// input for `--update-baseline`.
pub fn scan_workspace(root: &Path) -> Result<Scan, String> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .map_err(|e| format!("read {}: {e}", crates_dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_dir() && p.join("Cargo.toml").is_file())
        .collect();
    crate_dirs.sort();

    let mut diags = Vec::new();
    let mut summaries = Vec::new();
    let mut files = 0usize;
    for crate_dir in crate_dirs {
        let krate = crate_dir
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| format!("non-UTF8 crate dir under {}", crates_dir.display()))?
            .to_string();
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut rs_files = Vec::new();
        walk_rs(&src, &mut rs_files)?;
        rs_files.sort();
        for path in rs_files {
            let text =
                fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            diags.extend(lints::analyze_source(&krate, &rel, &text));
            summaries.push(symbols::summarize(&krate, &rel, &text));
            files += 1;
        }
    }

    // Interprocedural phase: a whole-workspace fixpoint over the per-file
    // summaries.
    let graph = CallGraph::build(&summaries, callgraph::crate_deps(root));
    diags.extend(reach::analyze(&graph));
    drop(graph);

    diags.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    Ok(Scan { diags, files })
}

/// Load the baseline file; a missing file is an empty baseline.
pub fn load_baseline(root: &Path) -> Result<Baseline, String> {
    let path = root.join(BASELINE_FILE);
    match fs::read_to_string(&path) {
        Ok(text) => Baseline::parse(&text).map_err(|e| format!("{}: {e}", path.display())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Baseline::default()),
        Err(e) => Err(format!("read {}: {e}", path.display())),
    }
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    for entry in fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| format!("walk {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Render diagnostics as JSON (hand-rolled: the tool has no deps).
pub fn to_json(gated: &Gated) -> String {
    let mut out = String::from("[");
    let mut first = true;
    let push = |d: &Diagnostic, baselined: bool, out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&format!(
            "\n  {{\"lint\": \"{}\", \"severity\": \"{}\", \"file\": \"{}\", \"line\": {}, \
             \"baselined\": {}, \"message\": \"{}\"}}",
            d.lint.id(),
            lints::SEVERITY,
            json_escape(&d.file),
            d.line,
            baselined,
            json_escape(&d.message)
        ));
    };
    for d in &gated.new {
        push(d, false, &mut out, &mut first);
    }
    for d in &gated.baselined {
        push(d, true, &mut out, &mut first);
    }
    out.push_str("\n]\n");
    out
}

/// Render diagnostics as a minimal SARIF 2.1.0 document (the format CI
/// artifact viewers and code-scanning UIs ingest). New findings are
/// `error`; baselined ones are `note` so the ratchet debt stays visible
/// without failing the scan.
pub fn to_sarif(gated: &Gated) -> String {
    let mut rules = String::new();
    for (i, lint) in lints::LintId::ALL.iter().enumerate() {
        if i > 0 {
            rules.push(',');
        }
        rules.push_str(&format!(
            "\n        {{\"id\": \"{}\", \"name\": \"{}\"}}",
            lint.id(),
            lint.allow_key()
        ));
    }
    let mut results = String::new();
    let mut first = true;
    let mut push = |d: &Diagnostic, level: &str| {
        if !first {
            results.push(',');
        }
        first = false;
        results.push_str(&format!(
            "\n        {{\"ruleId\": \"{}\", \"level\": \"{level}\", \
             \"message\": {{\"text\": \"{}\"}}, \"locations\": [{{\"physicalLocation\": \
             {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": {}}}}}}}]}}",
            d.lint.id(),
            json_escape(&d.message),
            json_escape(&d.file),
            d.line
        ));
    };
    for d in &gated.new {
        push(d, "error");
    }
    for d in &gated.baselined {
        push(d, "note");
    }
    format!(
        "{{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
         \"version\": \"2.1.0\",\n  \"runs\": [{{\n    \"tool\": {{\"driver\": {{\
         \"name\": \"flexran-lint\", \"rules\": [{rules}\n      ]}}}},\n    \
         \"results\": [{results}\n      ]\n  }}]\n}}\n"
    )
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c => vec![c],
        })
        .collect()
}
