#![forbid(unsafe_code)]
//! `flexran-lint` — the workspace invariant checker CLI.
//!
//! ```text
//! flexran-lint [--root DIR] [--json] [--sarif PATH] [--no-baseline]
//!              [--update-baseline]
//! ```
//!
//! Exit codes: 0 clean (possibly with baselined violations), 1 new
//! violations, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use flexran_lint::baseline::Baseline;
use flexran_lint::{run_workspace, scan_workspace, to_json, to_sarif, Options, BASELINE_FILE};

struct Args {
    root: PathBuf,
    json: bool,
    sarif: Option<PathBuf>,
    no_baseline: bool,
    update_baseline: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        json: false,
        sarif: None,
        no_baseline: false,
        update_baseline: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root needs a path")?);
            }
            "--json" => args.json = true,
            "--sarif" => {
                args.sarif = Some(PathBuf::from(it.next().ok_or("--sarif needs a path")?));
            }
            "--no-baseline" => args.no_baseline = true,
            "--update-baseline" => args.update_baseline = true,
            "--help" | "-h" => {
                return Err("usage: flexran-lint [--root DIR] [--json] [--sarif PATH] \
                            [--no-baseline] [--update-baseline]"
                    .into())
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    // Running via `cargo run -p flexran-lint` from a crate dir: walk up
    // to the workspace root (the dir containing `crates/`).
    if !args.root.join("crates").is_dir() {
        let mut cur = args
            .root
            .canonicalize()
            .map_err(|e| format!("bad --root: {e}"))?;
        while !cur.join("crates").is_dir() {
            let Some(parent) = cur.parent() else {
                return Err("could not find a workspace root containing `crates/`".into());
            };
            cur = parent.to_path_buf();
        }
        args.root = cur;
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    if args.update_baseline {
        // The baseline must be reproducible on any host: paths are
        // workspace-relative with forward slashes, and serialization is
        // BTreeMap-ordered, so the output is byte-deterministic.
        return match scan_workspace(&args.root) {
            Ok(scan) => {
                let baseline = Baseline::from_diagnostics(&scan.diags);
                let path = args.root.join(BASELINE_FILE);
                if let Err(e) = std::fs::write(&path, baseline.serialize()) {
                    eprintln!("write {}: {e}", path.display());
                    return ExitCode::from(2);
                }
                println!(
                    "flexran-lint: froze {} violation(s) across {} file(s) into {}",
                    scan.diags.len(),
                    scan.files,
                    path.display()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("flexran-lint: {e}");
                ExitCode::from(2)
            }
        };
    }

    let opts = Options {
        no_baseline: args.no_baseline,
    };
    let report = match run_workspace(&args.root, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("flexran-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &args.sarif {
        if let Err(e) = std::fs::write(path, to_sarif(&report.gated)) {
            eprintln!("write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if args.json {
        print!("{}", to_json(&report.gated));
    } else {
        for d in &report.gated.new {
            println!("{}:{}: [{}] {}", d.file, d.line, d.lint.id(), d.message);
        }
        for (file, lint, allowed, actual) in &report.gated.stale {
            println!(
                "note: stale baseline: {file} [{id}] allows {allowed} but only {actual} remain \
                 — ratchet with --update-baseline",
                id = lint.id()
            );
        }
        println!(
            "flexran-lint: {} file(s), {} new violation(s), {} baselined, {} stale entr(ies)",
            report.files,
            report.gated.new.len(),
            report.gated.baselined.len(),
            report.gated.stale.len()
        );
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
