//! End-to-end workspace scans against synthetic mini-workspaces:
//! baseline determinism and — most importantly — proof
//! that the A2 reachability engine is *live*: toggling the annotations
//! that define roots and cut edges flips the verdict.

use std::fs;
use std::path::{Path, PathBuf};

use flexran_lint::baseline::Baseline;
use flexran_lint::scan_workspace;

/// A throwaway workspace under the system temp dir. Unique per test so
/// parallel tests never share files.
struct MiniWorkspace {
    root: PathBuf,
}

impl MiniWorkspace {
    fn new(name: &str) -> MiniWorkspace {
        let root =
            std::env::temp_dir().join(format!("flexran-lint-it-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("create temp workspace");
        MiniWorkspace { root }
    }

    /// Write `crates/<krate>/src/<file>` (and a stub Cargo.toml so the
    /// scanner picks the crate up).
    fn write(&self, krate: &str, file: &str, src: &str) {
        let dir = self.root.join("crates").join(krate);
        fs::create_dir_all(dir.join("src")).expect("create crate dirs");
        fs::write(
            dir.join("Cargo.toml"),
            format!("[package]\nname = \"{krate}\"\n"),
        )
        .expect("write Cargo.toml");
        fs::write(dir.join("src").join(file), src).expect("write source");
    }

    fn root(&self) -> &Path {
        &self.root
    }
}

impl Drop for MiniWorkspace {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

/// Lint ids of every diagnostic a scan produces, with lines.
fn lint_ids(ws: &MiniWorkspace) -> Vec<(String, u32)> {
    scan_workspace(ws.root())
        .expect("scan")
        .diags
        .into_iter()
        .map(|d| (d.lint.id().to_string(), d.line))
        .collect()
}

/// A body whose allocation is one call away from the root: the root
/// itself is clean, so only *transitive* analysis can flag it.
const TRANSITIVE_ALLOC: &str = "pub fn hot_path(x: u32) -> u32 {\n    helper(x)\n}\n\nfn helper(x: u32) -> u32 {\n    let s = format!(\"{x}\");\n    s.len() as u32\n}\n";

#[test]
fn a2_no_alloc_marker_is_live() {
    // With the `lint:no-alloc` marker the root's cone is checked and the
    // transitive allocation fires...
    let ws = MiniWorkspace::new("a2-marker");
    ws.write(
        "stack",
        "hot.rs",
        &format!("// lint:no-alloc\n{TRANSITIVE_ALLOC}"),
    );
    let diags = lint_ids(&ws);
    assert!(
        diags.iter().any(|(id, _)| id == "A2"),
        "marked root must surface the transitive allocation, got {diags:?}"
    );

    // ...and deleting the annotation removes the root: the engine is
    // driven by the annotations, not firing vacuously on every fn.
    let ws = MiniWorkspace::new("a2-marker-deleted");
    ws.write("stack", "hot.rs", TRANSITIVE_ALLOC);
    let diags = lint_ids(&ws);
    assert!(
        diags.iter().all(|(id, _)| id != "A2"),
        "unmarked fn is not an A2 root, got {diags:?}"
    );
}

#[test]
fn a2_allow_deletion_makes_the_lint_fire() {
    // An `*_into` fn is a root by naming convention; the justified
    // edge-cut keeps it clean...
    let ws = MiniWorkspace::new("a2-allow");
    ws.write(
        "stack",
        "codec.rs",
        "pub fn encode_into(x: u32) -> u32 {\n    // lint:allow(alloc-reach) cold path, test fixture\n    helper(x)\n}\n\nfn helper(x: u32) -> u32 {\n    let s = format!(\"{x}\");\n    s.len() as u32\n}\n",
    );
    let diags = lint_ids(&ws);
    assert!(
        diags.iter().all(|(id, _)| id != "A2"),
        "allow on the call edge must cut the cone, got {diags:?}"
    );

    // ...and deleting the allow makes A2 fire on the same code.
    let ws = MiniWorkspace::new("a2-allow-deleted");
    ws.write(
        "stack",
        "codec.rs",
        "pub fn encode_into(x: u32) -> u32 {\n    helper(x)\n}\n\nfn helper(x: u32) -> u32 {\n    let s = format!(\"{x}\");\n    s.len() as u32\n}\n",
    );
    let diags = lint_ids(&ws);
    assert!(
        diags.iter().any(|(id, _)| id == "A2"),
        "without the allow the transitive allocation must fire, got {diags:?}"
    );
}

#[test]
fn baseline_regeneration_is_deterministic() {
    let ws = MiniWorkspace::new("baseline-det");
    // Two files with violations, written in non-sorted order.
    ws.write(
        "proto",
        "z.rs",
        "pub fn run(v: &[u32]) -> u32 {\n    v[0]\n}\n",
    );
    ws.write(
        "proto",
        "a.rs",
        "pub fn run2(v: &[u32]) -> u32 {\n    *v.first().unwrap()\n}\n",
    );
    let one =
        Baseline::from_diagnostics(&scan_workspace(ws.root()).expect("scan").diags).serialize();
    let two =
        Baseline::from_diagnostics(&scan_workspace(ws.root()).expect("scan").diags).serialize();
    assert_eq!(one, two, "refreezing must be byte-identical");
    assert!(one.contains("a.rs"), "violations present: {one}");
    assert!(one.contains("z.rs"), "violations present: {one}");
}
