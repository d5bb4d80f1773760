#![forbid(unsafe_code)]
//! # flexran-bench
//!
//! The experiment harness: one module per table/figure of the paper's
//! evaluation (§5 system evaluation, §6 use cases), each regenerating the
//! corresponding result against this repository's implementation.
//!
//! Run everything: `cargo run --release -p flexran-bench --bin
//! experiments -- all` — writes CSV series plus `report.md` and
//! `results.json` under `target/experiments/`. Individual experiments run
//! by id (`fig7a`, `table2`, ...); `--quick` shrinks durations for smoke
//! runs (the `experiments_all` bench target uses it).
//!
//! `EXPERIMENTS.md` at the repository root records paper-vs-measured for
//! each experiment.

pub mod experiments;

use std::fmt::Write as _;
use std::path::PathBuf;

/// Every binary and test in this crate counts its heap traffic, so
/// `experiments scale` and `allocgate` can report allocations per TTI and
/// assert the zero-steady-state-allocation contract.
#[global_allocator]
static GLOBAL: flexran_campaign::alloc_probe::CountingAllocator =
    flexran_campaign::alloc_probe::CountingAllocator;

/// Shared experiment context: scaling and output sinks.
pub struct ExpContext {
    /// Shrink durations (smoke mode).
    pub quick: bool,
    pub out_dir: PathBuf,
    /// CLI override for run length (`--ttis N`).
    pub ttis_override: Option<u64>,
}

impl ExpContext {
    pub fn new(quick: bool, out_dir: impl Into<PathBuf>) -> Self {
        let out_dir = out_dir.into();
        std::fs::create_dir_all(&out_dir).expect("create output directory");
        ExpContext {
            quick,
            out_dir,
            ttis_override: None,
        }
    }

    /// Pick a duration by mode.
    pub fn ttis(&self, full: u64, quick: u64) -> u64 {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Persist a CSV artifact.
    pub fn write_csv(&self, name: &str, content: &str) {
        let path = self.out_dir.join(format!("{name}.csv"));
        std::fs::write(&path, content).expect("write csv");
    }
}

/// One experiment's outcome: a rendered table plus machine-readable rows.
pub struct ExpResult {
    pub id: &'static str,
    pub title: &'static str,
    /// Column headers.
    pub headers: Vec<String>,
    /// Table rows (stringified).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (paper comparison, caveats).
    pub notes: Vec<String>,
}

impl ExpResult {
    pub fn new(id: &'static str, title: &'static str, headers: &[&str]) -> Self {
        ExpResult {
            id,
            title,
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "ragged row in {}", self.id);
        self.rows.push(cells);
    }

    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Render as aligned plain text.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut s = String::new();
        let _ = writeln!(s, "== {} — {} ==", self.id, self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(s, "{}", fmt_row(&self.headers, &widths));
        for row in &self.rows {
            let _ = writeln!(s, "{}", fmt_row(row, &widths));
        }
        for n in &self.notes {
            let _ = writeln!(s, "note: {n}");
        }
        s
    }

    /// Render as a markdown table section.
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "## {} — {}\n", self.id, self.title);
        let _ = writeln!(s, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            s,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(s, "| {} |", row.join(" | "));
        }
        for n in &self.notes {
            let _ = writeln!(s, "\n*{n}*");
        }
        s.push('\n');
        s
    }

    /// Machine-readable form.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "id": self.id,
            "title": self.title,
            "headers": self.headers,
            "rows": self.rows,
            "notes": self.notes,
        })
    }
}

/// CSV assembly helper.
pub fn csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut s = headers.join(",");
    s.push('\n');
    for row in rows {
        s.push_str(&row.join(","));
        s.push('\n');
    }
    s
}

/// Format a float with sensible precision for tables.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_rendering() {
        let mut r = ExpResult::new("figX", "demo", &["a", "b"]);
        r.row(vec!["1".into(), "2.50".into()]);
        r.note("a note");
        let text = r.to_text();
        assert!(text.contains("figX"));
        assert!(text.contains("2.50"));
        let md = r.to_markdown();
        assert!(md.contains("| a | b |"));
        assert!(md.contains("*a note*"));
        let j = r.to_json();
        assert_eq!(j["rows"][0][1], "2.50");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let mut r = ExpResult::new("figX", "demo", &["a", "b"]);
        r.row(vec!["1".into()]);
    }

    #[test]
    fn context_scales() {
        let dir = std::env::temp_dir().join("flexran-bench-test");
        let ctx = ExpContext::new(true, &dir);
        assert_eq!(ctx.ttis(10_000, 500), 500);
        let ctx = ExpContext::new(false, &dir);
        assert_eq!(ctx.ttis(10_000, 500), 10_000);
        ctx.write_csv("smoke", "a,b\n1,2\n");
        assert!(dir.join("smoke.csv").exists());
    }
}
