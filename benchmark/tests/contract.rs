//! `BENCHMARK.json` and the benchmark's metric tables name the same
//! metrics with the same units, and the workloads are the four built.

use flexran_benchmark::metrics::{END_TO_END, PER_LAYER};
use flexran_benchmark::run::Workload;

fn contract() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root")
}

/// The text of the top-level array `key`.
fn section<'a>(doc: &'a str, key: &str) -> &'a str {
    let start = doc.find(&format!("\"{key}\"")).expect(key);
    let open = start + doc[start..].find('[').unwrap();
    let mut depth = 0;
    for (i, c) in doc[open..].char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return &doc[open..open + i];
                }
            }
            _ => {}
        }
    }
    panic!("unterminated {key}");
}

fn check(section: &str, table: &[(&str, &str)]) {
    assert_eq!(section.matches("\"name\"").count(), table.len());
    for (name, unit) in table {
        assert!(
            section.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} [{unit}] missing from BENCHMARK.json"
        );
    }
}

#[test]
fn metric_tables_match_the_contract() {
    let doc = contract();
    check(section(&doc, "end_to_end"), END_TO_END);
    check(section(&doc, "per_layer"), PER_LAYER);
}

#[test]
fn workloads_match_the_contract() {
    let doc = contract();
    let workloads = section(&doc, "workloads");
    assert_eq!(workloads.matches("\"name\"").count(), Workload::ALL.len());
    for w in Workload::ALL {
        assert!(workloads.contains(&format!("\"name\": \"{}\"", w.name())));
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
}
