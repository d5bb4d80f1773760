//! Whole-benchmark checks: a commit repeats its own simulated statistics
//! exactly, traced or not, serial or parallel. Run with
//! `cargo test --release --offline` (a debug build steps ~10x slower).

use std::process::Command;

use flexran_benchmark::harness_wl::fleet_events;
use flexran_benchmark::scenario::Scenario;

/// `detail:` line of one `--smoke` run of the built binary.
fn smoke(workload: &str, trace: &str, out_dir: &std::path::Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_flexran-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--trace",
            trace,
            "--smoke",
        ])
        .arg("--out-dir")
        .arg(out_dir)
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} failed its checks:\n{stdout}"
    );
    let last = stdout.lines().last().unwrap();
    assert!(last.starts_with("{\"correct\": true, "), "{last}");
    let detail = stdout
        .lines()
        .find(|l| l.starts_with("detail: "))
        .expect("detail line")
        .to_string();
    // Everything but the trace flag must repeat: digest and exact counts.
    detail.replace("\"trace\": 1", "\"trace\": 0")
}

#[test]
fn smoke_runs_repeat_digest_and_exact_counts() {
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    for w in ["dense_local", "central_ctrl", "tcp_loop", "fleet_events"] {
        let first = smoke(w, "0", &out_dir);
        assert_eq!(
            first,
            smoke(w, "0", &out_dir),
            "{w}: two untraced runs differ"
        );
        assert_eq!(
            first,
            smoke(w, "1", &out_dir),
            "{w}: tracing changed the simulation"
        );
        assert!(out_dir.join(format!("trace_{w}.json")).exists());
    }
    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn fleet_events_serial_equals_two_workers() {
    let mut serial = fleet_events(7, None);
    let mut parallel = fleet_events(7, Some(2));
    for _ in 0..1_500 {
        serial.step();
        serial.after_step();
        parallel.step();
        parallel.after_step();
    }
    assert_eq!(serial.digest(), parallel.digest());
    assert_eq!(serial.counts(), parallel.counts());
    assert!(serial.counts().handovers > 0, "the workload hands UEs over");
}
