//! Integration tests for the campaign orchestrator's load-bearing
//! contracts, end to end against the real chaos harness:
//!
//! 1. **Pool determinism** — the same `(seed, config)` produces
//!    bit-identical digests and fault logs whether run serially or
//!    under the campaign worker pool, at any worker count.
//! 2. **Negative control** — a deliberately violating fault schedule
//!    surfaces in the aggregated report as a failed verdict with the
//!    correct `(seed, TTI)` pin on every seed.
//! 3. **Cancellation accounting** — a cancelled campaign reports its
//!    skipped runs and never reads as green.

use flexran::prelude::ShardSpec;
use flexran_campaign::chaos::{run_chaos_campaign, run_one, ChaosCampaignSpec, ChaosVariant};
use flexran_campaign::{CancelToken, RunRecord};
use flexran_chaos::{run_chaos, ChaosConfig};

/// A campaign small enough for CI yet long enough for every fault class
/// to fire on most seeds.
fn small_spec(seeds: u64, workers: usize) -> ChaosCampaignSpec {
    ChaosCampaignSpec::new(seeds, 600, workers)
}

#[test]
fn pool_runs_are_bit_identical_to_serial_runs() {
    let spec = small_spec(4, 4);

    // Serial ground truth: plain `run_chaos` on the calling thread,
    // one seed after another.
    let serial: Vec<_> = spec.plan().iter().map(|(_, cfg)| run_chaos(cfg)).collect();

    // The same plan through the worker pool.
    let report = run_chaos_campaign(&spec, &CancelToken::new(), &mut |_| {});
    assert!(report.pass(), "{}", report.render_text());
    assert_eq!(report.total(), serial.len());

    for (slot, expect) in report.slots.iter().zip(&serial) {
        let got = slot.as_ref().expect("run completed");
        assert_eq!(got.seed, expect.seed);
        assert_eq!(
            got.digest, expect.digest,
            "digest diverged between serial and pooled runs of seed {}",
            expect.seed
        );
        assert_eq!(got.violations_total, expect.violations_total);
        // The fault log rides along as counters; compare field by field.
        let counter = |name: &str| -> u64 {
            got.counters
                .iter()
                .find(|(k, _)| *k == name)
                .map_or(0, |(_, v)| *v)
        };
        assert_eq!(counter("agent_crashes"), expect.faults.agent_crashes);
        assert_eq!(counter("master_crashes"), expect.faults.master_crashes);
        assert_eq!(counter("master_restarts"), expect.faults.master_restarts);
        assert_eq!(counter("stalls"), expect.faults.stalls);
        assert_eq!(counter("wire_windows"), expect.faults.wire_windows);
        assert_eq!(counter("delegations"), expect.faults.delegations);
    }
}

#[test]
fn default_spec_rolls_out_configs_under_fire() {
    // The default campaign carries fleet-config rollouts, so the
    // config-provenance oracle sees them on the one chaos entry point.
    let report = run_chaos_campaign(&small_spec(2, 2), &CancelToken::new(), &mut |_| {});
    assert!(report.pass(), "{}", report.render_text());
    let rollouts: u64 = report
        .completed()
        .flat_map(|r| &r.counters)
        .filter(|(name, _)| *name == "rollouts")
        .map(|(_, n)| n)
        .sum();
    assert!(rollouts > 0, "no rollout was drawn in the default campaign");
}

#[test]
fn worker_count_does_not_change_the_aggregate() {
    let digests = |workers: usize| -> Vec<u64> {
        let spec = small_spec(3, workers);
        run_chaos_campaign(&spec, &CancelToken::new(), &mut |_| {})
            .completed()
            .map(|r| r.digest)
            .collect()
    };
    let one = digests(1);
    assert_eq!(one, digests(2));
    assert_eq!(one, digests(8));
}

#[test]
fn sharded_variants_share_the_serial_contract() {
    // A 2-shard master must replay bit-identically too — the campaign
    // covers shard variants precisely because this held historically.
    let mut spec = small_spec(2, 2);
    spec.variants = vec![ChaosVariant {
        label: "shards=2".to_string(),
        shards: ShardSpec::Fixed(2),
    }];
    let serial: Vec<u64> = spec
        .plan()
        .iter()
        .map(|(_, cfg)| run_chaos(cfg).digest)
        .collect();
    let pooled: Vec<u64> = run_chaos_campaign(&spec, &CancelToken::new(), &mut |_| {})
        .completed()
        .map(|r| r.digest)
        .collect();
    assert_eq!(serial, pooled);
}

#[test]
fn negative_control_surfaces_with_the_correct_seed_and_tti_pin() {
    const INJECT_AT: u64 = 150;
    let mut spec = small_spec(3, 2);
    spec.base.inject_violation_at = Some(INJECT_AT);

    let report = run_chaos_campaign(&spec, &CancelToken::new(), &mut |_| {});

    // The aggregate verdict must fail — a campaign that swallows an
    // injected violation would also swallow a real one.
    assert!(!report.pass());
    assert!(report.violations_total() >= 3, "one per seed at minimum");

    // Every seed must carry a PRB-capacity pin at (or right after) the
    // injection TTI, attributed to the right seed.
    for record in report.completed() {
        let pin = record
            .violations
            .iter()
            .find(|v| v.oracle == "prb-capacity" && v.tti >= INJECT_AT)
            .unwrap_or_else(|| panic!("seed {} lost its injected pin", record.seed));
        assert_eq!(pin.seed, record.seed, "pin must carry its own seed");
        assert!(
            pin.tti < INJECT_AT + spec.base.ttis,
            "pin TTI {} outside the run window",
            pin.tti
        );
        // The pin replays: rerunning that exact (seed, config) serially
        // reproduces a violation at the same TTI.
        let (_, cfg) = spec
            .plan()
            .into_iter()
            .find(|(_, c)| c.seed == record.seed)
            .expect("planned config for seed");
        let replay = run_chaos(&cfg);
        assert!(
            replay.violations.iter().any(|v| v.tti == pin.tti),
            "replay of seed {} did not reproduce the pinned TTI {}",
            record.seed,
            pin.tti
        );
    }

    // And the machine-readable report carries the pins.
    let json = report.to_json().to_string();
    assert!(json.contains("\"pass\":false"));
    assert!(json.contains("prb-capacity"));
}

#[test]
fn cancelled_campaigns_report_skips_and_fail() {
    let spec = small_spec(6, 1);
    let cancel = CancelToken::new();
    let cancel_from_progress = cancel.clone();
    // Cancel as soon as the first run reports: with one worker at most
    // a couple of runs can slip through before the flag is observed.
    let report = run_chaos_campaign(&spec, &cancel, &mut |_| cancel_from_progress.cancel());
    assert!(report.cancelled);
    assert!(report.skipped() > 0, "cancellation must skip some runs");
    assert!(!report.pass(), "a cancelled campaign must not read green");
    let json = report.to_json().to_string();
    assert!(json.contains("\"cancelled\":true"));
}

#[test]
fn run_one_matches_run_chaos_for_the_same_config() {
    let cfg = ChaosConfig {
        seed: 11,
        ttis: 400,
        ..ChaosConfig::default()
    };
    let direct = run_chaos(&cfg);
    let record: RunRecord = run_one("unit", &cfg);
    assert_eq!(record.digest, direct.digest);
    assert_eq!(record.seed, 11);
    assert_eq!(record.pass, direct.pass());
    assert!(record.kpis.iter().any(|(k, _)| *k == "throughput_mbps"));
}
