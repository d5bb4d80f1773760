//! The chaos campaign: N seeds × M config variants of the seeded fault
//! orchestrator fanned over the worker pool.
//!
//! Each run is an independent [`flexran_chaos::run_chaos`] schedule —
//! own seed, own simulation, own oracle battery — so runs parallelize
//! perfectly and the per-seed digests are bit-identical to a serial
//! invocation of the same `(seed, config)`. The campaign collects each
//! run's verdict, digest, fault log and KPI samples into one
//! [`CampaignReport`].

use crate::alloc_probe;
use crate::pool::{run_pool, CancelToken, Progress};
use crate::report::{CampaignReport, RunRecord, ViolationPin};
use flexran::prelude::ShardSpec;
use flexran_chaos::{run_chaos_instrumented, ChaosConfig};

/// One control-plane configuration the campaign soaks. Variants let a
/// single campaign cover, say, the unsharded and the 4-shard master in
/// one parallel invocation (what `scripts/check.sh` does).
#[derive(Debug, Clone)]
pub struct ChaosVariant {
    pub label: String,
    pub shards: ShardSpec,
}

impl ChaosVariant {
    /// Parse a CLI token: `auto`/`1` → single shard, `0`/`per-agent` →
    /// one shard per agent, `N` → `N` fixed shards.
    pub fn parse(token: &str) -> Result<ChaosVariant, String> {
        let (label, shards) = match token.trim() {
            "auto" | "1" => ("shards=1".to_string(), ShardSpec::Auto),
            "per-agent" | "0" => ("shards=per-agent".to_string(), ShardSpec::PerAgent),
            n => {
                let n: usize = n
                    .parse()
                    .map_err(|_| format!("bad shard spec '{n}' (want auto, per-agent, or N)"))?;
                (format!("shards={n}"), ShardSpec::Fixed(n))
            }
        };
        Ok(ChaosVariant { label, shards })
    }
}

/// The campaign spec: per-run bootstrap is derived entirely from
/// `(base, seed, variant)`, so a spec is a complete, replayable
/// description of every run it fans out.
#[derive(Debug, Clone)]
pub struct ChaosCampaignSpec {
    /// Template config; `seed` and `shards` are overridden per run.
    pub base: ChaosConfig,
    /// Seeds `0..seeds` per variant.
    pub seeds: u64,
    pub variants: Vec<ChaosVariant>,
    /// Worker threads (clamped to the plan size; 0 means 1).
    pub workers: usize,
}

impl ChaosCampaignSpec {
    /// The default campaign: the full fault mix plus fleet-config
    /// rollouts, so the config-provenance oracle is exercised against
    /// corrupted canary pushes, crashing canaries and mid-rollout master
    /// recoveries.
    pub fn new(seeds: u64, ttis: u64, workers: usize) -> Self {
        ChaosCampaignSpec {
            base: ChaosConfig {
                ttis,
                rollout_prob: 0.005,
                ..ChaosConfig::default()
            },
            seeds,
            variants: vec![ChaosVariant {
                label: "shards=1".to_string(),
                shards: ShardSpec::Auto,
            }],
            workers,
        }
    }

    /// The deterministic run plan, variant-major then seed order. The
    /// plan index is the aggregation slot, independent of completion
    /// order.
    pub fn plan(&self) -> Vec<(String, ChaosConfig)> {
        let mut plan = Vec::new();
        for variant in &self.variants {
            for seed in 0..self.seeds {
                plan.push((
                    variant.label.clone(),
                    ChaosConfig {
                        seed,
                        shards: variant.shards,
                        ..self.base.clone()
                    },
                ));
            }
        }
        plan
    }
}

/// Execute one planned run and convert it into a campaign record.
pub fn run_one(label: &str, cfg: &ChaosConfig) -> RunRecord {
    let allocs_before = alloc_probe::thread_allocations();
    // Per-run wall time is a measurement-only KPI, never fed back into
    // the simulation or the digest.
    // lint:allow(wall-clock) measurement-only KPI
    let t0 = std::time::Instant::now();
    let (report, telemetry) = run_chaos_instrumented(cfg);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let total_ttis = (cfg.warmup + cfg.ttis).max(1);
    let mut kpis: Vec<(&'static str, f64)> = vec![
        // Mb/s: cumulative bits over 1 ms TTIs.
        (
            "throughput_mbps",
            report.dl_delivered_bits as f64 / total_ttis as f64 / 1000.0,
        ),
        ("tti_p50_us", telemetry.budget.p50_ns as f64 / 1e3),
        ("tti_p99_us", telemetry.budget.p99_ns as f64 / 1e3),
        ("run_wall_ms", wall_ms),
    ];
    if let (Some(before), Some(after)) = (allocs_before, alloc_probe::thread_allocations()) {
        kpis.push((
            "allocs_per_tti",
            after.saturating_sub(before) as f64 / total_ttis as f64,
        ));
    }
    RunRecord {
        label: label.to_string(),
        seed: cfg.seed,
        pass: report.pass(),
        digest: report.digest,
        violations_total: report.violations_total,
        violations: report
            .violations
            .iter()
            .map(|v| ViolationPin {
                label: label.to_string(),
                seed: v.seed,
                tti: v.tti,
                oracle: v.oracle.to_string(),
                detail: v.detail.clone(),
            })
            .collect(),
        kpis,
        counters: vec![
            ("agent_crashes", report.faults.agent_crashes),
            ("master_crashes", report.faults.master_crashes),
            ("master_restarts", report.faults.master_restarts),
            ("stalls", report.faults.stalls),
            ("wire_windows", report.faults.wire_windows),
            ("delegations", report.faults.delegations),
            ("rollouts", report.faults.rollouts),
        ],
    }
}

/// Run the whole campaign over the pool and aggregate. `on_done` fires
/// once per completed run on the calling thread (live progress; it may
/// cancel the token).
pub fn run_chaos_campaign(
    spec: &ChaosCampaignSpec,
    cancel: &CancelToken,
    on_done: &mut dyn FnMut(&Progress<'_, RunRecord>),
) -> CampaignReport {
    let plan = spec.plan();
    let workers = spec.workers.clamp(1, plan.len().max(1));
    // lint:allow(wall-clock) measurement-only campaign wall time
    let t0 = std::time::Instant::now();
    let slots = run_pool(
        &plan,
        workers,
        cancel,
        |_, (label, cfg)| run_one(label, cfg),
        on_done,
    );
    CampaignReport {
        name: "chaos".to_string(),
        workers,
        cancelled: cancel.is_cancelled(),
        slots,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
    }
}
