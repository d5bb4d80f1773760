//! `campaign sweep`: the scale grid across seeds — the one producer of
//! `BENCH_scale.json`.
//!
//! The sweep runs every eNB×UE grid point under `seeds` independent
//! seeds on the campaign pool and aggregates each KPI into a
//! [`Distribution`](crate::stats::Distribution), so every point carries
//! a mean with a 95% CI and exact percentiles. Per run it records
//! TTIs/s, the TTI-latency percentiles of the deadline monitor, the
//! per-TTI wall-clock split of `SimHarness::step` (serial front,
//! phase A, coupling, phase B, merge), allocs/TTI and
//! `max_cells_at_budget`: how many single-cell eNBs fit in the 1 ms TTI
//! budget if per-cell cost scales like the point's p99. Throughput and
//! the end-state digest are deterministic per `(point, seed)`; the
//! wall-clock KPIs vary run to run, and that spread is what the
//! distribution quantifies — so run the sweep with one worker when the
//! numbers are to be committed.

use crate::alloc_probe;
use crate::pool::{run_pool, CancelToken, Progress};
use crate::report::{CampaignReport, RunRecord};
use flexran::agent::AgentConfig;
use flexran::harness::{SimConfig, SimHarness, UeRadioSpec};
use flexran::prelude::*;
use flexran::sim::traffic::FullBufferSource;
use flexran::types::hash::Fnv1a;

/// One planned sweep run: a grid point under one seed.
#[derive(Debug, Clone)]
pub struct SweepRun {
    pub enbs: usize,
    pub ues_per_enb: usize,
    pub seed: u64,
}

/// The sweep spec. The default grid is the scale grid that
/// `BENCH_scale.json` records and `allocgate` gates.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    pub grid: Vec<(usize, usize)>,
    /// Seeds `0..seeds` per grid point.
    pub seeds: u64,
    /// Measured TTIs per run (after the attach warm-up).
    pub ttis: u64,
    /// Attach/warm-up TTIs excluded from the measured window. The
    /// default matches `allocgate`'s warm-up, past most of the RLC
    /// queues' ramp to full-buffer depth.
    pub warmup: u64,
    pub workers: usize,
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec {
            grid: vec![(1, 16), (2, 32), (4, 64), (8, 16), (8, 64)],
            seeds: 8,
            ttis: 2_000,
            warmup: 2_000,
            workers: 1,
        }
    }
}

/// Parse a CLI grid: `1x16,2x32,...`.
pub fn parse_grid(text: &str) -> Result<Vec<(usize, usize)>, String> {
    let mut grid = Vec::new();
    for token in text.split(',') {
        let (e, u) = token
            .trim()
            .split_once('x')
            .ok_or_else(|| format!("bad grid point '{token}' (want ENBSxUES, e.g. 4x64)"))?;
        let enbs = e
            .parse()
            .map_err(|_| format!("bad eNB count in '{token}'"))?;
        let ues = u
            .parse()
            .map_err(|_| format!("bad UE count in '{token}'"))?;
        grid.push((enbs, ues));
    }
    Ok(grid)
}

impl SweepSpec {
    /// The deterministic plan, grid-major then seed order.
    pub fn plan(&self) -> Vec<SweepRun> {
        let mut plan = Vec::new();
        for &(enbs, ues_per_enb) in &self.grid {
            for seed in 0..self.seeds {
                plan.push(SweepRun {
                    enbs,
                    ues_per_enb,
                    seed,
                });
            }
        }
        plan
    }
}

/// The `e`-th single-cell eNodeB with `ues_per_enb` fading, full-buffer
/// UEs (per-UE fading seeds derived from `seed`).
pub fn add_enb_with_ues(
    sim: &mut SimHarness,
    e: usize,
    ues_per_enb: usize,
    seed: u64,
    agent: AgentConfig,
) -> EnbId {
    let enb = EnbId(e as u32 + 1);
    sim.add_enb(EnbConfig::single_cell(enb), agent);
    for u in 0..ues_per_enb {
        let ue_seed = seed ^ ((e as u64) << 32) ^ u as u64;
        let ue = sim.add_ue(
            enb,
            CellId(0),
            SliceId::MNO,
            0,
            UeRadioSpec::Fading(15.0, 4.0, 0.95, ue_seed),
        );
        sim.set_dl_traffic(ue, Box::new(FullBufferSource::default()));
    }
    enb
}

/// One grid point's simulation: `enbs` locally scheduled eNodeBs of
/// `ues_per_enb` UEs each, one RIB shard.
pub fn grid_sim(enbs: usize, ues_per_enb: usize, seed: u64) -> SimHarness {
    let mut sim = SimHarness::new(SimConfig {
        seed,
        ..SimConfig::default()
    });
    for e in 0..enbs {
        add_enb_with_ues(&mut sim, e, ues_per_enb, seed, AgentConfig::default());
    }
    sim
}

/// Execute one sweep run (the campaign pool is the parallelism) and
/// record its KPIs and end-state digest.
pub fn run_one(run: &SweepRun, spec: &SweepSpec) -> RunRecord {
    let mut sim = grid_sim(run.enbs, run.ues_per_enb, run.seed);
    sim.run(spec.warmup);
    sim.reset_budget();
    let phases_start = sim.phase_timings();
    let allocs_before = alloc_probe::thread_allocations();
    // TTIs/s is the KPI under measurement; the simulation itself runs
    // on virtual time.
    // lint:allow(wall-clock) measurement-only KPI
    let t0 = std::time::Instant::now();
    sim.run(spec.ttis);
    let wall = t0.elapsed();
    let allocs_after = alloc_probe::thread_allocations();
    let budget = sim.budget_stats();
    let phases_end = sim.phase_timings();

    // Deterministic end-state digest + cumulative throughput.
    let ues = || (1..=(run.enbs * run.ues_per_enb) as u32).map(UeId);
    let mut digest = Fnv1a::new();
    sim.fold_end_state(ues(), &mut digest);
    let dl_bits: u64 = ues()
        .filter_map(|ue| sim.ue_stats(ue))
        .map(|s| s.dl_delivered_bits)
        .sum();

    let total_ttis = (spec.warmup + spec.ttis).max(1);
    let measured = spec.ttis.max(1) as f64;
    let per_tti_us = |end: u64, start: u64| (end - start) as f64 / 1e3 / measured;
    let mut kpis: Vec<(&'static str, f64)> = vec![
        (
            "ttis_per_sec",
            spec.ttis as f64 / wall.as_secs_f64().max(1e-9),
        ),
        (
            "throughput_mbps",
            dl_bits as f64 / total_ttis as f64 / 1000.0,
        ),
        ("tti_p50_us", budget.p50_ns as f64 / 1e3),
        ("tti_p99_us", budget.p99_ns as f64 / 1e3),
        (
            "serial_front_us",
            per_tti_us(phases_end.serial_front_ns, phases_start.serial_front_ns),
        ),
        (
            "phase_a_us",
            per_tti_us(phases_end.phase_a_ns, phases_start.phase_a_ns),
        ),
        (
            "coupling_us",
            per_tti_us(phases_end.coupling_ns, phases_start.coupling_ns),
        ),
        (
            "phase_b_us",
            per_tti_us(phases_end.phase_b_ns, phases_start.phase_b_ns),
        ),
        (
            "merge_us",
            per_tti_us(phases_end.merge_ns, phases_start.merge_ns),
        ),
        (
            "max_cells_at_budget",
            (run.enbs as u64 * budget.budget_ns / budget.p99_ns.max(1)) as f64,
        ),
    ];
    if let (Some(before), Some(after)) = (allocs_before, allocs_after) {
        kpis.push((
            "allocs_per_tti",
            after.saturating_sub(before) as f64 / measured,
        ));
    }
    RunRecord {
        label: format!("{}x{}", run.enbs, run.ues_per_enb),
        seed: run.seed,
        pass: true, // the sweep has no oracles; failures are digest mismatches downstream
        digest: digest.finish(),
        violations_total: 0,
        violations: Vec::new(),
        kpis,
        counters: Vec::new(),
    }
}

/// Run the sweep over the pool.
pub fn run_sweep(
    spec: &SweepSpec,
    cancel: &CancelToken,
    on_done: &mut dyn FnMut(&Progress<'_, RunRecord>),
) -> CampaignReport {
    let plan = spec.plan();
    let workers = spec.workers.clamp(1, plan.len().max(1));
    // lint:allow(wall-clock) measurement-only campaign wall time
    let t0 = std::time::Instant::now();
    let slots = run_pool(&plan, workers, cancel, |_, run| run_one(run, spec), on_done);
    CampaignReport {
        name: "sweep".to_string(),
        workers,
        cancelled: cancel.is_cancelled(),
        slots,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
    }
}

/// The `BENCH_scale.json` sweep schema: one series entry per grid
/// point, every KPI a distribution over that point's seeds, plus the
/// per-seed digests for reproducibility cross-checks.
pub fn sweep_json(report: &CampaignReport, spec: &SweepSpec) -> serde_json::Value {
    let mut series = Vec::new();
    for &(enbs, ues_per_enb) in &spec.grid {
        let label = format!("{enbs}x{ues_per_enb}");
        let records: Vec<_> = report.completed().filter(|r| r.label == label).collect();
        let mut kpis: Vec<(String, serde_json::Value)> = Vec::new();
        let mut by_name: Vec<(&'static str, Vec<f64>)> = Vec::new();
        for r in &records {
            for (name, value) in &r.kpis {
                match by_name.iter_mut().find(|(n, _)| n == name) {
                    Some((_, samples)) => samples.push(*value),
                    None => by_name.push((name, vec![*value])),
                }
            }
        }
        for (name, samples) in &by_name {
            if let Some(d) = crate::stats::Distribution::from_samples(samples) {
                kpis.push((name.to_string(), d.to_json()));
            }
        }
        let digests: Vec<serde_json::Value> = records
            .iter()
            .map(|r| serde_json::Value::String(format!("{:016x}", r.digest)))
            .collect();
        series.push(serde_json::json!({
            "enbs": enbs as u64,
            "ues_per_enb": ues_per_enb as u64,
            "seeds": records.len() as u64,
            "kpis": serde_json::Value::Object(kpis),
            "digests": serde_json::Value::Array(digests),
        }));
    }
    serde_json::json!({
        "bench": "scale",
        "mode": "sweep",
        "schema": 1u64,
        "seeds_per_point": spec.seeds,
        "ttis_per_point": spec.ttis,
        "warmup_ttis": spec.warmup,
        "workers": report.workers as u64,
        "completed": (report.total() - report.skipped()) as u64,
        "planned": report.total() as u64,
        "cancelled": report.cancelled,
        "wall_ms": report.wall_ms,
        "series": serde_json::Value::Array(series),
        "note": "every KPI is aggregated over independent seeds with exact nearest-rank \
                 percentiles and a 95% CI on the mean; the *_us phase split is wall-clock \
                 per measured TTI, max_cells_at_budget = enbs * budget / p99",
    })
}
