//! scale — the multi-eNB TTI engine's perf trajectory.
//!
//! Not a paper figure: this experiment records the platform's own
//! scaling baseline so perf regressions are visible in review. It runs
//! the same multi-eNodeB simulation with one RIB shard and with one
//! shard per agent, across a grid of eNodeB and UE counts, and reports:
//!
//! * TTIs/second and the per-phase wall-clock split (serial front —
//!   the master cycle with its per-shard RIB slots — phase A,
//!   interference coupling, phase B, merge) for both shard specs,
//! * heap allocations per TTI (the whole `step`, via the counting
//!   allocator this crate installs),
//! * a digest of the end-state observables, asserting the determinism
//!   contract: the sharded run must be bit-identical to the one-shard run,
//! * a steady-state allocation probe of the MAC schedulers, asserting
//!   their zero-allocation hot-path contract,
//! * TTI latency percentiles from the deadline-budget monitor
//!   (p50/p95/p99/worst) and the derived "max sustainable cells at the
//!   1 ms budget" capacity estimate.
//!
//! Output: `scale.csv` plus machine-readable `BENCH_scale.json`
//! (`scripts/bench.sh` snapshots the latter to the repository root).

use std::time::Instant;

use flexran::agent::AgentConfig;
use flexran::harness::{SimConfig, SimHarness, UeRadioSpec};
use flexran::prelude::*;
use flexran::sim::link::LinkConfig;
use flexran::sim::traffic::FullBufferSource;
use flexran::stack::mac::scheduler::RoundRobinScheduler;
use flexran::types::hash::Fnv1a;
use flexran_campaign::alloc_probe;

use super::{remote_agent_config, subscribe_stats};
use crate::{csv, f2, ExpContext, ExpResult};

/// One grid point's measurements.
struct Sample {
    enbs: usize,
    ues_per_enb: usize,
    shards: &'static str,
    ttis: u64,
    ttis_per_sec: f64,
    serial_front_ns: u64,
    phase_a_ns: u64,
    coupling_ns: u64,
    phase_b_ns: u64,
    merge_ns: u64,
    allocs_per_tti: f64,
    tti_p50_ns: u64,
    tti_p95_ns: u64,
    tti_p99_ns: u64,
    tti_worst_ns: u64,
    over_budget: u64,
    /// Linear extrapolation: how many single-cell eNBs fit in the TTI
    /// budget if per-cell cost scales like this grid point's p99.
    max_cells_at_budget: u64,
    digest: u64,
}

/// Warm-up TTIs before the steady-state allocation probes. Sized so
/// every pre-sized buffer (RLC queues ramping to the full-buffer target
/// depth, HARQ rings, scratch pools) reaches steady state: past this
/// point a TTI must be exactly allocation-free. The throughput rows keep
/// the shorter historical warm-up so their end-state digests stay
/// comparable to the committed baseline (same total TTI count).
const WARMUP_TTIS: u64 = 2_000;

fn build(n_enbs: usize, ues_per_enb: usize, shards: ShardSpec, seed: u64) -> SimHarness {
    let mut sim = SimHarness::new(SimConfig {
        seed,
        master: TaskManagerConfig {
            shards,
            ..TaskManagerConfig::default()
        },
        ..SimConfig::default()
    });
    for e in 0..n_enbs {
        add_enb_with_ues(&mut sim, e, ues_per_enb, seed, AgentConfig::default());
    }
    sim
}

/// The `e`-th single-cell eNodeB with `ues_per_enb` fading, full-buffer
/// UEs (per-UE fading seeds derived from `seed`).
fn add_enb_with_ues(
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

/// Digest of the end-state observables of every UE, in UE-id order.
fn digest(sim: &SimHarness, n_enbs: usize, ues_per_enb: usize) -> u64 {
    let mut h = Fnv1a::new();
    sim.fold_end_state((1..=(n_enbs * ues_per_enb) as u32).map(UeId), &mut h);
    h.finish()
}

fn run_point(
    n_enbs: usize,
    ues_per_enb: usize,
    shards: ShardSpec,
    shards_label: &'static str,
    ttis: u64,
) -> Sample {
    let mut sim = build(n_enbs, ues_per_enb, shards, 7);
    sim.run(100); // attach + short warm-up (digest parity with baseline)
    sim.reset_budget(); // percentiles cover only the measured window
    let t0_timings = sim.phase_timings();
    let t0 = Instant::now();
    let (_, allocs, _) = alloc_probe::measure(|| sim.run(ttis));
    let wall = t0.elapsed();
    let t = sim.phase_timings();
    let b = sim.budget_stats();
    let p99 = b.p99_ns.max(1);
    Sample {
        enbs: n_enbs,
        ues_per_enb,
        shards: shards_label,
        ttis,
        ttis_per_sec: ttis as f64 / wall.as_secs_f64(),
        serial_front_ns: t.serial_front_ns - t0_timings.serial_front_ns,
        phase_a_ns: t.phase_a_ns - t0_timings.phase_a_ns,
        coupling_ns: t.coupling_ns - t0_timings.coupling_ns,
        phase_b_ns: t.phase_b_ns - t0_timings.phase_b_ns,
        merge_ns: t.merge_ns - t0_timings.merge_ns,
        allocs_per_tti: allocs as f64 / ttis as f64,
        tti_p50_ns: b.p50_ns,
        tti_p95_ns: b.p95_ns,
        tti_p99_ns: b.p99_ns,
        tti_worst_ns: b.worst_ns,
        over_budget: b.over_budget,
        max_cells_at_budget: n_enbs as u64 * b.budget_ns / p99,
        digest: digest(&sim, n_enbs, ues_per_enb),
    }
}

/// Steady-state allocation probe of one one-shard grid point: warm up past every buffer ramp, then count heap allocations
/// over a measured window. The zero-alloc-TTI contract says this is
/// exactly 0 — the `scale` experiment asserts it for every grid point.
fn steady_alloc_probe(n_enbs: usize, ues_per_enb: usize, ttis: u64) -> u64 {
    let mut sim = build(n_enbs, ues_per_enb, ShardSpec::Auto, 7);
    sim.run(WARMUP_TTIS);
    let (_, allocs, _) = alloc_probe::measure(|| sim.run(ttis));
    allocs
}

/// Steady-state allocation probe of the built-in MAC schedulers: after a
/// warm-up call, repeated `schedule_dl_into`/`schedule_ul_into` with
/// reused buffers must not touch the heap at all.
fn sched_alloc_probe() -> Vec<(&'static str, u64)> {
    use flexran::phy::link_adaptation::Cqi;
    use flexran::stack::mac::scheduler::{
        DlScheduler, DlSchedulerInput, DlSchedulerOutput, MaxCqiScheduler,
        ProportionalFairScheduler, RoundRobinScheduler, UeSchedInfo, UlRoundRobinScheduler,
        UlScheduler, UlSchedulerInput, UlSchedulerOutput, UlUeInfo,
    };
    use flexran::types::units::Bytes;

    let mut dl_in = DlSchedulerInput {
        cell: CellId(0),
        now: Tti(1),
        target: Tti(1),
        available_prb: 50,
        max_dcis: 8,
        ues: (0..64)
            .map(|i| UeSchedInfo {
                rnti: Rnti(0x100 + i as u16),
                cqi: Cqi(((i % 14) + 1) as u8),
                queue_bytes: Bytes(10_000 + i as u64),
                srb_bytes: Bytes::ZERO,
                avg_rate_bps: 1.0 + i as f64,
                slice: SliceId::MNO,
                priority_group: (i % 2) as u8,
                hol_delay_ms: i as u64,
            })
            .collect(),
        retx: vec![],
    };
    let ul_in = UlSchedulerInput {
        cell: CellId(0),
        now: Tti(1),
        target: Tti(1),
        available_prb: 50,
        max_grants: 8,
        ues: (0..64)
            .map(|i| UlUeInfo {
                rnti: Rnti(0x100 + i as u16),
                bsr_bytes: Bytes(5_000),
                cqi: Cqi(((i % 14) + 1) as u8),
                prb_cap: 16,
            })
            .collect(),
    };

    const ITERS: u64 = 1_000;
    let mut out = Vec::new();
    let mut dl_out = DlSchedulerOutput::default();
    let mut probe_dl = |name: &'static str, s: &mut dyn DlScheduler| {
        // Warm-up grows the scratch buffers to their steady-state size.
        for t in 0..4u64 {
            dl_in.now = Tti(t);
            dl_in.target = Tti(t);
            s.schedule_dl_into(&dl_in, &mut dl_out);
        }
        let (_, allocs, _) = alloc_probe::measure(|| {
            for t in 0..ITERS {
                dl_in.now = Tti(t);
                dl_in.target = Tti(t);
                s.schedule_dl_into(&dl_in, &mut dl_out);
            }
        });
        out.push((name, allocs));
    };
    probe_dl("round-robin", &mut RoundRobinScheduler::new());
    probe_dl("proportional-fair", &mut ProportionalFairScheduler::new());
    probe_dl("max-cqi", &mut MaxCqiScheduler::new());

    let mut ul = UlRoundRobinScheduler::new();
    let mut ul_out = UlSchedulerOutput::default();
    for _ in 0..4 {
        ul.schedule_ul_into(&ul_in, &mut ul_out);
    }
    let (_, allocs, _) = alloc_probe::measure(|| {
        for _ in 0..ITERS {
            ul.schedule_ul_into(&ul_in, &mut ul_out);
        }
    });
    out.push(("ul-round-robin", allocs));
    out
}

/// The scaling experiment: one RIB shard vs one shard per agent.
pub fn scale(ctx: &ExpContext) -> ExpResult {
    let ttis = ctx.ttis(2_000, 300);
    let grid: &[(usize, usize)] = &[(1, 16), (2, 32), (4, 64), (8, 16), (8, 64)];

    let mut r = ExpResult::new(
        "scale",
        "TTI engine scaling: one RIB shard vs per-agent shards",
        &[
            "eNBs",
            "UEs/eNB",
            "shards",
            "TTIs/s",
            "phaseA ms",
            "phaseB ms",
            "serial-front ms",
            "allocs/TTI",
            "p99 µs",
            "cells@1ms",
            "identical",
        ],
    );
    let mut rows = Vec::new();
    let mut json_series = Vec::new();
    let mut steady_probes = Vec::new();
    let mut front_speedup_4x64 = 0.0;
    let mut all_identical = true;
    for &(enbs, ues) in grid {
        let one_shard = run_point(enbs, ues, ShardSpec::Auto, "1", ttis);
        let sharded = run_point(enbs, ues, ShardSpec::PerAgent, "per-agent", ttis);
        let identical = one_shard.digest == sharded.digest;
        all_identical &= identical;
        let probe_ttis = ctx.ttis(500, 200);
        let steady_allocs = steady_alloc_probe(enbs, ues, probe_ttis);
        steady_probes.push(serde_json::json!({
            "enbs": enbs,
            "ues_per_enb": ues,
            "warmup_ttis": WARMUP_TTIS,
            "measured_ttis": probe_ttis,
            "allocs": steady_allocs,
        }));
        assert!(
            steady_allocs == 0,
            "steady-state allocations regressed at {enbs}x{ues}: {steady_allocs} allocs \
             over {probe_ttis} TTIs after a {WARMUP_TTIS}-TTI warm-up"
        );
        if (enbs, ues) == (4, 64) {
            front_speedup_4x64 =
                one_shard.serial_front_ns as f64 / (sharded.serial_front_ns as f64).max(1.0);
        }
        for s in [&one_shard, &sharded] {
            let cells = vec![
                s.enbs.to_string(),
                s.ues_per_enb.to_string(),
                s.shards.to_string(),
                format!("{:.0}", s.ttis_per_sec),
                f2(s.phase_a_ns as f64 / 1e6),
                f2(s.phase_b_ns as f64 / 1e6),
                f2(s.serial_front_ns as f64 / 1e6),
                f2(s.allocs_per_tti),
                f2(s.tti_p99_ns as f64 / 1e3),
                s.max_cells_at_budget.to_string(),
                identical.to_string(),
            ];
            r.row(cells.clone());
            rows.push(cells);
            json_series.push(serde_json::json!({
                "enbs": s.enbs,
                "ues_per_enb": s.ues_per_enb,
                "shards": s.shards,
                "ttis": s.ttis,
                "ttis_per_sec": s.ttis_per_sec,
                "serial_front_ns": s.serial_front_ns,
                "phase_a_ns": s.phase_a_ns,
                "coupling_ns": s.coupling_ns,
                "phase_b_ns": s.phase_b_ns,
                "merge_ns": s.merge_ns,
                "allocs_per_tti": s.allocs_per_tti,
                "tti_p50_ns": s.tti_p50_ns,
                "tti_p95_ns": s.tti_p95_ns,
                "tti_p99_ns": s.tti_p99_ns,
                "tti_worst_ns": s.tti_worst_ns,
                "over_budget": s.over_budget,
                "max_cells_at_budget": s.max_cells_at_budget,
                "digest": format!("{:016x}", s.digest),
            }));
        }
    }
    ctx.write_csv(
        "scale",
        &csv(
            &[
                "enbs",
                "ues_per_enb",
                "shards",
                "ttis_per_sec",
                "phase_a_ms",
                "phase_b_ms",
                "serial_front_ms",
                "allocs_per_tti",
                "tti_p99_us",
                "max_cells_at_budget",
                "identical",
            ],
            &rows,
        ),
    );

    let probe = sched_alloc_probe();
    let probe_json: Vec<_> = probe
        .iter()
        .map(|(name, allocs)| serde_json::json!({ "scheduler": *name, "allocs": *allocs }))
        .collect();
    let json = serde_json::json!({
        "bench": "scale",
        "quick": ctx.quick,
        "ttis_per_point": ttis,
        "series": json_series,
        "steady_state_allocs": steady_probes,
        "sched_alloc_probe": probe_json,
        "serial_front_speedup_4x64": front_speedup_4x64,
        "deterministic": all_identical,
    });
    std::fs::write(
        ctx.out_dir.join("BENCH_scale.json"),
        serde_json::to_string_pretty(&json).expect("serialize"),
    )
    .expect("write BENCH_scale.json");

    r.note(format!(
        "steady-state allocations after a {WARMUP_TTIS}-TTI warm-up: 0 at every \
         grid point (asserted; the committed ceiling in `allocgate` is 0)"
    ));
    r.note(format!(
        "serial-front speedup at 4 eNBs × 64 UEs with per-agent shards: {:.2}×; \
         observables bit-identical: {}",
        front_speedup_4x64, all_identical
    ));
    for (name, allocs) in &probe {
        r.note(format!(
            "scheduler '{name}': {allocs} allocations over 1000 steady-state calls"
        ));
    }
    assert!(
        all_identical,
        "per-agent-sharded run diverged from one shard (determinism contract broken)"
    );
    r
}

/// The committed allocs/TTI ceiling for a steady-state 2 eNB × 32 UE
/// serial run. Zero after the zero-alloc-TTI work: ratchet it *down*
/// only. `scripts/check.sh` runs the `allocgate` experiment on every
/// gate, so any hot-path allocation regression fails CI locally.
pub const ALLOC_CEILING_2X32: u64 = 0;

/// The committed allocs/TTI ceiling for a steady-state 2 eNB × 16 UE
/// run scheduled by the master: per-TTI full statistics reports
/// (`Periodic{1}` + `ReportFlags::ALL`), 1 ms links each way, a
/// round-robin [`CentralizedScheduler`](flexran::apps::CentralizedScheduler),
/// journal on. Unlike the local path this one decodes owned messages and
/// runs an app, so it is not zero: what is left per agent and TTI is 17
/// allocations — the `ues`/`cells` vectors of the decoded report (4), the
/// scheduling command's DCI vectors on both sides (5) and the scheduler
/// app's per-cycle inputs and outputs (8). Composing, encoding, carrying,
/// folding into the RIB and journaling the report allocate nothing. It
/// was 590 per agent and TTI before the report path went heap-free.
/// Ratchet it *down* only.
pub const ALLOC_CEILING_REMOTE_2X16: u64 = 34;

/// The remote-scheduled gate scenario (the paper's Fig. 7–9 regime in
/// miniature).
fn build_remote(n_enbs: usize, ues_per_enb: usize, seed: u64) -> SimHarness {
    let mut sim = SimHarness::new(SimConfig {
        seed,
        uplink: LinkConfig::with_one_way_ms(1),
        downlink: LinkConfig::with_one_way_ms(1),
        master: TaskManagerConfig {
            journal_snapshot_every: 1_000,
            ..TaskManagerConfig::default()
        },
        ..SimConfig::default()
    });
    sim.master_mut()
        .register_app(Box::new(flexran::apps::CentralizedScheduler::new(
            4,
            Box::new(RoundRobinScheduler::new()),
        )));
    let enbs: Vec<EnbId> = (0..n_enbs)
        .map(|e| add_enb_with_ues(&mut sim, e, ues_per_enb, seed, remote_agent_config()))
        .collect();
    sim.run(5); // hellos cross the 1 ms links
    for enb in enbs {
        subscribe_stats(&mut sim, enb, 1);
    }
    sim
}

/// allocgate — the CI allocation-regression gate.
///
/// Two fast, single-point versions of the scale experiment's alloc
/// assertion, each warmed up past the buffer ramp and then counted over
/// a measured window with the counting allocator: 2 eNBs × 32 UEs
/// scheduled locally against [`ALLOC_CEILING_2X32`], and 2 eNBs × 16 UEs
/// scheduled by the master against [`ALLOC_CEILING_REMOTE_2X16`]. Fails
/// (panics) if either count exceeds its ceiling.
pub fn allocgate(ctx: &ExpContext) -> ExpResult {
    let ttis = ctx.ttis(500, 100);
    let mut r = ExpResult::new(
        "allocgate",
        "steady-state allocation gates",
        &[
            "case",
            "warmup TTIs",
            "measured TTIs",
            "allocs",
            "bytes",
            "allocs/TTI",
            "ceiling/TTI",
        ],
    );
    let cases = [
        (
            "2x32 local",
            build(2, 32, ShardSpec::Auto, 7),
            ALLOC_CEILING_2X32,
        ),
        (
            "2x16 remote",
            build_remote(2, 16, 7),
            ALLOC_CEILING_REMOTE_2X16,
        ),
    ];
    for (case, mut sim, ceiling) in cases {
        sim.run(WARMUP_TTIS);
        let (_, allocs, bytes) = alloc_probe::measure(|| sim.run(ttis));
        let per_tti = allocs.div_ceil(ttis);
        r.row(vec![
            case.to_string(),
            WARMUP_TTIS.to_string(),
            ttis.to_string(),
            allocs.to_string(),
            bytes.to_string(),
            per_tti.to_string(),
            ceiling.to_string(),
        ]);
        r.note(format!(
            "{case}: {allocs} heap allocations over {ttis} steady-state TTIs \
             ({per_tti}/TTI, committed ceiling: {ceiling}/TTI)"
        ));
        assert!(
            per_tti <= ceiling,
            "allocation gate failed: {allocs} allocs over {ttis} TTIs at {case} \
             ({per_tti}/TTI, ceiling {ceiling}/TTI); a per-TTI path started touching the heap"
        );
    }
    r
}
