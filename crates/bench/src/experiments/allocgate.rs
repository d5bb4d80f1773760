//! allocgate — the CI allocation-regression gate.
//!
//! Every case is warmed up past its buffer ramp and then counted over a
//! measured window with the counting allocator this crate installs; the
//! experiment fails (panics) if any count exceeds its ceiling:
//!
//! * every point of the scale grid (`SweepSpec::default().grid`),
//!   scheduled locally, against [`ALLOC_CEILING_LOCAL`];
//! * 2 eNBs × 16 UEs scheduled by the master against
//!   [`ALLOC_CEILING_REMOTE_2X16`];
//! * the built-in MAC schedulers' `schedule_*_into` calls with reused
//!   buffers, against [`ALLOC_CEILING_SCHED`].
//!
//! `scripts/check.sh` runs it on every gate, so a hot-path allocation
//! regression fails CI locally.

use flexran::harness::{SimConfig, SimHarness};
use flexran::phy::link_adaptation::Cqi;
use flexran::prelude::*;
use flexran::sim::link::LinkConfig;
use flexran::stack::mac::scheduler::{
    DlScheduler, DlSchedulerInput, DlSchedulerOutput, MaxCqiScheduler, ProportionalFairScheduler,
    RoundRobinScheduler, UeSchedInfo, UlRoundRobinScheduler, UlScheduler, UlSchedulerInput,
    UlSchedulerOutput, UlUeInfo,
};
use flexran::types::units::Bytes;
use flexran_campaign::alloc_probe;
use flexran_campaign::sweep::{add_enb_with_ues, grid_sim, SweepSpec};

use super::{remote_agent_config, subscribe_stats};
use crate::{ExpContext, ExpResult};

/// Warm-up TTIs before a simulation case is counted. Sized so every
/// pre-sized buffer (RLC queues ramping to the full-buffer target depth,
/// HARQ rings, scratch pools) reaches steady state: past this point a
/// locally scheduled TTI must be exactly allocation-free.
const WARMUP_TTIS: u64 = 2_000;

/// Warm-up and measured calls of the scheduler probe.
const SCHED_WARMUP_CALLS: u64 = 4;
const SCHED_CALLS: u64 = 1_000;

/// The committed allocs/TTI ceiling for every locally scheduled,
/// one-shard point of the scale grid at steady state. Ratchet it *down*
/// only (it cannot go lower).
pub const ALLOC_CEILING_LOCAL: u64 = 0;

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

/// The committed allocs/call ceiling of the built-in MAC schedulers
/// (round-robin, proportional-fair, max-CQI downlink; round-robin
/// uplink) once their scratch buffers have grown.
pub const ALLOC_CEILING_SCHED: u64 = 0;

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

/// Warm `sim` up, then count its heap traffic over `ttis` TTIs.
fn probe_sim(mut sim: SimHarness, ttis: u64) -> (u64, u64) {
    sim.run(WARMUP_TTIS);
    let (_, allocs, bytes) = alloc_probe::measure(|| sim.run(ttis));
    (allocs, bytes)
}

/// Steady-state allocations of the built-in MAC schedulers: after
/// [`SCHED_WARMUP_CALLS`] calls grow the scratch buffers, count
/// [`SCHED_CALLS`] more `schedule_dl_into`/`schedule_ul_into` calls with
/// reused buffers. Returns `(scheduler, allocs, bytes)`.
fn sched_alloc_probe() -> Vec<(&'static str, u64, u64)> {
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

    let mut out = Vec::new();
    let mut dl_out = DlSchedulerOutput::default();
    let mut probe_dl = |name: &'static str, s: &mut dyn DlScheduler| {
        let mut call = |t: u64| {
            dl_in.now = Tti(t);
            dl_in.target = Tti(t);
            s.schedule_dl_into(&dl_in, &mut dl_out);
        };
        (0..SCHED_WARMUP_CALLS).for_each(&mut call);
        let (_, allocs, bytes) = alloc_probe::measure(|| (0..SCHED_CALLS).for_each(&mut call));
        out.push((name, allocs, bytes));
    };
    probe_dl("round-robin", &mut RoundRobinScheduler::new());
    probe_dl("proportional-fair", &mut ProportionalFairScheduler::new());
    probe_dl("max-cqi", &mut MaxCqiScheduler::new());

    let mut ul = UlRoundRobinScheduler::new();
    let mut ul_out = UlSchedulerOutput::default();
    let mut call = |_: u64| ul.schedule_ul_into(&ul_in, &mut ul_out);
    (0..SCHED_WARMUP_CALLS).for_each(&mut call);
    let (_, allocs, bytes) = alloc_probe::measure(|| (0..SCHED_CALLS).for_each(&mut call));
    out.push(("ul-round-robin", allocs, bytes));
    out
}

/// Run every case, tabulate it, and panic on the first one over its
/// ceiling.
pub fn allocgate(ctx: &ExpContext) -> ExpResult {
    let ttis = ctx.ttis(500, 100);
    let mut r = ExpResult::new(
        "allocgate",
        "steady-state allocation gate",
        &[
            "case",
            "unit",
            "warm-up",
            "measured",
            "allocs",
            "bytes",
            "allocs/unit",
            "ceiling/unit",
        ],
    );
    // (case, unit, warm-up, measured, (allocs, bytes), ceiling)
    let mut cases = Vec::new();
    for &(enbs, ues) in &SweepSpec::default().grid {
        cases.push((
            format!("{enbs}x{ues} local"),
            "TTI",
            WARMUP_TTIS,
            ttis,
            probe_sim(grid_sim(enbs, ues, 7), ttis),
            ALLOC_CEILING_LOCAL,
        ));
    }
    cases.push((
        "2x16 remote".to_string(),
        "TTI",
        WARMUP_TTIS,
        ttis,
        probe_sim(build_remote(2, 16, 7), ttis),
        ALLOC_CEILING_REMOTE_2X16,
    ));
    for (name, allocs, bytes) in sched_alloc_probe() {
        cases.push((
            format!("sched {name}"),
            "call",
            SCHED_WARMUP_CALLS,
            SCHED_CALLS,
            (allocs, bytes),
            ALLOC_CEILING_SCHED,
        ));
    }

    for (case, unit, warmup, measured, (allocs, bytes), ceiling) in cases {
        let per_unit = allocs.div_ceil(measured);
        r.row(vec![
            case.clone(),
            unit.to_string(),
            warmup.to_string(),
            measured.to_string(),
            allocs.to_string(),
            bytes.to_string(),
            per_unit.to_string(),
            ceiling.to_string(),
        ]);
        r.note(format!(
            "{case}: {allocs} heap allocations over {measured} steady-state {unit}s \
             ({per_unit}/{unit}, committed ceiling: {ceiling}/{unit})"
        ));
        assert!(
            per_unit <= ceiling,
            "allocation gate failed: {allocs} allocs over {measured} {unit}s at {case} \
             ({per_unit}/{unit}, ceiling {ceiling}/{unit}); a per-{unit} path started \
             touching the heap"
        );
    }
    r
}
