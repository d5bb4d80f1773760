//! Replay probes: after the measured window, each layer's public function
//! is timed alone on inputs taken from the workload's live end state —
//! the statistics report its first eNodeB composes, and the scheduling
//! command a round-robin pass over that cell yields. A probe reports the
//! median over batches of the mean ns per call.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use flexran::agent::reports::{compose_reply, compose_reply_into};
use flexran::controller::{Rib, RibJournal, RibUpdater};
use flexran::harness::{UeRadioSpec, VanillaHarness};
use flexran::phy::channel::{ChannelProcess, GaussMarkovFading};
use flexran::phy::link_adaptation::{cqi_from_sinr, mcs_for_cqi};
use flexran::phy::tables::tbs_bits_for_mcs;
use flexran::proto::frame::{encode_frame_into, FrameDecoder};
use flexran::proto::messages::Hello;
use flexran::proto::wire::WireWriter;
use flexran::proto::{
    DlSchedulingCommand, FlexranMessage, Header, ReportConfig, ReportFlags, ReportType, Transport,
};
use flexran::sim::clock::VirtualClock;
use flexran::sim::link::{sim_link_pair, LinkConfig};
use flexran::sim::traffic::{CbrSource, FullBufferSource, TrafficSource};
use flexran::stack::enb::{Enb, EnbParams};
use flexran::stack::mac::dci::DlSchedulingDecision;
use flexran::stack::mac::scheduler::{
    DlScheduler, DlSchedulerInput, DlSchedulerOutput, ProportionalFairScheduler,
    RoundRobinScheduler,
};
use flexran::types::budget::TtiBudget;
use flexran::types::config::EnbConfig;
use flexran::types::ids::{CellId, EnbId};
use flexran::types::time::Tti;
use flexran::types::units::{BitRate, Bytes};

use crate::metrics::Metrics;
use crate::stats::median;

const BATCHES: usize = 21;
const PER_BATCH: usize = 100;

/// Median over [`BATCHES`] batches of the mean ns of one `f(state)`;
/// `reset` runs untimed between batches. 2 100 timed calls after 100
/// warm ones.
fn probe_on<S>(state: &mut S, mut f: impl FnMut(&mut S), mut reset: impl FnMut(&mut S)) -> f64 {
    for _ in 0..PER_BATCH {
        f(state);
    }
    reset(state);
    let mut per_call = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..PER_BATCH {
            f(state);
        }
        per_call.push(t.elapsed().as_nanos() as f64 / PER_BATCH as f64);
        reset(state);
    }
    median(&per_call)
}

fn probe(mut f: impl FnMut()) -> f64 {
    probe_on(&mut (), |_| f(), |_| {})
}

/// Run every probe against `enb` (the workload's first eNodeB at the end
/// of the run) and `seed`.
pub fn run(enb: &Enb, now: Tti, seed: u64, m: &mut Metrics) {
    let cell = CellId(0);
    let enb_id = enb.config().enb_id;
    let full = ReportConfig {
        report_type: ReportType::OneOff,
        flags: ReportFlags::ALL,
    };

    // agent: compose the full statistics report.
    let mut reply = compose_reply(enb, now, full);
    m.set(
        "agent.compose_reply_ns",
        probe(|| compose_reply_into(black_box(enb), now, full, &mut reply)),
    );

    // stack: scheduler input from the live cell, then the two policies.
    let mut input = DlSchedulerInput::default();
    m.set(
        "stack.sched_input_ns",
        probe(|| {
            let _ = black_box(enb).dl_scheduler_input_into(cell, now, now, &mut input);
        }),
    );
    let mut out = DlSchedulerOutput::default();
    let mut rr = RoundRobinScheduler::new();
    m.set(
        "stack.sched_rr_ns",
        probe(|| rr.schedule_dl_into(black_box(&input), &mut out)),
    );
    let mut pf = ProportionalFairScheduler::new();
    m.set(
        "stack.sched_pf_ns",
        probe(|| pf.schedule_dl_into(black_box(&input), &mut out)),
    );
    rr.schedule_dl_into(&input, &mut out);
    let cmd = DlSchedulingCommand::from_decision(
        enb_id,
        &DlSchedulingDecision {
            cell,
            target: now,
            dcis: out.dcis.clone(),
        },
    );

    // proto: codec and framing of the two messages of the control loop.
    let stats_msg = FlexranMessage::StatsReply(reply);
    let cmd_msg = FlexranMessage::DlSchedulingCommand(cmd);
    let mut w = WireWriter::new();
    m.set(
        "proto.encode_stats_ns",
        probe(|| black_box(&stats_msg).encode_into(Header::default(), &mut w)),
    );
    let stats_bytes = stats_msg.encode(Header::default());
    m.set(
        "proto.decode_stats_ns",
        probe(|| {
            black_box(FlexranMessage::decode(black_box(&stats_bytes)).is_ok());
        }),
    );
    m.set(
        "proto.encode_cmd_ns",
        probe(|| black_box(&cmd_msg).encode_into(Header::default(), &mut w)),
    );
    let cmd_bytes = cmd_msg.encode(Header::default());
    m.set(
        "proto.decode_cmd_ns",
        probe(|| {
            black_box(FlexranMessage::decode(black_box(&cmd_bytes)).is_ok());
        }),
    );
    let mut frame = Default::default();
    let mut decoder = FrameDecoder::new();
    m.set(
        "proto.frame_ns",
        probe(|| {
            let _ = encode_frame_into(black_box(&stats_bytes), &mut frame);
            decoder.extend(&frame);
            black_box(decoder.next_frame().is_ok());
        }),
    );

    // controller: fold the report into a RIB, journal it, compact.
    let mut rib = Rib::new();
    let mut updater = RibUpdater::new();
    let hello = FlexranMessage::Hello(Hello {
        enb_id,
        n_cells: enb.n_cells() as u32,
        capabilities: Vec::new(),
        applied_config: 0,
    });
    updater.apply(&mut rib, enb_id, &hello, now);
    m.set(
        "controller.rib_apply_ns",
        probe(|| {
            black_box(updater.apply(&mut rib, enb_id, black_box(&stats_msg), now));
        }),
    );
    let mut journal = RibJournal::new(1_000);
    m.set(
        "controller.journal_delta_ns",
        // Compacting between batches keeps the delta buffer at the
        // capacity a running master settles at.
        probe_on(
            &mut journal,
            |j| j.record_delta(enb_id, now, black_box(&stats_msg)),
            |j| j.compact(&rib),
        ),
    );
    m.set(
        "controller.journal_compact_ns",
        probe(|| journal.compact(black_box(&rib))),
    );

    // sim: one report across an ideal virtual-time link.
    let clock = Arc::new(VirtualClock::new());
    let (mut a, mut b) = sim_link_pair(clock.clone(), LinkConfig::ideal(), LinkConfig::ideal());
    clock.advance_to(now);
    m.set(
        "sim.link_xfer_ns",
        probe(|| {
            let _ = a.send(Header::default(), black_box(&stats_msg));
            black_box(b.try_recv().is_ok());
        }),
    );
    let mut full_buffer = FullBufferSource::default();
    let mut cbr = CbrSource::new(BitRate::from_kbps(256));
    let mut t = now;
    m.set(
        "sim.traffic_ns",
        probe(|| {
            t = t.next();
            black_box(full_buffer.bytes_due(t, black_box(Bytes(400_000))));
            black_box(cbr.bytes_due(t, Bytes::ZERO));
        }),
    );

    // phy: one fading sample, and CQI → MCS → TBS for it.
    let mut fading = GaussMarkovFading::new(15.0, 4.0, 0.95, seed);
    let mut t = now;
    m.set(
        "phy.channel_step_ns",
        probe(|| {
            t = t.next();
            black_box(fading.sinr_db(t));
        }),
    );
    let mut sinr = 0.0f64;
    m.set(
        "phy.link_adapt_ns",
        probe(|| {
            sinr = (sinr + 0.37) % 30.0;
            let mcs = mcs_for_cqi(cqi_from_sinr(black_box(sinr)));
            black_box(tbs_bits_for_mcs(mcs.0, 25));
        }),
    );

    // types: the deadline monitor's own cost.
    let mut budget = TtiBudget::default();
    let mut ns = 1u64;
    m.set(
        "types.budget_record_ns",
        probe(|| {
            ns = ns
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            budget.record(black_box(ns >> 44));
        }),
    );

    m.set(
        "stack.vanilla_tti_us",
        vanilla_tti_us(enb.n_ues(cell).unwrap_or(0), seed),
    );
}

/// The Fig. 6a baseline: the same cell and UE count with no agent, no
/// master, no protocol — median µs of one `VanillaHarness::step`.
fn vanilla_tti_us(n_ues: usize, seed: u64) -> f64 {
    let cell = CellId(0);
    let mut v = VanillaHarness::new(EnbConfig::single_cell(EnbId(1)), EnbParams::default());
    let rntis: Vec<_> = (0..n_ues)
        .map(|i| {
            v.add_ue(
                cell,
                UeRadioSpec::Fading(15.0, 4.0, 0.95, seed ^ (i as u64 + 1)),
            )
            .1
        })
        .collect();
    let mut samples = Vec::with_capacity(2_000);
    for i in 0..2_500u64 {
        if i % 8 == 0 {
            let now = v.now();
            for &rnti in &rntis {
                let queued = v
                    .enb
                    .dl_queue_bytes(cell, rnti)
                    .map(|b| b.as_u64())
                    .unwrap_or(0);
                if queued < 500_000 {
                    let _ = v
                        .enb
                        .inject_dl_traffic(cell, rnti, Bytes(500_000 - queued), now);
                }
            }
        }
        let t = Instant::now();
        v.step();
        if i >= 500 {
            samples.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    median(&samples)
}
