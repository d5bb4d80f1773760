//! Criterion micro-benchmarks for the platform's hot paths:
//!
//! * `vsf_swap` — the paper's headline delegation number (~103 ns per
//!   runtime scheduler swap, §5.4).
//! * `proto_*` — FlexRAN protocol encode/decode of the worst-case
//!   statistics report (what the Fig. 7 load consists of), at 16 UEs
//!   (the `central_ctrl` benchmark cell, into a kept writer) and 50 UEs,
//!   and decode of the other two per-TTI messages of the centralized
//!   loop: a 10-DCI downlink scheduling command and a scheduling-request
//!   event.
//! * `crc32_3700b` — the envelope integrity check over a 3.7 kB envelope
//!   (the 16-UE report; paid once on encode and once on decode).
//! * `rib_update` — one full stats report applied by the single-writer
//!   RIB updater (the Fig. 8 core-components cost).
//! * `journal_delta` — the same report encoded into the RIB journal (the
//!   path for messages whose envelope is not at hand), and
//!   `journal_append_envelope` — its received envelope appended verbatim
//!   (what the master does with reports off a sim link).
//! * `scheduler_*` — one TTI of downlink scheduling at 50 UEs, and the
//!   `dense_local` shape: 64 full-buffer UEs with distinct average rates
//!   through proportional-fair into a kept output.
//! * `radio_sinr_256ues` — one SINR sample for each of 256 fading UEs
//!   (what the CQI pass of four 64-UE cells asks of the radio
//!   environment on a measurement TTI).
//! * `sim_tti` — one whole harness TTI (master cycle + agent phases +
//!   data plane) with 10 UEs.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use flexran::agent::vsf::{VsfImpl, VsfSlot};
use flexran::agent::{AgentConfig, VsfRegistry};
use flexran::controller::{Rib, RibJournal, RibUpdater};
use flexran::harness::{SimConfig, SimHarness, UeRadioSpec};
use flexran::phy::channel::GaussMarkovFading;
use flexran::phy::link_adaptation::Cqi;
use flexran::prelude::*;
use flexran::proto::messages::stats::{ReportFlags, StatsReply, UeReport};
use flexran::proto::messages::{
    DlSchedulingCommand, EventNotification, FlexranMessage, Header, Hello,
};
use flexran::proto::wire::{crc32, WireWriter};
use flexran::sim::radio::{RadioEnvironment, UeRadio};
use flexran::sim::traffic::CbrSource;
use flexran::stack::events::EnbEvent;
use flexran::stack::mac::dci::{DlDci, DlSchedulingDecision};
use flexran::stack::mac::scheduler::{
    DlScheduler, DlSchedulerInput, DlSchedulerOutput, ProportionalFairScheduler,
    RoundRobinScheduler, UeSchedInfo,
};
use flexran::stack::stats::UeStats;
use flexran::types::units::Bytes;

fn sample_ue_stats(i: u16) -> UeStats {
    UeStats {
        rnti: Rnti(0x100 + i),
        ue: UeId(i as u32),
        slice: SliceId(0),
        priority_group: 0,
        connected: true,
        cqi: Cqi(10),
        cqi_updated: Tti(100),
        sinr_db: 12.0,
        dl_queue_bytes: Bytes(10_000),
        srb_queue_bytes: Bytes(0),
        ul_bsr_bytes: Bytes(500),
        dl_delivered_bits: 1_000_000,
        ul_delivered_bits: 100_000,
        avg_rate_bps: 2e6,
        harq_tx: 100,
        harq_retx: 10,
        hol_delay_ms: 3,
        active_scells: vec![],
    }
}

fn worst_case_reply(n_ues: u16) -> StatsReply {
    StatsReply {
        enb_id: EnbId(1),
        tti: 12345,
        cells: vec![],
        ues: (0..n_ues)
            .map(|i| UeReport::from_stats(&sample_ue_stats(i), CellId(0), ReportFlags::ALL))
            .collect(),
    }
}

fn bench_vsf_swap(c: &mut Criterion) {
    let mut slot: VsfSlot<dyn DlScheduler> = VsfSlot::new();
    slot.insert("rr", Box::new(RoundRobinScheduler::new()));
    slot.insert("pf", Box::new(ProportionalFairScheduler::new()));
    let mut flip = false;
    c.bench_function("vsf_swap", |b| {
        b.iter(|| {
            flip = !flip;
            slot.activate(if flip { "rr" } else { "pf" }).unwrap();
            black_box(slot.active_name());
        })
    });
    // Registry instantiation (the "push" cost, excluding the wire).
    let registry = VsfRegistry::with_builtins();
    c.bench_function("vsf_instantiate", |b| {
        b.iter(|| {
            let imp = registry.instantiate("proportional-fair").unwrap();
            black_box(matches!(imp, VsfImpl::DlScheduler(_)));
        })
    });
}

fn bench_proto(c: &mut Criterion) {
    let mut w = WireWriter::new();
    for n_ues in [16, 50] {
        let msg = FlexranMessage::StatsReply(worst_case_reply(n_ues));
        c.bench_function(&format!("proto_encode_stats_{n_ues}ues"), |b| {
            b.iter(|| black_box(&msg).encode_into(Header::with_xid(1), &mut w))
        });
        let bytes = msg.encode(Header::with_xid(1));
        c.bench_function(&format!("proto_decode_stats_{n_ues}ues"), |b| {
            b.iter(|| black_box(FlexranMessage::decode(&bytes).unwrap()))
        });
    }
    let dl = DlSchedulingCommand::from_decision(
        EnbId(1),
        &DlSchedulingDecision {
            cell: CellId(0),
            target: Tti(12345),
            dcis: (0..10u16)
                .map(|i| DlDci {
                    rnti: Rnti(0x100 + i),
                    n_prb: 5,
                    mcs: Mcs(15),
                })
                .collect(),
        },
    );
    let bytes = FlexranMessage::DlSchedulingCommand(dl).encode(Header::with_xid(1));
    c.bench_function("proto_decode_dl_command", |b| {
        b.iter(|| black_box(FlexranMessage::decode(&bytes).unwrap()))
    });
    let sr = EnbEvent::SchedulingRequest {
        cell: CellId(0),
        rnti: Rnti(0x105),
        at: Tti(12345),
    };
    let bytes = FlexranMessage::EventNotification(EventNotification::from_enb_event(EnbId(1), &sr))
        .encode(Header::with_xid(1));
    c.bench_function("proto_decode_event", |b| {
        b.iter(|| black_box(FlexranMessage::decode(&bytes).unwrap()))
    });
    let envelope: Vec<u8> = (0..3_700u32).map(|i| (i * 31 + 7) as u8).collect();
    c.bench_function("crc32_3700b", |b| {
        b.iter(|| black_box(crc32(black_box(&envelope))))
    });
}

fn bench_rib_update(c: &mut Criterion) {
    let mut rib = Rib::new();
    let mut updater = RibUpdater::new();
    // The updater rejects reports for cells the agent never declared.
    let hello = FlexranMessage::Hello(Hello {
        enb_id: EnbId(1),
        n_cells: 1,
        capabilities: Vec::new(),
        applied_config: 0,
    });
    updater.apply(&mut rib, EnbId(1), &hello, Tti(0));
    let msg = FlexranMessage::StatsReply(worst_case_reply(16));
    c.bench_function("rib_update_16ues", |b| {
        b.iter(|| {
            black_box(updater.apply(&mut rib, EnbId(1), &msg, Tti(1)));
        })
    });
    assert_eq!(updater.rejected_updates, 0);
    let mut journal = RibJournal::new(1_000);
    let mut appended = 0u64;
    c.bench_function("journal_delta_16ues", |b| {
        b.iter(|| {
            journal.record_delta(EnbId(1), Tti(1), black_box(&msg));
            appended += 1;
            if appended.is_multiple_of(1_000) {
                journal.compact(&rib); // what a running master does
            }
        })
    });
    let envelope = msg.encode(Header::with_xid(1));
    let mut appended = 0u64;
    c.bench_function("journal_append_envelope_16ues", |b| {
        b.iter(|| {
            journal.record_delta_envelope(EnbId(1), Tti(1), black_box(&envelope));
            appended += 1;
            if appended.is_multiple_of(1_000) {
                journal.compact(&rib);
            }
        })
    });
}

fn bench_scheduler(c: &mut Criterion) {
    let ues: Vec<UeSchedInfo> = (0..50u16)
        .map(|i| UeSchedInfo {
            rnti: Rnti(0x100 + i),
            cqi: Cqi(5 + (i % 11) as u8),
            queue_bytes: Bytes(20_000),
            srb_bytes: Bytes(0),
            avg_rate_bps: 1e6 + i as f64 * 1e4,
            slice: SliceId((i % 2) as u8),
            priority_group: 0,
            hol_delay_ms: 1,
        })
        .collect();
    let input = DlSchedulerInput {
        cell: CellId(0),
        now: Tti(100),
        target: Tti(100),
        available_prb: 50,
        max_dcis: 10,
        ues,
        retx: vec![],
    };
    let mut rr = RoundRobinScheduler::new();
    c.bench_function("scheduler_rr_50ues", |b| {
        b.iter(|| black_box(rr.schedule_dl(&input)))
    });
    let mut pf = ProportionalFairScheduler::new();
    c.bench_function("scheduler_pf_50ues", |b| {
        b.iter(|| black_box(pf.schedule_dl(&input)))
    });

    let full_buffer = DlSchedulerInput {
        ues: (0..64u16)
            .map(|i| UeSchedInfo {
                rnti: Rnti(0x100 + i),
                cqi: Cqi(3 + (i % 13) as u8),
                queue_bytes: Bytes(500_000),
                srb_bytes: Bytes(0),
                avg_rate_bps: 2e5 + i as f64 * 3.7e4,
                slice: SliceId::MNO,
                priority_group: 0,
                hol_delay_ms: 1,
            })
            .collect(),
        ..input
    };
    let mut out = DlSchedulerOutput::default();
    c.bench_function("scheduler_pf_64ues_fullbuffer", |b| {
        b.iter(|| pf.schedule_dl_into(black_box(&full_buffer), &mut out))
    });
}

fn bench_radio(c: &mut Criterion) {
    let mut radio = RadioEnvironment::new();
    for id in 1..=256u32 {
        let fading = GaussMarkovFading::new(15.0, 4.0, 0.95, id as u64);
        radio.register_ue(UeId(id), UeRadio::Process(Box::new(fading)));
    }
    let mut tti = Tti(0);
    c.bench_function("radio_sinr_256ues", |b| {
        b.iter(|| {
            tti = tti.next();
            for id in 1..=256u32 {
                black_box(radio.sinr_db(UeId(id), tti));
            }
        })
    });
}

fn bench_sim_tti(c: &mut Criterion) {
    let mut sim = SimHarness::new(SimConfig::default());
    let enb = sim.add_enb(EnbConfig::single_cell(EnbId(1)), AgentConfig::default());
    for _ in 0..10 {
        let ue = sim.add_ue(enb, CellId(0), SliceId::MNO, 0, UeRadioSpec::FixedCqi(10));
        sim.set_dl_traffic(ue, Box::new(CbrSource::new(BitRate::from_mbps(1))));
    }
    sim.run(200); // attach
    c.bench_function("sim_tti_10ues", |b| b.iter(|| sim.step()));
}

fn configured() -> Criterion {
    Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
        .sample_size(50)
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_vsf_swap, bench_proto, bench_rib_update, bench_scheduler, bench_radio,
        bench_sim_tti
}
criterion_main!(benches);
