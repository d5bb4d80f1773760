//! Differential oracle for the encoders.
//!
//! A deliberately naive reference encoder: every field goes through a
//! plain varint loop into a `Vec`, and every nested message is encoded
//! into a `Vec` of its own that is then copied behind its length — the
//! textbook protobuf construction, with nothing reserved, hinted or
//! patched. It covers the messages of the control loop and the
//! configuration messages: the envelope header and trailer,
//! `StatsReply` with its cell, UE and RLC reports, `SubframeTrigger`,
//! `EventNotification`, the downlink/uplink scheduling commands,
//! `ConfigRequest`/`ConfigReply` and the config bundle push/ack.
//!
//! The proptests below demand byte equality between it and
//! [`FlexranMessage::encode_into`] on arbitrary messages, encoded in
//! sequence through *one* reused writer (so a length prefix reserved at
//! a width remembered from a larger or smaller earlier message must
//! still come out canonical), appended behind an existing byte log, and
//! at payload lengths on both sides of the one/two- and two/three-byte
//! varint edges (127/128 and 16 383/16 384). A second oracle runs
//! arbitrary [`WireWriter`] call programs against the same reference
//! writer.
#![cfg(test)]

use flexran_types::ids::{CellId, EnbId};
use proptest::prelude::*;

use super::commands::{DciPb, UlGrantPb};
use super::config::{CellConfigPb, ConfigScope, UeConfigPb};
use super::reference::{arbitrary_body, crc32_bitwise, Gen, EVENT_KINDS};
use super::stats::RlcReport;
use super::*;
use crate::inline::InlineVec;
use crate::wire::with_portable_crc;

// ----------------------------------------------------------------------
// The reference writer
// ----------------------------------------------------------------------

/// Textbook protobuf writer: defaults skipped, one byte per push, nested
/// messages built apart and copied in.
#[derive(Debug, Default)]
struct RefWriter(Vec<u8>);

impl RefWriter {
    fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.0.push(byte);
                return;
            }
            self.0.push(byte | 0x80);
        }
    }

    fn key(&mut self, field: u32, wire_type: u64) {
        self.varint(((field as u64) << 3) | wire_type);
    }

    fn uint(&mut self, field: u32, v: u64) {
        if v != 0 {
            self.key(field, 0);
            self.varint(v);
        }
    }

    fn sint(&mut self, field: u32, v: i64) {
        self.uint(field, ((v << 1) ^ (v >> 63)) as u64);
    }

    fn double(&mut self, field: u32, v: f64) {
        if v != 0.0 {
            self.key(field, 1);
            self.0.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }

    fn fixed32_always(&mut self, field: u32, v: u32) {
        self.key(field, 5);
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn fixed32(&mut self, field: u32, v: u32) {
        if v != 0 {
            self.fixed32_always(field, v);
        }
    }

    fn delimited(&mut self, field: u32, payload: &[u8]) {
        self.key(field, 2);
        self.varint(payload.len() as u64);
        self.0.extend_from_slice(payload);
    }

    fn bytes(&mut self, field: u32, b: &[u8]) {
        if !b.is_empty() {
            self.delimited(field, b);
        }
    }

    fn packed<T: Copy + Into<u64>>(&mut self, field: u32, vs: &[T]) {
        if !vs.is_empty() {
            let mut inner = RefWriter::default();
            for v in vs {
                inner.varint((*v).into());
            }
            self.delimited(field, &inner.0);
        }
    }

    /// Always emitted, even empty: a present submessage is structural.
    fn message(&mut self, field: u32, build: impl FnOnce(&mut RefWriter)) {
        let mut inner = RefWriter::default();
        build(&mut inner);
        self.delimited(field, &inner.0);
    }
}

// ----------------------------------------------------------------------
// The reference encoders (field lists as the protocol defines them)
// ----------------------------------------------------------------------

fn ref_rlc(w: &mut RefWriter, m: &RlcReport) {
    w.uint(1, m.lcid as u64 + 1);
    w.uint(2, m.tx_queue_bytes);
    w.uint(3, m.hol_delay_ms);
    w.uint(4, m.status_pdu_bytes as u64);
}

fn ref_ue(w: &mut RefWriter, m: &UeReport) {
    w.uint(1, m.rnti as u64);
    w.uint(2, m.connected as u64);
    w.uint(3, m.slice as u64);
    w.uint(4, m.priority_group as u64);
    w.uint(5, m.wideband_cqi as u64);
    w.packed(6, &m.subband_cqi);
    w.packed(7, &m.bsr);
    w.sint(8, m.phr_db);
    for rlc in m.rlc.iter() {
        w.message(9, |r| ref_rlc(r, rlc));
    }
    w.uint(10, m.pending_mac_ces as u64);
    w.packed(11, &m.harq_states);
    w.sint(12, m.ul_sinr_decidb);
    w.packed(13, &m.ul_subband_sinr);
    w.sint(14, m.rsrp_decidbm);
    w.sint(15, m.rsrq_decidb);
    w.uint(16, m.pdcp_tx_bytes);
    w.uint(17, m.pdcp_tx_sn as u64);
    w.uint(18, m.dl_tbs_bits_total);
    w.uint(19, m.ul_tbs_bits_total);
    w.uint(20, m.harq_tx);
    w.uint(21, m.harq_retx);
    w.uint(22, m.avg_rate_bps);
    w.uint(23, m.last_mcs as u64);
    w.uint(24, m.cqi_timestamp);
    w.packed(25, &m.subband_cqi_cw1);
    w.packed(26, &m.harq_rounds);
    w.packed(27, &m.tbs_per_process);
    w.sint(28, m.pusch_power_decidbm);
    w.sint(29, m.pucch_power_decidbm);
    w.uint(30, m.pdcp_rx_bytes);
    w.uint(31, m.pdcp_rx_sn as u64);
    w.uint(32, m.cell as u64 + 1);
    w.packed(33, &m.active_scells);
}

fn ref_cell(w: &mut RefWriter, m: &CellReport) {
    w.uint(1, m.cell_id as u64 + 1);
    w.sint(2, m.noise_interference_decidbm);
    w.uint(3, m.dl_prbs_used_total);
    w.uint(4, m.ul_prbs_used_total);
    w.uint(5, m.active_ues as u64);
    w.uint(6, m.abs_muted_ttis);
    w.uint(7, m.decisions_applied);
    w.uint(8, m.missed_deadlines);
}

fn ref_stats(w: &mut RefWriter, m: &StatsReply) {
    w.uint(1, m.enb_id.0 as u64);
    w.uint(2, m.tti);
    for c in &m.cells {
        w.message(3, |r| ref_cell(r, c));
    }
    for u in &m.ues {
        w.message(4, |r| ref_ue(r, u));
    }
}

fn ref_dci(w: &mut RefWriter, m: &DciPb) {
    w.uint(1, m.rnti as u64);
    w.uint(2, m.n_prb as u64);
    w.uint(3, m.mcs as u64);
    w.uint(4, m.harq_pid as u64 + 1);
    w.uint(5, m.ndi as u64);
    w.uint(6, m.tpc as u64);
    w.uint(7, m.dai as u64);
    w.uint(8, m.vrb_format as u64);
    w.uint(9, m.aggregation_level as u64);
    w.uint(10, m.tbs_bits as u64);
    w.fixed32(11, m.rb_bitmap);
}

fn ref_grant(w: &mut RefWriter, m: &UlGrantPb) {
    w.uint(1, m.rnti as u64);
    w.uint(2, m.n_prb as u64);
    w.uint(3, m.mcs as u64);
    w.uint(4, m.tpc as u64);
    w.uint(5, m.cyclic_shift as u64);
    w.uint(6, m.hopping as u64);
}

fn ref_cell_config(w: &mut RefWriter, m: &CellConfigPb) {
    w.uint(1, m.cell_id as u64 + 1);
    w.uint(2, m.band as u64);
    w.uint(3, m.fdd as u64);
    w.uint(4, m.dl_prbs as u64);
    w.uint(5, m.ul_prbs as u64);
    w.uint(6, m.antenna_ports as u64);
    w.uint(7, m.pdcch_symbols as u64);
    w.sint(8, m.tx_power_cdbm);
    w.uint(9, m.max_dl_dcis as u64);
    w.uint(10, m.max_ul_grants as u64);
}

fn ref_ue_config(w: &mut RefWriter, m: &UeConfigPb) {
    w.uint(1, m.rnti as u64);
    w.uint(2, m.pcell as u64 + 1);
    w.uint(3, m.transmission_mode as u64);
    w.uint(4, m.slice as u64);
    w.uint(5, m.ue_category as u64);
}

fn ref_bundle(w: &mut RefWriter, m: &ConfigBundlePb) {
    w.uint(1, m.version);
    w.bytes(2, m.policy_yaml.as_bytes());
    w.bytes(3, m.vsf_key.as_bytes());
    w.bytes(4, m.scheduler.as_bytes());
    w.uint(5, m.signature);
}

/// The envelope field and body encoding of every message the oracle
/// covers.
fn ref_body(w: &mut RefWriter, msg: &FlexranMessage) {
    match msg {
        FlexranMessage::StatsReply(m) => w.message(17, |r| ref_stats(r, m)),
        FlexranMessage::SubframeTrigger(m) => w.message(16, |r| {
            r.uint(1, m.enb_id.0 as u64);
            r.uint(2, (m.sfn as u64) << 4 | m.sf as u64);
            r.uint(3, m.tti);
        }),
        FlexranMessage::EventNotification(m) => w.message(18, |r| {
            r.uint(1, m.enb_id.0 as u64);
            r.uint(
                2,
                EVENT_KINDS.iter().position(|k| *k == m.kind).unwrap() as u64,
            );
            r.uint(3, m.cell as u64 + 1);
            r.uint(4, m.rnti as u64);
            r.uint(5, m.ue_tag as u64 + 1);
            r.uint(6, m.tti);
            r.bytes(7, m.stage.as_bytes());
            r.sint(8, m.serving_rsrp_decidbm);
            r.packed(9, &m.neighbours_packed);
        }),
        FlexranMessage::DlSchedulingCommand(m) => w.message(19, |r| {
            r.uint(1, m.enb_id.0 as u64);
            r.uint(2, m.cell as u64 + 1);
            r.uint(3, m.target_tti);
            for d in &m.dcis {
                r.message(4, |x| ref_dci(x, d));
            }
        }),
        FlexranMessage::UlSchedulingCommand(m) => w.message(20, |r| {
            r.uint(1, m.enb_id.0 as u64);
            r.uint(2, m.cell as u64 + 1);
            r.uint(3, m.target_tti);
            for g in &m.grants {
                r.message(4, |x| ref_grant(x, g));
            }
        }),
        FlexranMessage::ConfigRequest(m) => w.message(13, |r| {
            r.uint(
                1,
                match m.scope {
                    ConfigScope::Enb => 0,
                    ConfigScope::Cell => 1,
                    ConfigScope::Ue => 2,
                },
            );
            if let Some(c) = m.cell {
                r.uint(2, c.0 as u64 + 1);
            }
        }),
        FlexranMessage::ConfigReply(m) => w.message(14, |r| {
            r.uint(1, m.enb_id.0 as u64);
            for c in &m.cells {
                r.message(2, |x| ref_cell_config(x, c));
            }
            for u in &m.ues {
                r.message(3, |x| ref_ue_config(x, u));
            }
        }),
        FlexranMessage::ConfigBundlePush(m) => w.message(31, |r| {
            r.uint(1, m.enb_id.0 as u64);
            r.message(2, |x| ref_bundle(x, &m.bundle));
        }),
        FlexranMessage::ConfigBundleAck(m) => w.message(32, |r| {
            r.uint(1, m.enb_id.0 as u64);
            r.uint(2, m.version);
            r.uint(3, m.signature);
            r.uint(4, m.ok as u64);
            r.bytes(5, m.error.as_bytes());
        }),
        other => panic!("the encoder oracle does not cover {}", other.kind()),
    }
}

/// The reference encoding of one sealed envelope.
fn ref_encode(header: Header, msg: &FlexranMessage) -> Vec<u8> {
    let mut w = RefWriter::default();
    w.message(1, |r| {
        r.uint(1, header.version as u64);
        r.uint(2, header.xid as u64);
    });
    ref_body(&mut w, msg);
    let crc = crc32_bitwise(&w.0);
    w.fixed32_always(2, crc);
    w.0
}

// ----------------------------------------------------------------------
// Arbitrary messages
// ----------------------------------------------------------------------

/// Payload lengths on both sides of the one/two- and two/three-byte
/// length-prefix edges, less a few bytes of surrounding fields.
const EDGES: [usize; 4] = [127, 128, 16_383, 16_384];

/// A string of `len` ASCII bytes.
fn text(g: &mut Gen, len: usize) -> String {
    (0..len)
        .map(|_| (b'a' + g.below(26) as u8) as char)
        .collect()
}

/// A string of up to `max - 1` ASCII bytes.
fn short_text(g: &mut Gen, max: u64) -> String {
    let len = g.below(max) as usize;
    text(g, len)
}

/// A string whose length is short, long, or within a few bytes of an
/// edge.
fn arbitrary_text(g: &mut Gen) -> String {
    let len = match g.below(4) {
        0 => 0,
        1 => g.below(40) as usize,
        _ => EDGES[g.below(4) as usize] - g.below(8) as usize,
    };
    text(g, len)
}

fn arbitrary_config(g: &mut Gen) -> FlexranMessage {
    match g.below(4) {
        0 => FlexranMessage::ConfigRequest(ConfigRequest {
            scope: [ConfigScope::Enb, ConfigScope::Cell, ConfigScope::Ue][g.below(3) as usize],
            cell: g.one_in(2).then(|| CellId(g.val() as u16)),
        }),
        1 => FlexranMessage::ConfigReply(ConfigReply {
            enb_id: EnbId(g.val() as u32),
            cells: (0..g.below(4))
                .map(|_| CellConfigPb {
                    cell_id: g.val() as u16,
                    band: g.val() as u16,
                    fdd: g.one_in(2),
                    dl_prbs: g.val() as u8,
                    ul_prbs: g.val() as u8,
                    antenna_ports: g.val() as u8,
                    pdcch_symbols: g.val() as u8,
                    tx_power_cdbm: g.sval(),
                    max_dl_dcis: g.val() as u8,
                    max_ul_grants: g.val() as u8,
                })
                .collect(),
            ues: (0..g.below(40))
                .map(|_| UeConfigPb {
                    rnti: g.val() as u16,
                    pcell: g.val() as u16,
                    transmission_mode: g.val() as u8,
                    slice: g.val() as u8,
                    ue_category: g.val() as u8,
                })
                .collect(),
        }),
        2 => FlexranMessage::ConfigBundlePush(ConfigBundlePush {
            enb_id: EnbId(g.val() as u32),
            bundle: ConfigBundlePb {
                version: g.val(),
                policy_yaml: arbitrary_text(g),
                vsf_key: arbitrary_text(g),
                scheduler: short_text(g, 12),
                signature: g.val(),
            },
        }),
        _ => FlexranMessage::ConfigBundleAck(ConfigBundleAck {
            enb_id: EnbId(g.val() as u32),
            version: g.val(),
            signature: g.val(),
            ok: g.one_in(2),
            error: arbitrary_text(g),
        }),
    }
}

fn arbitrary_message(g: &mut Gen) -> FlexranMessage {
    if g.one_in(4) {
        arbitrary_config(g)
    } else {
        arbitrary_body(g)
    }
}

/// A UE report with every repeated field at capacity and every scalar
/// non-zero: the largest report the agent composes.
fn ue_at_capacity(rnti: u16) -> UeReport {
    UeReport {
        rnti,
        cell: 1,
        connected: true,
        slice: 2,
        priority_group: 1,
        wideband_cqi: 15,
        subband_cqi: InlineVec::full(15),
        bsr: InlineVec::full(63),
        phr_db: -23,
        rlc: InlineVec::full(RlcReport {
            lcid: 3,
            tx_queue_bytes: 1 << 30,
            hol_delay_ms: 1_000,
            status_pdu_bytes: 7,
        }),
        pending_mac_ces: 3,
        harq_states: InlineVec::full(1),
        ul_sinr_decidb: -455,
        ul_subband_sinr: InlineVec::full(1_155),
        rsrp_decidbm: -1_180,
        rsrq_decidb: -105,
        pdcp_tx_bytes: 1 << 40,
        pdcp_tx_sn: 4_095,
        dl_tbs_bits_total: 1 << 43,
        ul_tbs_bits_total: 1 << 41,
        harq_tx: 1 << 25,
        harq_retx: 1 << 20,
        avg_rate_bps: 50_000_000,
        last_mcs: 28,
        cqi_timestamp: 1 << 33,
        subband_cqi_cw1: InlineVec::full(15),
        harq_rounds: InlineVec::full(3),
        tbs_per_process: InlineVec::full(9_422),
        pusch_power_decidbm: 230,
        pucch_power_decidbm: -50,
        pdcp_rx_bytes: 1 << 38,
        pdcp_rx_sn: 4_000,
        active_scells: InlineVec::full(2),
    }
}

// ----------------------------------------------------------------------
// Message-level checks
// ----------------------------------------------------------------------

/// `msg` through the shared writer `w`, through a fresh one, and
/// appended behind a byte log: all equal to the reference.
fn assert_encodes_like_reference(w: &mut WireWriter, header: Header, msg: &FlexranMessage) {
    let want = ref_encode(header, msg);
    msg.encode_into(header, w);
    assert_eq!(w.as_slice(), &want[..], "reused writer, {}", msg.kind());
    // A transport moves the bytes out and continues in a recycled,
    // dirty buffer of any length.
    let recycled = vec![0xEE; want.len() % 97 * 41];
    assert_eq!(w.take_vec(recycled), want, "taken, {}", msg.kind());
    assert!(w.is_empty());
    msg.encode_into(header, w);
    assert_eq!(w.as_slice(), &want[..], "recycled buffer, {}", msg.kind());
    assert_eq!(
        &msg.encode(header)[..],
        &want[..],
        "fresh writer, {}",
        msg.kind()
    );
    let log = vec![0xA5; 1 + want.len() % 23];
    let mut appended = WireWriter::from_vec(log.clone());
    msg.encode_append(header, &mut appended);
    let appended = appended.into_vec();
    assert_eq!(&appended[..log.len()], &log[..]);
    assert_eq!(
        &appended[log.len()..],
        &want[..],
        "appended, {}",
        msg.kind()
    );
    if let FlexranMessage::StatsReply(reply) = msg {
        let mut body = RefWriter::default();
        ref_stats(&mut body, reply);
        reply.encode_body_into(w);
        assert_eq!(w.as_slice(), &body.0[..], "stats body");
    }
}

/// One case: a run of arbitrary messages through one reused writer,
/// sealed by the dispatched CRC kernel for even seeds and by the
/// fallback for odd ones.
fn check_messages(seed: u64) {
    let mut g = Gen(seed);
    let mut w = WireWriter::new();
    for _ in 0..1 + g.below(6) {
        let header = Header {
            version: g.val() as u32,
            xid: g.val() as u32,
        };
        let msg = arbitrary_message(&mut g);
        if seed.is_multiple_of(2) {
            assert_encodes_like_reference(&mut w, header, &msg);
        } else {
            // Sealed by the fallback CRC kernel, on a host that has both.
            with_portable_crc(|| assert_encodes_like_reference(&mut w, header, &msg));
        }
    }
}

#[test]
fn reports_straddling_the_length_edges_match_reference() {
    // Full-capacity reports of 1..=80 UEs, one writer growing through
    // the 16 384-byte body edge and shrinking back, so every remembered
    // prefix width is wrong at least once in each direction.
    let mut w = WireWriter::new();
    let sizes: Vec<usize> = (1..=80).chain((1..=80).rev()).collect();
    let mut crossed = [false; 2];
    for n in sizes {
        let reply = StatsReply {
            enb_id: EnbId(3),
            tti: 1 << 20,
            cells: vec![CellReport::default(); n % 3],
            ues: (0..n).map(|i| ue_at_capacity(i as u16 + 1)).collect(),
        };
        let msg = FlexranMessage::StatsReply(reply);
        assert_encodes_like_reference(&mut w, Header::with_xid(n as u32), &msg);
        crossed[(w.len() > 16_384) as usize] = true;
    }
    assert_eq!(crossed, [true, true]);
}

#[test]
fn bundles_straddling_the_length_edges_match_reference() {
    // A bundle's policy document sized so the bundle and the envelope
    // body land on every length from a few bytes under each edge to a
    // few past it.
    let mut w = WireWriter::new();
    let mut g = Gen(7);
    for edge in EDGES {
        for len in edge - 12..edge + 4 {
            let msg = FlexranMessage::ConfigBundlePush(ConfigBundlePush {
                enb_id: EnbId(1),
                bundle: ConfigBundlePb {
                    version: 2,
                    policy_yaml: text(&mut g, len),
                    vsf_key: String::new(),
                    scheduler: "pf".into(),
                    signature: 9,
                },
            });
            assert_encodes_like_reference(&mut w, Header::default(), &msg);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn encode_matches_reference(seed in any::<u64>()) {
        check_messages(seed);
    }

    #[test]
    fn writer_programs_match_reference(seed in any::<u64>()) {
        check_program(seed);
    }
}

// The vendored proptest honours only `ProptestConfig::cases`, so the deep
// run is its own `#[ignore]`d block; `scripts/check.sh` and CI invoke it
// in release with `-- --ignored`.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    #[ignore = "deep run: cargo test --release -p flexran-proto --lib messages::encode_reference -- --ignored"]
    fn deep_encode_matches_reference(seed in any::<u64>()) {
        check_messages(seed);
    }

    #[test]
    #[ignore = "deep run: cargo test --release -p flexran-proto --lib messages::encode_reference -- --ignored"]
    fn deep_writer_programs_match_reference(seed in any::<u64>()) {
        check_program(seed);
    }
}

// ----------------------------------------------------------------------
// Writer programs
// ----------------------------------------------------------------------

/// One [`WireWriter`] call.
#[derive(Debug, Clone)]
enum Op {
    Uint(u32, u64),
    Sint(u32, i64),
    Double(u32, f64),
    Fixed32(u32, u32),
    Fixed32Always(u32, u32),
    Str(u32, String),
    Bytes(u32, Vec<u8>),
    Packed8(u32, Vec<u8>),
    Packed16(u32, Vec<u16>),
    Packed32(u32, Vec<u32>),
    Packed64(u32, Vec<u64>),
    Message(u32, Vec<Op>),
}

/// A field number: mostly small, sometimes one that needs a tag of two
/// or more bytes.
fn field_number(g: &mut Gen) -> u32 {
    match g.below(8) {
        0 => 16 + g.below(2048) as u32,
        1 => 1 + g.below((1 << 29) - 1) as u32,
        _ => 1 + g.below(15) as u32,
    }
}

/// A length for a bytes field that puts its enclosing message near an
/// edge often.
fn blob_len(g: &mut Gen) -> usize {
    match g.below(3) {
        0 => g.below(20) as usize,
        _ => EDGES[g.below(4) as usize] - g.below(8) as usize,
    }
}

fn arbitrary_ops(g: &mut Gen, depth: u32) -> Vec<Op> {
    (0..g.below(8))
        .map(|_| {
            let f = field_number(g);
            match g.below(if depth < 3 { 12 } else { 11 }) {
                0 => Op::Uint(f, g.val()),
                1 => Op::Sint(f, g.sval()),
                2 => Op::Double(f, [0.0, -0.0, 1.5, f64::MAX][g.below(4) as usize]),
                3 => Op::Fixed32(f, g.val() as u32),
                4 => Op::Fixed32Always(f, g.val() as u32),
                5 => Op::Str(f, short_text(g, 40)),
                6 => Op::Bytes(f, vec![0x5A; blob_len(g)]),
                7 => Op::Packed8(f, (0..g.len(40)).map(|_| g.val() as u8).collect()),
                8 => Op::Packed16(f, (0..g.len(40)).map(|_| g.val() as u16).collect()),
                9 => Op::Packed32(f, (0..g.len(40)).map(|_| g.val() as u32).collect()),
                10 => Op::Packed64(f, (0..g.len(40)).map(|_| g.val()).collect()),
                _ => Op::Message(f, arbitrary_ops(g, depth + 1)),
            }
        })
        .collect()
}

fn run_ops(w: &mut WireWriter, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Uint(f, v) => w.uint(*f, *v),
            Op::Sint(f, v) => w.sint(*f, *v),
            Op::Double(f, v) => w.double(*f, *v),
            Op::Fixed32(f, v) => w.fixed32(*f, *v),
            Op::Fixed32Always(f, v) => w.fixed32_always(*f, *v),
            Op::Str(f, s) => w.string(*f, s),
            Op::Bytes(f, b) => w.bytes_field(*f, b),
            Op::Packed8(f, vs) => w.packed_uints(*f, vs),
            Op::Packed16(f, vs) => w.packed_uints(*f, vs),
            Op::Packed32(f, vs) => w.packed_uints(*f, vs),
            Op::Packed64(f, vs) => w.packed_uints(*f, vs),
            Op::Message(f, inner) => w.message(*f, |m| run_ops(m, inner)),
        }
    }
}

fn ref_ops(w: &mut RefWriter, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Uint(f, v) => w.uint(*f, *v),
            Op::Sint(f, v) => w.sint(*f, *v),
            Op::Double(f, v) => w.double(*f, *v),
            Op::Fixed32(f, v) => w.fixed32(*f, *v),
            Op::Fixed32Always(f, v) => w.fixed32_always(*f, *v),
            Op::Str(f, s) => w.bytes(*f, s.as_bytes()),
            Op::Bytes(f, b) => w.bytes(*f, b),
            Op::Packed8(f, vs) => w.packed(*f, vs),
            Op::Packed16(f, vs) => w.packed(*f, vs),
            Op::Packed32(f, vs) => w.packed(*f, vs),
            Op::Packed64(f, vs) => w.packed(*f, vs),
            Op::Message(f, inner) => w.message(*f, |m| ref_ops(m, inner)),
        }
    }
}

/// One case: a run of arbitrary programs through one reused writer,
/// each cleared first or appended to the last.
fn check_program(seed: u64) {
    let mut g = Gen(seed);
    let mut w = WireWriter::new();
    let mut want = RefWriter::default();
    for _ in 0..1 + g.below(4) {
        if g.one_in(2) {
            w.clear();
            want.0.clear();
        }
        let ops = arbitrary_ops(&mut g, 0);
        run_ops(&mut w, &ops);
        ref_ops(&mut want, &ops);
        assert_eq!(w.len(), want.0.len(), "{ops:?}");
        assert_eq!(w.as_slice(), &want.0[..], "{ops:?}");
    }
    assert_eq!(&w.finish()[..], &want.0[..]);
}
