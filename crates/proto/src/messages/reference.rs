//! Differential oracle for the envelope decoder.
//!
//! A deliberately naive reference decoder for the messages of the
//! centralized control loop — the envelope header, `StatsReply` with its
//! cell, UE and RLC reports, `SubframeTrigger`, `EventNotification` and
//! the downlink/uplink scheduling commands — with its own bit-at-a-time
//! CRC-32, its own varint loop, every field parsed into a fresh `Vec`
//! before one linear `match` per message folds it, and the same capacity
//! and range refusals as [`InlineVec`]. Bodies outside that set go to the
//! shipped decoders, which the oracle does not judge.
//!
//! The proptests below compare it with [`FlexranMessage::decode`] on
//! arbitrary well-formed envelopes, on envelopes whose fields were
//! permuted, duplicated, padded with unknown fields, re-tagged with
//! over-long or wrong-type keys, pushed past a capacity, bit-flipped or
//! truncated inside a submessage — each re-sealed with a fresh CRC so the
//! body parser is reached — and on raw bit-flipped and truncated
//! envelopes. Both decoders must return the same `Ok` value, or both an
//! `Err`.
#![cfg(test)]

use flexran_types::ids::EnbId;
use flexran_types::{FlexError, Result};
use proptest::prelude::*;

use super::commands::{DciPb, UlGrantPb};
use super::events::EventKind;
use super::stats::{
    RlcReport, MAX_BEARERS, MAX_HARQ_PROCESSES, MAX_LCGS, MAX_RBGS, MAX_SCELLS, MAX_SUBBANDS,
};
use super::*;
use crate::inline::InlineVec;

// ----------------------------------------------------------------------
// The reference decoder
// ----------------------------------------------------------------------

fn codec(what: &str) -> FlexError {
    FlexError::Codec(what.into())
}

/// One byte into a running (pre-inverted) CRC-32, one bit at a time.
fn crc32_bitwise_step(mut crc: u32, b: u8) -> u32 {
    crc ^= b as u32;
    for _ in 0..8 {
        crc = if crc & 1 != 0 {
            (crc >> 1) ^ 0xEDB8_8320
        } else {
            crc >> 1
        };
    }
    crc
}

/// The textbook CRC-32: one bit at a time, no table.
pub(crate) fn crc32_bitwise(data: &[u8]) -> u32 {
    !data
        .iter()
        .fold(!0u32, |crc, &b| crc32_bitwise_step(crc, b))
}

/// `crc32_bitwise(&data[..n])` for every `n` in `0..=data.len()`, in
/// one pass.
pub(crate) fn crc32_bitwise_prefixes(data: &[u8]) -> Vec<u32> {
    let mut crc = !0u32;
    let mut out = vec![!crc];
    for &b in data {
        crc = crc32_bitwise_step(crc, b);
        out.push(!crc);
    }
    out
}

/// One base-128 varint at `*pos`: at most ten bytes, the tenth no more
/// than 1 (anything else overflows a `u64`).
fn ref_varint(data: &[u8], pos: &mut usize) -> Result<u64> {
    let mut value = 0u64;
    for i in 0..10 {
        let Some(&b) = data.get(*pos) else {
            return Err(codec("truncated varint"));
        };
        *pos += 1;
        if i == 9 && b > 1 {
            return Err(codec("varint overflows u64"));
        }
        value |= ((b & 0x7F) as u64) << (7 * i);
        if b < 0x80 {
            return Ok(value);
        }
    }
    Err(codec("varint longer than 10 bytes"))
}

#[derive(Debug, Clone)]
enum RefValue {
    Varint(u64),
    Fixed64(u64),
    Bytes(Vec<u8>),
    Fixed32(u32),
}

fn take(data: &[u8], pos: &mut usize, n: usize) -> Result<Vec<u8>> {
    if data.len() - *pos < n {
        return Err(codec("truncated field"));
    }
    let out = data[*pos..*pos + n].to_vec();
    *pos += n;
    Ok(out)
}

/// Every `(field number, value)` of a message, in wire order.
fn ref_fields(data: &[u8]) -> Result<Vec<(u32, RefValue)>> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < data.len() {
        let key = ref_varint(data, &mut pos)?;
        let field = (key >> 3) as u32;
        if field == 0 {
            return Err(codec("field number 0"));
        }
        let value = match key & 7 {
            0 => RefValue::Varint(ref_varint(data, &mut pos)?),
            1 => {
                let b = take(data, &mut pos, 8)?;
                RefValue::Fixed64(u64::from_le_bytes(b.try_into().unwrap()))
            }
            2 => {
                let len = ref_varint(data, &mut pos)?;
                if len > (data.len() - pos) as u64 {
                    return Err(codec("truncated length-delimited field"));
                }
                RefValue::Bytes(take(data, &mut pos, len as usize)?)
            }
            5 => {
                let b = take(data, &mut pos, 4)?;
                RefValue::Fixed32(u32::from_le_bytes(b.try_into().unwrap()))
            }
            _ => return Err(codec("unsupported wire type")),
        };
        out.push((field, value));
    }
    Ok(out)
}

/// Any scalar wire type reads as an unsigned integer; bytes do not.
fn uint(v: &RefValue) -> Result<u64> {
    match v {
        RefValue::Varint(x) | RefValue::Fixed64(x) => Ok(*x),
        RefValue::Fixed32(x) => Ok(*x as u64),
        RefValue::Bytes(_) => Err(codec("expected scalar")),
    }
}

fn sint(v: &RefValue) -> Result<i64> {
    let u = uint(v)?;
    Ok(if u & 1 == 0 {
        (u >> 1) as i64
    } else {
        !((u >> 1) as i64)
    })
}

fn bytes(v: &RefValue) -> Result<&[u8]> {
    match v {
        RefValue::Bytes(b) => Ok(b),
        _ => Err(codec("expected length-delimited")),
    }
}

fn packed(v: &RefValue) -> Result<Vec<u64>> {
    let data = bytes(v)?;
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < data.len() {
        out.push(ref_varint(data, &mut pos)?);
    }
    Ok(out)
}

/// A packed field into an `InlineVec`: refused when longer than `N` or
/// when a value does not fit `T`.
fn inline<T: Copy + Default + TryFrom<u64>, const N: usize>(
    v: &RefValue,
) -> Result<InlineVec<T, N>> {
    let values = packed(v)?;
    if values.len() > N {
        return Err(codec("over capacity"));
    }
    let mut out = InlineVec::new();
    for x in values {
        let Ok(t) = T::try_from(x) else {
            return Err(codec("out of range"));
        };
        out.try_push(t)?;
    }
    Ok(out)
}

fn ref_header(data: &[u8]) -> Result<Header> {
    let mut h = Header { version: 0, xid: 0 };
    for (f, v) in ref_fields(data)? {
        match f {
            1 => h.version = uint(&v)? as u32,
            2 => h.xid = uint(&v)? as u32,
            _ => {}
        }
    }
    Ok(h)
}

fn ref_rlc(data: &[u8]) -> Result<RlcReport> {
    let mut m = RlcReport::default();
    for (f, v) in ref_fields(data)? {
        match f {
            1 => m.lcid = uint(&v)?.saturating_sub(1) as u8,
            2 => m.tx_queue_bytes = uint(&v)?,
            3 => m.hol_delay_ms = uint(&v)?,
            4 => m.status_pdu_bytes = uint(&v)? as u32,
            _ => {}
        }
    }
    Ok(m)
}

fn ref_ue(data: &[u8]) -> Result<UeReport> {
    let mut m = UeReport::default();
    let mut rlc = Vec::new();
    for (f, v) in ref_fields(data)? {
        match f {
            1 => m.rnti = uint(&v)? as u16,
            2 => m.connected = uint(&v)? != 0,
            3 => m.slice = uint(&v)? as u8,
            4 => m.priority_group = uint(&v)? as u8,
            5 => m.wideband_cqi = uint(&v)? as u8,
            6 => m.subband_cqi = inline(&v)?,
            7 => m.bsr = inline(&v)?,
            8 => m.phr_db = sint(&v)?,
            9 => {
                rlc.push(ref_rlc(bytes(&v)?)?);
                if rlc.len() > MAX_BEARERS {
                    return Err(codec("over capacity"));
                }
            }
            10 => m.pending_mac_ces = uint(&v)? as u32,
            11 => m.harq_states = inline(&v)?,
            12 => m.ul_sinr_decidb = sint(&v)?,
            13 => m.ul_subband_sinr = inline(&v)?,
            14 => m.rsrp_decidbm = sint(&v)?,
            15 => m.rsrq_decidb = sint(&v)?,
            16 => m.pdcp_tx_bytes = uint(&v)?,
            17 => m.pdcp_tx_sn = uint(&v)? as u32,
            18 => m.dl_tbs_bits_total = uint(&v)?,
            19 => m.ul_tbs_bits_total = uint(&v)?,
            20 => m.harq_tx = uint(&v)?,
            21 => m.harq_retx = uint(&v)?,
            22 => m.avg_rate_bps = uint(&v)?,
            23 => m.last_mcs = uint(&v)? as u8,
            24 => m.cqi_timestamp = uint(&v)?,
            25 => m.subband_cqi_cw1 = inline(&v)?,
            26 => m.harq_rounds = inline(&v)?,
            27 => m.tbs_per_process = inline(&v)?,
            28 => m.pusch_power_decidbm = sint(&v)?,
            29 => m.pucch_power_decidbm = sint(&v)?,
            30 => m.pdcp_rx_bytes = uint(&v)?,
            31 => m.pdcp_rx_sn = uint(&v)? as u32,
            32 => m.cell = uint(&v)?.saturating_sub(1) as u16,
            33 => m.active_scells = inline(&v)?,
            _ => {}
        }
    }
    for r in rlc {
        m.rlc.try_push(r)?;
    }
    Ok(m)
}

fn ref_cell(data: &[u8]) -> Result<CellReport> {
    let mut m = CellReport::default();
    for (f, v) in ref_fields(data)? {
        match f {
            1 => m.cell_id = uint(&v)?.saturating_sub(1) as u16,
            2 => m.noise_interference_decidbm = sint(&v)?,
            3 => m.dl_prbs_used_total = uint(&v)?,
            4 => m.ul_prbs_used_total = uint(&v)?,
            5 => m.active_ues = uint(&v)? as u32,
            6 => m.abs_muted_ttis = uint(&v)?,
            7 => m.decisions_applied = uint(&v)?,
            8 => m.missed_deadlines = uint(&v)?,
            _ => {}
        }
    }
    Ok(m)
}

fn ref_stats(data: &[u8]) -> Result<StatsReply> {
    let mut m = StatsReply::default();
    for (f, v) in ref_fields(data)? {
        match f {
            1 => m.enb_id = EnbId(uint(&v)? as u32),
            2 => m.tti = uint(&v)?,
            3 => m.cells.push(ref_cell(bytes(&v)?)?),
            4 => m.ues.push(ref_ue(bytes(&v)?)?),
            _ => {}
        }
    }
    Ok(m)
}

fn ref_subframe(data: &[u8]) -> Result<SubframeTrigger> {
    let mut m = SubframeTrigger::default();
    for (f, v) in ref_fields(data)? {
        match f {
            1 => m.enb_id = EnbId(uint(&v)? as u32),
            2 => {
                let packed = uint(&v)?;
                m.sfn = (packed / 16) as u16;
                m.sf = (packed % 16) as u8;
            }
            3 => m.tti = uint(&v)?,
            _ => {}
        }
    }
    Ok(m)
}

pub(super) const EVENT_KINDS: [EventKind; 10] = [
    EventKind::RachAttempt,
    EventKind::UeAttached,
    EventKind::AttachFailed,
    EventKind::UeDetached,
    EventKind::SchedulingRequest,
    EventKind::MeasurementReport,
    EventKind::HandoverExecuted,
    EventKind::DecisionMissedDeadline,
    EventKind::AgentDown,
    EventKind::AgentUp,
];

fn ref_event(data: &[u8]) -> Result<EventNotification> {
    let mut m = EventNotification::default();
    for (f, v) in ref_fields(data)? {
        match f {
            1 => m.enb_id = EnbId(uint(&v)? as u32),
            2 => {
                let k = uint(&v)?;
                m.kind = if k < 10 {
                    EVENT_KINDS[k as usize]
                } else {
                    EventKind::RachAttempt
                };
            }
            3 => m.cell = uint(&v)?.saturating_sub(1) as u16,
            4 => m.rnti = uint(&v)? as u16,
            5 => m.ue_tag = uint(&v)?.saturating_sub(1) as u32,
            6 => m.tti = uint(&v)?,
            7 => {
                m.stage =
                    String::from_utf8(bytes(&v)?.to_vec()).map_err(|_| codec("invalid UTF-8"))?
            }
            8 => m.serving_rsrp_decidbm = sint(&v)?,
            9 => m.neighbours_packed = packed(&v)?,
            _ => {}
        }
    }
    Ok(m)
}

fn ref_dci(data: &[u8]) -> Result<DciPb> {
    let mut m = DciPb::default();
    for (f, v) in ref_fields(data)? {
        match f {
            1 => m.rnti = uint(&v)? as u16,
            2 => m.n_prb = uint(&v)? as u8,
            3 => m.mcs = uint(&v)? as u8,
            4 => m.harq_pid = uint(&v)?.saturating_sub(1) as u8,
            5 => m.ndi = uint(&v)? != 0,
            6 => m.tpc = uint(&v)? as u8,
            7 => m.dai = uint(&v)? as u8,
            8 => m.vrb_format = uint(&v)? as u8,
            9 => m.aggregation_level = uint(&v)? as u8,
            10 => m.tbs_bits = uint(&v)? as u32,
            11 => m.rb_bitmap = uint(&v)? as u32,
            _ => {}
        }
    }
    Ok(m)
}

fn ref_dl(data: &[u8]) -> Result<DlSchedulingCommand> {
    let mut m = DlSchedulingCommand::default();
    for (f, v) in ref_fields(data)? {
        match f {
            1 => m.enb_id = EnbId(uint(&v)? as u32),
            2 => m.cell = uint(&v)?.saturating_sub(1) as u16,
            3 => m.target_tti = uint(&v)?,
            4 => m.dcis.push(ref_dci(bytes(&v)?)?),
            _ => {}
        }
    }
    Ok(m)
}

fn ref_grant(data: &[u8]) -> Result<UlGrantPb> {
    let mut m = UlGrantPb::default();
    for (f, v) in ref_fields(data)? {
        match f {
            1 => m.rnti = uint(&v)? as u16,
            2 => m.n_prb = uint(&v)? as u8,
            3 => m.mcs = uint(&v)? as u8,
            4 => m.tpc = uint(&v)? as u8,
            5 => m.cyclic_shift = uint(&v)? as u8,
            6 => m.hopping = uint(&v)? != 0,
            _ => {}
        }
    }
    Ok(m)
}

fn ref_ul(data: &[u8]) -> Result<UlSchedulingCommand> {
    let mut m = UlSchedulingCommand::default();
    for (f, v) in ref_fields(data)? {
        match f {
            1 => m.enb_id = EnbId(uint(&v)? as u32),
            2 => m.cell = uint(&v)?.saturating_sub(1) as u16,
            3 => m.target_tti = uint(&v)?,
            4 => m.grants.push(ref_grant(bytes(&v)?)?),
            _ => {}
        }
    }
    Ok(m)
}

/// The reference [`FlexranMessage::decode`].
fn ref_decode(data: &[u8]) -> Result<(Header, FlexranMessage)> {
    if data.len() < 5 {
        return Err(codec("shorter than the trailer"));
    }
    let (body, trailer) = data.split_at(data.len() - 5);
    if trailer[0] != (2 << 3) | 5 {
        return Err(codec("no trailer"));
    }
    if crc32_bitwise(body) != u32::from_le_bytes(trailer[1..].try_into().unwrap()) {
        return Err(codec("crc mismatch"));
    }
    use FlexranMessage as M;
    let mut header = None;
    let mut msg = None;
    for (f, v) in ref_fields(body)? {
        let b = bytes(&v)?;
        let body = match f {
            1 => {
                header = Some(ref_header(b)?);
                continue;
            }
            16 => M::SubframeTrigger(ref_subframe(b)?),
            17 => M::StatsReply(ref_stats(b)?),
            18 => M::EventNotification(ref_event(b)?),
            19 => M::DlSchedulingCommand(ref_dl(b)?),
            20 => M::UlSchedulingCommand(ref_ul(b)?),
            // Outside the oracle's scope: the shipped body decoders.
            10 => M::Hello(Hello::decode(b)?),
            11 => M::EchoRequest(Echo::decode(b)?),
            12 => M::EchoReply(Echo::decode(b)?),
            13 => M::ConfigRequest(ConfigRequest::decode(b)?),
            14 => M::ConfigReply(ConfigReply::decode(b)?),
            15 => M::StatsRequest(StatsRequest::decode(b)?),
            21 => M::HandoverCommand(HandoverCommand::decode(b)?),
            22 => M::DrxCommand(DrxCommand::decode(b)?),
            23 => M::AbsCommand(AbsCommand::decode(b)?),
            24 => M::VsfPush(VsfPush::decode(b)?),
            25 => M::PolicyReconfiguration(PolicyReconfiguration::decode(b)?),
            26 => M::DelegationAck(DelegationAck::decode(b)?),
            27 => M::ScellCommand(ScellCommand::decode(b)?),
            28 => M::Heartbeat(Heartbeat::decode(b)?),
            29 => M::HeartbeatAck(Heartbeat::decode(b)?),
            30 => M::ResyncRequest(ResyncRequest::decode(b)?),
            31 => M::ConfigBundlePush(ConfigBundlePush::decode(b)?),
            32 => M::ConfigBundleAck(ConfigBundleAck::decode(b)?),
            _ => return Err(codec("unknown envelope field")),
        };
        msg = Some(body);
    }
    match (header, msg) {
        (Some(h), Some(m)) => Ok((h, m)),
        _ => Err(codec("missing header or body")),
    }
}

// ----------------------------------------------------------------------
// Arbitrary envelopes
// ----------------------------------------------------------------------

/// splitmix64, seeded per case by the proptest harness.
pub(super) struct Gen(pub(super) u64);

impl Gen {
    pub(super) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub(super) fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub(super) fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }

    /// 0, or a value one, two or up to ten varint bytes wide — the widths
    /// the codec treats differently.
    pub(super) fn val(&mut self) -> u64 {
        let width = self.below(4);
        self.val_of(width)
    }

    pub(super) fn val_of(&mut self, width: u64) -> u64 {
        match width {
            0 => 0,
            1 => self.below(0x80),
            2 => self.below(0x4000),
            _ => self.next() >> self.below(64),
        }
    }

    pub(super) fn sval(&mut self) -> i64 {
        let v = self.val() as i64;
        if self.one_in(2) {
            v.wrapping_neg()
        } else {
            v
        }
    }

    /// A repeated field's length: empty, full, or anything between.
    pub(super) fn len(&mut self, cap: usize) -> usize {
        match self.below(4) {
            0 => 0,
            1 => cap,
            _ => self.below(cap as u64 + 1) as usize,
        }
    }

    /// A packed field: its elements mostly of one width, as a report's
    /// are, so the all-one-byte path is taken (and filled to capacity).
    fn inline<T: Copy + Default, const N: usize>(
        &mut self,
        f: impl Fn(u64) -> T,
    ) -> InlineVec<T, N> {
        let width = self.below(4);
        let mut out = InlineVec::new();
        for _ in 0..self.len(N) {
            let v = if self.one_in(8) {
                self.val()
            } else {
                self.val_of(width)
            };
            out.try_push(f(v)).unwrap();
        }
        out
    }
}

fn arbitrary_rlc(g: &mut Gen) -> RlcReport {
    RlcReport {
        lcid: g.val() as u8,
        tx_queue_bytes: g.val(),
        hol_delay_ms: g.val(),
        status_pdu_bytes: g.val() as u32,
    }
}

fn arbitrary_ue(g: &mut Gen) -> UeReport {
    let mut rlc = InlineVec::new();
    for _ in 0..g.len(MAX_BEARERS) {
        rlc.try_push(arbitrary_rlc(g)).unwrap();
    }
    UeReport {
        rnti: g.val() as u16,
        cell: g.val() as u16,
        connected: g.one_in(2),
        slice: g.val() as u8,
        priority_group: g.val() as u8,
        wideband_cqi: g.val() as u8,
        subband_cqi: g.inline::<u8, MAX_SUBBANDS>(|v| v as u8),
        bsr: g.inline::<u8, MAX_LCGS>(|v| v as u8),
        phr_db: g.sval(),
        rlc,
        pending_mac_ces: g.val() as u32,
        harq_states: g.inline::<u8, MAX_HARQ_PROCESSES>(|v| v as u8),
        ul_sinr_decidb: g.sval(),
        ul_subband_sinr: g.inline::<u16, MAX_RBGS>(|v| v as u16),
        rsrp_decidbm: g.sval(),
        rsrq_decidb: g.sval(),
        pdcp_tx_bytes: g.val(),
        pdcp_tx_sn: g.val() as u32,
        dl_tbs_bits_total: g.val(),
        ul_tbs_bits_total: g.val(),
        harq_tx: g.val(),
        harq_retx: g.val(),
        avg_rate_bps: g.val(),
        last_mcs: g.val() as u8,
        cqi_timestamp: g.val(),
        subband_cqi_cw1: g.inline::<u8, MAX_SUBBANDS>(|v| v as u8),
        harq_rounds: g.inline::<u8, MAX_HARQ_PROCESSES>(|v| v as u8),
        tbs_per_process: g.inline::<u32, MAX_HARQ_PROCESSES>(|v| v as u32),
        pusch_power_decidbm: g.sval(),
        pucch_power_decidbm: g.sval(),
        pdcp_rx_bytes: g.val(),
        pdcp_rx_sn: g.val() as u32,
        active_scells: g.inline::<u16, MAX_SCELLS>(|v| v as u16),
    }
}

fn arbitrary_cell(g: &mut Gen) -> CellReport {
    CellReport {
        cell_id: g.val() as u16,
        noise_interference_decidbm: g.sval(),
        dl_prbs_used_total: g.val(),
        ul_prbs_used_total: g.val(),
        active_ues: g.val() as u32,
        abs_muted_ttis: g.val(),
        decisions_applied: g.val(),
        missed_deadlines: g.val(),
    }
}

pub(super) fn arbitrary_body(g: &mut Gen) -> FlexranMessage {
    match g.below(5) {
        0 => FlexranMessage::StatsReply(StatsReply {
            enb_id: EnbId(g.val() as u32),
            tti: g.val(),
            cells: (0..g.below(3)).map(|_| arbitrary_cell(g)).collect(),
            ues: (0..g.below(5)).map(|_| arbitrary_ue(g)).collect(),
        }),
        1 => FlexranMessage::SubframeTrigger(SubframeTrigger {
            enb_id: EnbId(g.val() as u32),
            sfn: g.val() as u16,
            sf: g.below(16) as u8,
            tti: g.val(),
        }),
        2 => FlexranMessage::EventNotification(EventNotification {
            enb_id: EnbId(g.val() as u32),
            kind: EVENT_KINDS[g.below(10) as usize],
            cell: g.val() as u16,
            rnti: g.val() as u16,
            ue_tag: g.val() as u32,
            tti: g.val(),
            stage: ["", "rar", "setup", "ünïcode"][g.below(4) as usize].to_string(),
            serving_rsrp_decidbm: g.sval(),
            neighbours_packed: (0..g.below(7)).map(|_| g.val()).collect(),
        }),
        3 => FlexranMessage::DlSchedulingCommand(DlSchedulingCommand {
            enb_id: EnbId(g.val() as u32),
            cell: g.val() as u16,
            target_tti: g.val(),
            dcis: (0..g.below(6))
                .map(|_| DciPb {
                    rnti: g.val() as u16,
                    n_prb: g.val() as u8,
                    mcs: g.val() as u8,
                    harq_pid: g.val() as u8,
                    ndi: g.one_in(2),
                    tpc: g.val() as u8,
                    dai: g.val() as u8,
                    vrb_format: g.val() as u8,
                    aggregation_level: g.val() as u8,
                    tbs_bits: g.val() as u32,
                    rb_bitmap: g.val() as u32,
                })
                .collect(),
        }),
        _ => FlexranMessage::UlSchedulingCommand(UlSchedulingCommand {
            enb_id: EnbId(g.val() as u32),
            cell: g.val() as u16,
            target_tti: g.val(),
            grants: (0..g.below(6))
                .map(|_| UlGrantPb {
                    rnti: g.val() as u16,
                    n_prb: g.val() as u8,
                    mcs: g.val() as u8,
                    tpc: g.val() as u8,
                    cyclic_shift: g.val() as u8,
                    hopping: g.one_in(2),
                })
                .collect(),
        }),
    }
}

// ----------------------------------------------------------------------
// Re-sealed mutations
// ----------------------------------------------------------------------

fn varint_bytes(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return out;
        }
        out.push(byte | 0x80);
    }
}

/// `v` as a varint one byte longer than it needs to be (a continuation
/// byte carrying zero), while that still fits ten bytes.
fn overlong(v: u64) -> Vec<u8> {
    let mut out = varint_bytes(v);
    if out.len() < 10 {
        *out.last_mut().unwrap() |= 0x80;
        out.push(0);
    }
    out
}

/// One field exactly as it sits on the wire.
#[derive(Debug, Clone)]
struct RawField {
    key: u64,
    /// The tag as written (possibly over-long).
    tag: Vec<u8>,
    /// The length prefix of a length-delimited field; empty otherwise.
    len: Vec<u8>,
    /// The varint, fixed-width or payload bytes.
    value: Vec<u8>,
}

impl RawField {
    fn delimited(&self) -> bool {
        self.key & 7 == 2
    }

    fn set_payload(&mut self, payload: Vec<u8>) {
        self.len = varint_bytes(payload.len() as u64);
        self.value = payload;
    }
}

/// A message split into its fields, or `None` when it does not parse.
fn split_raw(data: &[u8]) -> Option<Vec<RawField>> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < data.len() {
        let start = pos;
        let key = ref_varint(data, &mut pos).ok()?;
        let tag = data[start..pos].to_vec();
        let len_start = pos;
        let (len, n) = match key & 7 {
            0 => {
                let mut end = pos;
                ref_varint(data, &mut end).ok()?;
                (Vec::new(), end - pos)
            }
            1 => (Vec::new(), 8),
            2 => {
                let n = ref_varint(data, &mut pos).ok()?;
                (data[len_start..pos].to_vec(), usize::try_from(n).ok()?)
            }
            5 => (Vec::new(), 4),
            _ => return None,
        };
        let value = data.get(pos..pos.checked_add(n)?)?.to_vec();
        pos += n;
        out.push(RawField {
            key,
            tag,
            len,
            value,
        });
    }
    Some(out)
}

fn join_raw(fields: &[RawField]) -> Vec<u8> {
    let mut out = Vec::new();
    for f in fields {
        out.extend_from_slice(&f.tag);
        out.extend_from_slice(&f.len);
        out.extend_from_slice(&f.value);
    }
    out
}

/// A value of wire type `wt` (invalid types get arbitrary bytes).
fn raw_value(g: &mut Gen, wt: u64) -> (Vec<u8>, Vec<u8>) {
    match wt {
        0 => (Vec::new(), varint_bytes(g.val())),
        1 => (Vec::new(), g.next().to_le_bytes().to_vec()),
        2 => {
            let payload: Vec<u8> = (0..g.below(5)).map(|_| g.next() as u8).collect();
            (varint_bytes(payload.len() as u64), payload)
        }
        5 => (Vec::new(), (g.next() as u32).to_le_bytes().to_vec()),
        _ => (
            Vec::new(),
            (0..g.below(3)).map(|_| g.next() as u8).collect(),
        ),
    }
}

fn field_with(g: &mut Gen, field: u64, wt: u64) -> RawField {
    let key = field << 3 | wt;
    let (len, value) = raw_value(g, wt);
    RawField {
        key,
        tag: varint_bytes(key),
        len,
        value,
    }
}

/// Apply one mutation somewhere in `fields` or, half the time and while
/// a length-delimited field parses as a message, inside one of them.
fn mutate(fields: &mut Vec<RawField>, g: &mut Gen, depth: u32) {
    let delimited: Vec<usize> = (0..fields.len())
        .filter(|&i| fields[i].delimited())
        .collect();
    if depth < 4 && !delimited.is_empty() && !g.one_in(3) {
        let i = delimited[g.below(delimited.len() as u64) as usize];
        if let Some(mut inner) = split_raw(&fields[i].value).filter(|f| !f.is_empty()) {
            mutate(&mut inner, g, depth + 1);
            fields[i].set_payload(join_raw(&inner));
            return;
        }
    }
    let pick = |g: &mut Gen, n: usize| g.below(n.max(1) as u64) as usize;
    match g.below(8) {
        // Permute.
        0 => {
            for i in (1..fields.len()).rev() {
                let j = pick(g, i + 1);
                fields.swap(i, j);
            }
        }
        // Duplicate.
        1 if !fields.is_empty() => {
            let f = fields[pick(g, fields.len())].clone();
            let at = pick(g, fields.len() + 1);
            fields.insert(at, f);
        }
        // Interleave an unknown field, any wire type.
        2 => {
            let number = [34, 40, 63, 99, 1000, (1 << 29) - 1][pick(g, 6)];
            let wt = [0, 1, 2, 5][pick(g, 4)];
            let at = pick(g, fields.len() + 1);
            fields.insert(at, field_with(g, number, wt));
        }
        // Over-long (non-canonical) tag.
        3 if !fields.is_empty() => {
            let i = pick(g, fields.len());
            fields[i].tag = overlong(fields[i].key);
        }
        // Over-long length prefix.
        4 if !delimited.is_empty() => {
            let f = &mut fields[delimited[pick(g, delimited.len())]];
            f.len = overlong(f.value.len() as u64);
        }
        // A known field under the wrong (or an invalid) wire type.
        5 if !fields.is_empty() => {
            let i = pick(g, fields.len());
            let old = fields[i].key & 7;
            let wt = loop {
                let wt = if g.one_in(6) {
                    g.below(8)
                } else {
                    [0, 1, 2, 5][pick(g, 4)]
                };
                if wt != old {
                    break wt;
                }
            };
            fields[i] = field_with(g, fields[i].key >> 3, wt);
        }
        // One element more: past a packed field's capacity or range.
        6 if !delimited.is_empty() => {
            let f = &mut fields[delimited[pick(g, delimited.len())]];
            let mut payload = f.value.clone();
            payload.extend(varint_bytes(g.val()));
            f.set_payload(payload);
        }
        // Truncate inside a submessage.
        7 if !delimited.is_empty() => {
            let f = &mut fields[delimited[pick(g, delimited.len())]];
            let keep = pick(g, f.value.len());
            let payload = f.value[..keep].to_vec();
            f.set_payload(payload);
        }
        // Insert a field under a known or nearby number.
        _ => {
            let at = pick(g, fields.len() + 1);
            let number = 1 + g.below(40);
            let wt = [0, 1, 2, 5][pick(g, 4)];
            fields.insert(at, field_with(g, number, wt));
        }
    }
}

/// `body` followed by a valid integrity trailer.
fn seal(mut body: Vec<u8>) -> Vec<u8> {
    let crc = crc32_bitwise(&body);
    body.push((2 << 3) | 5);
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

/// Both decoders agree on `bytes`; returns whether they accepted it.
fn assert_same(bytes: &[u8]) -> bool {
    match (FlexranMessage::decode(bytes), ref_decode(bytes)) {
        (Ok(got), Ok(want)) => {
            assert_eq!(got, want, "decoders disagree on {bytes:02x?}");
            true
        }
        (Err(_), Err(_)) => false,
        (got, want) => {
            panic!("shipped {got:?} but reference {want:?} on {bytes:02x?}")
        }
    }
}

/// What one case's re-sealed mutation did.
#[derive(Debug, Default)]
struct Tally {
    accepted: u32,
    rejected: u32,
}

/// One case: a well-formed envelope, a re-sealed mutation of it, and a
/// raw bit flip and truncation of it.
fn check(seed: u64, tally: &mut Tally) {
    let mut g = Gen(seed);
    let header = Header {
        version: g.val() as u32,
        xid: g.val() as u32,
    };
    let msg = arbitrary_body(&mut g);
    let bytes = msg.encode(header).to_vec();
    assert!(assert_same(&bytes));
    assert_eq!(FlexranMessage::decode(&bytes).unwrap(), (header, msg));

    let mut fields = split_raw(&bytes[..bytes.len() - 5]).unwrap();
    for _ in 0..1 + g.below(3) {
        mutate(&mut fields, &mut g, 0);
    }
    let mut body = join_raw(&fields);
    if g.one_in(8) && !body.is_empty() {
        let bit = g.below(body.len() as u64 * 8);
        body[(bit / 8) as usize] ^= 1 << (bit % 8);
    }
    if assert_same(&seal(body)) {
        tally.accepted += 1;
    } else {
        tally.rejected += 1;
    }

    let mut flipped = bytes.clone();
    let bit = g.below(flipped.len() as u64 * 8);
    flipped[(bit / 8) as usize] ^= 1 << (bit % 8);
    assert!(!assert_same(&flipped));
    let keep = g.below(bytes.len() as u64) as usize;
    assert!(!assert_same(&bytes[..keep]));
}

#[test]
fn reference_varint_limits() {
    // Over-long varints decode; an eleventh byte or a tenth above 1 does not.
    assert_eq!(ref_varint(&[0x81, 0x80, 0x00], &mut 0).unwrap(), 1);
    assert!(ref_varint(&[0x80; 11], &mut 0).is_err());
    let mut max = vec![0xFF; 9];
    max.push(0x01);
    assert_eq!(ref_varint(&max, &mut 0).unwrap(), u64::MAX);
    max[9] = 0x02;
    assert!(ref_varint(&max, &mut 0).is_err());
}

/// The mutations are not all rejected (the body parsers are reached and
/// their values compared) nor all accepted (the error paths are reached).
#[test]
fn resealed_mutations_reach_both_outcomes() {
    let mut tally = Tally::default();
    for seed in 0..512 {
        check(seed, &mut tally);
    }
    let total = tally.accepted + tally.rejected;
    assert!(tally.accepted * 4 > total, "{tally:?}");
    assert!(tally.rejected * 8 > total, "{tally:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decode_matches_reference(seed in any::<u64>()) {
        check(seed, &mut Tally::default());
    }
}

// The vendored proptest honours only `ProptestConfig::cases`, so the deep
// run is its own `#[ignore]`d block; `scripts/check.sh` and CI invoke it
// in release with `-- --ignored`.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    #[ignore = "deep run: cargo test --release -p flexran-proto --lib messages::reference -- --ignored"]
    fn deep_decode_matches_reference(seed in any::<u64>()) {
        check(seed, &mut Tally::default());
    }
}
