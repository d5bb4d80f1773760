//! Statistics messages (the *Statistics* call type of the Agent API).
//!
//! The report contents mirror what the OAI FlexRAN agent ships per UE:
//! wideband + per-subband CQI, buffer status per logical-channel group,
//! power headroom, per-bearer RLC queue state, HARQ state, uplink SINR,
//! RRC measurements and PDCP counters. The richness matters: these
//! reports *are* the ~100 Mb/s agent→master load of Fig. 7a, so their
//! on-wire size has to be representative.
//!
//! Reports are requested with a [`ReportConfig`]: one-off, periodic (the
//! period in TTIs) or triggered (sent only when contents change) — the
//! three reporting modes of paper §4.3.1.

use flexran_types::ids::EnbId;
use flexran_types::Result;

use crate::inline::InlineVec;
use crate::wire::{wire_order_decoder, WireReader, WireWriter};

/// Which statistic groups a report should include (bitmask).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReportFlags(pub u64);

impl ReportFlags {
    pub const CQI: ReportFlags = ReportFlags(1);
    pub const BSR: ReportFlags = ReportFlags(1 << 1);
    pub const RLC: ReportFlags = ReportFlags(1 << 2);
    pub const PDCP: ReportFlags = ReportFlags(1 << 3);
    pub const MAC: ReportFlags = ReportFlags(1 << 4);
    pub const HARQ: ReportFlags = ReportFlags(1 << 5);
    pub const RRC_MEAS: ReportFlags = ReportFlags(1 << 6);
    pub const CELL: ReportFlags = ReportFlags(1 << 7);

    /// Everything — the configuration the Fig. 7 worst case uses.
    pub const ALL: ReportFlags = ReportFlags(0xFF);

    pub fn contains(self, other: ReportFlags) -> bool {
        self.0 & other.0 == other.0
    }

    pub fn union(self, other: ReportFlags) -> ReportFlags {
        ReportFlags(self.0 | other.0)
    }
}

/// How often a report is produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReportType {
    /// Single reply to the request.
    #[default]
    OneOff,
    /// Every `period` TTIs.
    Periodic { period: u32 },
    /// Only when the report contents changed since the last one.
    Triggered,
}

/// A full report subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReportConfig {
    pub report_type: ReportType,
    pub flags: ReportFlags,
}

/// Statistics request (master → agent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsRequest {
    pub config: ReportConfig,
}

impl StatsRequest {
    pub(crate) fn encode_fields(&self, w: &mut WireWriter) {
        let (ty, period) = match self.config.report_type {
            ReportType::OneOff => (0u64, 0u64),
            ReportType::Periodic { period } => (1, period as u64),
            ReportType::Triggered => (2, 0),
        };
        w.uint(1, ty);
        w.uint(2, period);
        w.uint(3, self.config.flags.0);
    }

    pub(crate) fn decode(data: &[u8]) -> Result<StatsRequest> {
        let mut ty = 0u64;
        let mut period = 0u32;
        let mut flags = ReportFlags::default();
        let mut r = WireReader::new(data);
        while let Some((f, v)) = r.next_field()? {
            match f {
                1 => ty = v.as_u64()?,
                2 => period = v.as_u32()?,
                3 => flags = ReportFlags(v.as_u64()?),
                _ => {}
            }
        }
        let report_type = match ty {
            1 => ReportType::Periodic {
                period: period.max(1),
            },
            2 => ReportType::Triggered,
            _ => ReportType::OneOff,
        };
        Ok(StatsRequest {
            config: ReportConfig { report_type, flags },
        })
    }
}

/// Per-bearer RLC state inside a UE report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RlcReport {
    pub lcid: u8,
    pub tx_queue_bytes: u64,
    pub hol_delay_ms: u64,
    pub status_pdu_bytes: u32,
}

impl RlcReport {
    fn encode_fields(&self, w: &mut WireWriter) {
        w.uint(1, self.lcid as u64 + 1);
        w.uint(2, self.tx_queue_bytes);
        w.uint(3, self.hol_delay_ms);
        w.uint(4, self.status_pdu_bytes as u64);
    }

    wire_order_decoder! {
        RlcReport::default(), |m, v| {
            1 Varint => m.lcid = (v.as_u64()?.saturating_sub(1)) as u8;
            2 Varint => m.tx_queue_bytes = v.as_u64()?;
            3 Varint => m.hol_delay_ms = v.as_u64()?;
            4 Varint => m.status_pdu_bytes = v.as_u32()?;
        }
    }
}

// Capacities of a UE report's repeated fields: the LTE maxima
// `UeReport::from_stats` fills them to. A received report exceeding one
// fails to decode.

/// CQI subbands at 50 PRB (TS 36.213).
pub const MAX_SUBBANDS: usize = 13;
/// Uplink SINR resource-block groups.
pub const MAX_RBGS: usize = 25;
/// Downlink HARQ processes (FDD).
pub const MAX_HARQ_PROCESSES: usize = 8;
/// Logical-channel groups a BSR covers.
pub const MAX_LCGS: usize = 4;
/// Radio bearers reported per UE.
pub const MAX_BEARERS: usize = 4;
/// Secondary component carriers an eNodeB activates per UE.
pub const MAX_SCELLS: usize = flexran_stack::enb::MAX_SCELLS;

/// One UE's statistics on the wire. Owns no heap: the repeated fields
/// are [`InlineVec`]s, so composing, decoding, cloning into the RIB and
/// snapshotting a report never allocate.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UeReport {
    pub rnti: u16,
    /// Serving (primary) cell within the reporting eNodeB.
    pub cell: u16,
    pub connected: bool,
    pub slice: u8,
    pub priority_group: u8,
    /// Wideband CQI plus per-subband CQIs.
    pub wideband_cqi: u8,
    pub subband_cqi: InlineVec<u8, MAX_SUBBANDS>,
    /// Buffer status per logical-channel group (4 entries).
    pub bsr: InlineVec<u8, MAX_LCGS>,
    /// Power headroom, dB.
    pub phr_db: i64,
    /// RLC state per bearer.
    pub rlc: InlineVec<RlcReport, MAX_BEARERS>,
    /// Pending MAC control elements.
    pub pending_mac_ces: u32,
    /// Downlink HARQ process states (8 entries; 0 idle / 1 busy).
    pub harq_states: InlineVec<u8, MAX_HARQ_PROCESSES>,
    /// Uplink wideband SINR in deci-dB (signed).
    pub ul_sinr_decidb: i64,
    /// Uplink per-subband SINR, deci-dB + 700 offset (packed unsigned).
    pub ul_subband_sinr: InlineVec<u16, MAX_RBGS>,
    /// Serving-cell RSRP / RSRQ in deci-dBm / deci-dB (signed).
    pub rsrp_decidbm: i64,
    pub rsrq_decidb: i64,
    /// PDCP cumulative counters.
    pub pdcp_tx_bytes: u64,
    pub pdcp_tx_sn: u32,
    /// MAC cumulative counters.
    pub dl_tbs_bits_total: u64,
    pub ul_tbs_bits_total: u64,
    pub harq_tx: u64,
    pub harq_retx: u64,
    /// Scheduler view.
    pub avg_rate_bps: u64,
    pub last_mcs: u8,
    /// TTI the CQI was measured at.
    pub cqi_timestamp: u64,
    /// Second-codeword subband CQIs (present even in TM1 reports from OAI).
    pub subband_cqi_cw1: InlineVec<u8, MAX_SUBBANDS>,
    /// HARQ round counter per process (8 entries).
    pub harq_rounds: InlineVec<u8, MAX_HARQ_PROCESSES>,
    /// Transport block size currently held by each HARQ process, bytes.
    pub tbs_per_process: InlineVec<u32, MAX_HARQ_PROCESSES>,
    /// Uplink power-control state, deci-dBm (signed).
    pub pusch_power_decidbm: i64,
    pub pucch_power_decidbm: i64,
    /// PDCP receive-direction counters.
    pub pdcp_rx_bytes: u64,
    pub pdcp_rx_sn: u32,
    /// Activated secondary component carriers.
    pub active_scells: InlineVec<u16, MAX_SCELLS>,
}

impl UeReport {
    pub(crate) fn encode_fields(&self, w: &mut WireWriter) {
        w.uint(1, self.rnti as u64);
        w.uint(2, self.connected as u64);
        w.uint(3, self.slice as u64);
        w.uint(4, self.priority_group as u64);
        w.uint(5, self.wideband_cqi as u64);
        w.packed_uints(6, &self.subband_cqi);
        w.packed_uints(7, &self.bsr);
        w.sint(8, self.phr_db);
        for rlc in &self.rlc {
            w.message(9, |m| rlc.encode_fields(m));
        }
        w.uint(10, self.pending_mac_ces as u64);
        w.packed_uints(11, &self.harq_states);
        w.sint(12, self.ul_sinr_decidb);
        w.packed_uints(13, &self.ul_subband_sinr);
        w.sint(14, self.rsrp_decidbm);
        w.sint(15, self.rsrq_decidb);
        w.uint(16, self.pdcp_tx_bytes);
        w.uint(17, self.pdcp_tx_sn as u64);
        w.uint(18, self.dl_tbs_bits_total);
        w.uint(19, self.ul_tbs_bits_total);
        w.uint(20, self.harq_tx);
        w.uint(21, self.harq_retx);
        w.uint(22, self.avg_rate_bps);
        w.uint(23, self.last_mcs as u64);
        w.uint(24, self.cqi_timestamp);
        w.packed_uints(25, &self.subband_cqi_cw1);
        w.packed_uints(26, &self.harq_rounds);
        w.packed_uints(27, &self.tbs_per_process);
        w.sint(28, self.pusch_power_decidbm);
        w.sint(29, self.pucch_power_decidbm);
        w.uint(30, self.pdcp_rx_bytes);
        w.uint(31, self.pdcp_rx_sn as u64);
        w.uint(32, self.cell as u64 + 1);
        w.packed_uints(33, &self.active_scells);
    }

    wire_order_decoder! {
        |m, v| {
            1 Varint => m.rnti = v.as_u64()? as u16;
            2 Varint => m.connected = v.as_u64()? != 0;
            3 Varint => m.slice = v.as_u64()? as u8;
            4 Varint => m.priority_group = v.as_u64()? as u8;
            5 Varint => m.wideband_cqi = v.as_u64()? as u8;
            6 LengthDelimited => m.subband_cqi.read_packed(v.as_bytes()?)?;
            7 LengthDelimited => m.bsr.read_packed(v.as_bytes()?)?;
            8 Varint => m.phr_db = v.as_i64_zigzag()?;
            9 LengthDelimited repeated => m.rlc.try_push(RlcReport::decode(v.as_bytes()?)?)?;
            10 Varint => m.pending_mac_ces = v.as_u32()?;
            11 LengthDelimited => m.harq_states.read_packed(v.as_bytes()?)?;
            12 Varint => m.ul_sinr_decidb = v.as_i64_zigzag()?;
            13 LengthDelimited => m.ul_subband_sinr.read_packed(v.as_bytes()?)?;
            14 Varint => m.rsrp_decidbm = v.as_i64_zigzag()?;
            15 Varint => m.rsrq_decidb = v.as_i64_zigzag()?;
            16 Varint => m.pdcp_tx_bytes = v.as_u64()?;
            17 Varint => m.pdcp_tx_sn = v.as_u32()?;
            18 Varint => m.dl_tbs_bits_total = v.as_u64()?;
            19 Varint => m.ul_tbs_bits_total = v.as_u64()?;
            20 Varint => m.harq_tx = v.as_u64()?;
            21 Varint => m.harq_retx = v.as_u64()?;
            22 Varint => m.avg_rate_bps = v.as_u64()?;
            23 Varint => m.last_mcs = v.as_u64()? as u8;
            24 Varint => m.cqi_timestamp = v.as_u64()?;
            25 LengthDelimited => m.subband_cqi_cw1.read_packed(v.as_bytes()?)?;
            26 LengthDelimited => m.harq_rounds.read_packed(v.as_bytes()?)?;
            27 LengthDelimited => m.tbs_per_process.read_packed(v.as_bytes()?)?;
            28 Varint => m.pusch_power_decidbm = v.as_i64_zigzag()?;
            29 Varint => m.pucch_power_decidbm = v.as_i64_zigzag()?;
            30 Varint => m.pdcp_rx_bytes = v.as_u64()?;
            31 Varint => m.pdcp_rx_sn = v.as_u32()?;
            32 Varint => m.cell = (v.as_u64()?.saturating_sub(1)) as u16;
            33 LengthDelimited => m.active_scells.read_packed(v.as_bytes()?)?;
        }
    }

    /// Build a report from data-plane statistics.
    ///
    /// Subband arrays are filled from the wideband measurement — the PHY
    /// abstraction has no frequency selectivity (`DESIGN.md` §7) but the
    /// fields keep their real on-wire footprint.
    pub fn from_stats(
        s: &flexran_stack::stats::UeStats,
        cell: flexran_types::ids::CellId,
        flags: ReportFlags,
    ) -> UeReport {
        let mut rep = UeReport {
            rnti: s.rnti.0,
            cell: cell.0,
            connected: s.connected,
            slice: s.slice.0,
            priority_group: s.priority_group,
            ..UeReport::default()
        };
        // `Enb::set_scell` admits at most `MAX_SCELLS` carriers per UE.
        for scell in s.active_scells.iter().take(MAX_SCELLS) {
            rep.active_scells.try_push(*scell).ok();
        }
        if flags.contains(ReportFlags::CQI) {
            rep.wideband_cqi = s.cqi.0;
            rep.subband_cqi = InlineVec::full(s.cqi.0);
            rep.subband_cqi_cw1 = InlineVec::full(s.cqi.0);
            rep.cqi_timestamp = s.cqi_updated.0;
            let decidb = (s.sinr_db.clamp(-70.0, 70.0) * 10.0) as i64;
            rep.ul_sinr_decidb = decidb;
            // Uplink SINR per resource-block group (25 RBGs at 50 PRB).
            rep.ul_subband_sinr = InlineVec::full((decidb + 700).max(0) as u16);
        }
        if flags.contains(ReportFlags::BSR) {
            let idx = flexran_stack::mac::bsr::bsr_index(s.ul_bsr_bytes.as_u64());
            rep.bsr = [idx, 0, 0, 0].into();
            rep.phr_db = 20;
        }
        if flags.contains(ReportFlags::RLC) {
            rep.rlc = [
                RlcReport {
                    lcid: 1,
                    tx_queue_bytes: s.srb_queue_bytes.as_u64(),
                    hol_delay_ms: 0,
                    status_pdu_bytes: 0,
                },
                RlcReport {
                    lcid: 3,
                    tx_queue_bytes: s.dl_queue_bytes.as_u64(),
                    hol_delay_ms: s.hol_delay_ms,
                    status_pdu_bytes: 0,
                },
            ]
            .into();
        }
        if flags.contains(ReportFlags::PDCP) {
            rep.pdcp_tx_bytes = s.dl_delivered_bits / 8;
            rep.pdcp_tx_sn = (s.dl_delivered_bits / 8 % 4096) as u32;
            rep.pdcp_rx_bytes = s.ul_delivered_bits / 8;
            rep.pdcp_rx_sn = (s.ul_delivered_bits / 8 % 4096) as u32;
        }
        if flags.contains(ReportFlags::MAC) {
            rep.dl_tbs_bits_total = s.dl_delivered_bits;
            rep.ul_tbs_bits_total = s.ul_delivered_bits;
            rep.avg_rate_bps = s.avg_rate_bps as u64;
            rep.last_mcs = flexran_phy::link_adaptation::mcs_for_cqi(s.cqi).0;
            rep.pusch_power_decidbm = 230;
            rep.pucch_power_decidbm = -50;
        }
        if flags.contains(ReportFlags::HARQ) {
            rep.harq_states = InlineVec::full(0);
            rep.harq_rounds = InlineVec::full(0);
            let tb = flexran_phy::tables::tbs_bits(
                flexran_phy::tables::itbs_for_mcs(
                    flexran_phy::link_adaptation::mcs_for_cqi(s.cqi).0,
                ),
                10,
            ) / 8;
            rep.tbs_per_process = InlineVec::full(tb);
            rep.harq_tx = s.harq_tx;
            rep.harq_retx = s.harq_retx;
        }
        if flags.contains(ReportFlags::RRC_MEAS) {
            rep.rsrp_decidbm = (s.sinr_db.clamp(-70.0, 70.0) * 10.0) as i64 - 950;
            rep.rsrq_decidb = -105;
        }
        rep
    }
}

/// Per-cell statistics on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CellReport {
    pub cell_id: u16,
    /// Thermal noise + interference estimate, deci-dBm (signed).
    pub noise_interference_decidbm: i64,
    pub dl_prbs_used_total: u64,
    pub ul_prbs_used_total: u64,
    pub active_ues: u32,
    pub abs_muted_ttis: u64,
    pub decisions_applied: u64,
    pub missed_deadlines: u64,
}

impl CellReport {
    pub(crate) fn encode_fields(&self, w: &mut WireWriter) {
        w.uint(1, self.cell_id as u64 + 1);
        w.sint(2, self.noise_interference_decidbm);
        w.uint(3, self.dl_prbs_used_total);
        w.uint(4, self.ul_prbs_used_total);
        w.uint(5, self.active_ues as u64);
        w.uint(6, self.abs_muted_ttis);
        w.uint(7, self.decisions_applied);
        w.uint(8, self.missed_deadlines);
    }

    wire_order_decoder! {
        CellReport::default(), |m, v| {
            1 Varint => m.cell_id = (v.as_u64()?.saturating_sub(1)) as u16;
            2 Varint => m.noise_interference_decidbm = v.as_i64_zigzag()?;
            3 Varint => m.dl_prbs_used_total = v.as_u64()?;
            4 Varint => m.ul_prbs_used_total = v.as_u64()?;
            5 Varint => m.active_ues = v.as_u32()?;
            6 Varint => m.abs_muted_ttis = v.as_u64()?;
            7 Varint => m.decisions_applied = v.as_u64()?;
            8 Varint => m.missed_deadlines = v.as_u64()?;
        }
    }
}

/// Statistics reply (agent → master).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsReply {
    pub enb_id: EnbId,
    /// Agent-local TTI at composition time.
    pub tti: u64,
    pub cells: Vec<CellReport>,
    pub ues: Vec<UeReport>,
}

impl StatsReply {
    /// Encode just the reply body into `w` (cleared first). The agent's
    /// delta-aware report path hashes this to detect unchanged content
    /// without cloning or re-allocating the reply.
    pub fn encode_body_into(&self, w: &mut WireWriter) {
        w.clear();
        self.encode_fields(w);
    }

    pub(crate) fn encode_fields(&self, w: &mut WireWriter) {
        w.uint(1, self.enb_id.0 as u64);
        w.uint(2, self.tti);
        for c in &self.cells {
            w.message(3, |m| c.encode_fields(m));
        }
        for u in &self.ues {
            w.message(4, |m| u.encode_fields(m));
        }
    }

    wire_order_decoder! {
        StatsReply::default(), |m, v| {
            1 Varint => m.enb_id = EnbId(v.as_u32()?);
            2 Varint => m.tti = v.as_u64()?;
            3 LengthDelimited repeated => m.cells.push(CellReport::decode(v.as_bytes()?)?);
            // Each UE report is decoded in its `Vec` slot, not on the
            // stack and then moved in.
            4 LengthDelimited repeated => {
                let data = v.as_bytes()?;
                m.ues.push(UeReport::default());
                if let Some(ue) = m.ues.last_mut() {
                    UeReport::merge_from(ue, data)?;
                }
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{FlexranMessage, Header};
    use flexran_phy::link_adaptation::Cqi;
    use flexran_stack::stats::UeStats;
    use flexran_types::ids::{Rnti, SliceId, UeId};
    use flexran_types::time::Tti;
    use flexran_types::units::Bytes;

    fn sample_stats() -> UeStats {
        UeStats {
            rnti: Rnti(0x105),
            ue: UeId(5),
            slice: SliceId(1),
            priority_group: 1,
            connected: true,
            cqi: Cqi(11),
            cqi_updated: Tti(400),
            sinr_db: 14.5,
            dl_queue_bytes: Bytes(12_345),
            srb_queue_bytes: Bytes(0),
            ul_bsr_bytes: Bytes(900),
            dl_delivered_bits: 1_000_000,
            ul_delivered_bits: 50_000,
            avg_rate_bps: 3_000_000.0,
            harq_tx: 120,
            harq_retx: 12,
            hol_delay_ms: 7,
            active_scells: vec![],
        }
    }

    #[test]
    fn report_roundtrip() {
        let rep = UeReport::from_stats(
            &sample_stats(),
            flexran_types::ids::CellId(0),
            ReportFlags::ALL,
        );
        let msg = FlexranMessage::StatsReply(StatsReply {
            enb_id: EnbId(2),
            tti: 123_456,
            cells: vec![CellReport {
                cell_id: 0,
                noise_interference_decidbm: -950,
                dl_prbs_used_total: 10_000,
                ul_prbs_used_total: 400,
                active_ues: 1,
                abs_muted_ttis: 0,
                decisions_applied: 200,
                missed_deadlines: 3,
            }],
            ues: vec![rep.clone()],
        });
        let bytes = msg.encode(Header::with_xid(4));
        let (_, got) = FlexranMessage::decode(&bytes).unwrap();
        let FlexranMessage::StatsReply(r) = got else {
            panic!("wrong variant");
        };
        assert_eq!(r.ues[0], rep);
        assert_eq!(r.cells[0].missed_deadlines, 3);
        assert_eq!(r.tti, 123_456);
    }

    /// Every repeated field filled to its capacity with wide values.
    fn report_at_capacity() -> UeReport {
        UeReport {
            rnti: 0x1FF,
            cell: 2,
            connected: true,
            subband_cqi: InlineVec::full(15),
            subband_cqi_cw1: InlineVec::full(14),
            bsr: InlineVec::full(63),
            rlc: InlineVec::full(RlcReport {
                lcid: 9,
                tx_queue_bytes: u64::MAX,
                hol_delay_ms: 1 << 40,
                status_pdu_bytes: u32::MAX,
            }),
            harq_states: InlineVec::full(1),
            harq_rounds: InlineVec::full(3),
            tbs_per_process: InlineVec::full(u32::MAX),
            ul_subband_sinr: InlineVec::full(1_400),
            active_scells: InlineVec::full(7),
            ..UeReport::default()
        }
    }

    #[test]
    fn report_roundtrip_at_full_capacity() {
        let rep = report_at_capacity();
        assert_eq!(rep.subband_cqi.len(), MAX_SUBBANDS);
        assert_eq!(rep.ul_subband_sinr.len(), MAX_RBGS);
        assert_eq!(rep.rlc.len(), MAX_BEARERS);
        let msg = FlexranMessage::StatsReply(StatsReply {
            enb_id: EnbId(1),
            tti: 1,
            cells: vec![],
            ues: vec![rep.clone(), rep],
        });
        let (_, got) = FlexranMessage::decode(&msg.encode(Header::default())).unwrap();
        assert_eq!(got, msg);
    }

    #[test]
    fn over_capacity_fields_fail_to_decode() {
        // One element more than a field can hold — a repeated scalar and
        // the repeated `rlc` submessage — must reject the whole envelope,
        // not drop the surplus.
        let sealed = |body: &dyn Fn(&mut WireWriter)| {
            let mut w = WireWriter::new();
            w.message(1, |m| {
                m.uint(1, 1); // header.version
            });
            w.message(17, |reply| reply.message(4, |ue| body(ue)));
            let crc = crate::wire::crc32(w.as_slice());
            w.fixed32_always(2, crc);
            w.finish()
        };
        let fits = sealed(&|ue| ue.packed_uints(7, &[1u64; MAX_LCGS]));
        assert!(FlexranMessage::decode(&fits).is_ok());
        let packed = sealed(&|ue| ue.packed_uints(7, &[1u64; MAX_LCGS + 1]));
        let err = FlexranMessage::decode(&packed).unwrap_err();
        assert_eq!(err.category(), "codec");
        // Nor is a value narrowed: a BSR index is a u8.
        let wide = sealed(&|ue| ue.packed_uints(7, &[1, 256u64]));
        let err = FlexranMessage::decode(&wide).unwrap_err();
        assert_eq!(err.category(), "codec");
        let bearers = sealed(&|ue| {
            for lcid in 0..=MAX_BEARERS as u64 {
                ue.message(9, |m| m.uint(1, lcid + 1));
            }
        });
        let err = FlexranMessage::decode(&bearers).unwrap_err();
        assert_eq!(err.category(), "codec");
    }

    #[test]
    fn full_report_wire_size_is_representative() {
        // The Fig. 7a regime: ~100 Mb/s at 50 UEs with per-TTI reports
        // means ~250 B/UE. A full report must land in the 130..350 byte
        // band for the experiment to be meaningful.
        let rep = UeReport::from_stats(
            &sample_stats(),
            flexran_types::ids::CellId(0),
            ReportFlags::ALL,
        );
        let mut w = WireWriter::new();
        rep.encode_fields(&mut w);
        let sz = w.len();
        assert!(
            (180..=350).contains(&sz),
            "full UE report is {sz} bytes on the wire"
        );
    }

    #[test]
    fn flags_gate_report_contents() {
        let s = sample_stats();
        let cqi_only = UeReport::from_stats(&s, flexran_types::ids::CellId(0), ReportFlags::CQI);
        assert_eq!(cqi_only.wideband_cqi, 11);
        assert!(cqi_only.rlc.is_empty());
        assert_eq!(cqi_only.harq_tx, 0);
        let rlc_only = UeReport::from_stats(&s, flexran_types::ids::CellId(0), ReportFlags::RLC);
        assert_eq!(rlc_only.wideband_cqi, 0);
        assert_eq!(rlc_only.rlc.len(), 2);
        assert_eq!(rlc_only.rlc[1].tx_queue_bytes, 12_345);
        // Smaller flag set → smaller wire size.
        let mut w_full = WireWriter::new();
        UeReport::from_stats(&s, flexran_types::ids::CellId(0), ReportFlags::ALL)
            .encode_fields(&mut w_full);
        let mut w_cqi = WireWriter::new();
        cqi_only.encode_fields(&mut w_cqi);
        assert!(w_cqi.len() < w_full.len());
    }

    #[test]
    fn request_roundtrip_all_types() {
        for rt in [
            ReportType::OneOff,
            ReportType::Periodic { period: 2 },
            ReportType::Triggered,
        ] {
            let msg = FlexranMessage::StatsRequest(StatsRequest {
                config: ReportConfig {
                    report_type: rt,
                    flags: ReportFlags::ALL,
                },
            });
            let bytes = msg.encode(Header::default());
            let (_, got) = FlexranMessage::decode(&bytes).unwrap();
            assert_eq!(got, msg);
        }
    }

    #[test]
    fn flag_algebra() {
        let f = ReportFlags::CQI.union(ReportFlags::BSR);
        assert!(f.contains(ReportFlags::CQI));
        assert!(f.contains(ReportFlags::BSR));
        assert!(!f.contains(ReportFlags::RLC));
        assert!(ReportFlags::ALL.contains(f));
    }
}
