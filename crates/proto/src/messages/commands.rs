//! Command messages (the *Commands* call type of the Agent API): apply
//! control decisions — scheduling, handover, DRX, ABS patterns.
//!
//! [`DlSchedulingCommand`] is the message a centralized scheduler at the
//! master sends per cell × subframe; its on-wire size drives the
//! master→agent overhead of Fig. 7b, so the DCI carries the full set of
//! fields a real DCI format 1A conveys (TPC, DAI, aggregation level, VRB
//! format, NDI, HARQ pid) even though the data-plane model only consumes
//! RNTI/PRBs/MCS.

use flexran_phy::link_adaptation::Mcs;
use flexran_types::ids::{CellId, EnbId, Rnti};
use flexran_types::time::Tti;
use flexran_types::Result;

use crate::wire::{wire_order_decoder, WireReader, WireWriter};

/// One downlink assignment on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DciPb {
    pub rnti: u16,
    pub n_prb: u8,
    pub mcs: u8,
    pub harq_pid: u8,
    pub ndi: bool,
    /// Transmit power control command (0..=3).
    pub tpc: u8,
    /// Downlink assignment index (0..=3).
    pub dai: u8,
    /// Resource-allocation format (0 = type 0 bitmap, 1 = type 2 compact).
    pub vrb_format: u8,
    /// PDCCH aggregation level (1/2/4/8).
    pub aggregation_level: u8,
    /// Precomputed transport block size in bits (lets the agent apply the
    /// decision without a table lookup).
    pub tbs_bits: u32,
    /// Resource-block bitmap for allocation type 0 (fixed32; enough for
    /// the 17 RBG bits of a 50-PRB cell).
    pub rb_bitmap: u32,
}

impl DciPb {
    fn encode_fields(&self, w: &mut WireWriter) {
        w.uint(1, self.rnti as u64);
        w.uint(2, self.n_prb as u64);
        w.uint(3, self.mcs as u64);
        w.uint(4, self.harq_pid as u64 + 1);
        w.uint(5, self.ndi as u64);
        w.uint(6, self.tpc as u64);
        w.uint(7, self.dai as u64);
        w.uint(8, self.vrb_format as u64);
        w.uint(9, self.aggregation_level as u64);
        w.uint(10, self.tbs_bits as u64);
        w.fixed32(11, self.rb_bitmap);
    }

    wire_order_decoder! {
        DciPb::default(), |m, v| {
            1 Varint => m.rnti = v.as_u64()? as u16;
            2 Varint => m.n_prb = v.as_u64()? as u8;
            3 Varint => m.mcs = v.as_u64()? as u8;
            4 Varint => m.harq_pid = (v.as_u64()?.saturating_sub(1)) as u8;
            5 Varint => m.ndi = v.as_u64()? != 0;
            6 Varint => m.tpc = v.as_u64()? as u8;
            7 Varint => m.dai = v.as_u64()? as u8;
            8 Varint => m.vrb_format = v.as_u64()? as u8;
            9 Varint => m.aggregation_level = v.as_u64()? as u8;
            10 Varint => m.tbs_bits = v.as_u32()?;
            11 Fixed32 => m.rb_bitmap = v.as_u32()?;
        }
    }
}

/// A downlink scheduling decision for one cell × subframe.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DlSchedulingCommand {
    pub enb_id: EnbId,
    pub cell: u16,
    /// Target subframe as an absolute TTI.
    pub target_tti: u64,
    pub dcis: Vec<DciPb>,
}

impl DlSchedulingCommand {
    /// Convert a data-plane decision into its wire form.
    pub fn from_decision(enb_id: EnbId, d: &flexran_stack::mac::dci::DlSchedulingDecision) -> Self {
        let dcis = d
            .dcis
            .iter()
            .map(|dci| DciPb {
                rnti: dci.rnti.0,
                n_prb: dci.n_prb,
                mcs: dci.mcs.0,
                harq_pid: 0,
                ndi: true,
                tpc: 1,
                dai: 0,
                vrb_format: 0,
                aggregation_level: 4,
                tbs_bits: flexran_phy::tables::tbs_bits(
                    flexran_phy::tables::itbs_for_mcs(dci.mcs.0),
                    dci.n_prb,
                ),
                rb_bitmap: (1u32 << (dci.n_prb.min(17) as u32)) - 1,
            })
            .collect();
        DlSchedulingCommand {
            enb_id,
            cell: d.cell.0,
            target_tti: d.target.0,
            dcis,
        }
    }

    /// Convert back into the data-plane decision the agent applies.
    pub fn to_decision(&self) -> flexran_stack::mac::dci::DlSchedulingDecision {
        flexran_stack::mac::dci::DlSchedulingDecision {
            cell: CellId(self.cell),
            target: Tti(self.target_tti),
            dcis: self
                .dcis
                .iter()
                .map(|d| flexran_stack::mac::dci::DlDci {
                    rnti: Rnti(d.rnti),
                    n_prb: d.n_prb,
                    mcs: Mcs(d.mcs.min(28)),
                })
                .collect(),
        }
    }

    pub(crate) fn encode_fields(&self, w: &mut WireWriter) {
        w.uint(1, self.enb_id.0 as u64);
        w.uint(2, self.cell as u64 + 1);
        w.uint(3, self.target_tti);
        for d in &self.dcis {
            w.message(4, |m| d.encode_fields(m));
        }
    }

    wire_order_decoder! {
        DlSchedulingCommand::default(), |m, v| {
            1 Varint => m.enb_id = EnbId(v.as_u32()?);
            2 Varint => m.cell = (v.as_u64()?.saturating_sub(1)) as u16;
            3 Varint => m.target_tti = v.as_u64()?;
            4 LengthDelimited repeated => m.dcis.push(DciPb::decode(v.as_bytes()?)?);
        }
    }
}

/// One uplink grant on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UlGrantPb {
    pub rnti: u16,
    pub n_prb: u8,
    pub mcs: u8,
    pub tpc: u8,
    pub cyclic_shift: u8,
    pub hopping: bool,
}

impl UlGrantPb {
    fn encode_fields(&self, w: &mut WireWriter) {
        w.uint(1, self.rnti as u64);
        w.uint(2, self.n_prb as u64);
        w.uint(3, self.mcs as u64);
        w.uint(4, self.tpc as u64);
        w.uint(5, self.cyclic_shift as u64);
        w.uint(6, self.hopping as u64);
    }

    wire_order_decoder! {
        UlGrantPb::default(), |m, v| {
            1 Varint => m.rnti = v.as_u64()? as u16;
            2 Varint => m.n_prb = v.as_u64()? as u8;
            3 Varint => m.mcs = v.as_u64()? as u8;
            4 Varint => m.tpc = v.as_u64()? as u8;
            5 Varint => m.cyclic_shift = v.as_u64()? as u8;
            6 Varint => m.hopping = v.as_u64()? != 0;
        }
    }
}

/// An uplink scheduling decision for one cell × subframe.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct UlSchedulingCommand {
    pub enb_id: EnbId,
    pub cell: u16,
    pub target_tti: u64,
    pub grants: Vec<UlGrantPb>,
}

impl UlSchedulingCommand {
    pub fn from_decision(enb_id: EnbId, d: &flexran_stack::mac::dci::UlSchedulingDecision) -> Self {
        UlSchedulingCommand {
            enb_id,
            cell: d.cell.0,
            target_tti: d.target.0,
            grants: d
                .grants
                .iter()
                .map(|g| UlGrantPb {
                    rnti: g.rnti.0,
                    n_prb: g.n_prb,
                    mcs: g.mcs.0,
                    tpc: 1,
                    cyclic_shift: 0,
                    hopping: false,
                })
                .collect(),
        }
    }

    pub fn to_decision(&self) -> flexran_stack::mac::dci::UlSchedulingDecision {
        flexran_stack::mac::dci::UlSchedulingDecision {
            cell: CellId(self.cell),
            target: Tti(self.target_tti),
            grants: self
                .grants
                .iter()
                .map(|g| flexran_stack::mac::dci::UlGrant {
                    rnti: Rnti(g.rnti),
                    n_prb: g.n_prb,
                    mcs: Mcs(g.mcs.min(28)),
                })
                .collect(),
        }
    }

    pub(crate) fn encode_fields(&self, w: &mut WireWriter) {
        w.uint(1, self.enb_id.0 as u64);
        w.uint(2, self.cell as u64 + 1);
        w.uint(3, self.target_tti);
        for g in &self.grants {
            w.message(4, |m| g.encode_fields(m));
        }
    }

    wire_order_decoder! {
        UlSchedulingCommand::default(), |m, v| {
            1 Varint => m.enb_id = EnbId(v.as_u32()?);
            2 Varint => m.cell = (v.as_u64()?.saturating_sub(1)) as u16;
            3 Varint => m.target_tti = v.as_u64()?;
            4 LengthDelimited repeated => m.grants.push(UlGrantPb::decode(v.as_bytes()?)?);
        }
    }
}

/// Handover initiation command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HandoverCommand {
    pub cell: u16,
    pub rnti: u16,
    pub target_enb: u32,
    pub target_cell: u16,
}

impl HandoverCommand {
    pub(crate) fn encode_fields(&self, w: &mut WireWriter) {
        w.uint(1, self.cell as u64 + 1);
        w.uint(2, self.rnti as u64);
        w.uint(3, self.target_enb as u64);
        w.uint(4, self.target_cell as u64 + 1);
    }

    pub(crate) fn decode(data: &[u8]) -> Result<HandoverCommand> {
        let mut m = HandoverCommand::default();
        let mut r = WireReader::new(data);
        while let Some((f, v)) = r.next_field()? {
            match f {
                1 => m.cell = (v.as_u64()?.saturating_sub(1)) as u16,
                2 => m.rnti = v.as_u64()? as u16,
                3 => m.target_enb = v.as_u32()?,
                4 => m.target_cell = (v.as_u64()?.saturating_sub(1)) as u16,
                _ => {}
            }
        }
        Ok(m)
    }
}

/// Secondary-component-carrier (de)activation command (carrier
/// aggregation — paper Table 1: "(de)activating component carriers").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScellCommand {
    /// The UE's primary cell.
    pub cell: u16,
    pub rnti: u16,
    /// The secondary cell to (de)activate.
    pub scell: u16,
    pub activate: bool,
}

impl ScellCommand {
    pub(crate) fn encode_fields(&self, w: &mut WireWriter) {
        w.uint(1, self.cell as u64 + 1);
        w.uint(2, self.rnti as u64);
        w.uint(3, self.scell as u64 + 1);
        w.uint(4, self.activate as u64);
    }

    pub(crate) fn decode(data: &[u8]) -> Result<ScellCommand> {
        let mut m = ScellCommand::default();
        let mut r = WireReader::new(data);
        while let Some((f, v)) = r.next_field()? {
            match f {
                1 => m.cell = (v.as_u64()?.saturating_sub(1)) as u16,
                2 => m.rnti = v.as_u64()? as u16,
                3 => m.scell = (v.as_u64()?.saturating_sub(1)) as u16,
                4 => m.activate = v.as_u64()? != 0,
                _ => {}
            }
        }
        Ok(m)
    }
}

/// DRX configuration command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DrxCommand {
    pub cell: u16,
    pub rnti: u16,
    pub cycle_ttis: u32,
    pub on_duration_ttis: u32,
}

impl DrxCommand {
    pub(crate) fn encode_fields(&self, w: &mut WireWriter) {
        w.uint(1, self.cell as u64 + 1);
        w.uint(2, self.rnti as u64);
        w.uint(3, self.cycle_ttis as u64);
        w.uint(4, self.on_duration_ttis as u64);
    }

    pub(crate) fn decode(data: &[u8]) -> Result<DrxCommand> {
        let mut m = DrxCommand::default();
        let mut r = WireReader::new(data);
        while let Some((f, v)) = r.next_field()? {
            match f {
                1 => m.cell = (v.as_u64()?.saturating_sub(1)) as u16,
                2 => m.rnti = v.as_u64()? as u16,
                3 => m.cycle_ttis = v.as_u32()?,
                4 => m.on_duration_ttis = v.as_u32()?,
                _ => {}
            }
        }
        Ok(m)
    }
}

/// Almost-blank-subframe pattern command (eICIC).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AbsCommand {
    pub cell: u16,
    /// 40-subframe pattern packed LSB-first into 5 bytes; empty = clear.
    pub pattern: Vec<u8>,
}

impl AbsCommand {
    /// Build from the data plane's pattern representation.
    pub fn from_pattern(cell: CellId, pattern: Option<[bool; 40]>) -> Self {
        let bytes = match pattern {
            None => Vec::new(),
            Some(p) => {
                let mut b = vec![0u8; 5];
                for (i, muted) in p.iter().enumerate() {
                    if *muted {
                        // lint:allow(panic) — `i < 40` so `i / 8 < 5 == b.len()`.
                        b[i / 8] |= 1 << (i % 8);
                    }
                }
                b
            }
        };
        AbsCommand {
            cell: cell.0,
            pattern: bytes,
        }
    }

    /// Unpack into the data plane's representation.
    pub fn to_pattern(&self) -> Option<[bool; 40]> {
        if self.pattern.is_empty() {
            return None;
        }
        let mut p = [false; 40];
        for (i, slot) in p.iter_mut().enumerate() {
            let byte = self.pattern.get(i / 8).copied().unwrap_or(0);
            *slot = byte & (1 << (i % 8)) != 0;
        }
        Some(p)
    }

    pub(crate) fn encode_fields(&self, w: &mut WireWriter) {
        w.uint(1, self.cell as u64 + 1);
        w.bytes_field(2, &self.pattern);
    }

    pub(crate) fn decode(data: &[u8]) -> Result<AbsCommand> {
        let mut m = AbsCommand::default();
        let mut r = WireReader::new(data);
        while let Some((f, v)) = r.next_field()? {
            match f {
                1 => m.cell = (v.as_u64()?.saturating_sub(1)) as u16,
                2 => m.pattern = v.as_bytes()?.to_vec(),
                _ => {}
            }
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{FlexranMessage, Header};
    use flexran_stack::mac::dci::{DlDci, DlSchedulingDecision};

    fn sample_decision() -> DlSchedulingDecision {
        DlSchedulingDecision {
            cell: CellId(0),
            target: Tti(1234),
            dcis: vec![
                DlDci {
                    rnti: Rnti(0x100),
                    n_prb: 25,
                    mcs: Mcs(15),
                },
                DlDci {
                    rnti: Rnti(0x101),
                    n_prb: 25,
                    mcs: Mcs(28),
                },
            ],
        }
    }

    #[test]
    fn dl_command_roundtrips_through_decision() {
        let d = sample_decision();
        let cmd = DlSchedulingCommand::from_decision(EnbId(1), &d);
        let msg = FlexranMessage::DlSchedulingCommand(cmd.clone());
        let bytes = msg.encode(Header::default());
        let (_, got) = FlexranMessage::decode(&bytes).unwrap();
        let FlexranMessage::DlSchedulingCommand(c) = got else {
            panic!("wrong variant");
        };
        assert_eq!(c, cmd);
        assert_eq!(c.to_decision(), d);
    }

    #[test]
    fn dci_wire_size_is_representative() {
        // Fig. 7b regime: <4 Mb/s at ~10 DCIs/TTI → ~30-50 B per DCI.
        let cmd = DlSchedulingCommand::from_decision(EnbId(1), &sample_decision());
        let mut w = WireWriter::new();
        cmd.encode_fields(&mut w);
        let per_dci = (w.len() as f64 - 8.0) / 2.0;
        assert!(
            (20.0..=60.0).contains(&per_dci),
            "per-DCI wire cost {per_dci} bytes"
        );
    }

    #[test]
    fn ul_command_roundtrip() {
        let d = flexran_stack::mac::dci::UlSchedulingDecision {
            cell: CellId(0),
            target: Tti(99),
            grants: vec![flexran_stack::mac::dci::UlGrant {
                rnti: Rnti(0x200),
                n_prb: 24,
                mcs: Mcs(16),
            }],
        };
        let cmd = UlSchedulingCommand::from_decision(EnbId(2), &d);
        let msg = FlexranMessage::UlSchedulingCommand(cmd);
        let bytes = msg.encode(Header::default());
        let (_, got) = FlexranMessage::decode(&bytes).unwrap();
        let FlexranMessage::UlSchedulingCommand(c) = got else {
            panic!("wrong variant");
        };
        assert_eq!(c.to_decision(), d);
    }

    #[test]
    fn abs_pattern_roundtrip() {
        let mut p = [false; 40];
        p[0] = true;
        p[7] = true;
        p[8] = true;
        p[39] = true;
        let cmd = AbsCommand::from_pattern(CellId(1), Some(p));
        let msg = FlexranMessage::AbsCommand(cmd);
        let bytes = msg.encode(Header::default());
        let (_, got) = FlexranMessage::decode(&bytes).unwrap();
        let FlexranMessage::AbsCommand(c) = got else {
            panic!("wrong variant");
        };
        assert_eq!(c.to_pattern(), Some(p));
        // Clear.
        let clear = AbsCommand::from_pattern(CellId(1), None);
        assert_eq!(clear.to_pattern(), None);
    }

    #[test]
    fn handover_and_drx_roundtrip() {
        let msg = FlexranMessage::HandoverCommand(HandoverCommand {
            cell: 0,
            rnti: 0x150,
            target_enb: 2,
            target_cell: 1,
        });
        let (_, got) = FlexranMessage::decode(&msg.encode(Header::default())).unwrap();
        assert_eq!(got, msg);

        let msg = FlexranMessage::DrxCommand(DrxCommand {
            cell: 0,
            rnti: 0x150,
            cycle_ttis: 40,
            on_duration_ttis: 8,
        });
        let (_, got) = FlexranMessage::decode(&msg.encode(Header::default())).unwrap();
        assert_eq!(got, msg);
    }

    #[test]
    fn scell_roundtrip() {
        for activate in [true, false] {
            let msg = FlexranMessage::ScellCommand(ScellCommand {
                cell: 0,
                rnti: 0x120,
                scell: 1,
                activate,
            });
            let (_, got) = FlexranMessage::decode(&msg.encode(Header::default())).unwrap();
            assert_eq!(got, msg);
        }
    }

    #[test]
    fn mcs_clamped_on_conversion() {
        let cmd = DlSchedulingCommand {
            enb_id: EnbId(1),
            cell: 0,
            target_tti: 1,
            dcis: vec![DciPb {
                rnti: 0x100,
                n_prb: 10,
                mcs: 99, // corrupt
                ..DciPb::default()
            }],
        };
        assert_eq!(cmd.to_decision().dcis[0].mcs, Mcs(28));
    }
}
