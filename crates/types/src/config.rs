//! Cell, eNodeB and UE configuration records.
//!
//! These are the objects returned and accepted by the *Configuration* call
//! type of the FlexRAN Agent API (paper Table 1): eNodeB id, number of
//! cells, cell id, UL/DL bandwidth, number of antenna ports, RNTIs,
//! UE transmission mode, and so on.

use crate::ids::{CellId, EnbId, Rnti, SliceId};
use crate::units::Dbm;

/// LTE channel bandwidth. Each bandwidth fixes the number of physical
/// resource blocks (PRBs) available per subframe (3GPP TS 36.101 §5.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Bandwidth {
    Mhz1_4,
    Mhz3,
    Mhz5,
    /// The paper's experiments all use 10 MHz (50 PRB) in band 5.
    #[default]
    Mhz10,
    Mhz15,
    Mhz20,
}

impl Bandwidth {
    /// Number of PRBs per subframe for this bandwidth.
    pub fn n_prb(self) -> u8 {
        match self {
            Bandwidth::Mhz1_4 => 6,
            Bandwidth::Mhz3 => 15,
            Bandwidth::Mhz5 => 25,
            Bandwidth::Mhz10 => 50,
            Bandwidth::Mhz15 => 75,
            Bandwidth::Mhz20 => 100,
        }
    }

    /// Parse from a PRB count (the representation used on the wire).
    pub fn from_n_prb(n: u8) -> crate::Result<Self> {
        Ok(match n {
            6 => Bandwidth::Mhz1_4,
            15 => Bandwidth::Mhz3,
            25 => Bandwidth::Mhz5,
            50 => Bandwidth::Mhz10,
            75 => Bandwidth::Mhz15,
            100 => Bandwidth::Mhz20,
            other => {
                return Err(crate::FlexError::InvalidConfig(format!(
                    "{other} PRBs is not a valid LTE bandwidth"
                )))
            }
        })
    }
}

/// Frame structure type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DuplexMode {
    /// Frequency-division duplex (frame structure type 1) — used by all
    /// experiments in the paper.
    #[default]
    Fdd,
    /// Time-division duplex (frame structure type 2). Modeled for
    /// configuration completeness; the scheduler substrate is FDD.
    Tdd,
}

/// Downlink transmission mode (TS 36.213 §7.1). The paper uses TM1
/// (single antenna port).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransmissionMode(pub u8);

impl Default for TransmissionMode {
    fn default() -> Self {
        TransmissionMode(1)
    }
}

impl TransmissionMode {
    pub fn new(tm: u8) -> crate::Result<Self> {
        if (1..=10).contains(&tm) {
            Ok(TransmissionMode(tm))
        } else {
            Err(crate::FlexError::InvalidConfig(format!(
                "transmission mode {tm} outside 1..=10"
            )))
        }
    }
}

/// Static configuration of one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellConfig {
    pub cell_id: CellId,
    /// E-UTRA operating band (the paper uses band 5).
    pub band: u16,
    pub duplex: DuplexMode,
    pub dl_bandwidth: Bandwidth,
    pub ul_bandwidth: Bandwidth,
    /// Number of cell-specific antenna ports (1, 2 or 4).
    pub n_antenna_ports: u8,
    /// Reference-signal transmit power.
    pub tx_power: Dbm,
    /// Number of OFDM symbols reserved for PDCCH per subframe (1..=3).
    /// Determines both the control-channel element budget (how many UEs
    /// can be scheduled per TTI) and the data-region overhead.
    pub pdcch_symbols: u8,
    /// Maximum number of downlink DCIs (scheduled UEs) per TTI. Physically
    /// bounded by the CCE budget implied by `pdcch_symbols`.
    pub max_dl_dcis_per_tti: u8,
    /// Maximum number of uplink grants per TTI.
    pub max_ul_grants_per_tti: u8,
}

impl CellConfig {
    /// The configuration used throughout the paper's evaluation: FDD,
    /// transmission mode 1, 10 MHz in band 5.
    pub fn paper_default(cell_id: CellId) -> Self {
        CellConfig {
            cell_id,
            band: 5,
            duplex: DuplexMode::Fdd,
            dl_bandwidth: Bandwidth::Mhz10,
            ul_bandwidth: Bandwidth::Mhz10,
            n_antenna_ports: 1,
            tx_power: Dbm(43.0),
            pdcch_symbols: 3,
            // ~10 candidate CCE positions at aggregation level suitable for
            // mid-range SINR in a 50-PRB cell: cap of 10 DL assignments.
            max_dl_dcis_per_tti: 10,
            max_ul_grants_per_tti: 8,
        }
    }

    /// A small-cell variant: lower power, same bandwidth.
    pub fn small_cell(cell_id: CellId) -> Self {
        CellConfig {
            tx_power: Dbm(30.0),
            ..Self::paper_default(cell_id)
        }
    }

    /// Validate invariants that the wire protocol cannot express.
    pub fn validate(&self) -> crate::Result<()> {
        if !(1..=3).contains(&self.pdcch_symbols) {
            // lint:allow(alloc-reach) error path — validation runs at (re)configuration
            return Err(crate::FlexError::InvalidConfig(format!(
                "pdcch_symbols {} outside 1..=3",
                self.pdcch_symbols
            )));
        }
        if ![1, 2, 4].contains(&self.n_antenna_ports) {
            // lint:allow(alloc-reach) error path — validation runs at (re)configuration
            return Err(crate::FlexError::InvalidConfig(format!(
                "{} antenna ports (must be 1, 2 or 4)",
                self.n_antenna_ports
            )));
        }
        if self.max_dl_dcis_per_tti == 0 || self.max_ul_grants_per_tti == 0 {
            return Err(crate::FlexError::InvalidConfig(
                "DCI/grant budgets must be non-zero".into(),
            ));
        }
        Ok(())
    }
}

/// Static configuration of one eNodeB (one FlexRAN agent).
#[derive(Debug, Clone, PartialEq)]
pub struct EnbConfig {
    pub enb_id: EnbId,
    pub cells: Vec<CellConfig>,
}

impl EnbConfig {
    /// Single-cell eNodeB with the paper's default cell configuration.
    pub fn single_cell(enb_id: EnbId) -> Self {
        EnbConfig {
            enb_id,
            cells: vec![CellConfig::paper_default(CellId(0))],
        }
    }

    pub fn validate(&self) -> crate::Result<()> {
        if self.cells.is_empty() {
            return Err(crate::FlexError::InvalidConfig(
                "eNodeB must serve at least one cell".into(),
            ));
        }
        // lint:allow(alloc-reach) validation runs at (re)configuration, not per TTI
        let mut seen = std::collections::BTreeSet::new();
        for c in &self.cells {
            c.validate()?;
            if !seen.insert(c.cell_id) {
                // lint:allow(alloc-reach) error path — validation runs at (re)configuration
                return Err(crate::FlexError::InvalidConfig(format!(
                    "duplicate cell id {}",
                    c.cell_id
                )));
            }
        }
        Ok(())
    }
}

/// Per-UE configuration visible to the control plane.
#[derive(Debug, Clone, PartialEq)]
pub struct UeConfig {
    pub rnti: Rnti,
    /// Serving (primary) cell.
    pub pcell: CellId,
    pub transmission_mode: TransmissionMode,
    /// Slice the UE's subscription belongs to (RAN sharing use case).
    pub slice: SliceId,
    /// UE category caps the transport block sizes it can receive; category
    /// 4 (150 Mb/s class) covers every experiment in the paper.
    pub ue_category: u8,
    /// Aggregate maximum bitrate for the UE's non-GBR bearers, if policed.
    pub ambr_dl: Option<crate::units::BitRate>,
}

impl UeConfig {
    pub fn new(rnti: Rnti, pcell: CellId) -> Self {
        UeConfig {
            rnti,
            pcell,
            transmission_mode: TransmissionMode::default(),
            slice: SliceId::MNO,
            ue_category: 4,
            ambr_dl: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_prb_mapping_is_bijective() {
        for bw in [
            Bandwidth::Mhz1_4,
            Bandwidth::Mhz3,
            Bandwidth::Mhz5,
            Bandwidth::Mhz10,
            Bandwidth::Mhz15,
            Bandwidth::Mhz20,
        ] {
            assert_eq!(Bandwidth::from_n_prb(bw.n_prb()).unwrap(), bw);
        }
        assert!(Bandwidth::from_n_prb(42).is_err());
    }

    #[test]
    fn paper_default_is_valid_and_matches_testbed() {
        let c = CellConfig::paper_default(CellId(0));
        c.validate().unwrap();
        assert_eq!(c.dl_bandwidth.n_prb(), 50);
        assert_eq!(c.band, 5);
        assert_eq!(c.duplex, DuplexMode::Fdd);
        assert_eq!(c.n_antenna_ports, 1);
    }

    #[test]
    fn cell_validation_rejects_bad_values() {
        let mut c = CellConfig::paper_default(CellId(0));
        c.pdcch_symbols = 0;
        assert!(c.validate().is_err());
        let mut c = CellConfig::paper_default(CellId(0));
        c.n_antenna_ports = 3;
        assert!(c.validate().is_err());
        let mut c = CellConfig::paper_default(CellId(0));
        c.max_dl_dcis_per_tti = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn enb_validation_rejects_duplicates_and_empty() {
        let mut e = EnbConfig::single_cell(EnbId(1));
        e.cells.push(CellConfig::paper_default(CellId(0)));
        assert!(e.validate().is_err());
        let e = EnbConfig {
            enb_id: EnbId(1),
            cells: vec![],
        };
        assert!(e.validate().is_err());
    }

    #[test]
    fn transmission_mode_range() {
        assert!(TransmissionMode::new(0).is_err());
        assert!(TransmissionMode::new(1).is_ok());
        assert!(TransmissionMode::new(10).is_ok());
        assert!(TransmissionMode::new(11).is_err());
    }

    #[test]
    fn small_cell_has_lower_power() {
        let macro_ = CellConfig::paper_default(CellId(0));
        let small = CellConfig::small_cell(CellId(1));
        assert!(small.tx_power.0 < macro_.tx_power.0);
        small.validate().unwrap();
    }
}
