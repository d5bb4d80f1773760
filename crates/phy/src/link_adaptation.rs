//! Link adaptation: SINR → CQI reporting and CQI → MCS selection.
//!
//! The scheduler's modulation-and-coding-scheme choice is central to two of
//! the paper's experiments: the control-channel-latency study (Fig. 9),
//! where stale CQI in the RIB leads to "wrong scheduling decisions (e.g.
//! due to a bad modulation and coding scheme choice)", and the MEC use
//! case, where CQI determines "the highest achievable throughput" of a UE.

use crate::tables::{efficiency_for_itbs, itbs_for_mcs, tbs_bits_for_mcs, CQI_TABLE, MAX_MCS};

/// A wideband channel quality indicator, 0..=15.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cqi(pub u8);

impl Cqi {
    pub const OUT_OF_RANGE: Cqi = Cqi(0);
    pub const MAX: Cqi = Cqi(15);

    /// Construct with range clamping (reports are 4-bit fields).
    pub fn new_clamped(v: u8) -> Self {
        Cqi(v.min(15))
    }

    /// Row of the 16-entry CQI-indexed tables (values past 15 read as 15).
    const fn table_index(self) -> usize {
        if self.0 > 15 {
            15
        } else {
            self.0 as usize
        }
    }

    /// The spectral efficiency this CQI reports as sustainable.
    pub fn efficiency(self) -> f64 {
        CQI_TABLE[self.0 as usize].efficiency
    }
}

/// A PDSCH modulation-and-coding-scheme index, 0..=28.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Mcs(pub u8);

impl Mcs {
    pub const MIN: Mcs = Mcs(0);
    pub const MAX: Mcs = Mcs(MAX_MCS);

    pub fn new_clamped(v: u8) -> Self {
        Mcs(v.min(MAX_MCS))
    }

    /// The spectral efficiency the transport blocks of this MCS carry.
    pub fn efficiency(self) -> f64 {
        efficiency_for_itbs(itbs_for_mcs(self.0))
    }
}

/// SINR (dB) at which a UE would report each CQI, i.e. the ~10 % BLER
/// operating point of the CQI's modulation and code rate.
///
/// The spacing (~1.9 dB per CQI step across the table) follows the widely
/// used link-level calibration for AWGN channels.
const CQI_SINR_THRESHOLDS_DB: [f64; 16] = [
    f64::NEG_INFINITY, // CQI 0: below CQI 1's threshold
    -6.7,              // CQI 1
    -4.7,              // CQI 2
    -2.3,              // CQI 3
    0.2,               // CQI 4
    2.4,               // CQI 5
    4.3,               // CQI 6
    5.9,               // CQI 7
    8.1,               // CQI 8
    10.3,              // CQI 9
    11.7,              // CQI 10
    14.1,              // CQI 11
    16.3,              // CQI 12
    18.7,              // CQI 13
    21.0,              // CQI 14
    22.7,              // CQI 15
];

/// Minimum SINR (dB) at which `cqi` would be reported.
pub const fn sinr_threshold_for_cqi(cqi: Cqi) -> f64 {
    CQI_SINR_THRESHOLDS_DB[cqi.table_index()]
}

/// The CQI a UE reports for a measured SINR: the highest CQI whose
/// threshold the SINR meets.
pub fn cqi_from_sinr(sinr_db: f64) -> Cqi {
    let mut cqi = 0u8;
    for (i, thr) in CQI_SINR_THRESHOLDS_DB.iter().enumerate().skip(1) {
        if sinr_db >= *thr {
            cqi = i as u8;
        } else {
            break;
        }
    }
    Cqi(cqi)
}

/// Representative SINR (dB) for a reported CQI — the midpoint of the CQI's
/// SINR bin. Used when a channel process is specified directly in CQI terms
/// (e.g. the MEC experiment's emulated CQI fluctuations).
pub fn sinr_for_cqi(cqi: Cqi) -> f64 {
    let c = cqi.0.min(15) as usize;
    if c == 0 {
        return CQI_SINR_THRESHOLDS_DB[1] - 3.0;
    }
    if c == 15 {
        // Comfortably above the top threshold.
        return CQI_SINR_THRESHOLDS_DB[15] + 3.0;
    }
    (CQI_SINR_THRESHOLDS_DB[c] + CQI_SINR_THRESHOLDS_DB[c + 1]) / 2.0
}

/// SINR (dB) at which each MCS hits the ~10 % BLER operating point.
///
/// Spread linearly over the CQI table's SINR span (CQI 1's −6.7 dB at
/// MCS 0 up to CQI 15's 22.7 dB at MCS 28, ≈1.05 dB per MCS step), the
/// usual AWGN link-level calibration.
pub const fn mcs_operating_sinr_db(mcs: Mcs) -> f64 {
    let lo = CQI_SINR_THRESHOLDS_DB[1];
    let hi = CQI_SINR_THRESHOLDS_DB[15];
    let m = if mcs.0 > MAX_MCS { MAX_MCS } else { mcs.0 };
    lo + (hi - lo) * m as f64 / MAX_MCS as f64
}

/// The link-adaptation rule itself: the highest MCS whose operating point
/// is no worse than the SINR the CQI attests to. Evaluated at compile
/// time to fill [`MCS_FOR_CQI`]; nothing calls it per TTI.
const fn scan_mcs_for_cqi(cqi: Cqi) -> Mcs {
    if cqi.0 == 0 {
        return Mcs(0);
    }
    let attested = sinr_threshold_for_cqi(cqi);
    let mut best = 0;
    let mut m = 0;
    while m <= MAX_MCS && mcs_operating_sinr_db(Mcs(m)) <= attested + 1e-9 {
        best = m;
        m += 1;
    }
    Mcs(best)
}

/// [`scan_mcs_for_cqi`] for every CQI.
const MCS_FOR_CQI: [Mcs; 16] = {
    let mut table = [Mcs(0); 16];
    let mut c = 0;
    while c < 16 {
        table[c] = scan_mcs_for_cqi(Cqi(c as u8));
        c += 1;
    }
    table
};

/// Transport-block bits of a full 50-PRB (10 MHz) subframe at each CQI's
/// MCS — the achievable-rate numerator of the proportional-fair metric.
const FULL_BAND_TBS_BITS: [u32; 16] = {
    let mut table = [0; 16];
    let mut c = 0;
    while c < 16 {
        table[c] = tbs_bits_for_mcs(MCS_FOR_CQI[c].0, 50);
        c += 1;
    }
    table
};

/// The MCS a scheduler selects for a reported CQI: the highest MCS whose
/// operating point is no worse than the SINR the CQI attests to (the
/// standard outer-loop-free link adaptation rule). A block scheduled this
/// way is decodable at ≤ the target BLER when the report is fresh.
pub fn mcs_for_cqi(cqi: Cqi) -> Mcs {
    MCS_FOR_CQI[cqi.table_index()]
}

/// Bits one subframe carries at `cqi`'s MCS over the full 50-PRB band:
/// `tbs_bits_for_mcs(mcs_for_cqi(cqi).0, 50)` as a lookup.
pub fn full_band_tbs_bits(cqi: Cqi) -> u32 {
    FULL_BAND_TBS_BITS[cqi.table_index()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cqi_from_sinr_monotonic() {
        let mut prev = Cqi(0);
        let mut s = -10.0;
        while s < 30.0 {
            let c = cqi_from_sinr(s);
            assert!(c >= prev, "CQI decreased at {s} dB");
            prev = c;
            s += 0.25;
        }
        assert_eq!(prev, Cqi(15));
    }

    #[test]
    fn cqi_sinr_roundtrip() {
        for c in 1..=15u8 {
            let cqi = Cqi(c);
            assert_eq!(cqi_from_sinr(sinr_for_cqi(cqi)), cqi, "CQI {c}");
        }
    }

    #[test]
    fn out_of_range_below_first_threshold() {
        assert_eq!(cqi_from_sinr(-7.0), Cqi(0));
        assert_eq!(cqi_from_sinr(-6.7), Cqi(1));
    }

    #[test]
    fn mcs_for_cqi_monotonic_and_bounded() {
        let mut prev = Mcs(0);
        for c in 1..=15u8 {
            let m = mcs_for_cqi(Cqi(c));
            assert!(m >= prev);
            prev = m;
        }
        assert_eq!(mcs_for_cqi(Cqi(15)), Mcs::MAX);
        assert_eq!(mcs_for_cqi(Cqi(0)), Mcs(0));
        assert_eq!(mcs_for_cqi(Cqi(1)), Mcs(0));
    }

    #[test]
    fn cqi_tables_match_the_scan_for_every_u8() {
        for c in 0..=255u8 {
            let mcs = scan_mcs_for_cqi(Cqi(c));
            assert_eq!(mcs_for_cqi(Cqi(c)), mcs, "CQI {c}");
            assert_eq!(
                full_band_tbs_bits(Cqi(c)),
                tbs_bits_for_mcs(mcs.0, 50),
                "CQI {c}"
            );
        }
    }

    #[test]
    fn mcs_operating_point_never_exceeds_attested_sinr() {
        // The link-adaptation invariant: a block scheduled per the rule is
        // decodable at the SINR the report attests to.
        for c in 1..=15u8 {
            let m = mcs_for_cqi(Cqi(c));
            assert!(
                mcs_operating_sinr_db(m) <= sinr_threshold_for_cqi(Cqi(c)) + 1e-9,
                "CQI {c}"
            );
        }
    }

    #[test]
    fn mcs_operating_sinr_spans_cqi_range() {
        assert!((mcs_operating_sinr_db(Mcs(0)) - (-6.7)).abs() < 1e-9);
        assert!((mcs_operating_sinr_db(Mcs(28)) - 22.7).abs() < 1e-9);
        for m in 0..28u8 {
            assert!(mcs_operating_sinr_db(Mcs(m + 1)) > mcs_operating_sinr_db(Mcs(m)));
        }
    }

    #[test]
    fn clamping() {
        assert_eq!(Cqi::new_clamped(99), Cqi(15));
        assert_eq!(Mcs::new_clamped(99), Mcs(28));
    }
}
