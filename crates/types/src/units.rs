//! Unit-bearing numeric types.
//!
//! Throughput figures, buffer sizes and radio power levels flow through
//! every layer of the platform; giving them distinct types prevents the
//! classic bits-vs-bytes and dB-vs-linear mix-ups.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A data rate in bits per second.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct BitRate(pub u64);

impl BitRate {
    pub const ZERO: BitRate = BitRate(0);

    pub const fn from_bps(bps: u64) -> Self {
        BitRate(bps)
    }

    pub const fn from_kbps(kbps: u64) -> Self {
        BitRate(kbps * 1_000)
    }

    pub const fn from_mbps(mbps: u64) -> Self {
        BitRate(mbps * 1_000_000)
    }

    /// Construct from a fractional Mb/s figure (e.g. the 7.3 Mb/s DASH
    /// representation bitrate in the paper's Table 2).
    pub fn from_mbps_f64(mbps: f64) -> Self {
        BitRate((mbps * 1e6).round() as u64)
    }

    pub fn as_bps(self) -> u64 {
        self.0
    }

    pub fn as_kbps_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    pub fn as_mbps_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Bits transferred over `millis` milliseconds at this rate.
    pub fn bits_in_ms(self, millis: u64) -> u64 {
        // Split to avoid overflow for large rates × long windows.
        (self.0 / 1000) * millis + (self.0 % 1000) * millis / 1000
    }
}

impl Add for BitRate {
    type Output = BitRate;
    fn add(self, rhs: BitRate) -> BitRate {
        BitRate(self.0 + rhs.0)
    }
}

impl AddAssign for BitRate {
    fn add_assign(&mut self, rhs: BitRate) {
        self.0 += rhs.0;
    }
}

impl Sub for BitRate {
    type Output = BitRate;
    fn sub(self, rhs: BitRate) -> BitRate {
        BitRate(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<f64> for BitRate {
    type Output = BitRate;
    fn mul(self, rhs: f64) -> BitRate {
        BitRate((self.0 as f64 * rhs).round() as u64)
    }
}

impl Div<u64> for BitRate {
    type Output = BitRate;
    fn div(self, rhs: u64) -> BitRate {
        BitRate(self.0 / rhs)
    }
}

impl Sum for BitRate {
    fn sum<I: Iterator<Item = BitRate>>(iter: I) -> BitRate {
        BitRate(iter.map(|r| r.0).sum())
    }
}

impl fmt::Display for BitRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.2} Mb/s", self.as_mbps_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.1} kb/s", self.as_kbps_f64())
        } else {
            write!(f, "{} b/s", self.0)
        }
    }
}

/// A byte count (buffer occupancies, message sizes, transferred volumes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Bytes(pub u64);

impl Bytes {
    pub const ZERO: Bytes = Bytes(0);

    pub const fn new(n: u64) -> Self {
        Bytes(n)
    }

    pub fn as_u64(self) -> u64 {
        self.0
    }

    pub fn bits(self) -> u64 {
        self.0 * 8
    }

    /// Bytes needed to carry `bits` (rounded up).
    pub fn from_bits_ceil(bits: u64) -> Self {
        Bytes(bits.div_ceil(8))
    }

    pub fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }

    pub fn min(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.min(rhs.0))
    }

    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        Bytes(iter.map(|b| b.0).sum())
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1 << 20 {
            write!(f, "{:.2} MiB", self.0 as f64 / (1 << 20) as f64)
        } else if self.0 >= 1 << 10 {
            write!(f, "{:.1} KiB", self.0 as f64 / 1024.0)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

/// A relative power ratio in decibels.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Db(pub f64);

impl Db {
    pub fn new(db: f64) -> Self {
        Db(db)
    }

    /// Linear power ratio.
    pub fn to_linear(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }

    /// From a linear power ratio.
    pub fn from_linear(lin: f64) -> Self {
        Db(10.0 * lin.log10())
    }
}

impl Add for Db {
    type Output = Db;
    fn add(self, rhs: Db) -> Db {
        Db(self.0 + rhs.0)
    }
}

impl Sub for Db {
    type Output = Db;
    fn sub(self, rhs: Db) -> Db {
        Db(self.0 - rhs.0)
    }
}

impl fmt::Display for Db {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} dB", self.0)
    }
}

/// An absolute power level in dBm.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Dbm(pub f64);

impl Dbm {
    pub fn new(dbm: f64) -> Self {
        Dbm(dbm)
    }

    /// Power in milliwatts.
    pub fn to_mw(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }
}

impl Add<Db> for Dbm {
    type Output = Dbm;
    fn add(self, rhs: Db) -> Dbm {
        Dbm(self.0 + rhs.0)
    }
}

impl Sub<Db> for Dbm {
    type Output = Dbm;
    fn sub(self, rhs: Db) -> Dbm {
        Dbm(self.0 - rhs.0)
    }
}

impl Sub<Dbm> for Dbm {
    type Output = Db;
    fn sub(self, rhs: Dbm) -> Db {
        Db(self.0 - rhs.0)
    }
}

impl fmt::Display for Dbm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} dBm", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitrate_conversions() {
        assert_eq!(BitRate::from_mbps(25).as_bps(), 25_000_000);
        assert_eq!(BitRate::from_kbps(380).as_kbps_f64(), 380.0);
        assert_eq!(BitRate::from_mbps_f64(7.3).as_mbps_f64(), 7.3);
    }

    #[test]
    fn bitrate_bits_in_ms_no_overflow() {
        // 100 Mb/s over an hour.
        let r = BitRate::from_mbps(100);
        assert_eq!(r.bits_in_ms(3_600_000), 360_000_000_000);
        // Sub-kb/s rates still accumulate.
        assert_eq!(BitRate(500).bits_in_ms(2000), 1000);
    }

    #[test]
    fn bitrate_display_scales() {
        assert_eq!(BitRate::from_mbps(25).to_string(), "25.00 Mb/s");
        assert_eq!(BitRate::from_kbps(380).to_string(), "380.0 kb/s");
        assert_eq!(BitRate(12).to_string(), "12 b/s");
    }

    #[test]
    fn bytes_bits_roundtrip() {
        assert_eq!(Bytes(100).bits(), 800);
        assert_eq!(Bytes::from_bits_ceil(9), Bytes(2));
        assert_eq!(Bytes::from_bits_ceil(16), Bytes(2));
    }

    #[test]
    fn db_linear_roundtrip() {
        let x = Db(3.0);
        assert!((x.to_linear() - 1.9953).abs() < 1e-3);
        let back = Db::from_linear(x.to_linear());
        assert!((back.0 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn dbm_arithmetic() {
        let tx = Dbm(23.0);
        let pl = Db(100.0);
        let rx = tx - pl;
        assert!((rx.0 - (-77.0)).abs() < 1e-9);
        assert!(((tx - rx).0 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn sums() {
        let total: BitRate = [BitRate(1), BitRate(2), BitRate(3)].into_iter().sum();
        assert_eq!(total, BitRate(6));
        let total: Bytes = [Bytes(10), Bytes(20)].into_iter().sum();
        assert_eq!(total, Bytes(30));
    }
}
