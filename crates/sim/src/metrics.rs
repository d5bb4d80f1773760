//! Measurement utilities for reproducing the paper's figures.
//!
//! * [`ThroughputMeter`] — windowed rate from a cumulative bit counter
//!   (the "Throughput (Mb/s)" axis of Figs. 6b, 9, 10, 11, 12a).
//! * [`TimeSeries`] — `(t, value)` recorder with CSV export.
//! * [`Cdf`] — empirical CDFs (Fig. 12b).

use std::collections::VecDeque;

use flexran_types::time::Tti;
use flexran_types::units::BitRate;

/// Windowed throughput from a cumulative bit counter.
#[derive(Debug, Clone)]
pub struct ThroughputMeter {
    window_ms: u64,
    samples: VecDeque<(Tti, u64)>,
}

impl ThroughputMeter {
    pub fn new(window_ms: u64) -> Self {
        ThroughputMeter {
            window_ms: window_ms.max(1),
            samples: VecDeque::new(),
        }
    }

    /// Record the cumulative counter value at `tti`.
    pub fn record(&mut self, tti: Tti, cumulative_bits: u64) {
        self.samples.push_back((tti, cumulative_bits));
        while let Some(&(t0, _)) = self.samples.front() {
            if tti.saturating_since(t0) > self.window_ms {
                self.samples.pop_front();
            } else {
                break;
            }
        }
    }

    /// Average rate over the retained window.
    pub fn rate(&self) -> BitRate {
        let (Some(&(t0, b0)), Some(&(t1, b1))) = (self.samples.front(), self.samples.back()) else {
            return BitRate::ZERO;
        };
        let dt = t1.saturating_since(t0);
        if dt == 0 {
            return BitRate::ZERO;
        }
        BitRate((b1.saturating_sub(b0)) * 1000 / dt)
    }
}

/// A `(seconds, value)` time series with CSV export.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    pub name: String,
    pub points: Vec<(f64, f64)>,
}

impl TimeSeries {
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    pub fn push(&mut self, t_s: f64, value: f64) {
        self.points.push((t_s, value));
    }

    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|p| p.1)
    }

    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|p| p.1).sum::<f64>() / self.points.len() as f64
    }

    pub fn max(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.1)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// CSV rows `t,value` (no header).
    pub fn to_csv(&self) -> String {
        let mut s = String::with_capacity(self.points.len() * 16);
        for (t, v) in &self.points {
            s.push_str(&format!("{t:.3},{v:.6}\n"));
        }
        s
    }
}

/// Merge several series into one CSV with a shared time column (rows are
/// the union of time points; missing values are left empty).
pub fn merged_csv(series: &[&TimeSeries]) -> String {
    let mut times: Vec<f64> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.0))
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("no NaN times"));
    times.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
    let mut out = String::from("t");
    for s in series {
        out.push(',');
        out.push_str(&s.name);
    }
    out.push('\n');
    for t in times {
        out.push_str(&format!("{t:.3}"));
        for s in series {
            match s
                .points
                .iter()
                .find(|p| (p.0 - t).abs() < 1e-9)
                .map(|p| p.1)
            {
                Some(v) => out.push_str(&format!(",{v:.6}")),
                None => out.push(','),
            }
        }
        out.push('\n');
    }
    out
}

/// An empirical CDF.
#[derive(Debug, Clone, Default)]
pub struct Cdf {
    values: Vec<f64>,
}

impl Cdf {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// `(value, P[X <= value])` points, sorted.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let mut v = self.values.clone();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
        let n = v.len() as f64;
        v.into_iter()
            .enumerate()
            .map(|(i, x)| (x, (i + 1) as f64 / n))
            .collect()
    }

    /// The `q`-quantile (0..=1).
    pub fn quantile(&self, q: f64) -> f64 {
        let pts = self.points();
        if pts.is_empty() {
            return 0.0;
        }
        let idx = ((q.clamp(0.0, 1.0) * (pts.len() - 1) as f64).floor()) as usize;
        pts[idx].0
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_meter_windows() {
        let mut m = ThroughputMeter::new(1000);
        // 1000 bits per TTI = 1 Mb/s.
        for t in 0..2000u64 {
            m.record(Tti(t), t * 1000);
        }
        let r = m.rate();
        assert!((r.as_mbps_f64() - 1.0).abs() < 0.01, "{r}");
    }

    #[test]
    fn throughput_meter_reacts_to_rate_change() {
        let mut m = ThroughputMeter::new(500);
        let mut bits = 0u64;
        for t in 0..1000u64 {
            bits += 1000;
            m.record(Tti(t), bits);
        }
        for t in 1000..2000u64 {
            bits += 4000;
            m.record(Tti(t), bits);
        }
        assert!((m.rate().as_mbps_f64() - 4.0).abs() < 0.05);
    }

    #[test]
    fn empty_meter_is_zero() {
        let m = ThroughputMeter::new(100);
        assert_eq!(m.rate(), BitRate::ZERO);
    }

    #[test]
    fn cdf_points_and_quantiles() {
        let mut c = Cdf::new();
        for v in [3.0, 1.0, 2.0, 4.0] {
            c.push(v);
        }
        let pts = c.points();
        assert_eq!(pts[0], (1.0, 0.25));
        assert_eq!(pts[3], (4.0, 1.0));
        assert_eq!(c.median(), 2.0);
        assert_eq!(c.quantile(1.0), 4.0);
    }

    #[test]
    fn timeseries_stats_and_csv() {
        let mut s = TimeSeries::new("x");
        s.push(0.0, 1.0);
        s.push(1.0, 3.0);
        assert_eq!(s.mean(), 2.0);
        assert_eq!(s.max(), 3.0);
        assert_eq!(s.last(), Some(3.0));
        let csv = s.to_csv();
        assert!(csv.starts_with("0.000,1.000000\n"));
    }

    #[test]
    fn merged_csv_aligns_series() {
        let mut a = TimeSeries::new("a");
        a.push(0.0, 1.0);
        a.push(1.0, 2.0);
        let mut b = TimeSeries::new("b");
        b.push(1.0, 9.0);
        let csv = merged_csv(&[&a, &b]);
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines[0], "t,a,b");
        assert!(lines[1].starts_with("0.000,1.000000,"));
        assert!(lines[2].contains("9.000000"));
    }
}
