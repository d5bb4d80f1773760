//! Sample estimators: nearest-rank percentiles and the windowed
//! statistics every timing metric is reported with.
//!
//! A run's samples are cut into consecutive windows of a fixed sample
//! count; each window yields its own mean, p50 and p99, and the run
//! reports the *lower decile over windows* of each. The box is shared:
//! other tenants only ever add time, for seconds at a stretch, so windows
//! differ by how much they were disturbed and the least disturbed ones
//! say what the program costs. (Measured here: over ten seeds the median
//! over windows of the window p99 spreads by 13 %, its lower decile by
//! 4.6 %; for the window median 1.7 % against 0.6 %.) The decile, not the
//! minimum, so that one freak window decides nothing. Memory is one
//! window, whatever the run length, so `peak_rss_mb` does not depend on
//! how many TTIs fit into the measured seconds.

/// Samples per window. p99 of 2 000 samples leaves 20 samples beyond it.
pub const WINDOW: usize = 2_000;

/// Nearest-rank percentile (`q` in 0..=1) of an ascending slice: the
/// smallest sample with at least `q·n` samples at or below it.
pub fn percentile_sorted(sorted: &[u32], q: f64) -> u32 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a list (mean of the two middle values for even counts);
/// 0 for an empty list.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank 10th percentile of a list; 0 for an empty list.
pub fn lower_decile(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[(v.len() as f64 * 0.1).ceil() as usize - 1]
}

/// Online windowed estimator over nanosecond samples.
pub struct WindowEstimator {
    window: usize,
    buf: Vec<u32>,
    p50s: Vec<f64>,
    p99s: Vec<f64>,
    means: Vec<f64>,
    win_sum: u64,
    count: u64,
    sum_ns: u64,
}

impl WindowEstimator {
    pub fn new(window: usize) -> Self {
        WindowEstimator {
            window: window.max(1),
            buf: Vec::with_capacity(window.max(1)),
            // Room for an hour of 1 ms TTIs: never reallocates in a run.
            p50s: Vec::with_capacity(2_048),
            p99s: Vec::with_capacity(2_048),
            means: Vec::with_capacity(2_048),
            win_sum: 0,
            count: 0,
            sum_ns: 0,
        }
    }

    pub fn push(&mut self, ns: u64) {
        self.count += 1;
        self.sum_ns += ns;
        self.buf.push(ns.min(u32::MAX as u64) as u32);
        self.win_sum += ns;
        if self.buf.len() == self.window {
            self.means.push(self.win_sum as f64 / self.window as f64);
            self.win_sum = 0;
            self.buf.sort_unstable();
            self.p50s.push(percentile_sorted(&self.buf, 0.50) as f64);
            self.p99s.push(percentile_sorted(&self.buf, 0.99) as f64);
            self.buf.clear();
        }
    }

    /// Samples pushed, including those of an unfinished last window.
    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Completed windows (an unfinished last window is not reported).
    pub fn windows(&self) -> usize {
        self.p50s.len()
    }

    /// Lower decile over windows of the window median, ns. Falls back to
    /// the unfinished window when no window completed.
    pub fn p50_ns(&self) -> f64 {
        if self.p50s.is_empty() {
            return self.partial(0.50);
        }
        lower_decile(&self.p50s)
    }

    /// Lower decile over windows of the window p99, ns.
    pub fn p99w_ns(&self) -> f64 {
        if self.p99s.is_empty() {
            return self.partial(0.99);
        }
        lower_decile(&self.p99s)
    }

    /// Lower decile over windows of the window mean, ns.
    pub fn mean_w_ns(&self) -> f64 {
        if self.means.is_empty() {
            return self.mean_ns();
        }
        lower_decile(&self.means)
    }

    fn partial(&self, q: f64) -> f64 {
        let mut b = self.buf.clone();
        b.sort_unstable();
        percentile_sorted(&b, q) as f64
    }
}
