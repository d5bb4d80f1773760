//! TTI deadline budget accounting.
//!
//! The control loop must keep pace with the 1 ms LTE subframe (paper
//! §5.2): a master cycle that overruns its subframe delays every command
//! it would have issued. [`TtiBudget`] makes that budget a continuously
//! measured quantity instead of an assumption: each cycle's wall-clock
//! duration is recorded into a fixed log-bucketed histogram (no
//! allocation, O(1) per record) from which p50/p95/p99/worst-case
//! latency and an over-budget counter are derived.
//!
//! The histogram is *observability only*: readings come from the wall
//! clock and therefore differ run to run. Nothing that feeds back into
//! scheduling may branch on these numbers — the determinism contracts
//! (serial ≡ sharded, and the pinned digests) hold because budget state
//! never influences control decisions.

/// Sub-buckets per power of two. 16 keeps the relative quantization
/// error below ~6% while the whole histogram stays under 4 KiB.
const SUB: usize = 16;
/// Smallest resolved magnitude: values below `2^MIN_POW` ns share the
/// linear bottom buckets.
const MIN_POW: u32 = 4;
/// Largest resolved magnitude: `2^MAX_POW` ns ≈ 17.6 s per TTI — far
/// beyond any survivable overrun; larger values clamp into the top
/// bucket.
const MAX_POW: u32 = 44;
const BUCKETS: usize = (MAX_POW - MIN_POW) as usize * SUB + SUB;

/// Default budget: one LTE subframe.
pub const DEFAULT_TTI_BUDGET_NS: u64 = 1_000_000;

/// Fixed-size latency histogram tracking wall time against a TTI budget.
#[derive(Debug, Clone)]
pub struct TtiBudget {
    budget_ns: u64,
    counts: [u64; BUCKETS],
    recorded: u64,
    over_budget: u64,
    worst_ns: u64,
    total_ns: u64,
}

impl Default for TtiBudget {
    fn default() -> Self {
        Self::new(DEFAULT_TTI_BUDGET_NS)
    }
}

/// Bucket index for a nanosecond reading (monotonic in `ns`): a linear
/// bottom below `2^MIN_POW`, then one octave per power of two with the
/// top `log2(SUB)` mantissa bits selecting the sub-bucket.
fn bucket_of(ns: u64) -> usize {
    if ns < (1 << MIN_POW) {
        (ns as usize * SUB) >> MIN_POW
    } else {
        let pow = (63 - ns.leading_zeros()).min(MAX_POW - 1); // floor(log2)
        let sub = ((ns >> (pow - 4)) as usize) & (SUB - 1);
        SUB + (pow - MIN_POW) as usize * SUB + sub
    }
}

/// Upper edge (inclusive) of a bucket — what percentiles report. Using
/// the edge rather than a midpoint makes the estimate conservative: a
/// reported p99 is never below the true p99's bucket.
fn bucket_edge(idx: usize) -> u64 {
    if idx < SUB {
        (((idx + 1) << MIN_POW) / SUB) as u64
    } else {
        let pow = MIN_POW + (idx / SUB) as u32 - 1;
        let sub = (idx % SUB) as u64;
        let base = 1u64 << pow;
        base + ((sub + 1) * base) / SUB as u64
    }
}

impl TtiBudget {
    pub fn new(budget_ns: u64) -> Self {
        TtiBudget {
            budget_ns: budget_ns.max(1),
            counts: [0; BUCKETS],
            recorded: 0,
            over_budget: 0,
            worst_ns: 0,
            total_ns: 0,
        }
    }

    pub fn budget_ns(&self) -> u64 {
        self.budget_ns
    }

    /// Record one cycle's wall-clock duration.
    pub fn record(&mut self, ns: u64) {
        let idx = bucket_of(ns).min(BUCKETS - 1);
        self.counts[idx] += 1;
        self.recorded += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        if ns > self.worst_ns {
            self.worst_ns = ns;
        }
        if ns > self.budget_ns {
            self.over_budget += 1;
        }
    }

    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    pub fn over_budget(&self) -> u64 {
        self.over_budget
    }

    pub fn worst_ns(&self) -> u64 {
        self.worst_ns
    }

    /// Mean duration over all recorded cycles (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.recorded).unwrap_or(0)
    }

    /// Percentile estimate (bucket upper edge; `q` in 0..=100). The
    /// worst-case reading is reported exactly, so `percentile(100)`
    /// returns `worst_ns`.
    pub fn percentile_ns(&self, q: f64) -> u64 {
        if self.recorded == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 100.0);
        if q >= 100.0 {
            return self.worst_ns;
        }
        // Rank of the q-th percentile among `recorded` sorted samples.
        let rank = ((q / 100.0) * self.recorded as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Never report beyond the observed worst.
                return bucket_edge(idx).min(self.worst_ns);
            }
        }
        self.worst_ns
    }

    /// Snapshot for readers that must not hold a reference (northbound
    /// views, bench reports).
    pub fn stats(&self) -> BudgetStats {
        BudgetStats {
            budget_ns: self.budget_ns,
            recorded: self.recorded,
            over_budget: self.over_budget,
            p50_ns: self.percentile_ns(50.0),
            p95_ns: self.percentile_ns(95.0),
            p99_ns: self.percentile_ns(99.0),
            worst_ns: self.worst_ns,
            mean_ns: self.mean_ns(),
        }
    }

    /// Forget all recordings (budget setting survives).
    pub fn reset(&mut self) {
        let budget = self.budget_ns;
        *self = TtiBudget::new(budget);
    }
}

/// Copyable summary of a [`TtiBudget`] at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BudgetStats {
    pub budget_ns: u64,
    pub recorded: u64,
    pub over_budget: u64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    pub worst_ns: u64,
    pub mean_ns: u64,
}

impl BudgetStats {
    /// Headroom of the p99 against the budget, in nanoseconds (negative
    /// when the tail already blows the deadline).
    pub fn headroom_p99_ns(&self) -> i64 {
        self.budget_ns as i64 - self.p99_ns as i64
    }

    /// Internal consistency — what a chaos oracle can assert without
    /// depending on actual (nondeterministic) wall-clock values.
    pub fn is_consistent(&self) -> bool {
        self.over_budget <= self.recorded
            && self.p50_ns <= self.p95_ns
            && self.p95_ns <= self.p99_ns
            && self.p99_ns <= self.worst_ns
            && (self.recorded > 0 || self.worst_ns == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_monotonic() {
        let mut last = 0;
        for i in 0..BUCKETS {
            let e = bucket_edge(i);
            assert!(e > last, "bucket {i}: edge {e} <= {last}");
            last = e;
        }
    }

    #[test]
    fn bucket_of_is_monotonic_and_consistent_with_edges() {
        let mut prev = 0usize;
        for ns in [
            0u64,
            1,
            5,
            15,
            16,
            17,
            100,
            1_000,
            9_999,
            65_536,
            1_000_000,
            5_000_000,
            1 << 40,
        ] {
            let b = bucket_of(ns).min(BUCKETS - 1);
            assert!(b >= prev, "bucket_of not monotonic at {ns}");
            assert!(
                bucket_edge(b) >= ns || b == BUCKETS - 1,
                "edge below value at {ns}: edge {}",
                bucket_edge(b)
            );
            prev = b;
        }
    }

    #[test]
    fn percentiles_of_uniform_ramp() {
        let mut b = TtiBudget::new(1_000_000);
        // 1..=1000 µs — p50 ≈ 500 µs, p99 ≈ 990 µs, worst exactly 1 ms.
        for i in 1..=1000u64 {
            b.record(i * 1_000);
        }
        let s = b.stats();
        assert_eq!(s.recorded, 1000);
        assert_eq!(s.worst_ns, 1_000_000);
        // Bucket quantization is ≤ 1/16 relative: accept a loose window.
        assert!((450_000..=570_000).contains(&s.p50_ns), "p50 {}", s.p50_ns);
        assert!(
            (900_000..=1_000_000).contains(&s.p99_ns),
            "p99 {}",
            s.p99_ns
        );
        assert!(s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns && s.p99_ns <= s.worst_ns);
        assert!(s.is_consistent());
    }

    #[test]
    fn over_budget_counts_only_overruns() {
        let mut b = TtiBudget::new(1_000);
        b.record(999);
        b.record(1_000); // exactly at budget: not over
        b.record(1_001);
        b.record(50_000);
        assert_eq!(b.over_budget(), 2);
        assert_eq!(b.recorded(), 4);
        assert_eq!(b.worst_ns(), 50_000);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let b = TtiBudget::new(1_000_000);
        let s = b.stats();
        assert_eq!(s.p50_ns, 0);
        assert_eq!(s.p99_ns, 0);
        assert_eq!(s.worst_ns, 0);
        assert!(s.is_consistent());
        assert_eq!(s.headroom_p99_ns(), 1_000_000);
    }

    #[test]
    fn p100_is_exact_worst() {
        let mut b = TtiBudget::default();
        for ns in [3_333, 777_777, 123] {
            b.record(ns);
        }
        assert_eq!(b.percentile_ns(100.0), 777_777);
    }

    #[test]
    fn single_sample_percentiles_collapse() {
        let mut b = TtiBudget::new(1_000_000);
        b.record(123_456);
        let s = b.stats();
        // One sample: every percentile lands in its bucket, capped at
        // the exact worst.
        assert_eq!(s.p50_ns, s.p99_ns);
        assert_eq!(s.worst_ns, 123_456);
        assert!(s.p50_ns >= 123_456 && s.p50_ns <= 132_000);
    }

    #[test]
    fn reset_preserves_budget() {
        let mut b = TtiBudget::new(42);
        b.record(100);
        b.reset();
        assert_eq!(b.budget_ns(), 42);
        assert_eq!(b.recorded(), 0);
        assert_eq!(b.worst_ns(), 0);
    }
}
