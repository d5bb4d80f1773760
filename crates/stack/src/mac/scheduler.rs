//! Scheduler interfaces and the baseline schedulers.
//!
//! [`DlScheduler`] / [`UlScheduler`] are the *control* interfaces that
//! FlexRAN detaches from the data plane: implementations are registered as
//! VSFs in the agent's MAC control module, swapped at runtime through
//! policy reconfiguration, or bypassed entirely when the master controller
//! runs a centralized scheduler and pushes [`super::dci`] decisions over
//! the FlexRAN protocol.
//!
//! Every scheduler exposes a runtime parameter API ([`DlScheduler::set_param`])
//! — the "parameters section \[that\] acts as a public API that the
//! controller can modify" in the paper's policy reconfiguration messages.
//!
//! Three baselines ship with the data plane: round-robin,
//! proportional-fair and max-CQI.

use flexran_phy::link_adaptation::{full_band_tbs_bits, mcs_for_cqi, Cqi, Mcs};
use flexran_phy::tables::{itbs_for_mcs, tbs_bits};
use flexran_types::ids::{CellId, Rnti, SliceId};
use flexran_types::time::Tti;
use flexran_types::units::Bytes;
use flexran_types::{FlexError, Result};

use super::dci::{DlDci, UlGrant};

/// A runtime-settable scheduler parameter value, as carried by policy
/// reconfiguration messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    I64(i64),
    F64(f64),
    Str(String),
    /// A sequence of values (e.g. per-slice resource shares).
    List(Vec<f64>),
}

impl ParamValue {
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            ParamValue::I64(v) => Some(*v),
            ParamValue::F64(v) => Some(*v as i64),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            ParamValue::I64(v) => Some(*v as f64),
            ParamValue::F64(v) => Some(*v),
            _ => None,
        }
    }
}

/// What the scheduler knows about one schedulable UE.
#[derive(Debug, Clone)]
pub struct UeSchedInfo {
    pub rnti: Rnti,
    /// Last reported wideband CQI.
    pub cqi: Cqi,
    /// Data-bearer backlog (bytes awaiting transmission).
    pub queue_bytes: Bytes,
    /// Signalling backlog (RRC messages — RAR, connection setup, handover
    /// commands). Schedulers must drain these with priority: attach
    /// deadlines depend on it.
    pub srb_bytes: Bytes,
    /// Exponentially averaged served rate in bits/s (proportional-fair
    /// denominator).
    pub avg_rate_bps: f64,
    pub slice: SliceId,
    /// Intra-slice priority group (0 = highest; the RAN-sharing use case's
    /// premium/secondary split).
    pub priority_group: u8,
    /// Head-of-line delay of the data queue, in ms.
    pub hol_delay_ms: u64,
}

/// A pending HARQ retransmission (informational: the data plane has
/// already reserved the PRBs; `available_prb` excludes them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetxInfo {
    pub rnti: Rnti,
    pub n_prb: u8,
}

/// Everything a downlink scheduler sees for one cell × subframe.
#[derive(Debug, Clone)]
pub struct DlSchedulerInput {
    pub cell: CellId,
    /// When the decision is being computed.
    pub now: Tti,
    /// The subframe the decision is for (equals `now` for local
    /// scheduling; `now + n` for a remote scheduler working ahead).
    pub target: Tti,
    /// PRBs left after HARQ retransmissions were reserved.
    pub available_prb: u8,
    /// DCI budget left for this subframe.
    pub max_dcis: u8,
    pub ues: Vec<UeSchedInfo>,
    pub retx: Vec<RetxInfo>,
}

impl Default for DlSchedulerInput {
    fn default() -> Self {
        DlSchedulerInput {
            cell: CellId(0),
            now: Tti(0),
            target: Tti(0),
            available_prb: 0,
            max_dcis: 0,
            ues: Vec::new(),
            retx: Vec::new(),
        }
    }
}

/// A downlink scheduling output: the assignments for the target subframe.
#[derive(Debug, Clone, Default)]
pub struct DlSchedulerOutput {
    pub dcis: Vec<DlDci>,
}

/// The downlink scheduler interface (the MAC control module's
/// UE-specific-DL-scheduling VSF signature).
pub trait DlScheduler: Send {
    /// Stable name used by VSF caches and policy reconfiguration.
    fn name(&self) -> &str;

    /// Compute the assignments for `input.target` into `out` (cleared
    /// first). This is the hot path: implementations must not allocate
    /// in steady state — keep candidate scratch in `self` and reuse
    /// `out.dcis`'s capacity.
    fn schedule_dl_into(&mut self, input: &DlSchedulerInput, out: &mut DlSchedulerOutput);

    /// Allocating convenience wrapper around
    /// [`DlScheduler::schedule_dl_into`].
    fn schedule_dl(&mut self, input: &DlSchedulerInput) -> DlSchedulerOutput {
        let mut out = DlSchedulerOutput::default();
        self.schedule_dl_into(input, &mut out);
        out
    }

    /// Set a runtime parameter. The default implementation knows none.
    fn set_param(&mut self, key: &str, _value: ParamValue) -> Result<()> {
        Err(FlexError::NotFound(format!(
            "scheduler '{}' has no parameter '{key}'",
            self.name()
        )))
    }

    /// The current parameter values (introspection for the northbound API).
    fn params(&self) -> Vec<(String, ParamValue)> {
        Vec::new()
    }
}

/// Everything an uplink scheduler sees for one cell × subframe.
#[derive(Debug, Clone)]
pub struct UlSchedulerInput {
    pub cell: CellId,
    pub now: Tti,
    pub target: Tti,
    pub available_prb: u8,
    pub max_grants: u8,
    /// `(rnti, bsr-implied backlog bytes, cqi, per-UE PRB cap)`.
    pub ues: Vec<UlUeInfo>,
}

impl Default for UlSchedulerInput {
    fn default() -> Self {
        UlSchedulerInput {
            cell: CellId(0),
            now: Tti(0),
            target: Tti(0),
            available_prb: 0,
            max_grants: 0,
            ues: Vec::new(),
        }
    }
}

/// Uplink per-UE scheduling information.
#[derive(Debug, Clone)]
pub struct UlUeInfo {
    pub rnti: Rnti,
    /// Backlog the eNodeB assumes from the last BSR.
    pub bsr_bytes: Bytes,
    pub cqi: Cqi,
    /// Power-headroom-derived cap on PRBs this UE can drive.
    pub prb_cap: u8,
}

/// Uplink scheduling output.
#[derive(Debug, Clone, Default)]
pub struct UlSchedulerOutput {
    pub grants: Vec<UlGrant>,
}

/// The uplink scheduler interface.
pub trait UlScheduler: Send {
    fn name(&self) -> &str;

    /// Compute the grants for `input.target` into `out` (cleared
    /// first). Hot path — same no-steady-state-allocation contract as
    /// [`DlScheduler::schedule_dl_into`].
    fn schedule_ul_into(&mut self, input: &UlSchedulerInput, out: &mut UlSchedulerOutput);

    /// Allocating convenience wrapper.
    fn schedule_ul(&mut self, input: &UlSchedulerInput) -> UlSchedulerOutput {
        let mut out = UlSchedulerOutput::default();
        self.schedule_ul_into(input, &mut out);
        out
    }
}

/// Minimum PRBs at `mcs` whose transport block covers `bytes`
/// (clamped to `max_prb`; at least 1). `tbs_bits` is non-decreasing in
/// the PRB count, so the answer is found by bisection; a request the
/// whole allocation cannot cover (every full-buffer UE) costs one probe.
pub fn prbs_for_bytes(mcs: Mcs, bytes: Bytes, max_prb: u8) -> u8 {
    let need_bits = bytes.bits();
    let itbs = itbs_for_mcs(mcs.0);
    if max_prb == 0 || (tbs_bits(itbs, max_prb) as u64) < need_bits {
        return max_prb.max(1);
    }
    // Invariant: `hi` PRBs cover the request, `lo` do not (0 never count).
    let (mut lo, mut hi) = (0, max_prb);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if tbs_bits(itbs, mid) as u64 >= need_bits {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// Shared helper: give every UE with signalling backlog a small
/// high-priority allocation first. Returns the PRBs left.
pub fn allocate_srbs(input: &DlSchedulerInput, dcis: &mut Vec<DlDci>, mut prb_left: u8) -> u8 {
    for ue in &input.ues {
        if dcis.len() >= input.max_dcis as usize || prb_left == 0 {
            break;
        }
        if ue.srb_bytes.is_zero() {
            continue;
        }
        // Signalling goes out at a robust MCS so it survives poor channels.
        let mcs = Mcs(mcs_for_cqi(ue.cqi).0.min(5));
        let want = prbs_for_bytes(
            mcs,
            Bytes(ue.srb_bytes.as_u64() + super::MAC_HEADER_BYTES + crate::rlc::RLC_HEADER_BYTES),
            prb_left,
        );
        dcis.push(DlDci {
            rnti: ue.rnti,
            n_prb: want,
            mcs,
        });
        prb_left -= want;
    }
    prb_left
}

/// A UE a data grant can go to: data backlog, a usable channel, and no
/// DCI yet this subframe.
fn wants_data_grant(ue: &UeSchedInfo, dcis: &[DlDci]) -> bool {
    !ue.queue_bytes.is_zero() && ue.cqi.0 > 0 && !dcis.iter().any(|d| d.rnti == ue.rnti)
}

/// Shared helper: fill `cand` with the indices (into `input.ues`) of
/// UEs with data backlog, a usable channel, and no DCI yet. Index-based
/// so schedulers can keep one scratch `Vec<usize>` across TTIs instead
/// of collecting a fresh reference `Vec` every subframe.
pub fn backlogged_into(input: &DlSchedulerInput, dcis: &[DlDci], cand: &mut Vec<usize>) {
    cand.clear();
    cand.extend(
        input
            .ues
            .iter()
            .enumerate()
            .filter(|(_, u)| wants_data_grant(u, dcis))
            .map(|(i, _)| i),
    );
}

/// Rank-once half of the metric schedulers: fill `ranked` with
/// `(key(ue), index into input.ues)` for every UE a data grant can go
/// to. `key` runs exactly once per candidate per pass.
fn rank_backlogged<K>(
    input: &DlSchedulerInput,
    dcis: &[DlDci],
    ranked: &mut Vec<(K, usize)>,
    key: impl Fn(&UeSchedInfo) -> K,
) {
    ranked.clear();
    ranked.extend(
        input
            .ues
            .iter()
            .enumerate()
            .filter(|(_, u)| wants_data_grant(u, dcis))
            // lint:alloc-free-callee both callers pass pure arithmetic on the UE's fields
            .map(|(i, u)| (key(u), i)),
    );
}

/// Top-k half of the metric schedulers: serve `ranked` best first — by
/// `(key descending, RNTI ascending)` — each UE taking what its queue
/// needs of the PRBs left, until PRBs or the DCI budget run out.
///
/// Only the UEs actually granted are ever ordered: each grant takes the
/// best remaining candidate with one linear scan. At most `max_dcis`
/// (≤ 10) grants fit in a subframe, and with full-buffer UEs the first
/// one takes the whole band, so this is one pass over the candidates
/// where a sort would order all of them.
///
/// The emitted DCI sequence is the one a full sort by the same order
/// yields, because `(key desc, rnti asc)` is a strict total order: RNTIs
/// are unique within a cell, and keys compare totally — CQIs are
/// integers, and the PF metric is never NaN (see
/// [`ProportionalFairScheduler`]). Under a strict total order "the
/// maximum of what remains" is unique at every step, whatever the
/// algorithm that finds it.
fn grant_best_first<K: PartialOrd + Copy>(
    input: &DlSchedulerInput,
    ranked: &mut Vec<(K, usize)>,
    dcis: &mut Vec<DlDci>,
    mut prb_left: u8,
) {
    while prb_left > 0 && dcis.len() < input.max_dcis as usize && !ranked.is_empty() {
        let mut best = 0;
        for (i, &(key, u)) in ranked.iter().enumerate().skip(1) {
            let (best_key, best_u) = ranked[best];
            if key > best_key || (key == best_key && input.ues[u].rnti < input.ues[best_u].rnti) {
                best = i;
            }
        }
        let ue = &input.ues[ranked.swap_remove(best).1];
        let mcs = mcs_for_cqi(ue.cqi);
        let want = prbs_for_bytes(mcs, Bytes(ue.queue_bytes.as_u64() + 8), prb_left);
        dcis.push(DlDci {
            rnti: ue.rnti,
            n_prb: want,
            mcs,
        });
        prb_left -= want;
    }
}

/// Round-robin: equal PRB shares for backlogged UEs, rotating the starting
/// UE each subframe so short allocations even out.
#[derive(Debug, Default)]
pub struct RoundRobinScheduler {
    rotation: usize,
    cand: Vec<usize>,
}

impl RoundRobinScheduler {
    pub fn new() -> Self {
        Self::default()
    }
}

impl DlScheduler for RoundRobinScheduler {
    fn name(&self) -> &str {
        "round-robin"
    }

    fn schedule_dl_into(&mut self, input: &DlSchedulerInput, out: &mut DlSchedulerOutput) {
        out.dcis.clear();
        let mut prb_left = allocate_srbs(input, &mut out.dcis, input.available_prb);
        backlogged_into(input, &out.dcis, &mut self.cand);
        if self.cand.is_empty() || prb_left == 0 {
            return;
        }
        self.cand.sort_unstable_by_key(|&i| input.ues[i].rnti);
        let n = self
            .cand
            .len()
            .min((input.max_dcis as usize).saturating_sub(out.dcis.len()));
        if n == 0 {
            return;
        }
        self.rotation = (self.rotation + 1) % self.cand.len();
        let share = (prb_left as usize / n).max(1) as u8;
        for i in 0..n {
            if prb_left == 0 {
                break;
            }
            let ue = &input.ues[self.cand[(self.rotation + i) % self.cand.len()]];
            let mcs = mcs_for_cqi(ue.cqi);
            let want = prbs_for_bytes(mcs, Bytes(ue.queue_bytes.as_u64() + 8), share.min(prb_left));
            out.dcis.push(DlDci {
                rnti: ue.rnti,
                n_prb: want,
                mcs,
            });
            prb_left -= want;
        }
    }
}

/// Proportional fair: rank by achievable-rate / average-rate, then grant
/// greedily until PRBs or DCIs run out.
///
/// The metric `full-band rate / max(avg_rate, 1)^exponent` is computed
/// once per candidate per subframe and is never NaN: the rate is a
/// positive table entry, `max(·, 1.0)` maps a NaN average to 1, and the
/// exponent — private, so [`DlScheduler::set_param`]'s `0..=2` check is
/// the only way in — keeps `base^exponent` in `[1, +inf]`. That makes the
/// ranking a strict total order, which the shared best-first grant loop
/// relies on.
#[derive(Debug)]
pub struct ProportionalFairScheduler {
    /// Fairness exponent on the average-rate denominator (1.0 = classic
    /// PF; 0.0 degenerates to max-rate). Runtime-reconfigurable.
    fairness_exponent: f64,
    ranked: Vec<(f64, usize)>,
}

impl Default for ProportionalFairScheduler {
    fn default() -> Self {
        ProportionalFairScheduler {
            fairness_exponent: 1.0,
            ranked: Vec::new(),
        }
    }
}

impl ProportionalFairScheduler {
    pub fn new() -> Self {
        Self::default()
    }
}

impl DlScheduler for ProportionalFairScheduler {
    fn name(&self) -> &str {
        "proportional-fair"
    }

    fn schedule_dl_into(&mut self, input: &DlSchedulerInput, out: &mut DlSchedulerOutput) {
        out.dcis.clear();
        let prb_left = allocate_srbs(input, &mut out.dcis, input.available_prb);
        let exponent = self.fairness_exponent;
        rank_backlogged(input, &out.dcis, &mut self.ranked, |ue| {
            full_band_tbs_bits(ue.cqi) as f64 / ue.avg_rate_bps.max(1.0).powf(exponent)
        });
        grant_best_first(input, &mut self.ranked, &mut out.dcis, prb_left);
    }

    fn set_param(&mut self, key: &str, value: ParamValue) -> Result<()> {
        match key {
            "fairness_exponent" => {
                let v = value
                    .as_f64()
                    .ok_or_else(|| FlexError::Policy("fairness_exponent must be numeric".into()))?;
                if !(0.0..=2.0).contains(&v) {
                    return Err(FlexError::Policy(format!(
                        "fairness_exponent {v} outside 0..=2"
                    )));
                }
                self.fairness_exponent = v;
                Ok(())
            }
            _ => Err(FlexError::NotFound(format!(
                "proportional-fair has no parameter '{key}'"
            ))),
        }
    }

    fn params(&self) -> Vec<(String, ParamValue)> {
        vec![(
            "fairness_exponent".into(),
            ParamValue::F64(self.fairness_exponent),
        )]
    }
}

/// Max-CQI: always serve the best channels first (throughput-optimal,
/// starvation-prone — the textbook baseline).
#[derive(Debug, Default)]
pub struct MaxCqiScheduler {
    ranked: Vec<(Cqi, usize)>,
}

impl MaxCqiScheduler {
    pub fn new() -> Self {
        Self::default()
    }
}

impl DlScheduler for MaxCqiScheduler {
    fn name(&self) -> &str {
        "max-cqi"
    }

    fn schedule_dl_into(&mut self, input: &DlSchedulerInput, out: &mut DlSchedulerOutput) {
        out.dcis.clear();
        let prb_left = allocate_srbs(input, &mut out.dcis, input.available_prb);
        rank_backlogged(input, &out.dcis, &mut self.ranked, |ue| ue.cqi);
        grant_best_first(input, &mut self.ranked, &mut out.dcis, prb_left);
    }
}

/// Round-robin uplink scheduler (the only UL policy the experiments need;
/// the trait exists so UL scheduling is delegable like DL).
#[derive(Debug, Default)]
pub struct UlRoundRobinScheduler {
    rotation: usize,
    cand: Vec<usize>,
}

impl UlRoundRobinScheduler {
    pub fn new() -> Self {
        Self::default()
    }
}

impl UlScheduler for UlRoundRobinScheduler {
    fn name(&self) -> &str {
        "ul-round-robin"
    }

    fn schedule_ul_into(&mut self, input: &UlSchedulerInput, out: &mut UlSchedulerOutput) {
        out.grants.clear();
        self.cand.clear();
        self.cand.extend(
            input
                .ues
                .iter()
                .enumerate()
                .filter_map(|(i, u)| (!u.bsr_bytes.is_zero() && u.cqi.0 > 0).then_some(i)),
        );
        if self.cand.is_empty() {
            return;
        }
        self.cand.sort_unstable_by_key(|&i| input.ues[i].rnti);
        self.rotation = (self.rotation + 1) % self.cand.len();
        let n = self.cand.len().min(input.max_grants as usize);
        let share = (input.available_prb as usize / n.max(1)).max(1) as u8;
        let mut prb_left = input.available_prb;
        for i in 0..n {
            if prb_left == 0 {
                break;
            }
            let ue = &input.ues[self.cand[(self.rotation + i) % self.cand.len()]];
            // UL link adaptation: cap at 16QAM (MCS 16) as UE power limits
            // bite before 64QAM in the uplink.
            let mcs = Mcs(mcs_for_cqi(ue.cqi).0.min(16));
            let want = prbs_for_bytes(mcs, Bytes(ue.bsr_bytes.as_u64() + 8), share)
                .min(ue.prb_cap)
                .min(prb_left);
            if want == 0 {
                continue;
            }
            out.grants.push(UlGrant {
                rnti: ue.rnti,
                n_prb: want,
                mcs,
            });
            prb_left -= want;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ue(rnti: u16, cqi: u8, queue: u64) -> UeSchedInfo {
        UeSchedInfo {
            rnti: Rnti(rnti),
            cqi: Cqi(cqi),
            queue_bytes: Bytes(queue),
            srb_bytes: Bytes::ZERO,
            avg_rate_bps: 1.0,
            slice: SliceId::MNO,
            priority_group: 0,
            hol_delay_ms: 0,
        }
    }

    fn input(ues: Vec<UeSchedInfo>) -> DlSchedulerInput {
        DlSchedulerInput {
            cell: CellId(0),
            now: Tti(100),
            target: Tti(100),
            available_prb: 50,
            max_dcis: 10,
            ues,
            retx: vec![],
        }
    }

    fn total_prbs(out: &DlSchedulerOutput) -> u32 {
        out.dcis.iter().map(|d| d.n_prb as u32).sum()
    }

    #[test]
    fn prbs_for_bytes_covers_request() {
        for cqi in 1..=15u8 {
            let mcs = mcs_for_cqi(Cqi(cqi));
            let p = prbs_for_bytes(mcs, Bytes(500), 50);
            assert!(tbs_bits(itbs_for_mcs(mcs.0), p) as u64 >= 4000 || p == 50);
        }
        assert_eq!(prbs_for_bytes(Mcs(0), Bytes(0), 50), 1);
    }

    #[test]
    fn prbs_for_bytes_matches_linear_probe() {
        // The definition: probe 1, 2, … PRBs until the block covers the
        // request; `max_prb.max(1)` when nothing does (so 0 PRBs → 1).
        let linear = |mcs: Mcs, bytes: u64, max_prb: u8| {
            (1..=max_prb)
                .find(|&p| tbs_bits(itbs_for_mcs(mcs.0), p) as u64 >= bytes * 8)
                .unwrap_or(max_prb.max(1))
        };
        for m in 0..=28u8 {
            let mcs = Mcs(m);
            // Every block size the MCS can produce, ±1 byte, plus a
            // coarse sweep that runs past the largest block (10 091 B).
            let mut grid: Vec<u64> = (0..=12_000).step_by(97).collect();
            for p in 0..=110u8 {
                let block = tbs_bits(itbs_for_mcs(m), p) as u64 / 8;
                grid.extend([block.saturating_sub(1), block, block + 1]);
            }
            for max_prb in 0..=110u8 {
                for &bytes in &grid {
                    assert_eq!(
                        prbs_for_bytes(mcs, Bytes(bytes), max_prb),
                        linear(mcs, bytes, max_prb),
                        "mcs {m}, {bytes} B, max {max_prb} PRB"
                    );
                }
            }
        }
        assert_eq!(prbs_for_bytes(Mcs(9), Bytes(0), 0), 1);
        assert_eq!(prbs_for_bytes(Mcs(9), Bytes(1_000_000), 0), 1);
    }

    #[test]
    fn rr_splits_evenly_among_backlogged() {
        let mut s = RoundRobinScheduler::new();
        let out = s.schedule_dl(&input(vec![
            ue(0x100, 10, 1_000_000),
            ue(0x101, 10, 1_000_000),
            ue(0x102, 10, 0), // no backlog -> not scheduled
        ]));
        assert_eq!(out.dcis.len(), 2);
        for d in &out.dcis {
            assert_eq!(d.n_prb, 25);
        }
    }

    #[test]
    fn rr_never_overcommits() {
        let mut s = RoundRobinScheduler::new();
        for n_ues in 1..30u16 {
            let ues = (0..n_ues).map(|i| ue(0x100 + i, 7, 10_000)).collect();
            let out = s.schedule_dl(&input(ues));
            assert!(total_prbs(&out) <= 50);
            assert!(out.dcis.len() <= 10);
        }
    }

    #[test]
    fn rr_rotation_spreads_service() {
        // 20 backlogged UEs, 10 DCIs per TTI: over 20 TTIs all UEs served.
        let mut s = RoundRobinScheduler::new();
        let ues: Vec<_> = (0..20).map(|i| ue(0x100 + i, 7, 50_000)).collect();
        let mut served = std::collections::HashSet::new();
        for _ in 0..20 {
            let out = s.schedule_dl(&input(ues.clone()));
            for d in out.dcis {
                served.insert(d.rnti);
            }
        }
        assert_eq!(served.len(), 20, "rotation must reach every UE");
    }

    #[test]
    fn pf_prefers_under_served_ue() {
        let mut s = ProportionalFairScheduler::new();
        let mut hungry = ue(0x100, 10, 1_000_000);
        hungry.avg_rate_bps = 1_000.0;
        let mut fed = ue(0x101, 10, 1_000_000);
        fed.avg_rate_bps = 10_000_000.0;
        let out = s.schedule_dl(&input(vec![fed, hungry]));
        assert_eq!(out.dcis[0].rnti, Rnti(0x100), "starved UE first");
    }

    #[test]
    fn pf_param_api() {
        let mut s = ProportionalFairScheduler::new();
        s.set_param("fairness_exponent", ParamValue::F64(0.5))
            .unwrap();
        assert_eq!(s.fairness_exponent, 0.5);
        assert!(s
            .set_param("fairness_exponent", ParamValue::F64(9.0))
            .is_err());
        assert!(s.set_param("bogus", ParamValue::I64(1)).is_err());
        assert_eq!(
            s.params(),
            vec![("fairness_exponent".to_string(), ParamValue::F64(0.5))]
        );
    }

    #[test]
    fn max_cqi_serves_best_channel_first() {
        let mut s = MaxCqiScheduler::new();
        let out = s.schedule_dl(&input(vec![
            ue(0x100, 5, 1_000_000),
            ue(0x101, 15, 1_000_000),
        ]));
        assert_eq!(out.dcis[0].rnti, Rnti(0x101));
        // Full-buffer best UE hogs the band.
        assert_eq!(out.dcis[0].n_prb, 50);
        assert_eq!(out.dcis.len(), 1);
    }

    #[test]
    fn srb_traffic_preempts_data() {
        let mut s = MaxCqiScheduler::new();
        let mut attaching = ue(0x200, 3, 0);
        attaching.srb_bytes = Bytes(50);
        let out = s.schedule_dl(&input(vec![ue(0x100, 15, 1_000_000), attaching]));
        assert_eq!(out.dcis[0].rnti, Rnti(0x200), "SRB first");
        assert!(out.dcis[0].mcs.0 <= 5, "signalling at robust MCS");
        assert!(total_prbs(&out) <= 50);
    }

    #[test]
    fn cqi_zero_ue_not_scheduled() {
        let mut s = RoundRobinScheduler::new();
        let out = s.schedule_dl(&input(vec![ue(0x100, 0, 10_000)]));
        assert!(out.dcis.is_empty());
    }

    #[test]
    fn ul_rr_respects_caps() {
        let mut s = UlRoundRobinScheduler::new();
        let out = s.schedule_ul(&UlSchedulerInput {
            cell: CellId(0),
            now: Tti(0),
            target: Tti(0),
            available_prb: 50,
            max_grants: 8,
            ues: vec![UlUeInfo {
                rnti: Rnti(0x100),
                bsr_bytes: Bytes(1_000_000),
                cqi: Cqi(15),
                prb_cap: 24,
            }],
        });
        assert_eq!(out.grants.len(), 1);
        assert!(out.grants[0].n_prb <= 24, "power-headroom cap");
        assert!(out.grants[0].mcs.0 <= 16, "UL modulation cap");
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let mut rr = RoundRobinScheduler::new();
        assert!(rr.schedule_dl(&input(vec![])).dcis.is_empty());
        let mut ul = UlRoundRobinScheduler::new();
        let out = ul.schedule_ul(&UlSchedulerInput {
            cell: CellId(0),
            now: Tti(0),
            target: Tti(0),
            available_prb: 50,
            max_grants: 8,
            ues: vec![],
        });
        assert!(out.grants.is_empty());
    }
}

#[cfg(test)]
mod oracle;
