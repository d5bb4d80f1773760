//! What the measuring loop needs from a workload, and the helpers the
//! workloads share (seed expansion, digest, exact counters).

use flexran::controller::MasterController;
use flexran::proto::{ByteCounters, MessageCategory};
use flexran::stack::enb::Enb;
use flexran::stack::stats::UeStats;

use crate::metrics::Metrics;

/// Warm-up TTIs before the measured window: the RLC full-buffer ramp
/// documented in `crates/bench/src/experiments/scale.rs`.
pub const WARMUP_TTIS: u64 = 2_000;

/// One UE's service state at a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UeService {
    pub connected: bool,
    pub dl_bits: u64,
}

/// Exact counters, cumulative since the scenario was built. They depend
/// on the scenario and the seed only, never on wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Agent → master wire bytes / messages, summed over agents.
    pub up: ByteCounters,
    /// Master → agent wire bytes / messages, as received by the agents.
    pub down: ByteCounters,
    pub agent_rx_msgs: u64,
    pub command_errors: u64,
    pub transport_errors: u64,
    pub policy_errors: u64,
    pub harq_tx: u64,
    pub harq_retx: u64,
    pub handovers: u64,
}

impl Counts {
    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts {
            up: self.up.since(&earlier.up),
            down: self.down.since(&earlier.down),
            agent_rx_msgs: self.agent_rx_msgs - earlier.agent_rx_msgs,
            command_errors: self.command_errors - earlier.command_errors,
            transport_errors: self.transport_errors - earlier.transport_errors,
            policy_errors: self.policy_errors - earlier.policy_errors,
            // A UE's HARQ counters restart at its target cell after a
            // handover, so this sum can step back; the ratio stays valid.
            harq_tx: self.harq_tx.saturating_sub(earlier.harq_tx),
            harq_retx: self.harq_retx.saturating_sub(earlier.harq_retx),
            handovers: self.handovers - earlier.handovers,
        }
    }

    pub fn ctrl_bytes(&self) -> u64 {
        self.up.total_bytes() + self.down.total_bytes()
    }

    /// Remote commands the agents received.
    pub fn commands(&self) -> u64 {
        self.down.messages(MessageCategory::Commands)
    }

    pub fn hash_into(&self, h: &mut Fnv) {
        for c in [&self.up, &self.down] {
            for cat in MessageCategory::ALL {
                h.u64(c.bytes(cat));
                h.u64(c.messages(cat));
            }
        }
    }
}

/// A built, warmed-up workload.
pub trait Scenario {
    fn n_enbs(&self) -> usize;
    fn n_ues(&self) -> usize;
    /// Advance one TTI: the timed operation. In a traced window
    /// ([`crate::spans::active`]) the scenario also records its spans and
    /// per-step layer deltas.
    fn step(&mut self);
    /// The load generator's own per-TTI work, not timed.
    fn after_step(&mut self);
    /// Service state of every UE, in UE-id order.
    fn service(&self, out: &mut Vec<UeService>);
    fn counts(&self) -> Counts;
    /// FNV digest of the simulated statistics.
    fn digest(&self) -> u64;
    fn master(&self) -> &MasterController;
    /// Whether the master is subscribed to statistics, so its RIB must
    /// know every attached UE.
    fn rib_tracks_ues(&self) -> bool;
    /// A live eNodeB for the replay probes.
    fn probe_enb(&self) -> &Enb;
    /// Per-layer numbers of the traced windows (`traced_ttis` of them).
    fn layer_metrics(&mut self, traced_ttis: u64, m: &mut Metrics);
}

/// FNV-1a over little-endian words.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf29ce484222325)
    }
}

impl Fnv {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    /// One UE's simulated statistics; `None` = not visible right now.
    pub fn ue(&mut self, s: Option<&UeStats>) {
        let Some(s) = s else {
            self.u64(u64::MAX);
            return;
        };
        self.u64(s.dl_delivered_bits);
        self.u64(s.ul_delivered_bits);
        self.u64(s.dl_queue_bytes.as_u64());
        self.u64(s.cqi.0 as u64);
        self.u64(s.harq_tx);
        self.u64(s.harq_retx);
    }
}

/// splitmix64: expands the run seed into per-entity seeds and draws.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}
