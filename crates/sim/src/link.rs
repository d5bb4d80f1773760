//! The control-channel emulator: a virtual-time `netem`.
//!
//! The paper studies the impact of the master↔agent channel with the
//! Linux `netem` tool (Fig. 9: RTT 0–60 ms) and measures the signalling
//! load over it (Fig. 7). [`SimTransport`] reproduces both: it carries
//! FlexRAN protocol messages with configurable one-way latency, jitter,
//! serialization rate and loss — all in virtual time, so runs are exactly
//! repeatable — and counts bytes per message category.
//!
//! FIFO ordering is preserved even under jitter (the real channel is TCP,
//! which never reorders).

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use flexran_proto::category::{ByteCounters, MessageCategory};
use flexran_proto::messages::{FlexranMessage, Header};
use flexran_proto::transport::{Transport, FRAME_OVERHEAD_BYTES};
use flexran_proto::wire::WireWriter;
use flexran_types::time::Tti;
use flexran_types::units::BitRate;
use flexran_types::{FlexError, Result};

use crate::clock::VirtualClock;

/// Probabilistic fault model applied on top of a link's base
/// characteristics. All draws come from the fault handle's own seeded
/// RNG, so failure runs are exactly replayable.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultConfig {
    /// Independent per-message hard-drop probability. Unlike
    /// [`LinkConfig::loss`] (modeled as a TCP retransmit delay), a fault
    /// drop makes the message disappear — the silence a liveness tracker
    /// must detect.
    pub drop_prob: f64,
    /// Gilbert-Elliott burst loss: probability of entering the bad state
    /// (per message) and of leaving it again. While in the bad state,
    /// every message is dropped.
    pub burst: Option<BurstLoss>,
    /// Probability of a jitter spike on a delivered message.
    pub jitter_spike_prob: f64,
    /// Extra one-way delay (ms) added by a jitter spike.
    pub jitter_spike_ms: u64,
    /// Byte-level wire faults applied to delivered messages (corruption,
    /// truncation, duplication, garbage insertion).
    pub wire: Option<WireFaults>,
}

/// Byte-level wire-fault probabilities. Each delivered message draws at
/// most one of these (mutually exclusive, checked in order): a corrupted
/// or truncated frame reaches the receiver but fails to decode there, a
/// duplicated frame arrives twice, an insertion delivers one extra frame
/// of guaranteed-undecodable garbage right behind the real one.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireFaults {
    /// Probability of flipping one random bit of the payload.
    pub corrupt_prob: f64,
    /// Probability of truncating the payload at a random offset.
    pub truncate_prob: f64,
    /// Probability of delivering the frame twice.
    pub duplicate_prob: f64,
    /// Probability of inserting a garbage frame behind this one.
    pub insert_prob: f64,
}

/// Two-state (good/bad) burst-loss Markov chain parameters.
#[derive(Debug, Clone, Copy)]
pub struct BurstLoss {
    /// Per-message probability of the chain flipping good → bad.
    pub enter_prob: f64,
    /// Per-message probability of the chain flipping bad → good.
    pub exit_prob: f64,
}

#[derive(Debug)]
struct FaultState {
    config: FaultConfig,
    /// Scripted partition windows `[from, until)` in virtual time.
    partitions: Vec<(Tti, Tti)>,
    /// Manual partition toggle (for open-ended outages).
    manual_partition: bool,
    in_burst: bool,
    rng: StdRng,
    dropped: u64,
    delivered: u64,
    corrupted_by_cat: [u64; 8],
    duplicated_by_cat: [u64; 8],
    injected: u64,
}

/// Verdict of the fault model for one message.
enum FaultVerdict {
    Deliver { extra_delay_ms: u64, mangle: Mangle },
    Drop,
}

/// Byte-level mangling decision for one delivered message. Positions are
/// drawn inside the fault handle so the whole fault stream replays from
/// one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mangle {
    None,
    /// Flip bit `bit` of byte `at`.
    Corrupt {
        at: usize,
        bit: u8,
    },
    /// Keep only the first `keep` bytes.
    Truncate {
        keep: usize,
    },
    /// Deliver the frame twice.
    Duplicate,
    /// Deliver one garbage frame right behind the real one.
    Insert,
}

impl FaultState {
    fn judge(&mut self, now: Tti, category: MessageCategory, payload_len: usize) -> FaultVerdict {
        if self.manual_partition
            || self
                .partitions
                .iter()
                .any(|(from, until)| *from <= now && now < *until)
        {
            self.dropped += 1;
            return FaultVerdict::Drop;
        }
        if let Some(burst) = self.config.burst {
            let flip = if self.in_burst {
                burst.exit_prob
            } else {
                burst.enter_prob
            };
            if self.rng.random::<f64>() < flip {
                self.in_burst = !self.in_burst;
            }
            if self.in_burst {
                self.dropped += 1;
                return FaultVerdict::Drop;
            }
        }
        if self.config.drop_prob > 0.0 && self.rng.random::<f64>() < self.config.drop_prob {
            self.dropped += 1;
            return FaultVerdict::Drop;
        }
        let extra_delay_ms = if self.config.jitter_spike_prob > 0.0
            && self.rng.random::<f64>() < self.config.jitter_spike_prob
        {
            self.config.jitter_spike_ms
        } else {
            0
        };
        let mangle = self.draw_mangle(category, payload_len);
        self.delivered += 1;
        FaultVerdict::Deliver {
            extra_delay_ms,
            mangle,
        }
    }

    fn draw_mangle(&mut self, category: MessageCategory, payload_len: usize) -> Mangle {
        let Some(w) = self.config.wire else {
            return Mangle::None;
        };
        if payload_len > 0 && w.corrupt_prob > 0.0 && self.rng.random::<f64>() < w.corrupt_prob {
            self.corrupted_by_cat[category.index()] += 1;
            return Mangle::Corrupt {
                at: self.rng.random_range(0..payload_len),
                bit: self.rng.random_range(0..8),
            };
        }
        if payload_len > 0 && w.truncate_prob > 0.0 && self.rng.random::<f64>() < w.truncate_prob {
            self.corrupted_by_cat[category.index()] += 1;
            return Mangle::Truncate {
                keep: self.rng.random_range(0..payload_len),
            };
        }
        if w.duplicate_prob > 0.0 && self.rng.random::<f64>() < w.duplicate_prob {
            self.duplicated_by_cat[category.index()] += 1;
            return Mangle::Duplicate;
        }
        if w.insert_prob > 0.0 && self.rng.random::<f64>() < w.insert_prob {
            self.injected += 1;
            return Mangle::Insert;
        }
        Mangle::None
    }
}

/// Shared, cloneable handle steering a link's fault model. Both
/// directions of a link pair consult the same handle, so a partition
/// silences the channel symmetrically — the failure mode of paper-style
/// master outages.
#[derive(Debug, Clone)]
pub struct FaultHandle(Arc<Mutex<FaultState>>);

impl FaultHandle {
    pub fn new(seed: u64) -> Self {
        FaultHandle(Arc::new(Mutex::new(FaultState {
            config: FaultConfig::default(),
            partitions: Vec::new(),
            manual_partition: false,
            in_burst: false,
            rng: StdRng::seed_from_u64(seed ^ 0xFA_17),
            dropped: 0,
            delivered: 0,
            corrupted_by_cat: [0; 8],
            duplicated_by_cat: [0; 8],
            injected: 0,
        })))
    }

    /// Replace the probabilistic fault parameters.
    pub fn set_config(&self, config: FaultConfig) {
        self.0.lock().config = config;
    }

    /// Script a partition window `[from, until)`: every message pushed in
    /// that window, in either direction, is silently dropped.
    pub fn partition_between(&self, from: Tti, until: Tti) {
        self.0.lock().partitions.push((from, until));
    }

    /// Toggle an open-ended manual partition.
    pub fn set_partitioned(&self, on: bool) {
        self.0.lock().manual_partition = on;
    }

    /// Whether the link drops everything at `now`.
    pub fn is_partitioned(&self, now: Tti) -> bool {
        let st = self.0.lock();
        st.manual_partition
            || st
                .partitions
                .iter()
                .any(|(from, until)| *from <= now && now < *until)
    }

    /// Messages swallowed by the fault model so far.
    pub fn dropped(&self) -> u64 {
        self.0.lock().dropped
    }

    /// Messages that passed the fault model so far.
    pub fn delivered(&self) -> u64 {
        self.0.lock().delivered
    }

    /// Messages of `cat` delivered corrupted or truncated (the receiver
    /// sees a decode error instead of the message).
    pub fn corrupted_by_category(&self, cat: MessageCategory) -> u64 {
        self.0.lock().corrupted_by_cat[cat.index()]
    }

    /// Messages of `cat` delivered twice.
    pub fn duplicated_by_category(&self, cat: MessageCategory) -> u64 {
        self.0.lock().duplicated_by_cat[cat.index()]
    }

    /// Garbage frames inserted into the stream.
    pub fn injected_frames(&self) -> u64 {
        self.0.lock().injected
    }
}

/// One direction's channel characteristics.
#[derive(Debug, Clone, Copy)]
pub struct LinkConfig {
    /// One-way propagation delay in ms.
    pub latency_ms: u64,
    /// Uniform jitter added on top, `0..=jitter_ms` ms.
    pub jitter_ms: u64,
    /// Serialization rate; `None` = infinite (the paper's GbE baseline is
    /// effectively rate-unconstrained for this protocol).
    pub rate: Option<BitRate>,
    /// Independent per-message loss probability (TCP would retransmit;
    /// modeled as an extra full RTT of delay instead of disappearance).
    pub loss: f64,
    pub seed: u64,
    /// Bound on the number of in-transit messages (a socket buffer /
    /// outbound queue); `0` = unbounded. At capacity the queue sheds the
    /// *oldest sheddable* message (stats reports — see
    /// [`MessageCategory::sheddable`]); liveness, commands and the other
    /// control traffic are never shed, so a full queue of stats cannot
    /// starve a heartbeat.
    pub queue_cap: usize,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            latency_ms: 0,
            jitter_ms: 0,
            rate: None,
            loss: 0.0,
            seed: 0xF1E8,
            queue_cap: 0,
        }
    }
}

impl LinkConfig {
    /// An ideal link (dedicated fiber / same-host deployment).
    pub fn ideal() -> Self {
        Self::default()
    }

    /// A symmetric-delay link: `rtt_ms / 2` each way.
    pub fn with_one_way_ms(latency_ms: u64) -> Self {
        LinkConfig {
            latency_ms,
            ..Self::default()
        }
    }
}

struct InTransit {
    arrival: Tti,
    payload: Vec<u8>,
    category: MessageCategory,
}

/// A guaranteed-undecodable frame (no valid integrity trailer, and the
/// bytes are not even protobuf), used for fault insertion.
const GARBAGE_FRAME: [u8; 16] = [0xFF; 16];

/// Delivered payload buffers a direction keeps for its sender to encode
/// into again. One message is in flight per link-latency TTI and message
/// kind, so a handful covers the steady state.
const SPARE_BUFFERS: usize = 8;

/// The shared directed queue between two endpoints.
struct Direction {
    config: LinkConfig,
    queue: VecDeque<InTransit>,
    /// Buffers of delivered messages, awaiting reuse as the sending
    /// endpoint's encode buffer (at most [`SPARE_BUFFERS`]).
    spare: Vec<Vec<u8>>,
    /// Departure horizon for rate limiting.
    next_free: Tti,
    /// Last scheduled arrival (FIFO enforcement under jitter).
    last_arrival: Tti,
    rng: StdRng,
    /// Optional shared fault model (drops, bursts, partitions, spikes,
    /// wire-level mangling).
    faults: Option<FaultHandle>,
    /// Messages removed by the bounded-queue shedder, per category.
    shed_by_cat: [u64; 8],
}

impl Direction {
    fn new(config: LinkConfig) -> Self {
        Direction {
            config,
            queue: VecDeque::new(),
            spare: Vec::new(),
            next_free: Tti::ZERO,
            last_arrival: Tti::ZERO,
            rng: StdRng::seed_from_u64(config.seed),
            faults: None,
            shed_by_cat: [0; 8],
        }
    }

    // Named `transmit`, not `push`: a method named like the universal
    // collection verb would alias every `.push(..)` call in the workspace
    // under the lint call graph's conservative method resolution.
    fn transmit(&mut self, now: Tti, mut payload: Vec<u8>, category: MessageCategory) {
        let (fault_delay_ms, mangle) = match &self.faults {
            Some(handle) => match handle.0.lock().judge(now, category, payload.len()) {
                FaultVerdict::Drop => return,
                FaultVerdict::Deliver {
                    extra_delay_ms,
                    mangle,
                } => (extra_delay_ms, mangle),
            },
            None => (0, Mangle::None),
        };
        match mangle {
            Mangle::Corrupt { at, bit } => payload[at] ^= 1 << bit,
            Mangle::Truncate { keep } => payload.truncate(keep),
            Mangle::None | Mangle::Duplicate | Mangle::Insert => {}
        }
        let bytes = payload.len() as u64 + FRAME_OVERHEAD_BYTES;
        // Serialization delay under a rate limit.
        let start = now.max(self.next_free);
        let tx_ms = match self.config.rate {
            None => 0,
            Some(r) if r.as_bps() == 0 => 0,
            Some(r) => (bytes * 8 * 1000).div_ceil(r.as_bps()),
        };
        self.next_free = start + tx_ms;
        let jitter = if self.config.jitter_ms > 0 {
            self.rng.random_range(0..=self.config.jitter_ms)
        } else {
            0
        };
        // A "lost" message costs an extra round trip (TCP retransmission).
        let loss_penalty = if self.config.loss > 0.0 && self.rng.random::<f64>() < self.config.loss
        {
            2 * self.config.latency_ms.max(1)
        } else {
            0
        };
        let mut arrival =
            self.next_free + self.config.latency_ms + jitter + loss_penalty + fault_delay_ms;
        if arrival < self.last_arrival {
            arrival = self.last_arrival; // FIFO: never overtake
        }
        self.last_arrival = arrival;
        if mangle == Mangle::Duplicate {
            self.enqueue(InTransit {
                arrival,
                payload: payload.clone(),
                category,
            });
        }
        let insert = mangle == Mangle::Insert;
        self.enqueue(InTransit {
            arrival,
            payload,
            category,
        });
        if insert {
            self.enqueue(InTransit {
                arrival,
                payload: GARBAGE_FRAME.to_vec(),
                category,
            });
        }
    }

    /// Enqueue with bounded-queue shedding: at capacity, the oldest
    /// sheddable in-transit message makes room; if the newcomer itself is
    /// sheddable and nothing older can go, the newcomer is shed. Traffic
    /// that is not sheddable is never dropped here — the queue grows past
    /// the cap instead (the bound protects against stats floods, not
    /// against control traffic, which is low-rate by construction).
    fn enqueue(&mut self, msg: InTransit) {
        let cap = self.config.queue_cap;
        if cap > 0 && self.queue.len() >= cap {
            if let Some(pos) = self.queue.iter().position(|m| m.category.sheddable()) {
                self.shed_by_cat[self.queue[pos].category.index()] += 1;
                self.queue.remove(pos);
            } else if msg.category.sheddable() {
                self.shed_by_cat[msg.category.index()] += 1;
                return;
            }
        }
        self.queue.push_back(msg);
    }

    fn pop_due(&mut self, now: Tti) -> Option<Vec<u8>> {
        if self
            .queue
            .front()
            .map(|m| m.arrival <= now)
            .unwrap_or(false)
        {
            Some(self.queue.pop_front().expect("checked front").payload)
        } else {
            None
        }
    }

    /// Take back the buffer of a delivered message. Its bytes are left
    /// in place: the sender's writer overwrites them as headroom.
    fn recycle(&mut self, payload: Vec<u8>) {
        if self.spare.len() < SPARE_BUFFERS {
            self.spare.push(payload);
        }
    }
}

/// One endpoint of a simulated link.
pub struct SimTransport {
    clock: Arc<VirtualClock>,
    /// Queue this endpoint sends into.
    out: Arc<Mutex<Direction>>,
    /// Queue this endpoint receives from.
    inc: Arc<Mutex<Direction>>,
    /// Encode buffer. Each send moves it into the queue whole and
    /// continues in one the receiver has handed back.
    scratch: WireWriter,
    /// Payload of the message the last `try_recv` returned, lent out via
    /// [`Transport::last_envelope`]; handed back to the sender's spares
    /// on the next `try_recv`.
    lent: Option<Vec<u8>>,
    tx_counters: ByteCounters,
    rx_counters: ByteCounters,
}

/// Create a connected pair `(a, b)`; `a_to_b` configures the a→b
/// direction, `b_to_a` the reverse.
pub fn sim_link_pair(
    clock: Arc<VirtualClock>,
    a_to_b: LinkConfig,
    b_to_a: LinkConfig,
) -> (SimTransport, SimTransport) {
    sim_link_pair_inner(clock, a_to_b, b_to_a, None)
}

/// Like [`sim_link_pair`], with a shared fault model steering both
/// directions (partitions, probabilistic drops, burst loss, jitter
/// spikes).
pub fn sim_link_pair_with_faults(
    clock: Arc<VirtualClock>,
    a_to_b: LinkConfig,
    b_to_a: LinkConfig,
    faults: FaultHandle,
) -> (SimTransport, SimTransport) {
    sim_link_pair_inner(clock, a_to_b, b_to_a, Some(faults))
}

fn sim_link_pair_inner(
    clock: Arc<VirtualClock>,
    a_to_b: LinkConfig,
    b_to_a: LinkConfig,
    faults: Option<FaultHandle>,
) -> (SimTransport, SimTransport) {
    let mut dir_ab = Direction::new(a_to_b);
    dir_ab.faults = faults.clone();
    let mut dir_ba = Direction::new(b_to_a);
    dir_ba.faults = faults;
    let ab = Arc::new(Mutex::new(dir_ab));
    let ba = Arc::new(Mutex::new(dir_ba));
    (
        SimTransport {
            clock: clock.clone(),
            out: ab.clone(),
            inc: ba.clone(),
            scratch: WireWriter::new(),
            lent: None,
            tx_counters: ByteCounters::new(),
            rx_counters: ByteCounters::new(),
        },
        SimTransport {
            clock,
            out: ba,
            inc: ab,
            scratch: WireWriter::new(),
            lent: None,
            tx_counters: ByteCounters::new(),
            rx_counters: ByteCounters::new(),
        },
    )
}

impl SimTransport {
    /// Messages queued towards this endpoint but not yet due.
    pub fn in_flight_towards(&self) -> usize {
        self.inc.lock().queue.len()
    }

    /// Messages of `cat` queued towards this endpoint but not yet due.
    pub fn in_flight_towards_by_category(&self, cat: MessageCategory) -> usize {
        self.inc
            .lock()
            .queue
            .iter()
            .filter(|m| m.category == cat)
            .count()
    }

    /// Messages of `cat` shed by the bounded queue flowing *towards*
    /// this endpoint (i.e. the peer sent them, the queue dropped them).
    pub fn shed_towards_by_category(&self, cat: MessageCategory) -> u64 {
        self.inc.lock().shed_by_cat[cat.index()]
    }

    /// Messages of `cat` shed by the bounded queue this endpoint sends
    /// into.
    pub fn shed_from_by_category(&self, cat: MessageCategory) -> u64 {
        self.out.lock().shed_by_cat[cat.index()]
    }
}

impl Transport for SimTransport {
    fn send(&mut self, header: Header, msg: &FlexranMessage) -> Result<()> {
        msg.encode_into(header, &mut self.scratch);
        self.tx_counters.add(
            msg.category(),
            self.scratch.len() as u64 + FRAME_OVERHEAD_BYTES,
        );
        let mut out = self.out.lock();
        let payload = self.scratch.take_vec(out.spare.pop().unwrap_or_default());
        out.transmit(self.clock.now(), payload, msg.category());
        Ok(())
    }

    fn try_recv(&mut self) -> Result<Option<(Header, FlexranMessage)>> {
        let payload = {
            let mut inc = self.inc.lock();
            if let Some(lent) = self.lent.take() {
                inc.recycle(lent);
            }
            inc.pop_due(self.clock.now())
        };
        let Some(payload) = payload else {
            return Ok(None);
        };
        match FlexranMessage::decode(&payload) {
            Ok((header, msg)) => {
                self.rx_counters
                    .add(msg.category(), payload.len() as u64 + FRAME_OVERHEAD_BYTES);
                self.lent = Some(payload);
                Ok(Some((header, msg)))
            }
            Err(e) => {
                // Mangled frames are a fault-injection event, so the
                // second lock stays off the common path.
                self.inc.lock().recycle(payload);
                Err(FlexError::Transport(format!(
                    "undecodable frame on sim link: {e}"
                )))
            }
        }
    }

    fn last_envelope(&self) -> Option<&[u8]> {
        self.lent.as_deref()
    }

    fn tx_counters(&self) -> ByteCounters {
        self.tx_counters
    }

    fn rx_counters(&self) -> ByteCounters {
        self.rx_counters
    }

    /// Models a process crash: everything queued towards this endpoint —
    /// due or not — is discarded, exactly like the kernel dropping a dead
    /// process's socket buffers.
    fn purge_inbound(&mut self) -> usize {
        let mut inc = self.inc.lock();
        let n = inc.queue.len();
        inc.queue.clear();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexran_proto::messages::{Echo, Hello};
    use flexran_types::ids::EnbId;

    fn msg(n: u32) -> FlexranMessage {
        FlexranMessage::Hello(Hello {
            enb_id: EnbId(n),
            n_cells: 1,
            capabilities: vec![],
            applied_config: 0,
        })
    }

    fn clocked() -> Arc<VirtualClock> {
        Arc::new(VirtualClock::new())
    }

    #[test]
    fn zero_latency_delivers_same_tti() {
        let clock = clocked();
        let (mut a, mut b) = sim_link_pair(clock.clone(), LinkConfig::ideal(), LinkConfig::ideal());
        a.send(Header::default(), &msg(1)).unwrap();
        let (_, m) = b.try_recv().unwrap().unwrap();
        assert_eq!(m, msg(1));
    }

    #[test]
    fn latency_holds_messages() {
        let clock = clocked();
        let (mut a, mut b) = sim_link_pair(
            clock.clone(),
            LinkConfig::with_one_way_ms(10),
            LinkConfig::ideal(),
        );
        a.send(Header::default(), &msg(1)).unwrap();
        for t in 0..10 {
            clock.advance_to(Tti(t));
            assert!(b.try_recv().unwrap().is_none(), "early at {t}");
        }
        clock.advance_to(Tti(10));
        assert!(b.try_recv().unwrap().is_some());
    }

    #[test]
    fn fifo_preserved_under_jitter() {
        let clock = clocked();
        let cfg = LinkConfig {
            latency_ms: 5,
            jitter_ms: 10,
            ..LinkConfig::default()
        };
        let (mut a, mut b) = sim_link_pair(clock.clone(), cfg, LinkConfig::ideal());
        for i in 0..50u32 {
            a.send(Header::with_xid(i), &msg(i)).unwrap();
        }
        clock.advance_to(Tti(100));
        let mut prev = None;
        let mut n = 0;
        while let Some((h, _)) = b.try_recv().unwrap() {
            if let Some(p) = prev {
                assert!(h.xid > p, "reordered: {p} then {}", h.xid);
            }
            prev = Some(h.xid);
            n += 1;
        }
        assert_eq!(n, 50);
    }

    #[test]
    fn rate_limit_spreads_deliveries() {
        let clock = clocked();
        // ~1 kB messages over an 80 kb/s link: 100+ ms serialization each.
        let cfg = LinkConfig {
            rate: Some(BitRate::from_kbps(80)),
            ..LinkConfig::default()
        };
        let (mut a, mut b) = sim_link_pair(clock.clone(), cfg, LinkConfig::ideal());
        let big = FlexranMessage::EchoRequest(Echo {
            timestamp_us: 0,
            payload: vec![0u8; 1000],
        });
        a.send(Header::default(), &big).unwrap();
        a.send(Header::default(), &big).unwrap();
        clock.advance_to(Tti(95));
        assert!(b.try_recv().unwrap().is_none(), "still serializing");
        clock.advance_to(Tti(110));
        assert!(b.try_recv().unwrap().is_some(), "first after ~100 ms");
        assert!(b.try_recv().unwrap().is_none(), "second still serializing");
        clock.advance_to(Tti(220));
        assert!(b.try_recv().unwrap().is_some());
    }

    #[test]
    fn loss_adds_rtt_penalty_not_disappearance() {
        let clock = clocked();
        let cfg = LinkConfig {
            latency_ms: 10,
            loss: 1.0, // every message "lost" once
            ..LinkConfig::default()
        };
        let (mut a, mut b) = sim_link_pair(clock.clone(), cfg, LinkConfig::ideal());
        a.send(Header::default(), &msg(1)).unwrap();
        clock.advance_to(Tti(10));
        assert!(b.try_recv().unwrap().is_none(), "lost copy delayed");
        clock.advance_to(Tti(30)); // +2*latency penalty
        assert!(b.try_recv().unwrap().is_some(), "TCP retransmit arrives");
    }

    #[test]
    fn directions_are_independent() {
        let clock = clocked();
        let (mut a, mut b) = sim_link_pair(
            clock.clone(),
            LinkConfig::with_one_way_ms(50),
            LinkConfig::ideal(),
        );
        b.send(Header::default(), &msg(2)).unwrap();
        // b→a is ideal even though a→b is slow.
        assert!(a.try_recv().unwrap().is_some());
    }

    #[test]
    fn partition_window_silences_both_directions() {
        let clock = clocked();
        let faults = FaultHandle::new(1);
        faults.partition_between(Tti(10), Tti(20));
        let (mut a, mut b) = sim_link_pair_with_faults(
            clock.clone(),
            LinkConfig::ideal(),
            LinkConfig::ideal(),
            faults.clone(),
        );
        // Before the window: delivery works.
        a.send(Header::default(), &msg(1)).unwrap();
        assert!(b.try_recv().unwrap().is_some());
        // Inside the window: both directions black-hole.
        clock.advance_to(Tti(15));
        assert!(faults.is_partitioned(Tti(15)));
        a.send(Header::default(), &msg(2)).unwrap();
        b.send(Header::default(), &msg(3)).unwrap();
        clock.advance_to(Tti(19));
        assert!(b.try_recv().unwrap().is_none());
        assert!(a.try_recv().unwrap().is_none());
        assert_eq!(faults.dropped(), 2);
        // After the window: healed.
        clock.advance_to(Tti(20));
        assert!(!faults.is_partitioned(Tti(20)));
        a.send(Header::default(), &msg(4)).unwrap();
        let (_, m) = b.try_recv().unwrap().unwrap();
        assert_eq!(m, msg(4));
    }

    #[test]
    fn manual_partition_toggles() {
        let clock = clocked();
        let faults = FaultHandle::new(2);
        let (mut a, mut b) = sim_link_pair_with_faults(
            clock.clone(),
            LinkConfig::ideal(),
            LinkConfig::ideal(),
            faults.clone(),
        );
        faults.set_partitioned(true);
        a.send(Header::default(), &msg(1)).unwrap();
        assert!(b.try_recv().unwrap().is_none());
        faults.set_partitioned(false);
        a.send(Header::default(), &msg(2)).unwrap();
        assert!(b.try_recv().unwrap().is_some());
    }

    #[test]
    fn probabilistic_drops_are_deterministic_per_seed() {
        let run = |seed: u64| -> (u64, u64) {
            let clock = clocked();
            let faults = FaultHandle::new(seed);
            faults.set_config(FaultConfig {
                drop_prob: 0.4,
                ..FaultConfig::default()
            });
            let (mut a, mut b) = sim_link_pair_with_faults(
                clock.clone(),
                LinkConfig::ideal(),
                LinkConfig::ideal(),
                faults.clone(),
            );
            let mut received = 0;
            for i in 0..200u32 {
                a.send(Header::with_xid(i), &msg(i)).unwrap();
                if b.try_recv().unwrap().is_some() {
                    received += 1;
                }
            }
            (received, faults.dropped())
        };
        let (recv_a, drop_a) = run(77);
        let (recv_b, drop_b) = run(77);
        assert_eq!((recv_a, drop_a), (recv_b, drop_b), "replay must match");
        assert_eq!(recv_a + drop_a, 200);
        assert!(drop_a > 40 && drop_a < 140, "drop count {drop_a}");
        let (recv_c, _) = run(78);
        assert_ne!(recv_a, recv_c, "different seeds diverge");
    }

    #[test]
    fn burst_loss_drops_runs_of_messages() {
        let clock = clocked();
        let faults = FaultHandle::new(5);
        faults.set_config(FaultConfig {
            burst: Some(BurstLoss {
                enter_prob: 0.05,
                exit_prob: 0.2,
            }),
            ..FaultConfig::default()
        });
        let (mut a, mut b) = sim_link_pair_with_faults(
            clock.clone(),
            LinkConfig::ideal(),
            LinkConfig::ideal(),
            faults.clone(),
        );
        // Track the longest run of consecutive losses; bursts make runs.
        let mut longest_run = 0;
        let mut run = 0;
        for i in 0..500u32 {
            a.send(Header::with_xid(i), &msg(i)).unwrap();
            if b.try_recv().unwrap().is_none() {
                run += 1;
                longest_run = longest_run.max(run);
            } else {
                run = 0;
            }
        }
        assert!(faults.dropped() > 0, "some loss expected");
        assert!(longest_run >= 2, "burst model should produce loss runs");
    }

    #[test]
    fn jitter_spikes_delay_but_deliver() {
        let clock = clocked();
        let faults = FaultHandle::new(9);
        faults.set_config(FaultConfig {
            jitter_spike_prob: 1.0,
            jitter_spike_ms: 25,
            ..FaultConfig::default()
        });
        let (mut a, mut b) = sim_link_pair_with_faults(
            clock.clone(),
            LinkConfig::with_one_way_ms(5),
            LinkConfig::ideal(),
            faults,
        );
        a.send(Header::default(), &msg(1)).unwrap();
        clock.advance_to(Tti(29));
        assert!(b.try_recv().unwrap().is_none(), "spike defers delivery");
        clock.advance_to(Tti(30));
        assert!(b.try_recv().unwrap().is_some());
    }

    #[test]
    fn wire_corruption_surfaces_as_transport_errors() {
        let clock = clocked();
        let faults = FaultHandle::new(11);
        faults.set_config(FaultConfig {
            wire: Some(WireFaults {
                corrupt_prob: 0.5,
                truncate_prob: 0.25,
                ..WireFaults::default()
            }),
            ..FaultConfig::default()
        });
        let (mut a, mut b) = sim_link_pair_with_faults(
            clock.clone(),
            LinkConfig::ideal(),
            LinkConfig::ideal(),
            faults.clone(),
        );
        let (mut ok, mut err) = (0u64, 0u64);
        for i in 0..300u32 {
            a.send(Header::with_xid(i), &msg(i)).unwrap();
            match b.try_recv() {
                Ok(Some(_)) => ok += 1,
                Ok(None) => {}
                Err(_) => err += 1,
            }
        }
        use flexran_proto::category::MessageCategory;
        let corrupted = faults.corrupted_by_category(MessageCategory::AgentManagement);
        assert!(corrupted > 0, "mangling must have happened");
        // Corruption may still leave a decodable frame (a bit flip in a
        // string, say), so errors are a lower bound — but every mangled
        // message was still *delivered* as exactly one frame.
        assert!(err > 0, "some frames must fail to decode");
        assert_eq!(ok + err, 300);
    }

    #[test]
    fn wire_duplication_and_insertion_add_frames() {
        let clock = clocked();
        let faults = FaultHandle::new(12);
        faults.set_config(FaultConfig {
            wire: Some(WireFaults {
                duplicate_prob: 0.3,
                insert_prob: 0.3,
                ..WireFaults::default()
            }),
            ..FaultConfig::default()
        });
        let (mut a, mut b) = sim_link_pair_with_faults(
            clock.clone(),
            LinkConfig::ideal(),
            LinkConfig::ideal(),
            faults.clone(),
        );
        for i in 0..200u32 {
            a.send(Header::with_xid(i), &msg(i)).unwrap();
        }
        let (mut ok, mut err) = (0u64, 0u64);
        loop {
            match b.try_recv() {
                Ok(Some(_)) => ok += 1,
                Ok(None) => break,
                Err(_) => err += 1,
            }
        }
        use flexran_proto::category::MessageCategory;
        let dup = faults.duplicated_by_category(MessageCategory::AgentManagement);
        let inj = faults.injected_frames();
        assert!(dup > 0 && inj > 0);
        assert_eq!(ok, 200 + dup, "duplicates decode fine and arrive twice");
        assert_eq!(err, inj, "every injected garbage frame fails decode");
    }

    #[test]
    fn bounded_queue_sheds_oldest_stats_but_never_liveness() {
        use flexran_proto::category::MessageCategory;
        use flexran_proto::messages::stats::StatsReply;
        let clock = clocked();
        let cfg = LinkConfig {
            latency_ms: 50, // keep everything in flight
            queue_cap: 4,
            ..LinkConfig::default()
        };
        let (mut a, b) = sim_link_pair(clock.clone(), cfg, LinkConfig::ideal());
        let stats = FlexranMessage::StatsReply(StatsReply {
            enb_id: EnbId(1),
            ..StatsReply::default()
        });
        let beat = FlexranMessage::Heartbeat(flexran_proto::messages::Heartbeat {
            seq: 1,
            tti: 0,
            applied_config: 0,
        });
        for i in 0..6u32 {
            a.send(Header::with_xid(i), &stats).unwrap();
        }
        // Stats overflow: the two oldest stats replies were shed.
        assert_eq!(b.in_flight_towards(), 4);
        assert_eq!(
            b.shed_towards_by_category(MessageCategory::StatsReporting),
            2
        );
        // Liveness pushes past the cap rather than being shed, and sheds
        // older stats to make room.
        for _ in 0..6 {
            a.send(Header::default(), &beat).unwrap();
        }
        assert_eq!(b.shed_towards_by_category(MessageCategory::Liveness), 0);
        assert_eq!(
            b.in_flight_towards_by_category(MessageCategory::Liveness),
            6,
            "no heartbeat lost"
        );
        assert_eq!(
            b.shed_towards_by_category(MessageCategory::StatsReporting),
            6,
            "all remaining stats shed to make room"
        );
    }

    #[test]
    fn purge_inbound_models_a_crash() {
        let clock = clocked();
        let cfg = LinkConfig {
            latency_ms: 10,
            ..LinkConfig::default()
        };
        let (mut a, mut b) = sim_link_pair(clock.clone(), cfg, LinkConfig::ideal());
        a.send(Header::default(), &msg(1)).unwrap();
        a.send(Header::default(), &msg(2)).unwrap();
        assert_eq!(b.purge_inbound(), 2);
        clock.advance_to(Tti(20));
        assert!(b.try_recv().unwrap().is_none(), "crash lost the messages");
    }

    #[test]
    fn last_envelope_lends_the_decoded_bytes() {
        let clock = clocked();
        let cfg = LinkConfig {
            latency_ms: 1,
            ..LinkConfig::default()
        };
        let (mut a, mut b) = sim_link_pair(clock.clone(), cfg, LinkConfig::ideal());
        assert!(b.last_envelope().is_none());
        a.send(Header::with_xid(7), &msg(1)).unwrap();
        assert!(b.try_recv().unwrap().is_none(), "still in flight");
        assert!(b.last_envelope().is_none());
        clock.advance_to(Tti(1));
        let (h, m) = b.try_recv().unwrap().unwrap();
        let envelope = m.encode(h);
        assert_eq!(b.last_envelope(), Some(&envelope[..]));
        // A crash drops what is queued, not what was already delivered.
        a.send(Header::with_xid(8), &msg(2)).unwrap();
        assert_eq!(b.purge_inbound(), 1);
        assert_eq!(b.last_envelope(), Some(&envelope[..]));
        assert!(b.try_recv().unwrap().is_none());
        assert!(b.last_envelope().is_none());
    }

    #[test]
    fn last_envelope_is_none_after_an_undecodable_frame() {
        let clock = clocked();
        let faults = FaultHandle::new(13);
        faults.set_config(FaultConfig {
            wire: Some(WireFaults {
                insert_prob: 1.0,
                ..WireFaults::default()
            }),
            ..FaultConfig::default()
        });
        let (mut a, mut b) =
            sim_link_pair_with_faults(clock, LinkConfig::ideal(), LinkConfig::ideal(), faults);
        a.send(Header::with_xid(3), &msg(1)).unwrap();
        let (h, m) = b.try_recv().unwrap().unwrap();
        assert_eq!(b.last_envelope(), Some(&m.encode(h)[..]));
        assert!(b.try_recv().is_err(), "the inserted garbage frame");
        assert!(b.last_envelope().is_none());
    }

    #[test]
    fn lending_keeps_the_spare_pool_capped() {
        let clock = clocked();
        let (mut a, mut b) = sim_link_pair(clock, LinkConfig::ideal(), LinkConfig::ideal());
        for i in 0..20 {
            a.send(Header::with_xid(i), &msg(i)).unwrap();
        }
        let mut received = 0;
        while b.try_recv().unwrap().is_some() {
            received += 1;
            assert!(b.inc.lock().spare.len() <= SPARE_BUFFERS);
        }
        assert_eq!(received, 20);
        // All twenty buffers came back, the last on the empty poll; the
        // pool kept eight of them.
        assert_eq!(b.inc.lock().spare.len(), SPARE_BUFFERS);
    }

    #[test]
    fn counters_track_categories() {
        let clock = clocked();
        let (mut a, mut b) = sim_link_pair(clock.clone(), LinkConfig::ideal(), LinkConfig::ideal());
        a.send(Header::default(), &msg(1)).unwrap();
        let _ = b.try_recv().unwrap();
        use flexran_proto::category::MessageCategory;
        assert_eq!(
            a.tx_counters().messages(MessageCategory::AgentManagement),
            1
        );
        assert_eq!(
            b.rx_counters().bytes(MessageCategory::AgentManagement),
            a.tx_counters().bytes(MessageCategory::AgentManagement)
        );
    }
}
