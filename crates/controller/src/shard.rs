//! Per-agent RIB shards: the partitioned control plane.
//!
//! The paper's master is logically centralized but nothing in its cycle
//! requires one serial loop: every agent message mutates only that
//! agent's RIB subtree, and the single-writer discipline (Fig. 5) is a
//! *per-subtree* property. A [`RibShard`] is the unit of that
//! partitioning — it owns a disjoint set of agents and, for them, the
//! complete vertical slice of master state:
//!
//! * a private [`Rib`] forest holding only the owned agents' subtrees,
//! * its own single-writer [`RibUpdater`] (one writer **per shard** —
//!   the R1 lint's discipline, now multiplied),
//! * its own [`RibJournal`], one segment per owned agent (crash recovery
//!   replays segments independently; the container format is
//!   `journal::encode_segments`),
//! * the agent sessions themselves, so a shard's RIB slot touches no
//!   state outside the shard.
//!
//! [`ShardSpec`] picks the partitioning: `Auto` (one shard — the classic
//! serial master, the default), `Fixed(n)` (agents hashed over `n`
//! shards by id), or `PerAgent` (a shard per agent, allocated at first
//! `Hello`).
//!
//! Cross-shard interactions never touch another shard's RIB. They are
//! explicit [`CrossShardMsg`] values posted to the target shard's
//! mailbox by the master at the barrier after the shards' RIB slots:
//! staged northbound commands are routed to the owning shard's sessions,
//! and a handover whose source and target agents live in different
//! shards additionally posts a [`CrossShardMsg::HandoverNotice`] to the
//! target's shard (coordination bookkeeping — deliberately inert so a
//! sharded run stays bit-identical to the 1-shard baseline).
//!
//! Determinism: each shard tags the events it raises with the session's
//! *global* index and a phase number; the master stable-sorts the merged
//! stream by `(phase, global index)`, which reproduces exactly the event
//! order of the old serial loop regardless of shard count.

use std::collections::VecDeque;

use flexran_proto::messages::delegation::VsfPush;
use flexran_proto::messages::events::EventKind;
use flexran_proto::messages::stats::{ReportConfig, StatsRequest};
use flexran_proto::messages::{EventNotification, FlexranMessage, Header, ResyncRequest};
use flexran_proto::transport::Transport;
use flexran_types::ids::EnbId;
use flexran_types::time::Tti;

use crate::config::BundleAck;
use crate::journal::{mutates_rib, RibJournal};
use crate::master::{SessionLivenessStats, TaskManagerConfig};
use crate::rib::Rib;
use crate::updater::{NotifiedEvent, RibUpdater};

/// How the master partitions agents over RIB shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardSpec {
    /// One shard (the classic serial master). The default, so existing
    /// configurations and tests are untouched.
    #[default]
    Auto,
    /// `n` shards; agent `e` is owned by shard `e mod n`. The mapping
    /// depends only on the agent id, so it is stable across restarts
    /// and arrival orders.
    Fixed(usize),
    /// One shard per agent, allocated when the agent's first `Hello`
    /// arrives (allocation order is the deterministic hello order).
    PerAgent,
}

impl ShardSpec {
    /// Shards to pre-allocate at master construction.
    pub fn initial_shards(self) -> usize {
        match self {
            ShardSpec::Auto => 1,
            ShardSpec::Fixed(n) => n.max(1),
            ShardSpec::PerAgent => 0,
        }
    }
}

/// Delegated state the master replays to a rejoining agent, in original
/// order (paper §4.3.2: the master, not the agent, owns policy intent).
#[derive(Debug, Clone)]
pub(crate) enum ReplayOp {
    Stats(ReportConfig),
    Vsf(VsfPush),
    Policy(String),
}

impl ReplayOp {
    pub(crate) fn to_message(&self) -> FlexranMessage {
        match self {
            ReplayOp::Stats(config) => {
                FlexranMessage::StatsRequest(StatsRequest { config: *config })
            }
            ReplayOp::Vsf(push) => FlexranMessage::VsfPush(push.clone()),
            ReplayOp::Policy(yaml) => FlexranMessage::PolicyReconfiguration(
                flexran_proto::messages::PolicyReconfiguration { yaml: yaml.clone() },
            ),
        }
    }

    /// Inverse of [`ReplayOp::to_message`] — journal recovery turns the
    /// persisted replay section back into ops. Non-delegation kinds in
    /// the section are ignored (a corrupt-but-decodable journal must not
    /// inject arbitrary commands).
    pub(crate) fn from_message(msg: &FlexranMessage) -> Option<ReplayOp> {
        match msg {
            FlexranMessage::StatsRequest(r) => Some(ReplayOp::Stats(r.config)),
            FlexranMessage::VsfPush(p) => Some(ReplayOp::Vsf(p.clone())),
            FlexranMessage::PolicyReconfiguration(p) => Some(ReplayOp::Policy(p.yaml.clone())),
            _ => None,
        }
    }
}

/// One agent control session (transport + liveness + delegated state).
pub(crate) struct Session {
    pub(crate) transport: Box<dyn Transport>,
    pub(crate) enb_id: Option<EnbId>,
    /// Master time of the last message from this agent (None = silent so
    /// far; the timeout clock starts at the first message).
    pub(crate) last_rx: Option<Tti>,
    /// Session currently considered dead.
    pub(crate) down: bool,
    /// Delegated-state log replayed on rejoin.
    pub(crate) replay: Vec<ReplayOp>,
    /// Recovered-master sessions don't know which agent is on the other
    /// end until a `Hello` arrives; pre-hello traffic triggers a
    /// `ResyncRequest` nudge so agents that never noticed the outage
    /// (shorter than their degraded threshold) still re-introduce
    /// themselves and push full state.
    pub(crate) needs_resync_nudge: bool,
    /// When the last nudge went out. The nudge re-arms every
    /// [`RESYNC_NUDGE_PERIOD`] TTIs while the session stays pre-hello:
    /// a nudge — or the `Hello` it provokes — lost to a faulty link is
    /// retried instead of stranding the agent in a stale epoch forever.
    pub(crate) nudged_at: Option<Tti>,
    /// Index in global attach order — shard-count-invariant, the event
    /// merge key and the order of `connected_agents`/`take_transports`.
    pub(crate) global_idx: u32,
    /// Per-session transaction ids, so the xid stream on one control
    /// link does not depend on which other agents share its shard.
    pub(crate) xid: u32,
    /// Messages handed over by the master's pre-hello drain (the `Hello`
    /// that routed this session to its shard rides here); consumed ahead
    /// of the transport.
    pub(crate) carryover: VecDeque<(Header, FlexranMessage)>,
    /// Run the rejoin path (fresh-mark + delegated-state replay) on the
    /// next RIB slot — set when a recovered master adopts pending replay
    /// state at the session's `Hello`.
    pub(crate) rejoin_pending: bool,
    /// The session re-introduced itself as an agent this shard does not
    /// own; the master moves it to the owning shard at the barrier.
    pub(crate) rehome_to: Option<EnbId>,
    /// Config-bundle signature the agent last advertised (via `Hello`,
    /// heartbeat, or a successful bundle ack; 0 = none). The rollout
    /// state machine reads this to detect convergence and drift.
    pub(crate) applied_config: u64,
}

impl Session {
    pub(crate) fn new(
        transport: Box<dyn Transport>,
        global_idx: u32,
        needs_resync_nudge: bool,
    ) -> Self {
        Session {
            transport,
            enb_id: None,
            last_rx: None,
            down: false,
            replay: Vec::new(),
            needs_resync_nudge,
            nudged_at: None,
            global_idx,
            xid: 0,
            carryover: VecDeque::new(),
            rejoin_pending: false,
            rehome_to: None,
            applied_config: 0,
        }
    }

    pub(crate) fn next_xid(&mut self) -> u32 {
        self.xid = self.xid.wrapping_add(1);
        self.xid
    }

    /// Whether pre-hello traffic at `now` should draw a resync nudge,
    /// recording the send. Paced by [`RESYNC_NUDGE_PERIOD`] so the
    /// master retries (rather than spams) when a nudge or the answering
    /// `Hello` is lost on a faulty link.
    pub(crate) fn take_nudge(&mut self, now: Tti) -> bool {
        if !self.needs_resync_nudge {
            return false;
        }
        if self
            .nudged_at
            .is_some_and(|at| now.0.saturating_sub(at.0) < RESYNC_NUDGE_PERIOD)
        {
            return false;
        }
        self.nudged_at = Some(now);
        true
    }
}

/// Re-arm period (TTIs) for the pre-hello resync nudge. Longer than the
/// agent heartbeat period (so one round trip can complete), far shorter
/// than any staleness an operator would notice.
pub(crate) const RESYNC_NUDGE_PERIOD: u64 = 25;

/// A typed cross-shard message. The only way state crosses a shard
/// boundary: posted to the target shard's mailbox by the master and
/// drained in shard-index order at the barrier after the shards' RIB
/// slots, so multi-shard runs stay bit-identical to 1-shard runs.
#[derive(Debug)]
pub enum CrossShardMsg {
    /// A staged northbound command routed to the shard owning `enb`.
    Command {
        enb: EnbId,
        header: Header,
        msg: FlexranMessage,
    },
    /// Coordination heads-up to the shard owning a handover target whose
    /// source agent lives in a different shard. Bookkeeping only — it
    /// must stay digest-neutral (1-shard runs never produce one).
    HandoverNotice { from: EnbId, to: EnbId },
}

/// Event-merge phases, in the order the old serial loop raised them.
pub(crate) const PHASE_DRAIN: u8 = 0;
pub(crate) const PHASE_REJOIN: u8 = 1;
pub(crate) const PHASE_DOWN: u8 = 2;

/// An event raised by a shard's RIB slot, tagged for the deterministic
/// agent-index-ordered merge.
pub(crate) struct TaggedEvent {
    pub(crate) phase: u8,
    /// The raising session's global attach index.
    pub(crate) order: u32,
    pub(crate) event: NotifiedEvent,
}

pub(crate) fn liveness_event(enb: EnbId, kind: EventKind, now: Tti) -> NotifiedEvent {
    NotifiedEvent {
        enb,
        notification: EventNotification {
            enb_id: enb,
            kind,
            tti: now.0,
            ..EventNotification::default()
        },
        received: now,
    }
}

/// Whether shard `index` of `n_shards` owns agent `enb` under `spec`.
/// `owned_hint` is the agent a `PerAgent` shard was allocated for.
fn owns_enb(
    spec: ShardSpec,
    index: usize,
    n_shards: usize,
    owned_hint: Option<EnbId>,
    enb: EnbId,
) -> bool {
    match spec {
        ShardSpec::Auto => true,
        ShardSpec::Fixed(_) => enb.0 as usize % n_shards.max(1) == index,
        ShardSpec::PerAgent => owned_hint == Some(enb),
    }
}

/// One shard of the partitioned master: a disjoint set of agents with
/// their RIB subtrees, single-writer updater, journal segment, and
/// sessions. `run_rib_slot` touches nothing outside the shard.
pub struct RibShard {
    index: usize,
    spec: ShardSpec,
    n_shards: usize,
    owned_hint: Option<EnbId>,
    liveness_timeout: u64,
    pub(crate) rib: Rib,
    pub(crate) updater: RibUpdater,
    pub(crate) journal: Option<RibJournal>,
    pub(crate) sessions: Vec<Session>,
    pub(crate) liveness: SessionLivenessStats,
    /// Events raised this cycle, drained by the master's merge.
    pub(crate) events: Vec<TaggedEvent>,
    /// Incoming cross-shard messages (drained at the barrier).
    pub(crate) mailbox: Vec<CrossShardMsg>,
    /// Config-bundle acks received this cycle, drained by the master's
    /// rollout step at the barrier.
    pub(crate) config_acks: Vec<BundleAck>,
    coordination_notices: u64,
}

impl RibShard {
    pub(crate) fn new(
        index: usize,
        n_shards: usize,
        owned_hint: Option<EnbId>,
        config: &TaskManagerConfig,
    ) -> Self {
        RibShard {
            index,
            spec: config.shards,
            n_shards,
            owned_hint,
            liveness_timeout: config.liveness_timeout,
            rib: Rib::new(),
            updater: RibUpdater::new(),
            journal: (config.journal_snapshot_every > 0)
                .then(|| RibJournal::new(config.journal_snapshot_every)),
            sessions: Vec::new(),
            liveness: SessionLivenessStats::default(),
            events: Vec::new(),
            mailbox: Vec::new(),
            config_acks: Vec::new(),
            coordination_notices: 0,
        }
    }

    /// This shard's RIB forest (only the owned agents' subtrees).
    pub fn rib(&self) -> &Rib {
        &self.rib
    }

    pub fn index(&self) -> usize {
        self.index
    }

    /// Cross-shard handover notices observed at the barrier.
    pub fn coordination_notices(&self) -> u64 {
        self.coordination_notices
    }

    /// Run this shard's RIB slot for cycle `now`: drain the owned
    /// sessions, fold messages through the shard's single writer,
    /// journal deltas, process rejoins and liveness timeouts. Exactly
    /// the old serial master loop, restricted to the shard's agents.
    // lint:no-alloc — per-TTI shard slot; steady state must not touch the heap
    pub fn run_rib_slot(&mut self, now: Tti) {
        let (spec, index, n_shards, owned_hint) =
            (self.spec, self.index, self.n_shards, self.owned_hint);
        self.rib.open_write_cycle(now);
        // Pushes happen only on the cold rejoin edge after an outage.
        // lint:allow(hot-alloc) Vec::new never allocates
        let mut rejoined: Vec<usize> = Vec::new();
        for (idx, session) in self.sessions.iter_mut().enumerate() {
            if session.rejoin_pending {
                session.rejoin_pending = false;
                rejoined.push(idx);
            }
            if session.rehome_to.is_some() {
                // Parked for the master to move at the barrier.
                continue;
            }
            loop {
                // `from_wire`: the message is what the transport's last
                // `try_recv` returned, so its envelope may be on loan.
                let (next, from_wire) = match session.carryover.pop_front() {
                    Some(m) => (Some(m), false),
                    // lint:allow(alloc-reach) decode materializes owned messages — arrival-driven
                    None => (session.transport.try_recv().ok().flatten(), true),
                };
                let Some((header, msg)) = next else { break };
                session.last_rx = Some(now);
                if session.down {
                    session.down = false;
                    rejoined.push(idx);
                }
                if let FlexranMessage::Heartbeat(h) = &msg {
                    // Session-level probe: mirror it back even before the
                    // agent has introduced itself. The probe doubles as
                    // the drift signal: it carries the signature of the
                    // config bundle the agent is actually running.
                    session.applied_config = h.applied_config;
                    let _ = session
                        .transport
                        // lint:allow(alloc-reach) wire frame growth is pooled; ack is arrival-driven
                        .send(header, &FlexranMessage::HeartbeatAck(*h));
                }
                if let FlexranMessage::ConfigBundleAck(a) = &msg {
                    if a.ok {
                        session.applied_config = a.signature;
                    }
                    // lint:allow(alloc-reach) rollout ack — arrives only while a push is in flight
                    self.config_acks.push(BundleAck {
                        enb: a.enb_id,
                        version: a.version,
                        signature: a.signature,
                        ok: a.ok,
                    });
                }
                if let FlexranMessage::Hello(h) = &msg {
                    if !owns_enb(spec, index, n_shards, owned_hint, h.enb_id) {
                        // The session renamed itself to an agent another
                        // shard owns (an agent restart reusing the link
                        // with a new identity): park the hello and let
                        // the master re-home the session — this shard
                        // must never write a foreign subtree.
                        let rehome = h.enb_id;
                        session.carryover.push_front((header, msg));
                        session.rehome_to = Some(rehome);
                        break;
                    }
                    session.enb_id = Some(h.enb_id);
                    session.needs_resync_nudge = false;
                    session.applied_config = h.applied_config;
                }
                let Some(enb) = session.enb_id else {
                    // Pre-hello traffic carries no identity; it is not
                    // folded into the RIB. On a recovered master it still
                    // proves an agent is on this transport, so nudge it
                    // (paced, retried) to re-introduce itself and push
                    // full state.
                    if session.take_nudge(now) {
                        let xid = session.next_xid();
                        // lint:allow(alloc-reach) recovery nudge — paced, pre-hello only
                        let _ = session.transport.send(
                            Header::with_xid(xid),
                            &FlexranMessage::ResyncRequest(ResyncRequest {
                                enb_id: EnbId(0),
                                since_tti: 0,
                            }),
                        );
                    }
                    continue;
                };
                if let Some(ev) = self.updater.apply(&mut self.rib, enb, &msg, now) {
                    self.events.push(TaggedEvent {
                        phase: PHASE_DRAIN,
                        order: session.global_idx,
                        event: ev,
                    });
                }
                if let Some(journal) = self.journal.as_mut() {
                    if mutates_rib(&msg) {
                        // Journal the bytes that arrived rather than
                        // encode the decoded message a second time.
                        let envelope = from_wire
                            .then(|| session.transport.last_envelope())
                            .flatten();
                        match envelope {
                            Some(envelope) => journal.record_delta_envelope(enb, now, envelope),
                            None => journal.record_delta(enb, now, &msg),
                        }
                    }
                }
            }
        }
        // Rejoins: mark the subtree fresh again and replay delegated
        // state so the agent converges back to the pre-outage policy.
        for idx in rejoined {
            let Some((enb, order, replay)) = self
                .sessions
                .get(idx)
                // lint:allow(hot-alloc) rejoin-only (cold): replays delegated state
                .and_then(|s| s.enb_id.map(|enb| (enb, s.global_idx, s.replay.clone())))
            else {
                continue;
            };
            // The shard's view of the agent predates the outage: ask for
            // a full state re-sync (fresh ConfigReply + all-flags
            // StatsReply) before replaying delegated state, so both sides
            // converge from a known-good base. After a master crash this
            // is the reconciliation leg of recovery.
            let since_tti = self
                .rib
                .agent(enb)
                .and_then(|a| a.synced_subframe())
                .map(|t| t.0)
                .unwrap_or(0);
            self.updater.agent_rejoined(&mut self.rib, enb);
            self.liveness.ups += 1;
            self.events.push(TaggedEvent {
                phase: PHASE_REJOIN,
                order,
                event: liveness_event(enb, EventKind::AgentUp, now),
            });
            let Some(session) = self.sessions.get_mut(idx) else {
                continue;
            };
            let xid = session.next_xid();
            // lint:allow(alloc-reach) rejoin-only (cold): resync request after an outage
            let _ = session.transport.send(
                Header::with_xid(xid),
                &FlexranMessage::ResyncRequest(ResyncRequest {
                    enb_id: enb,
                    since_tti,
                }),
            );
            for op in replay {
                let xid = session.next_xid();
                let _ = session
                    .transport
                    // lint:allow(alloc-reach) rejoin-only (cold): replays delegated state
                    .send(Header::with_xid(xid), &op.to_message());
            }
        }
        // Down detection: sessions silent past the timeout get their RIB
        // subtree marked stale (a timestamped epoch — not deleted) and an
        // AgentDown event.
        if self.liveness_timeout > 0 {
            for session in &mut self.sessions {
                let (Some(enb), Some(last_rx)) = (session.enb_id, session.last_rx) else {
                    continue;
                };
                if !session.down && now.0.saturating_sub(last_rx.0) >= self.liveness_timeout {
                    session.down = true;
                    self.updater.agent_down(&mut self.rib, enb, now);
                    self.liveness.downs += 1;
                    self.events.push(TaggedEvent {
                        phase: PHASE_DOWN,
                        order: session.global_idx,
                        event: liveness_event(enb, EventKind::AgentDown, now),
                    });
                }
            }
        }
        // Durability point: the write cycle's deltas are already
        // journaled; compact the segments the cycle bound makes due plus
        // at most one over the byte bound, so journal memory stays
        // bounded by shard RIB size.
        if let Some(journal) = self.journal.as_mut() {
            journal.on_write_cycle(&self.rib);
        }
        // The RIB slot is over: this shard's single writer's window
        // closes, and (under `debug-invariants`) any app-slot mutation
        // now asserts.
        self.rib.close_write_cycle();
    }

    /// Drain the cross-shard mailbox at the barrier: dispatch routed
    /// commands on the owned sessions, record coordination notices.
    /// Called serially by the master in shard-index order.
    pub(crate) fn drain_mailbox(&mut self) {
        let mut mailbox = std::mem::take(&mut self.mailbox);
        for entry in mailbox.drain(..) {
            match entry {
                CrossShardMsg::Command { enb, header, msg } => {
                    if let Some(session) = self.sessions.iter_mut().find(|s| s.enb_id == Some(enb))
                    {
                        // lint:allow(alloc-reach) cross-shard command forwarding — command-driven
                        let _ = session.transport.send(header, &msg);
                    }
                }
                CrossShardMsg::HandoverNotice { .. } => {
                    self.coordination_notices += 1;
                }
            }
        }
        // Hand the (now empty) buffer back so the mailbox does not
        // reallocate every cycle.
        self.mailbox = mailbox;
    }
}

/// Clone-merge the shard forests into one RIB (shard-transparent full
/// snapshot: recovery golden tests, debug digests, diagnostics). The
/// result is a fresh, never-cycled RIB, so its `Debug` form and write
/// state are identical for every shard count.
pub fn merged_rib(shards: &[RibShard]) -> Rib {
    let mut rib = Rib::new();
    for shard in shards {
        for agent in shard.rib.agents() {
            rib.adopt_agent(agent.clone());
        }
    }
    rib
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_defaults_to_one_shard() {
        assert_eq!(ShardSpec::default(), ShardSpec::Auto);
        assert_eq!(ShardSpec::Auto.initial_shards(), 1);
        assert_eq!(ShardSpec::Fixed(4).initial_shards(), 4);
        assert_eq!(ShardSpec::Fixed(0).initial_shards(), 1);
        assert_eq!(ShardSpec::PerAgent.initial_shards(), 0);
    }

    #[test]
    fn fixed_ownership_is_id_stable() {
        // enb mod n, independent of arrival order.
        assert!(owns_enb(ShardSpec::Fixed(2), 1, 2, None, EnbId(1)));
        assert!(owns_enb(ShardSpec::Fixed(2), 0, 2, None, EnbId(2)));
        assert!(owns_enb(ShardSpec::Fixed(2), 1, 2, None, EnbId(3)));
        assert!(!owns_enb(ShardSpec::Fixed(2), 0, 2, None, EnbId(3)));
        // Auto owns everything; PerAgent owns exactly its hint.
        assert!(owns_enb(ShardSpec::Auto, 0, 1, None, EnbId(9)));
        assert!(owns_enb(
            ShardSpec::PerAgent,
            3,
            4,
            Some(EnbId(9)),
            EnbId(9)
        ));
        assert!(!owns_enb(
            ShardSpec::PerAgent,
            3,
            4,
            Some(EnbId(9)),
            EnbId(8)
        ));
    }

    #[test]
    fn merged_rib_is_fresh_and_complete() {
        let config = TaskManagerConfig::default();
        let mut a = RibShard::new(0, 2, None, &config);
        let mut b = RibShard::new(1, 2, None, &config);
        a.rib.agent_mut(EnbId(2)).connected_at = Tti(5);
        b.rib.agent_mut(EnbId(1)).connected_at = Tti(3);
        let merged = merged_rib(&[a, b]);
        assert_eq!(merged.n_agents(), 2);
        assert_eq!(merged.agent(EnbId(1)).unwrap().connected_at, Tti(3));
        assert_eq!(merged.agent(EnbId(2)).unwrap().connected_at, Tti(5));
        // Fresh RIB: writable (merge never opened a write cycle).
        let mut merged = merged;
        merged.agent_mut(EnbId(7));
    }
}
