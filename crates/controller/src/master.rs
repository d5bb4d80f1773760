//! The FlexRAN master controller (paper §4.3.3), sharded.
//!
//! The master manages agent sessions, runs the single-writer RIB Updater
//! discipline, the Event Notification Service and the registered
//! applications, paced by the Task Manager in cycles of one TTI split
//! into two slots: first the RIB Updater, then the applications (the
//! paper's 20 % / 80 % division — here the split is a budget rather than
//! a pre-emption boundary, since neither slot ever approaches it in
//! practice; the per-slot wall-clock times are recorded per cycle, which
//! is exactly the data behind Fig. 8).
//!
//! Since the control-plane sharding (DESIGN.md §"Sharded control
//! plane"), the RIB slot is partitioned over [`RibShard`]s: each shard
//! owns a disjoint set of agents with their RIB subtrees, updater and
//! journal segment. A cycle is three steps:
//!
//! 1. [`MasterController::begin_cycle`] — serial: route limbo sessions
//!    (attached but not yet hello'd) to their owning shards.
//! 2. [`RibShard::run_rib_slot`] per shard, in shard-index order: drain
//!    the shard's sessions through its single writer.
//! 3. [`MasterController::finish_cycle`] — serial barrier: merge the
//!    shards' event streams in agent-index order, run the apps slot
//!    against the shard-transparent [`Northbound`] facade, and route
//!    staged commands (and cross-shard handover notices) through the
//!    per-shard mailboxes.
//!
//! [`MasterController::run_cycle`] performs all three in order.
//!
//! Two pacing modes (paper §4.3.3):
//! * **virtual time** — [`MasterController::run_cycle`] is called once
//!   per simulated TTI by a harness.
//! * **real time** — [`MasterController::run_realtime`] paces cycles at
//!   wall-clock 1 ms, for deployments over real TCP transports.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use flexran_proto::messages::delegation::VsfPush;
use flexran_proto::messages::stats::{ReportConfig, StatsRequest};
use flexran_proto::messages::{ConfigBundlePush, FlexranMessage, Header, ResyncRequest};
use flexran_proto::transport::Transport;
use flexran_proto::MessageCategory;
use flexran_types::budget::{BudgetStats, TtiBudget, DEFAULT_TTI_BUDGET_NS};
use flexran_types::ids::EnbId;
use flexran_types::time::Tti;
use flexran_types::{FlexError, Result};

use crate::config::{
    AgentKpi, BundleAck, FleetKpi, RolloutAction, RolloutConfig, RolloutController, RolloutEvent,
    RolloutStatus,
};
use crate::journal::{encode_segments, split_segments, RibJournal};
use crate::northbound::{App, AppRegistry, Northbound, RibView};
use crate::rib::Rib;
use crate::shard::{
    merged_rib, CrossShardMsg, ReplayOp, RibShard, Session, ShardSpec, TaggedEvent,
};

/// Task Manager configuration.
#[derive(Debug, Clone, Copy)]
pub struct TaskManagerConfig {
    /// Cycle length in wall-clock time (real-time mode).
    pub tti_duration: Duration,
    /// Fraction of the cycle budgeted to the RIB Updater slot.
    pub rib_slot_fraction: f64,
    /// Master TTIs of session silence before an agent is declared down
    /// (0 = session liveness tracking disabled). On the down edge the
    /// agent's RIB subtree is marked stale and an `AgentDown` event is
    /// delivered to applications; on the first message after it, the
    /// subtree is marked fresh, delegated state (report subscriptions,
    /// VSF pushes, policies) is replayed, and `AgentUp` is delivered.
    pub liveness_timeout: u64,
    /// Write cycles between RIB journal snapshot rewrites (0 = journaling
    /// disabled). With journaling on, every RIB-mutating agent message and
    /// every delegated-state send is appended to the owning shard's
    /// journal segment, and [`MasterController::recover`] can rebuild the
    /// RIB after a crash.
    pub journal_snapshot_every: u64,
    /// How agents are partitioned over RIB shards. `Auto` (the default)
    /// is one shard — the classic serial master.
    pub shards: ShardSpec,
    /// Per-cycle wall-time deadline fed to the [`TtiBudget`] monitor
    /// (nanoseconds; LTE subframe = 1 ms). Observability only: the
    /// monitor reports latency percentiles and over-budget counts but
    /// never feeds wall time back into scheduling, so determinism holds.
    pub tti_budget_ns: u64,
}

impl Default for TaskManagerConfig {
    fn default() -> Self {
        TaskManagerConfig {
            tti_duration: Duration::from_millis(1),
            rib_slot_fraction: 0.2,
            liveness_timeout: 0,
            journal_snapshot_every: 0,
            shards: ShardSpec::Auto,
            tti_budget_ns: DEFAULT_TTI_BUDGET_NS,
        }
    }
}

/// Counters of the master's session-liveness tracker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionLivenessStats {
    /// `AgentDown` edges detected.
    pub downs: u64,
    /// `AgentUp` edges (rejoins, including the replay of delegated state).
    pub ups: u64,
}

/// Wall-clock accounting of one cycle.
#[derive(Debug, Clone, Copy, Default)]
pub struct CycleStats {
    pub rib_slot: Duration,
    pub apps_slot: Duration,
}

/// Accumulated accounting across cycles (Fig. 8's series).
#[derive(Debug, Clone, Copy, Default)]
pub struct CycleAccounting {
    pub cycles: u64,
    pub rib_total: Duration,
    pub apps_total: Duration,
}

impl CycleAccounting {
    pub fn mean_rib(&self) -> Duration {
        if self.cycles == 0 {
            Duration::ZERO
        } else {
            self.rib_total / self.cycles as u32
        }
    }

    pub fn mean_apps(&self) -> Duration {
        if self.cycles == 0 {
            Duration::ZERO
        } else {
            self.apps_total / self.cycles as u32
        }
    }

    /// Mean idle time per cycle against a TTI budget.
    pub fn mean_idle(&self, tti: Duration) -> Duration {
        tti.saturating_sub(self.mean_rib() + self.mean_apps())
    }
}

/// The master controller.
pub struct MasterController {
    config: TaskManagerConfig,
    /// The partitioned control plane. Shard index is stable for the
    /// master's lifetime; `owner` maps each known agent to its shard.
    shards: Vec<RibShard>,
    owner: BTreeMap<EnbId, usize>,
    /// Attached sessions that have not introduced themselves yet — they
    /// belong to no shard until their `Hello` names an agent.
    limbo: Vec<Session>,
    apps: AppRegistry,
    /// The shard-transparent northbound facade (apps-slot state: staged
    /// commands, conflict claims, app-path transaction ids).
    nb: Northbound,
    accounting: CycleAccounting,
    /// Management-path transaction ids (`send_to` and the limbo nudges).
    xid: u32,
    now: Tti,
    /// Delegated state recovered from the journal, owed to agents that
    /// have not re-introduced themselves since the restart. Adopted into
    /// the session (and replayed) when the agent's `Hello` arrives.
    pending_replay: BTreeMap<EnbId, Vec<ReplayOp>>,
    /// This incarnation was built by [`MasterController::recover`].
    recovered: bool,
    /// Next session attach index (the shard-count-invariant global order
    /// used for event merging and session-enumeration APIs).
    next_global_idx: u32,
    /// Handovers whose source and target agents live in different shards
    /// (each also posts a [`CrossShardMsg::HandoverNotice`]).
    cross_shard_handovers: u64,
    /// RIB-slot stopwatch, armed by `begin_cycle`, read by `finish_cycle`.
    cycle_start: Option<Instant>,
    /// Deadline monitor over whole cycles (RIB slot + apps slot) against
    /// `config.tti_budget_ns`. Purely observational.
    budget: TtiBudget,
    /// Latest journal record of the rollout controller (raw codec bytes;
    /// empty = no rollout ever staged). Written whenever the state
    /// machine transitions and appended to [`MasterController::journal_bytes`]
    /// as its own final segment, so recovery resumes the rollout.
    rollout_state: Vec<u8>,
    /// Reusable buffers for the per-cycle rollout step (KPI samples,
    /// drained acks, staged pushes) — the step stays heap-free in steady
    /// state once a rollout has engaged.
    kpi_scratch: Vec<AgentKpi>,
    ack_scratch: Vec<BundleAck>,
    action_scratch: Vec<RolloutAction>,
}

impl MasterController {
    pub fn new(config: TaskManagerConfig) -> Self {
        let n = config.shards.initial_shards();
        MasterController {
            config,
            shards: (0..n).map(|i| RibShard::new(i, n, None, &config)).collect(),
            owner: BTreeMap::new(),
            limbo: Vec::new(),
            apps: AppRegistry::new(),
            nb: Northbound::new(),
            accounting: CycleAccounting::default(),
            xid: 0,
            now: Tti::ZERO,
            pending_replay: BTreeMap::new(),
            recovered: false,
            next_global_idx: 0,
            cross_shard_handovers: 0,
            cycle_start: None,
            budget: TtiBudget::new(config.tti_budget_ns),
            rollout_state: Vec::new(),
            kpi_scratch: Vec::new(),
            ack_scratch: Vec::new(),
            action_scratch: Vec::new(),
        }
    }

    /// Rebuild a master from its journal after a crash. Each shard
    /// segment's snapshot and delta records are replayed through the
    /// owning shard's RIB Updater (the same single writer that built the
    /// state originally), every recovered agent subtree is marked stale
    /// at `now` — the data is a pre-crash epoch until the agent re-syncs
    /// — and the persisted delegated state is held pending, to be
    /// replayed when each agent's `Hello` arrives. Agent transports must
    /// be re-attached via [`MasterController::add_agent`]; sessions
    /// re-learn their identity from the agents' hellos. Accepts both the
    /// sharded `FXS1` container and a bare pre-sharding `FXJ1` journal.
    pub fn recover(config: TaskManagerConfig, journal_bytes: &[u8], now: Tti) -> Result<Self> {
        let segments = split_segments(journal_bytes)?;
        let mut states = Vec::with_capacity(segments.len());
        for seg in &segments {
            states.push(RibJournal::parse(seg)?);
        }
        let mut master = MasterController::new(config);
        master.now = now;
        master.recovered = true;
        for state in &states {
            for r in &state.rib_records {
                // Records route by agent id, so a journal written under
                // one shard spec recovers correctly under another. A
                // fresh shard RIB is writable until its first
                // open_write_cycle, so replay needs no cycle bracketing
                // (and recovery-time TTIs would violate the
                // monotonic-epoch assertion anyway).
                let idx = master.assign_owner(r.enb);
                let Some(shard) = master.shards.get_mut(idx) else {
                    continue;
                };
                shard.updater.apply(&mut shard.rib, r.enb, &r.msg, r.tti);
            }
        }
        for shard in &mut master.shards {
            let recovered_agents: Vec<EnbId> = shard.rib.agents().map(|a| a.enb_id).collect();
            for enb in recovered_agents {
                shard.updater.agent_down(&mut shard.rib, enb, now);
            }
        }
        for state in &states {
            for (enb, msgs) in &state.replay {
                let ops: Vec<ReplayOp> = msgs.iter().filter_map(ReplayOp::from_message).collect();
                if !ops.is_empty() {
                    master.pending_replay.entry(*enb).or_default().extend(ops);
                }
                // Seed the owning shard's journal so a twice-crashed
                // master still owes its agents the same delegated state.
                let idx = master.assign_owner(*enb);
                let Some(shard) = master.shards.get_mut(idx) else {
                    continue;
                };
                if let Some(journal) = shard.journal.as_mut() {
                    for msg in msgs {
                        journal.record_replay(*enb, msg);
                    }
                }
            }
        }
        for shard in &mut master.shards {
            if let Some(journal) = shard.journal.as_mut() {
                journal.compact(&shard.rib);
            }
        }
        // Resume the fleet rollout state machine from the last rollout
        // record across all segments (the current incarnation writes it
        // as its own final segment; older layouts may carry it anywhere).
        // Observation windows are volatile and restart: the recovered
        // machine re-opens the current phase's KPI window rather than
        // comparing counters across process epochs.
        if let Some(bytes) = states.iter().rev().find_map(|s| s.rollout.clone()) {
            master
                .nb
                .set_rollout(RolloutController::from_bytes(&bytes)?);
            master.rollout_state = bytes;
        }
        Ok(master)
    }

    /// Serialized journal of this incarnation, if journaling is on (what
    /// a deployment would keep fsynced; the sim harness carries it across
    /// a simulated crash). One segment per shard, in shard-index order.
    pub fn journal_bytes(&self) -> Option<Vec<u8>> {
        if self.config.journal_snapshot_every == 0 {
            return None;
        }
        let mut segments: Vec<Vec<u8>> = self
            .shards
            .iter()
            .filter_map(|s| s.journal.as_ref().map(|j| j.bytes()))
            .collect();
        if !self.rollout_state.is_empty() {
            // The rollout record gets its own final segment: it is
            // fleet-wide state that belongs to no shard, and a journal
            // written before any rollout stays byte-identical.
            let mut j = RibJournal::new(1);
            j.record_rollout(&self.rollout_state);
            segments.push(j.bytes());
        }
        Some(encode_segments(&segments))
    }

    /// Journal compaction count across all shard segments (diagnostics).
    pub fn journal_compactions(&self) -> Option<u64> {
        if self.config.journal_snapshot_every == 0 {
            return None;
        }
        Some(
            self.shards
                .iter()
                .filter_map(|s| s.journal.as_ref().map(|j| j.compactions()))
                .sum(),
        )
    }

    /// Detach all session transports, in attach order. Used by crash
    /// harnesses: the links outlive the master process, the sessions do
    /// not.
    pub fn take_transports(&mut self) -> Vec<Box<dyn Transport>> {
        let mut all: Vec<(u32, Box<dyn Transport>)> = self
            .limbo
            .drain(..)
            .map(|s| (s.global_idx, s.transport))
            .collect();
        for shard in &mut self.shards {
            all.extend(
                shard
                    .sessions
                    .drain(..)
                    .map(|s| (s.global_idx, s.transport)),
            );
        }
        all.sort_by_key(|(idx, _)| *idx);
        all.into_iter().map(|(_, t)| t).collect()
    }

    /// Attach an agent session (any transport). The session sits in
    /// limbo until its `Hello` names an agent, which routes it to the
    /// owning shard. Returns the session's attach index.
    pub fn add_agent(&mut self, transport: Box<dyn Transport>) -> usize {
        let idx = self.next_global_idx;
        self.next_global_idx += 1;
        self.limbo
            .push(Session::new(transport, idx, self.recovered));
        idx as usize
    }

    /// Register a northbound application.
    pub fn register_app(&mut self, app: Box<dyn App>) {
        self.apps.register(app);
    }

    /// Shard-transparent read view over the whole control plane (what
    /// the apps slot sees).
    pub fn view(&self) -> RibView<'_> {
        RibView::sharded(self.now, &self.shards).with_budget(self.budget.stats())
    }

    /// Clone-merge the shard forests into one owned RIB snapshot
    /// (recovery golden tests, debug digests, diagnostics — not a hot
    /// path; readers on the hot path use [`MasterController::view`]).
    pub fn merged_rib(&self) -> Rib {
        merged_rib(&self.shards)
    }

    /// The RIB shards, in shard-index order.
    pub fn shards(&self) -> &[RibShard] {
        &self.shards
    }

    /// Mutable shard access for callers that drive the per-shard RIB
    /// slots themselves between [`MasterController::begin_cycle`] and
    /// [`MasterController::finish_cycle`].
    pub fn shards_mut(&mut self) -> &mut [RibShard] {
        &mut self.shards
    }

    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Which shard owns `enb`, if the agent is known.
    pub fn shard_of(&self, enb: EnbId) -> Option<usize> {
        self.owner.get(&enb).copied()
    }

    /// Handovers observed whose source and target agents live in
    /// different shards (zero in single-shard runs by construction).
    pub fn cross_shard_handovers(&self) -> u64 {
        self.cross_shard_handovers
    }

    pub fn accounting(&self) -> CycleAccounting {
        self.accounting
    }

    /// Deadline-monitor snapshot: latency percentiles, worst case, and
    /// the over-budget cycle count against `config.tti_budget_ns`.
    pub fn budget_stats(&self) -> BudgetStats {
        self.budget.stats()
    }

    /// Forget all deadline-monitor samples (e.g. after a warm-up phase)
    /// without touching the budget itself.
    pub fn reset_budget(&mut self) {
        self.budget.reset();
    }

    pub fn conflicts(&self) -> u64 {
        self.nb.conflicts()
    }

    /// Known agents, in session attach order.
    pub fn connected_agents(&self) -> Vec<EnbId> {
        let mut known: Vec<(u32, EnbId)> = self
            .shards
            .iter()
            .flat_map(|shard| {
                shard
                    .sessions
                    .iter()
                    .filter_map(|s| s.enb_id.map(|e| (s.global_idx, e)))
            })
            .collect();
        known.sort_by_key(|(idx, _)| *idx);
        known.into_iter().map(|(_, e)| e).collect()
    }

    /// Agents whose sessions are currently considered down.
    pub fn downed_agents(&self) -> Vec<EnbId> {
        let mut down: Vec<(u32, EnbId)> = self
            .shards
            .iter()
            .flat_map(|shard| {
                shard
                    .sessions
                    .iter()
                    .filter(|s| s.down)
                    .filter_map(|s| s.enb_id.map(|e| (s.global_idx, e)))
            })
            .collect();
        down.sort_by_key(|(idx, _)| *idx);
        down.into_iter().map(|(_, e)| e).collect()
    }

    /// Liveness counters, summed over shards.
    pub fn liveness_stats(&self) -> SessionLivenessStats {
        let mut total = SessionLivenessStats::default();
        for shard in &self.shards {
            total.downs += shard.liveness.downs;
            total.ups += shard.liveness.ups;
        }
        total
    }

    /// Messages of one category sent so far on the session towards
    /// `enb`, as counted by the session transport. `None` when no
    /// session has identified itself as `enb` yet. Used by external
    /// conservation checks ("every command the master sent is accounted
    /// for at the agent"), e.g. the chaos-engine oracles.
    pub fn session_tx_messages(&self, enb: EnbId, cat: MessageCategory) -> Option<u64> {
        self.shards
            .iter()
            .flat_map(|shard| shard.sessions.iter())
            .find(|s| s.enb_id == Some(enb))
            .map(|s| s.transport.tx_counters().messages(cat))
    }

    fn next_xid(&mut self) -> u32 {
        self.xid = self.xid.wrapping_add(1);
        self.xid
    }

    /// Send a message to an agent immediately (management path).
    pub fn send_to(&mut self, enb: EnbId, msg: FlexranMessage) -> Result<u32> {
        let xid = self.next_xid();
        let session = self
            .shards
            .iter_mut()
            .flat_map(|shard| shard.sessions.iter_mut())
            .find(|s| s.enb_id == Some(enb))
            .ok_or_else(|| FlexError::NotFound(format!("no session for {enb}")))?;
        session.transport.send(Header::with_xid(xid), &msg)?;
        Ok(xid)
    }

    fn record_replay(&mut self, enb: EnbId, op: ReplayOp) {
        let Some(&idx) = self.owner.get(&enb) else {
            return;
        };
        let Some(shard) = self.shards.get_mut(idx) else {
            return;
        };
        if let Some(journal) = shard.journal.as_mut() {
            journal.record_replay(enb, &op.to_message());
        }
        if let Some(session) = shard.sessions.iter_mut().find(|s| s.enb_id == Some(enb)) {
            session.replay.push(op);
        }
    }

    /// Subscribe to statistics from an agent.
    pub fn request_stats(&mut self, enb: EnbId, config: ReportConfig) -> Result<u32> {
        let xid = self.send_to(enb, FlexranMessage::StatsRequest(StatsRequest { config }))?;
        self.record_replay(enb, ReplayOp::Stats(config));
        Ok(xid)
    }

    /// Push a VSF (signing it as the trusted authority would).
    pub fn push_vsf(&mut self, enb: EnbId, mut push: VsfPush, sign: bool) -> Result<u32> {
        if sign {
            // The master holds the signing key in this model.
            push.signature = push.compute_signature().to_be_bytes().to_vec();
        }
        let xid = self.send_to(enb, FlexranMessage::VsfPush(push.clone()))?;
        self.record_replay(enb, ReplayOp::Vsf(push));
        Ok(xid)
    }

    /// Send a policy reconfiguration document.
    pub fn reconfigure(&mut self, enb: EnbId, yaml: String) -> Result<u32> {
        let xid = self.send_to(
            enb,
            FlexranMessage::PolicyReconfiguration(flexran_proto::messages::PolicyReconfiguration {
                yaml: yaml.clone(),
            }),
        )?;
        self.record_replay(enb, ReplayOp::Policy(yaml));
        Ok(xid)
    }

    /// The shard an agent routes to under the configured spec, creating
    /// it on first sight (`PerAgent`). Idempotent per agent.
    fn assign_owner(&mut self, enb: EnbId) -> usize {
        if let Some(&idx) = self.owner.get(&enb) {
            return idx;
        }
        let idx = match self.config.shards {
            ShardSpec::Auto => 0,
            ShardSpec::Fixed(n) => enb.0 as usize % n.max(1),
            ShardSpec::PerAgent => {
                let idx = self.shards.len();
                self.shards
                    // lint:allow(alloc-reach) shard construction — once per newly-seen agent
                    .push(RibShard::new(idx, idx + 1, Some(enb), &self.config));
                idx
            }
        };
        self.owner.insert(enb, idx);
        idx
    }

    /// Serial cycle front: arm the RIB-slot stopwatch and route limbo
    /// sessions whose `Hello` arrived to their owning shards (the hello
    /// itself rides along in the session's carryover queue, so the shard
    /// folds it through its own single writer this same cycle).
    // lint:no-alloc — serial cycle front, runs every TTI
    pub fn begin_cycle(&mut self, now: Tti) {
        self.now = now;
        // Wall-clock here only *measures* the slot (Fig. 8 accounting);
        // it never influences scheduling decisions.
        // lint:allow(wall-clock)
        self.cycle_start = Some(Instant::now());
        let mut i = 0;
        while i < self.limbo.len() {
            let mut routed: Option<EnbId> = None;
            {
                let Some(session) = self.limbo.get_mut(i) else {
                    break;
                };
                // lint:allow(alloc-reach) decode materializes owned messages — arrival-driven
                while let Ok(Some((header, msg))) = session.transport.try_recv() {
                    session.last_rx = Some(now);
                    if let FlexranMessage::Heartbeat(h) = &msg {
                        // Session-level probe: mirror it back even before
                        // the agent has introduced itself.
                        let _ = session
                            .transport
                            // lint:allow(alloc-reach) wire frame growth is pooled; ack is arrival-driven
                            .send(header, &FlexranMessage::HeartbeatAck(*h));
                    }
                    if let FlexranMessage::Hello(h) = &msg {
                        // Identity learned: hand the session (hello
                        // first) to the owning shard; it drains the rest
                        // of the queue there this cycle.
                        routed = Some(h.enb_id);
                        session.carryover.push_back((header, msg));
                        break;
                    }
                    // Pre-hello traffic carries no identity and is not
                    // folded into any RIB. On a recovered master it still
                    // proves an agent is on this transport, so nudge it
                    // (paced, retried until the `Hello` lands) to
                    // re-introduce itself and push full state.
                    if session.take_nudge(now) {
                        self.xid = self.xid.wrapping_add(1);
                        // lint:allow(alloc-reach) recovery nudge — paced, pre-hello only
                        let _ = session.transport.send(
                            Header::with_xid(self.xid),
                            &FlexranMessage::ResyncRequest(ResyncRequest {
                                enb_id: EnbId(0),
                                since_tti: 0,
                            }),
                        );
                    }
                }
            }
            let Some(enb) = routed else {
                i += 1;
                continue;
            };
            let mut session = self.limbo.remove(i);
            // A recovered master owes this agent its pre-crash delegated
            // state: adopt it into the session and flag the rejoin path,
            // which also clears the staleness epoch recovery opened.
            if let Some(ops) = self.pending_replay.remove(&enb) {
                session.replay = ops;
                session.rejoin_pending = true;
            }
            let idx = self.assign_owner(enb);
            if let Some(shard) = self.shards.get_mut(idx) {
                shard.sessions.push(session);
            }
        }
    }

    /// Move sessions a shard disowned (an agent restart re-hello'd with
    /// an identity the shard does not own) to their owning shards. The
    /// parked hello rides in the carryover queue and is folded by the
    /// new owner next cycle.
    fn rehome_sessions(&mut self) {
        // lint:allow(alloc-reach) populated only when an agent restart re-hello'd
        let mut moving: Vec<(EnbId, Session)> = Vec::new();
        for shard in &mut self.shards {
            let mut i = 0;
            while i < shard.sessions.len() {
                let rehome = shard.sessions.get(i).and_then(|s| s.rehome_to);
                if rehome.is_some() {
                    let mut session = shard.sessions.remove(i);
                    session.enb_id = None;
                    if let Some(enb) = session.rehome_to.take() {
                        moving.push((enb, session));
                    }
                } else {
                    i += 1;
                }
            }
        }
        for (enb, session) in moving {
            let idx = self.assign_owner(enb);
            if let Some(shard) = self.shards.get_mut(idx) {
                shard.sessions.push(session);
            }
        }
    }

    /// Serial barrier after the per-shard RIB slots: merge the shards'
    /// event streams (agent-index order — bit-identical to the old
    /// serial loop for every shard count), run the apps slot against the
    /// shard-transparent facade, route staged commands through the
    /// cross-shard mailboxes, and account the cycle.
    // lint:no-alloc — per-TTI merge + apps slot; steady state is heap-free
    pub fn finish_cycle(&mut self, now: Tti) -> CycleStats {
        self.rehome_sessions();
        let rib_slot = self
            .cycle_start
            .take()
            .map(|s| s.elapsed())
            .unwrap_or_default();

        // --------------------------- Apps slot --------------------------
        // Measurement only, as above. lint:allow(wall-clock)
        let apps_start = Instant::now();
        // `append` below steals the shards' already-allocated buffers and
        // events are rare, so steady state stays heap-free.
        // lint:allow(hot-alloc) Vec::new never allocates
        let mut events: Vec<TaggedEvent> = Vec::new();
        for shard in &mut self.shards {
            events.append(&mut shard.events);
        }
        // The deterministic merge: drain events first (per-session order
        // within), then rejoins, then downs — each phase in global
        // session-attach order, exactly the serial loop's emission order.
        events.sort_by_key(|e| (e.phase, e.order));
        for app in self.apps.iter_mut() {
            let view = RibView::sharded(now, &self.shards).with_budget(self.budget.stats());
            let mut ctl = self.nb.control();
            for ev in &events {
                app.on_event(&ev.event, &view, &mut ctl);
            }
            app.on_cycle(&view, &mut ctl);
        }
        // Route staged commands to the owning shards' mailboxes. A
        // handover whose target agent lives in another shard additionally
        // posts a coordination notice to that shard.
        for (enb, header, msg) in self.nb.take_staged() {
            if let FlexranMessage::HandoverCommand(cmd) = &msg {
                let src = self.owner.get(&enb).copied();
                let dst = self.owner.get(&EnbId(cmd.target_enb)).copied();
                if let (Some(src), Some(dst)) = (src, dst) {
                    if src != dst {
                        self.cross_shard_handovers += 1;
                        if let Some(shard) = self.shards.get_mut(dst) {
                            shard.mailbox.push(CrossShardMsg::HandoverNotice {
                                from: enb,
                                to: EnbId(cmd.target_enb),
                            });
                        }
                    }
                }
            }
            let Some(&idx) = self.owner.get(&enb) else {
                // No session ever introduced itself as this agent — the
                // command has nowhere to go (same as the pre-sharding
                // dispatch loop).
                continue;
            };
            if let Some(shard) = self.shards.get_mut(idx) {
                shard
                    .mailbox
                    .push(CrossShardMsg::Command { enb, header, msg });
            }
        }
        // Fleet rollout step: gated on engagement so the pre-rollout
        // per-cycle cost is zero (and heap-free).
        if self.nb.rollout().is_engaged() {
            self.step_rollout(now);
        }
        for shard in &mut self.shards {
            shard.drain_mailbox();
        }
        // Old scheduling claims can never conflict again.
        self.nb.expire_claims_before(Tti(now.0.saturating_sub(200)));
        let apps_slot = apps_start.elapsed();

        self.accounting.cycles += 1;
        self.accounting.rib_total += rib_slot;
        self.accounting.apps_total += apps_slot;
        self.budget.record((rib_slot + apps_slot).as_nanos() as u64);
        CycleStats {
            rib_slot,
            apps_slot,
        }
    }

    /// One write cycle's worth of fleet-rollout work: assemble the KPI
    /// sample (ascending agent id — deterministic for every shard
    /// layout), drain the shards' bundle acks, advance the state machine
    /// by at most one transition, route its pushes through the owning
    /// shards' mailboxes (drained right after, same cycle), and journal
    /// the state whenever it transitions.
    fn step_rollout(&mut self, now: Tti) {
        self.kpi_scratch.clear();
        self.ack_scratch.clear();
        self.action_scratch.clear();
        let mut rejected_updates = 0;
        for shard in &mut self.shards {
            rejected_updates += shard.updater.rejected_updates;
            self.ack_scratch.append(&mut shard.config_acks);
        }
        // `owner` iterates in ascending agent-id order; an agent known
        // from the journal but not yet re-attached samples as down.
        for (&enb, &idx) in &self.owner {
            let Some(shard) = self.shards.get(idx) else {
                continue;
            };
            let goodput = shard
                .rib
                .agent(enb)
                .map(|a| {
                    a.cells()
                        .iter()
                        .filter_map(|c| c.last_report.as_ref())
                        .map(|r| r.dl_prbs_used_total)
                        .sum()
                })
                .unwrap_or(0);
            let session = shard.sessions.iter().find(|s| s.enb_id == Some(enb));
            self.kpi_scratch.push(AgentKpi {
                enb,
                goodput,
                down: session.map(|s| s.down).unwrap_or(true),
                applied: session.map(|s| s.applied_config).unwrap_or(0),
            });
        }
        let fleet = FleetKpi {
            agents: &self.kpi_scratch,
            rejected_updates,
            // Wall-clock derived; only consulted when the (off-by-default)
            // over-budget oracle is enabled.
            over_budget_ttis: self.budget.stats().over_budget,
        };
        let mut actions = std::mem::take(&mut self.action_scratch);
        self.nb
            .rollout_mut()
            .step(now, &fleet, &self.ack_scratch, &mut actions);
        for action in actions.drain(..) {
            let RolloutAction::Push { enb, bundle } = action;
            let xid = self.next_xid();
            let Some(&idx) = self.owner.get(&enb) else {
                continue;
            };
            if let Some(shard) = self.shards.get_mut(idx) {
                // lint:allow(alloc-reach) bundle push — paced, rollout-only
                shard.mailbox.push(CrossShardMsg::Command {
                    enb,
                    header: Header::with_xid(xid),
                    msg: FlexranMessage::ConfigBundlePush(ConfigBundlePush {
                        enb_id: enb,
                        bundle,
                    }),
                });
            }
        }
        self.action_scratch = actions;
        if self.nb.rollout_mut().take_dirty() {
            // lint:allow(alloc-reach) journal write — once per state transition
            self.rollout_state = self.nb.rollout().to_bytes();
        }
    }

    // ------------------------------------------------------------------
    // Fleet config rollout (northbound facade v3, delegated)
    // ------------------------------------------------------------------

    /// Stage a signed config bundle and start its canary-first rollout.
    /// Returns the assigned version. Errors while a rollout is in flight.
    pub fn apply_config_bundle(
        &mut self,
        policy_yaml: String,
        vsf_key: String,
        scheduler: String,
        canary: EnbId,
        cfg: RolloutConfig,
    ) -> Result<u64> {
        let now = self.now;
        self.nb
            .apply_bundle(now, policy_yaml, vsf_key, scheduler, canary, cfg)
    }

    /// Where the fleet rollout stands.
    pub fn rollout_status(&self) -> RolloutStatus {
        self.nb.rollout_status()
    }

    /// The journaled rollout audit trail.
    pub fn rollout_history(&self) -> &[RolloutEvent] {
        self.nb.rollout_history()
    }

    /// Abort the in-flight rollout, rolling back whatever was pushed.
    pub fn abort_rollout(&mut self) -> Result<()> {
        let now = self.now;
        self.nb.abort_rollout(now)
    }

    /// Every bundle signature this master has ever issued. External
    /// conservation checks (chaos oracle #9) assert no agent runs a
    /// config outside this set.
    pub fn issued_config_signatures(&self) -> Vec<u64> {
        self.nb.rollout().issued_signatures()
    }

    /// The config signature agent `enb` last advertised (None = no
    /// session has identified itself as `enb`).
    pub fn agent_applied_config(&self, enb: EnbId) -> Option<u64> {
        self.shards
            .iter()
            .flat_map(|shard| shard.sessions.iter())
            .find(|s| s.enb_id == Some(enb))
            .map(|s| s.applied_config)
    }

    /// Run one Task Manager cycle at master time `now`, serially:
    /// `begin_cycle`, every shard's RIB slot in shard-index order, then
    /// `finish_cycle`.
    pub fn run_cycle(&mut self, now: Tti) -> CycleStats {
        self.begin_cycle(now);
        for shard in &mut self.shards {
            shard.run_rib_slot(now);
        }
        self.finish_cycle(now)
    }

    /// Real-time mode: run cycles paced at the configured TTI duration
    /// for `duration`, sleeping out each cycle's idle time.
    pub fn run_realtime(&mut self, duration: Duration) {
        // Real-time mode paces cycles by the wall clock by definition;
        // deterministic runs use `run_cycle` under a virtual clock.
        // lint:allow(wall-clock)
        let start = Instant::now();
        let mut tti = self.now;
        while start.elapsed() < duration {
            // Pacing, as above. lint:allow(wall-clock)
            let cycle_start = Instant::now();
            tti += 1;
            self.run_cycle(tti);
            let spent = cycle_start.elapsed();
            if spent < self.config.tti_duration {
                std::thread::sleep(self.config.tti_duration - spent);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::northbound::ControlHandle;
    use crate::shard::RESYNC_NUDGE_PERIOD;
    use crate::updater::NotifiedEvent;
    use flexran_proto::messages::Hello;
    use flexran_proto::transport::channel_pair;

    #[test]
    fn sessions_learn_identity_from_hello() {
        let mut master = MasterController::new(TaskManagerConfig::default());
        let (mut agent_side, master_side) = channel_pair();
        master.add_agent(Box::new(master_side));
        agent_side
            .send(
                Header::default(),
                &FlexranMessage::Hello(Hello {
                    enb_id: EnbId(7),
                    n_cells: 1,
                    capabilities: vec![],
                    applied_config: 0,
                }),
            )
            .unwrap();
        master.run_cycle(Tti(0));
        assert_eq!(master.connected_agents(), vec![EnbId(7)]);
        assert!(master.view().agent(EnbId(7)).is_some());
        assert_eq!(master.shard_of(EnbId(7)), Some(0));
        // Messages to unknown agents error.
        assert!(master
            .send_to(EnbId(9), FlexranMessage::EchoRequest(Default::default()))
            .is_err());
        // Messages to known agents arrive.
        master
            .send_to(EnbId(7), FlexranMessage::EchoRequest(Default::default()))
            .unwrap();
        assert!(agent_side.try_recv().unwrap().is_some());
    }

    #[test]
    fn fixed_sharding_partitions_agents_by_id() {
        let mut master = MasterController::new(TaskManagerConfig {
            shards: ShardSpec::Fixed(2),
            ..TaskManagerConfig::default()
        });
        assert_eq!(master.n_shards(), 2);
        let mut agent_sides = Vec::new();
        for i in 1..=3u32 {
            let (mut agent_side, master_side) = channel_pair();
            master.add_agent(Box::new(master_side));
            agent_side
                .send(
                    Header::default(),
                    &FlexranMessage::Hello(Hello {
                        enb_id: EnbId(i),
                        n_cells: 1,
                        capabilities: vec![],
                        applied_config: 0,
                    }),
                )
                .unwrap();
            agent_sides.push(agent_side);
        }
        master.run_cycle(Tti(0));
        // Attach order is preserved across shards; ownership is id mod n.
        assert_eq!(
            master.connected_agents(),
            vec![EnbId(1), EnbId(2), EnbId(3)]
        );
        assert_eq!(master.shard_of(EnbId(1)), Some(1));
        assert_eq!(master.shard_of(EnbId(2)), Some(0));
        assert_eq!(master.shard_of(EnbId(3)), Some(1));
        // Each agent's subtree lives in exactly its owner's shard.
        for (enb, owner) in [(EnbId(1), 1), (EnbId(2), 0), (EnbId(3), 1)] {
            for (idx, shard) in master.shards().iter().enumerate() {
                assert_eq!(
                    shard.rib().agent(enb).is_some(),
                    idx == owner,
                    "agent {enb} must be resident only in shard {owner}"
                );
            }
        }
        // The shard-transparent view sees the union.
        assert_eq!(master.view().n_agents(), 3);
        assert_eq!(master.merged_rib().n_agents(), 3);
        // Management sends still route by agent id.
        master
            .send_to(EnbId(2), FlexranMessage::EchoRequest(Default::default()))
            .unwrap();
        assert!(agent_sides[1].try_recv().unwrap().is_some());
    }

    #[test]
    fn per_agent_sharding_allocates_on_hello() {
        let mut master = MasterController::new(TaskManagerConfig {
            shards: ShardSpec::PerAgent,
            ..TaskManagerConfig::default()
        });
        assert_eq!(master.n_shards(), 0);
        let mut links = Vec::new();
        for i in [5u32, 9] {
            let (mut agent_side, master_side) = channel_pair();
            master.add_agent(Box::new(master_side));
            agent_side
                .send(
                    Header::default(),
                    &FlexranMessage::Hello(Hello {
                        enb_id: EnbId(i),
                        n_cells: 1,
                        capabilities: vec![],
                        applied_config: 0,
                    }),
                )
                .unwrap();
            master.run_cycle(Tti(i as u64));
            links.push(agent_side);
        }
        assert_eq!(master.n_shards(), 2);
        assert_eq!(master.shard_of(EnbId(5)), Some(0));
        assert_eq!(master.shard_of(EnbId(9)), Some(1));
        assert_eq!(master.view().n_agents(), 2);
    }

    #[test]
    fn cycle_accounting_accumulates() {
        let mut master = MasterController::new(TaskManagerConfig::default());
        for t in 0..10 {
            master.run_cycle(Tti(t));
        }
        let acc = master.accounting();
        assert_eq!(acc.cycles, 10);
        assert!(acc.mean_idle(Duration::from_millis(1)) > Duration::from_micros(500));
    }

    struct CountingApp {
        cycles: std::sync::Arc<std::sync::atomic::AtomicU64>,
        events: std::sync::Arc<std::sync::atomic::AtomicU64>,
    }

    impl App for CountingApp {
        fn name(&self) -> &str {
            "counting"
        }
        fn on_cycle(&mut self, _rib: &RibView<'_>, _ctl: &mut ControlHandle<'_>) {
            self.cycles
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        fn on_event(
            &mut self,
            _ev: &NotifiedEvent,
            _rib: &RibView<'_>,
            _ctl: &mut ControlHandle<'_>,
        ) {
            self.events
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    #[test]
    fn apps_get_cycles_and_events() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let cycles = Arc::new(AtomicU64::new(0));
        let events = Arc::new(AtomicU64::new(0));
        let mut master = MasterController::new(TaskManagerConfig::default());
        master.register_app(Box::new(CountingApp {
            cycles: cycles.clone(),
            events: events.clone(),
        }));
        let (mut agent_side, master_side) = channel_pair();
        master.add_agent(Box::new(master_side));
        agent_side
            .send(
                Header::default(),
                &FlexranMessage::Hello(Hello {
                    enb_id: EnbId(1),
                    n_cells: 1,
                    capabilities: vec![],
                    applied_config: 0,
                }),
            )
            .unwrap();
        agent_side
            .send(
                Header::default(),
                &FlexranMessage::EventNotification(flexran_proto::messages::EventNotification {
                    enb_id: EnbId(1),
                    kind: flexran_proto::messages::events::EventKind::SchedulingRequest,
                    ..Default::default()
                }),
            )
            .unwrap();
        for t in 0..5 {
            master.run_cycle(Tti(t));
        }
        assert_eq!(cycles.load(Ordering::Relaxed), 5);
        assert_eq!(events.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn session_timeout_marks_stale_and_rejoin_replays() {
        let mut master = MasterController::new(TaskManagerConfig {
            liveness_timeout: 20,
            ..TaskManagerConfig::default()
        });
        let (mut agent_side, master_side) = channel_pair();
        master.add_agent(Box::new(master_side));
        agent_side
            .send(
                Header::default(),
                &FlexranMessage::Hello(Hello {
                    enb_id: EnbId(3),
                    n_cells: 1,
                    capabilities: vec![],
                    applied_config: 0,
                }),
            )
            .unwrap();
        master.run_cycle(Tti(0));
        // Delegate state that must survive the outage.
        master
            .request_stats(
                EnbId(3),
                flexran_proto::messages::stats::ReportConfig::default(),
            )
            .unwrap();
        master
            .reconfigure(
                EnbId(3),
                "mac:\n  dl_ue_scheduler:\n    behavior: remote-stub\n".into(),
            )
            .unwrap();
        while agent_side.try_recv().unwrap().is_some() {}
        // Silence past the timeout → down edge, stale subtree.
        for t in 1..=25 {
            master.run_cycle(Tti(t));
        }
        assert_eq!(master.downed_agents(), vec![EnbId(3)]);
        assert_eq!(master.liveness_stats().downs, 1);
        let rib = master.merged_rib();
        let agent = rib.agent(EnbId(3)).unwrap();
        assert!(agent.is_stale());
        assert_eq!(agent.stale_since, Some(Tti(20)));
        // A heartbeat from the agent → up edge, ack, and state replay.
        agent_side
            .send(
                Header::with_xid(1),
                &FlexranMessage::Heartbeat(flexran_proto::messages::Heartbeat {
                    seq: 4,
                    tti: 26,
                    applied_config: 0,
                }),
            )
            .unwrap();
        master.run_cycle(Tti(26));
        assert!(master.downed_agents().is_empty());
        assert_eq!(master.liveness_stats().ups, 1);
        assert!(!master.view().is_stale(EnbId(3)));
        let mut kinds = Vec::new();
        while let Ok(Some((_, m))) = agent_side.try_recv() {
            kinds.push(m.kind().to_string());
        }
        assert_eq!(
            kinds,
            vec![
                "heartbeat-ack",
                "resync-request",
                "stats-request",
                "policy-reconfiguration"
            ],
            "ack, then the re-sync solicitation, then the delegated state in order"
        );
    }

    #[test]
    fn master_recovers_rib_and_replays_delegated_state_from_journal() {
        let config = TaskManagerConfig {
            liveness_timeout: 20,
            journal_snapshot_every: 4,
            ..TaskManagerConfig::default()
        };
        let mut master = MasterController::new(config);
        let (mut agent_side, master_side) = channel_pair();
        master.add_agent(Box::new(master_side));
        agent_side
            .send(
                Header::default(),
                &FlexranMessage::Hello(Hello {
                    enb_id: EnbId(5),
                    n_cells: 1,
                    capabilities: vec!["dl_scheduling".into()],
                    applied_config: 0,
                }),
            )
            .unwrap();
        agent_side
            .send(
                Header::default(),
                &FlexranMessage::StatsReply(flexran_proto::messages::StatsReply {
                    enb_id: EnbId(5),
                    tti: 1,
                    cells: vec![],
                    ues: vec![flexran_proto::messages::UeReport {
                        rnti: 0x100,
                        cell: 0,
                        connected: true,
                        wideband_cqi: 13,
                        ..Default::default()
                    }],
                }),
            )
            .unwrap();
        master.run_cycle(Tti(0));
        master
            .request_stats(
                EnbId(5),
                flexran_proto::messages::stats::ReportConfig::default(),
            )
            .unwrap();
        // Enough cycles to force at least one snapshot compaction, so the
        // recovery path exercises snapshot + deltas, not deltas alone.
        for t in 1..=6 {
            master.run_cycle(Tti(t));
        }
        assert!(master.journal_compactions().unwrap() >= 1);
        let pre_crash_rib = master.merged_rib();
        let journal = master.journal_bytes().unwrap();
        let transports = master.take_transports();
        drop(master); // the crash

        let mut master = MasterController::recover(config, &journal, Tti(50)).unwrap();
        for t in transports {
            master.add_agent(t);
        }
        // The forest is back, but stale: it is a pre-crash epoch.
        let rib = master.merged_rib();
        assert_eq!(rib.n_ues(), 1);
        let agent = rib.agent(EnbId(5)).unwrap();
        assert!(agent.is_stale());
        assert_eq!(agent.stale_since, Some(Tti(50)));
        assert_eq!(
            rib.ue(
                EnbId(5),
                flexran_types::ids::CellId(0),
                flexran_types::ids::Rnti(0x100)
            )
            .unwrap()
            .report
            .wideband_cqi,
            13
        );
        {
            let mut recovered = master.merged_rib();
            recovered.agent_mut(EnbId(5)).mark_fresh();
            assert_eq!(
                recovered, pre_crash_rib,
                "journal round-trip must reproduce the RIB exactly (modulo the recovery staleness epoch)"
            );
        }
        while agent_side.try_recv().unwrap().is_some() {}
        // Pre-hello traffic on a recovered master draws the resync nudge.
        agent_side
            .send(
                Header::with_xid(1),
                &FlexranMessage::Heartbeat(flexran_proto::messages::Heartbeat {
                    seq: 1,
                    tti: 51,
                    applied_config: 0,
                }),
            )
            .unwrap();
        master.run_cycle(Tti(51));
        let mut kinds = Vec::new();
        while let Ok(Some((_, m))) = agent_side.try_recv() {
            kinds.push(m.kind().to_string());
        }
        assert_eq!(kinds, vec!["heartbeat-ack", "resync-request"]);
        // The agent re-introduces itself: staleness clears and the
        // delegated state recovered from the journal is replayed.
        agent_side
            .send(
                Header::default(),
                &FlexranMessage::Hello(Hello {
                    enb_id: EnbId(5),
                    n_cells: 1,
                    capabilities: vec!["dl_scheduling".into()],
                    applied_config: 0,
                }),
            )
            .unwrap();
        master.run_cycle(Tti(52));
        assert!(!master.view().is_stale(EnbId(5)));
        assert_eq!(master.liveness_stats().ups, 1);
        let mut kinds = Vec::new();
        while let Ok(Some((_, m))) = agent_side.try_recv() {
            kinds.push(m.kind().to_string());
        }
        assert_eq!(
            kinds,
            vec!["resync-request", "stats-request"],
            "rejoin re-sync plus the journal-recovered subscription"
        );
    }

    #[test]
    fn recovery_nudge_is_retried_until_the_hello_lands() {
        // The resync nudge — or the Hello it provokes — can be lost on a
        // faulty link. A one-shot nudge would then strand the agent: it
        // keeps heartbeating (and believes it is connected, since limbo
        // acks probes), but its subtree stays a stale pre-crash epoch
        // forever. The nudge must re-arm while the session is pre-hello.
        let config = TaskManagerConfig {
            journal_snapshot_every: 4,
            ..TaskManagerConfig::default()
        };
        let mut master = MasterController::new(config);
        let (mut agent_side, master_side) = channel_pair();
        master.add_agent(Box::new(master_side));
        agent_side
            .send(
                Header::default(),
                &FlexranMessage::Hello(Hello {
                    enb_id: EnbId(5),
                    n_cells: 1,
                    capabilities: vec![],
                    applied_config: 0,
                }),
            )
            .unwrap();
        master.run_cycle(Tti(0));
        master
            .request_stats(
                EnbId(5),
                flexran_proto::messages::stats::ReportConfig::default(),
            )
            .unwrap();
        master.run_cycle(Tti(1));
        let journal = master.journal_bytes().unwrap();
        let transports = master.take_transports();
        drop(master); // the crash

        let mut master = MasterController::recover(config, &journal, Tti(50)).unwrap();
        for t in transports {
            master.add_agent(t);
        }
        while agent_side.try_recv().unwrap().is_some() {}
        // The agent heartbeats but its Hello "keeps getting lost": the
        // master re-solicits it every RESYNC_NUDGE_PERIOD TTIs.
        let mut nudges = 0;
        for t in (51..=121).step_by(10) {
            agent_side
                .send(
                    Header::with_xid(1),
                    &FlexranMessage::Heartbeat(flexran_proto::messages::Heartbeat {
                        seq: t,
                        tti: t,
                        applied_config: 0,
                    }),
                )
                .unwrap();
            master.run_cycle(Tti(t));
            while let Ok(Some((_, m))) = agent_side.try_recv() {
                if m.kind() == "resync-request" {
                    nudges += 1;
                }
            }
        }
        assert!(
            (2..=4).contains(&nudges),
            "paced retries while pre-hello (one per {RESYNC_NUDGE_PERIOD} TTIs), got {nudges}"
        );
        assert!(master.view().is_stale(EnbId(5)));
        // A Hello that finally lands ends the solicitation.
        agent_side
            .send(
                Header::default(),
                &FlexranMessage::Hello(Hello {
                    enb_id: EnbId(5),
                    n_cells: 1,
                    capabilities: vec![],
                    applied_config: 0,
                }),
            )
            .unwrap();
        master.run_cycle(Tti(130));
        assert!(!master.view().is_stale(EnbId(5)));
        while agent_side.try_recv().unwrap().is_some() {}
        agent_side
            .send(
                Header::with_xid(1),
                &FlexranMessage::Heartbeat(flexran_proto::messages::Heartbeat {
                    seq: 131,
                    tti: 131,
                    applied_config: 0,
                }),
            )
            .unwrap();
        master.run_cycle(Tti(131));
        let mut kinds = Vec::new();
        while let Ok(Some((_, m))) = agent_side.try_recv() {
            kinds.push(m.kind().to_string());
        }
        assert_eq!(kinds, vec!["heartbeat-ack"], "no nudges after the hello");
    }

    #[test]
    fn sharded_journal_recovers_under_a_different_spec() {
        // Write the journal under Fixed(2); recover under Auto. Records
        // route by agent id, so the image is spec-portable.
        let write_config = TaskManagerConfig {
            journal_snapshot_every: 4,
            shards: ShardSpec::Fixed(2),
            ..TaskManagerConfig::default()
        };
        let mut master = MasterController::new(write_config);
        let mut links = Vec::new();
        for i in 1..=2u32 {
            let (mut agent_side, master_side) = channel_pair();
            master.add_agent(Box::new(master_side));
            agent_side
                .send(
                    Header::default(),
                    &FlexranMessage::Hello(Hello {
                        enb_id: EnbId(i),
                        n_cells: 1,
                        capabilities: vec![],
                        applied_config: 0,
                    }),
                )
                .unwrap();
            links.push(agent_side);
        }
        for t in 0..6 {
            master.run_cycle(Tti(t));
        }
        let pre_crash = master.merged_rib();
        let journal = master.journal_bytes().unwrap();

        let recover_config = TaskManagerConfig {
            journal_snapshot_every: 4,
            ..TaskManagerConfig::default()
        };
        let recovered = MasterController::recover(recover_config, &journal, Tti(50)).unwrap();
        assert_eq!(recovered.n_shards(), 1);
        let mut rib = recovered.merged_rib();
        for i in 1..=2u32 {
            assert!(rib.agent(EnbId(i)).unwrap().is_stale());
            rib.agent_mut(EnbId(i)).mark_fresh();
        }
        assert_eq!(rib, pre_crash);
    }

    #[test]
    fn recover_rejects_corrupt_journals() {
        let config = TaskManagerConfig {
            journal_snapshot_every: 1,
            ..TaskManagerConfig::default()
        };
        assert!(MasterController::recover(config, b"not a journal", Tti(0)).is_err());
        assert!(MasterController::recover(config, &[], Tti(0)).is_err());
    }
}
