//! Versioned fleet configuration rollout (DESIGN.md §11).
//!
//! Operators reconfigure a fleet by staging a signed [`ConfigBundle`]
//! (policy document + VSF selection + scheduler choice) through the
//! northbound facade. The [`RolloutController`] then drives a
//! KPI-gated canary rollout as a deterministic state machine, advanced
//! at most one transition per master write cycle:
//!
//! ```text
//! Draft ──────▶ Canary ──────▶ Fleet ──────▶ Converged
//!   (baseline)    │ regression     │ regression
//!                 ▼                ▼
//!              RollingBack ──▶ RolledBack
//! ```
//!
//! * **Draft** — the bundle is staged; a baseline KPI window is measured
//!   over the whole fleet before anything is pushed.
//! * **Canary** — the bundle is pushed to one canary agent (paced
//!   retries until the agent's advertised signature matches — a push
//!   lost to a faulty link is re-sent, not mourned), then observed for
//!   one window against the baseline.
//! * **Fleet** — the canary passed: push to every remaining agent, wait
//!   for all signatures to converge, observe one more window.
//! * **Converged** — the bundle is the fleet's last converged version;
//!   drift (an agent advertising any other signature, e.g. after a
//!   crash-restart wiped its soft state) draws a paced re-push.
//! * **RollingBack / RolledBack** — any KPI regression or explicit
//!   [`RolloutController::abort`] pushes the last converged bundle back
//!   to every agent and waits for the fleet to land on it.
//!
//! ## KPI oracles
//!
//! Regression during an observation window is any of ([`RolloutConfig`]):
//! goodput (PRBs delivered, from RIB cell reports) dropping more than
//! `max_goodput_drop_pct` below the Draft baseline; more than
//! `max_failovers` session-down edges among in-scope agents; more than
//! `max_rejected_updates` semantically-rejected RIB updates; more than
//! `max_over_budget_ttis` deadline-budget misses. The last is derived
//! from wall-clock measurements and therefore **disabled by default**
//! (`u64::MAX`): enabling it trades bit-determinism for latency safety,
//! which only real-time deployments should do.
//!
//! ## Durability
//!
//! Every mutation re-serializes the whole controller ([`RolloutController::to_bytes`])
//! into a `TAG_ROLLOUT` journal record, so
//! [`MasterController::recover`](crate::master::MasterController::recover)
//! resumes the state machine where the crash left it. Observation
//! windows are deliberately *not* persisted: KPI counters restart with
//! the master process, so a recovered master re-opens the current
//! phase's window rather than comparing incommensurable epochs.

use std::collections::BTreeMap;

use flexran_proto::messages::ConfigBundlePb;
use flexran_types::ids::EnbId;
use flexran_types::time::Tti;
use flexran_types::{FlexError, Result};

/// The versioned fleet configuration bundle (the wire type doubles as
/// the store type — one codec, one signature scheme).
pub type ConfigBundle = ConfigBundlePb;

/// Paced-retry period (master TTIs) for bundle pushes that have not been
/// acknowledged by signature yet — same cadence as the session-recovery
/// resync nudge, for the same reason: a push (or its ack) lost on a
/// faulty link must be retried, not spam the agent every cycle.
pub const ROLLOUT_PUSH_RETRY_PERIOD: u64 = 25;

/// Rollout history entries kept (oldest dropped first). Bounds journal
/// record size; transitions are rare, so this spans many rollouts.
const HISTORY_CAP: usize = 512;

/// Serialized-state format version.
const CODEC_VERSION: u8 = 1;

/// Where the rollout state machine stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolloutPhase {
    /// No rollout has ever been staged.
    Idle,
    /// Bundle staged; measuring the fleet-wide KPI baseline.
    Draft,
    /// Bundle pushed to the canary agent; observing.
    Canary,
    /// Canary passed; bundle pushed fleet-wide; observing.
    Fleet,
    /// The active bundle is the fleet's converged configuration.
    Converged,
    /// Regression or abort: pushing the last converged bundle back out.
    RollingBack,
    /// The fleet is back on the last converged bundle.
    RolledBack,
}

impl RolloutPhase {
    fn code(self) -> u8 {
        match self {
            RolloutPhase::Idle => 0,
            RolloutPhase::Draft => 1,
            RolloutPhase::Canary => 2,
            RolloutPhase::Fleet => 3,
            RolloutPhase::Converged => 4,
            RolloutPhase::RollingBack => 5,
            RolloutPhase::RolledBack => 6,
        }
    }

    fn from_code(code: u8) -> Result<Self> {
        Ok(match code {
            0 => RolloutPhase::Idle,
            1 => RolloutPhase::Draft,
            2 => RolloutPhase::Canary,
            3 => RolloutPhase::Fleet,
            4 => RolloutPhase::Converged,
            5 => RolloutPhase::RollingBack,
            6 => RolloutPhase::RolledBack,
            other => {
                return Err(FlexError::Codec(format!(
                    "unknown rollout phase code {other}"
                )))
            }
        })
    }
}

impl std::fmt::Display for RolloutPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RolloutPhase::Idle => "idle",
            RolloutPhase::Draft => "draft",
            RolloutPhase::Canary => "canary",
            RolloutPhase::Fleet => "fleet",
            RolloutPhase::Converged => "converged",
            RolloutPhase::RollingBack => "rolling-back",
            RolloutPhase::RolledBack => "rolled-back",
        })
    }
}

/// KPI gate thresholds for one rollout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RolloutConfig {
    /// Master TTIs of KPI observation per gate (baseline, canary, fleet).
    pub observation_window: u64,
    /// Maximum tolerated goodput drop against the Draft baseline, in
    /// percent (50 = the window must deliver at least half the baseline).
    pub max_goodput_drop_pct: u64,
    /// Session-down edges tolerated among in-scope agents per window.
    pub max_failovers: u64,
    /// Semantically-rejected RIB updates tolerated per window
    /// (master-wide — a bad config corrupting reports shows up here).
    pub max_rejected_updates: u64,
    /// Over-budget TTIs tolerated per window. Wall-clock derived and
    /// therefore non-deterministic: disabled by default (`u64::MAX`);
    /// opt in only where latency safety outranks bit-determinism.
    pub max_over_budget_ttis: u64,
}

impl Default for RolloutConfig {
    fn default() -> Self {
        RolloutConfig {
            observation_window: 100,
            max_goodput_drop_pct: 50,
            max_failovers: 0,
            max_rejected_updates: 0,
            max_over_budget_ttis: u64::MAX,
        }
    }
}

/// What happened, for the journaled audit history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolloutEventKind {
    /// Bundle staged; rollout entered Draft.
    Applied,
    /// Bundle pushed to the canary agent.
    CanaryPushed,
    /// Canary advertises the bundle signature; observation opened.
    CanaryApplied,
    /// Canary window passed; bundle pushed fleet-wide.
    FleetPushed,
    /// Whole fleet advertises the signature; observation opened.
    FleetApplied,
    /// Fleet window passed; bundle is the converged configuration.
    Converged,
    /// A KPI gate tripped (`enb` is the offending agent, 0 = fleet-wide).
    Regression,
    /// An agent refused the bundle (validation failure at apply).
    Rejected,
    /// Rollback pushes went out towards the last converged version.
    RollbackPushed,
    /// The fleet landed back on the last converged version.
    RolledBack,
    /// Operator abort.
    Aborted,
}

impl std::fmt::Display for RolloutEventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RolloutEventKind::Applied => "applied",
            RolloutEventKind::CanaryPushed => "canary-pushed",
            RolloutEventKind::CanaryApplied => "canary-applied",
            RolloutEventKind::FleetPushed => "fleet-pushed",
            RolloutEventKind::FleetApplied => "fleet-applied",
            RolloutEventKind::Converged => "converged",
            RolloutEventKind::Regression => "regression",
            RolloutEventKind::Rejected => "rejected",
            RolloutEventKind::RollbackPushed => "rollback-pushed",
            RolloutEventKind::RolledBack => "rolled-back",
            RolloutEventKind::Aborted => "aborted",
        })
    }
}

impl RolloutEventKind {
    fn code(self) -> u8 {
        match self {
            RolloutEventKind::Applied => 0,
            RolloutEventKind::CanaryPushed => 1,
            RolloutEventKind::CanaryApplied => 2,
            RolloutEventKind::FleetPushed => 3,
            RolloutEventKind::FleetApplied => 4,
            RolloutEventKind::Converged => 5,
            RolloutEventKind::Regression => 6,
            RolloutEventKind::Rejected => 7,
            RolloutEventKind::RollbackPushed => 8,
            RolloutEventKind::RolledBack => 9,
            RolloutEventKind::Aborted => 10,
        }
    }

    fn from_code(code: u8) -> Result<Self> {
        Ok(match code {
            0 => RolloutEventKind::Applied,
            1 => RolloutEventKind::CanaryPushed,
            2 => RolloutEventKind::CanaryApplied,
            3 => RolloutEventKind::FleetPushed,
            4 => RolloutEventKind::FleetApplied,
            5 => RolloutEventKind::Converged,
            6 => RolloutEventKind::Regression,
            7 => RolloutEventKind::Rejected,
            8 => RolloutEventKind::RollbackPushed,
            9 => RolloutEventKind::RolledBack,
            10 => RolloutEventKind::Aborted,
            other => {
                return Err(FlexError::Codec(format!(
                    "unknown rollout event code {other}"
                )))
            }
        })
    }
}

/// One journaled rollout transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RolloutEvent {
    pub tti: Tti,
    pub kind: RolloutEventKind,
    pub version: u64,
    /// The agent the event concerns (0 = the fleet).
    pub enb: EnbId,
}

/// Per-agent KPI sample the master assembles each write cycle, in
/// ascending agent-id order. All counters are cumulative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgentKpi {
    pub enb: EnbId,
    /// Goodput proxy: PRBs delivered, summed over the agent's cells
    /// (from the RIB's last cell reports).
    pub goodput: u64,
    /// The agent's session is currently considered down.
    pub down: bool,
    /// Applied-config signature the agent last advertised (0 = none).
    pub applied: u64,
}

/// Fleet-wide KPI sample for one write cycle.
#[derive(Debug, Clone, Copy)]
pub struct FleetKpi<'a> {
    /// Per-agent samples, ascending by agent id.
    pub agents: &'a [AgentKpi],
    /// Master-wide rejected RIB updates (cumulative).
    pub rejected_updates: u64,
    /// Master-wide over-budget cycles (cumulative; wall-clock derived).
    pub over_budget_ttis: u64,
}

/// A bundle acknowledgement the master received this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BundleAck {
    pub enb: EnbId,
    pub version: u64,
    pub signature: u64,
    pub ok: bool,
}

/// What the master must do for the rollout this cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RolloutAction {
    /// Push `bundle` to `enb` (routed through the owning shard's
    /// mailbox, like every other cross-shard command).
    Push { enb: EnbId, bundle: ConfigBundle },
}

/// Northbound-visible rollout status snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RolloutStatus {
    pub phase: RolloutPhase,
    /// Version being rolled out (0 = none).
    pub active_version: u64,
    /// Last fleet-converged version (0 = none; the rollback target).
    pub last_converged: u64,
    pub canary: EnbId,
    /// History entries recorded so far.
    pub events: usize,
}

/// The deterministic rollout state machine plus the versioned bundle
/// store. Owned by the northbound facade; stepped by the master once per
/// write cycle, strictly serially (it reads per-agent KPIs that span
/// shards, so it must never run inside a shard's RIB slot).
#[derive(Debug, Clone)]
pub struct RolloutController {
    cfg: RolloutConfig,
    phase: RolloutPhase,
    /// Version being rolled out (0 = none).
    active: u64,
    /// Last fleet-converged version (0 = none).
    last_converged: u64,
    canary: EnbId,
    bundles: BTreeMap<u64, ConfigBundle>,
    history: Vec<RolloutEvent>,
    /// Per-agent baseline goodput over one Draft window (persisted — the
    /// canary gate is meaningless without it).
    baseline: BTreeMap<EnbId, u64>,
    // ----- volatile observation sub-state (reset on recovery) -----
    /// When the current observation window opened (None = waiting for
    /// the pushed signatures to converge).
    observe_from: Option<Tti>,
    /// Cumulative goodput per agent at window open.
    window_start: BTreeMap<EnbId, u64>,
    window_start_rejected: u64,
    window_start_over_budget: u64,
    /// Down edges among in-scope agents observed this window.
    window_failovers: u64,
    /// Down state last cycle (edge detection).
    prev_down: BTreeMap<EnbId, bool>,
    /// Last push TTI per agent (paced retries).
    pushed_at: BTreeMap<EnbId, Tti>,
    /// Paced drift re-pushes issued (diagnostics).
    drift_repushes: u64,
    /// State changed since the last `take_dirty` (journal trigger).
    dirty: bool,
}

impl Default for RolloutController {
    fn default() -> Self {
        Self::new()
    }
}

impl RolloutController {
    pub fn new() -> Self {
        RolloutController {
            cfg: RolloutConfig::default(),
            phase: RolloutPhase::Idle,
            active: 0,
            last_converged: 0,
            canary: EnbId(0),
            bundles: BTreeMap::new(),
            history: Vec::new(),
            baseline: BTreeMap::new(),
            observe_from: None,
            window_start: BTreeMap::new(),
            window_start_rejected: 0,
            window_start_over_budget: 0,
            window_failovers: 0,
            prev_down: BTreeMap::new(),
            pushed_at: BTreeMap::new(),
            drift_repushes: 0,
            dirty: false,
        }
    }

    /// Stage a new bundle and start its rollout (→ Draft). The bundle is
    /// signed here: the rollout controller is the fleet's configuration
    /// authority. Errors while another rollout is in flight.
    pub fn apply(
        &mut self,
        now: Tti,
        policy_yaml: String,
        vsf_key: String,
        scheduler: String,
        canary: EnbId,
        cfg: RolloutConfig,
    ) -> Result<u64> {
        if matches!(
            self.phase,
            RolloutPhase::Draft
                | RolloutPhase::Canary
                | RolloutPhase::Fleet
                | RolloutPhase::RollingBack
        ) {
            // lint:allow(alloc-reach) cold northbound error path, never per-TTI
            return Err(FlexError::Conflict(format!(
                "rollout of version {} is in flight ({})",
                self.active, self.phase
            )));
        }
        let version = self.bundles.keys().next_back().copied().unwrap_or(0) + 1;
        let bundle = ConfigBundle::signed(version, policy_yaml, vsf_key, scheduler);
        self.bundles.insert(version, bundle);
        self.cfg = cfg;
        self.active = version;
        self.canary = canary;
        self.set_phase(RolloutPhase::Draft);
        self.record(now, RolloutEventKind::Applied, version, EnbId(0));
        Ok(version)
    }

    /// Operator abort: roll back whatever the in-flight rollout already
    /// pushed. In Draft (nothing pushed yet) the rollout just ends.
    pub fn abort(&mut self, now: Tti) -> Result<()> {
        match self.phase {
            RolloutPhase::Draft => {
                self.record(now, RolloutEventKind::Aborted, self.active, EnbId(0));
                self.set_phase(RolloutPhase::RolledBack);
                Ok(())
            }
            RolloutPhase::Canary | RolloutPhase::Fleet => {
                self.record(now, RolloutEventKind::Aborted, self.active, EnbId(0));
                self.set_phase(RolloutPhase::RollingBack);
                Ok(())
            }
            phase => Err(FlexError::Conflict(format!(
                "no rollout in flight to abort (phase {phase})"
            ))),
        }
    }

    pub fn phase(&self) -> RolloutPhase {
        self.phase
    }

    pub fn status(&self) -> RolloutStatus {
        RolloutStatus {
            phase: self.phase,
            active_version: self.active,
            last_converged: self.last_converged,
            canary: self.canary,
            events: self.history.len(),
        }
    }

    pub fn history(&self) -> &[RolloutEvent] {
        &self.history
    }

    pub fn bundle(&self, version: u64) -> Option<&ConfigBundle> {
        self.bundles.get(&version)
    }

    pub fn active_version(&self) -> u64 {
        self.active
    }

    pub fn last_converged(&self) -> u64 {
        self.last_converged
    }

    /// Paced drift re-pushes issued so far (diagnostics).
    pub fn drift_repushes(&self) -> u64 {
        self.drift_repushes
    }

    /// Every signature this controller has ever issued. External
    /// conservation checks (chaos oracle #9) assert that no agent ever
    /// advertises a signature outside this set.
    pub fn issued_signatures(&self) -> Vec<u64> {
        self.bundles.values().map(|b| b.signature).collect()
    }

    /// Whether the master needs to step this controller at all (false
    /// until the first `apply` — the pre-rollout per-TTI cost is zero).
    pub fn is_engaged(&self) -> bool {
        self.phase != RolloutPhase::Idle
    }

    /// Whether state changed since the last call (journal trigger).
    pub fn take_dirty(&mut self) -> bool {
        std::mem::take(&mut self.dirty)
    }

    fn set_phase(&mut self, phase: RolloutPhase) {
        self.phase = phase;
        self.observe_from = None;
        self.window_start.clear();
        self.window_failovers = 0;
        self.prev_down.clear();
        self.pushed_at.clear();
        self.dirty = true;
    }

    fn record(&mut self, tti: Tti, kind: RolloutEventKind, version: u64, enb: EnbId) {
        if self.history.len() >= HISTORY_CAP {
            self.history.remove(0);
        }
        self.history.push(RolloutEvent {
            tti,
            kind,
            version,
            enb,
        });
        self.dirty = true;
    }

    /// Whether `enb` is in the KPI blast radius of the current phase.
    fn in_scope(&self, enb: EnbId) -> bool {
        match self.phase {
            RolloutPhase::Canary => enb == self.canary,
            RolloutPhase::Fleet => true,
            _ => false,
        }
    }

    fn open_window(&mut self, now: Tti, fleet: &FleetKpi<'_>) {
        self.observe_from = Some(now);
        self.window_start.clear();
        for a in fleet.agents {
            self.window_start.insert(a.enb, a.goodput);
        }
        self.window_start_rejected = fleet.rejected_updates;
        self.window_start_over_budget = fleet.over_budget_ttis;
        self.window_failovers = 0;
        self.prev_down.clear();
        for a in fleet.agents {
            self.prev_down.insert(a.enb, a.down);
        }
    }

    /// Push `version` to `enb` if its retry pacing allows, staging the
    /// action for the master.
    fn push_paced(
        &mut self,
        now: Tti,
        enb: EnbId,
        version: u64,
        actions: &mut Vec<RolloutAction>,
    ) -> bool {
        if self
            .pushed_at
            .get(&enb)
            .is_some_and(|at| now.0.saturating_sub(at.0) < ROLLOUT_PUSH_RETRY_PERIOD)
        {
            return false;
        }
        let Some(bundle) = self.bundles.get(&version) else {
            return false;
        };
        self.pushed_at.insert(enb, now);
        actions.push(RolloutAction::Push {
            enb,
            // lint:allow(alloc-reach) one bundle clone per paced push, 25-TTI pacing
            bundle: bundle.clone(),
        });
        true
    }

    /// Mid-window regression checks (failover edges, rejected updates,
    /// over-budget TTIs). Returns the offender (EnbId(0) = fleet-wide).
    fn window_regression(&mut self, fleet: &FleetKpi<'_>) -> Option<EnbId> {
        for a in fleet.agents {
            if !self.in_scope(a.enb) {
                continue;
            }
            let was_down = self.prev_down.insert(a.enb, a.down).unwrap_or(a.down);
            if a.down && !was_down {
                self.window_failovers += 1;
                if self.window_failovers > self.cfg.max_failovers {
                    return Some(a.enb);
                }
            }
        }
        if fleet
            .rejected_updates
            .saturating_sub(self.window_start_rejected)
            > self.cfg.max_rejected_updates
        {
            return Some(EnbId(0));
        }
        if fleet
            .over_budget_ttis
            .saturating_sub(self.window_start_over_budget)
            > self.cfg.max_over_budget_ttis
        {
            return Some(EnbId(0));
        }
        None
    }

    /// End-of-window goodput gate against the Draft baseline. Returns
    /// the first in-scope agent whose window fell below the floor.
    fn goodput_regression(&self, fleet: &FleetKpi<'_>) -> Option<EnbId> {
        let keep_pct = 100u64.saturating_sub(self.cfg.max_goodput_drop_pct);
        for a in fleet.agents {
            if !self.in_scope(a.enb) {
                continue;
            }
            let Some(&base) = self.baseline.get(&a.enb) else {
                continue; // joined after the baseline window: no gate
            };
            if base == 0 {
                continue;
            }
            let start = self.window_start.get(&a.enb).copied().unwrap_or(a.goodput);
            let delivered = a.goodput.saturating_sub(start);
            if delivered.saturating_mul(100) < base.saturating_mul(keep_pct) {
                return Some(a.enb);
            }
        }
        None
    }

    fn start_rollback(&mut self, now: Tti, offender: EnbId) {
        let version = self.active;
        self.record(now, RolloutEventKind::Regression, version, offender);
        self.set_phase(RolloutPhase::RollingBack);
    }

    /// The signature agents are expected to advertise once converged on
    /// `version` (0 means "no bundle" — factory state).
    fn signature_of(&self, version: u64) -> u64 {
        self.bundles.get(&version).map(|b| b.signature).unwrap_or(0)
    }

    /// Advance the state machine by at most one transition for this
    /// write cycle. `fleet` carries the cycle's KPI samples, `acks` the
    /// bundle acknowledgements that arrived; push work is appended to
    /// `actions` (cleared by the caller).
    pub fn step(
        &mut self,
        now: Tti,
        fleet: &FleetKpi<'_>,
        acks: &[BundleAck],
        actions: &mut Vec<RolloutAction>,
    ) {
        // An agent refusing the in-flight bundle is an immediate
        // regression: validation failed at the canary (or a fleet
        // member), so the version must not spread.
        if matches!(self.phase, RolloutPhase::Canary | RolloutPhase::Fleet) {
            let active_sig = self.signature_of(self.active);
            let refusal = acks
                .iter()
                .find(|a| a.signature == active_sig && !a.ok)
                .map(|a| a.enb);
            if let Some(enb) = refusal {
                self.record(now, RolloutEventKind::Rejected, self.active, enb);
                self.start_rollback(now, enb);
                return;
            }
        }
        match self.phase {
            RolloutPhase::Idle => {}
            RolloutPhase::Draft => {
                let Some(from) = self.observe_from else {
                    self.open_window(now, fleet);
                    return;
                };
                if now.0.saturating_sub(from.0) < self.cfg.observation_window {
                    return;
                }
                // Baseline measured: per-agent goodput over one window.
                self.baseline.clear();
                for a in fleet.agents {
                    let start = self.window_start.get(&a.enb).copied().unwrap_or(a.goodput);
                    self.baseline.insert(a.enb, a.goodput.saturating_sub(start));
                }
                let (canary, version) = (self.canary, self.active);
                self.set_phase(RolloutPhase::Canary);
                self.record(now, RolloutEventKind::CanaryPushed, version, canary);
                self.push_paced(now, canary, version, actions);
            }
            RolloutPhase::Canary => {
                let sig = self.signature_of(self.active);
                let applied = fleet
                    .agents
                    .iter()
                    .any(|a| a.enb == self.canary && a.applied == sig);
                if !applied {
                    // Lost push / lost ack: paced retry until the canary
                    // advertises the signature.
                    let (canary, version) = (self.canary, self.active);
                    self.push_paced(now, canary, version, actions);
                    return;
                }
                let Some(from) = self.observe_from else {
                    self.open_window(now, fleet);
                    self.record(
                        now,
                        RolloutEventKind::CanaryApplied,
                        self.active,
                        self.canary,
                    );
                    return;
                };
                if let Some(enb) = self.window_regression(fleet) {
                    self.start_rollback(now, enb);
                    return;
                }
                if now.0.saturating_sub(from.0) < self.cfg.observation_window {
                    return;
                }
                if let Some(enb) = self.goodput_regression(fleet) {
                    self.start_rollback(now, enb);
                    return;
                }
                // Canary window passed: fleet push.
                let version = self.active;
                self.set_phase(RolloutPhase::Fleet);
                self.record(now, RolloutEventKind::FleetPushed, version, EnbId(0));
                let targets: Vec<EnbId> = fleet
                    .agents
                    .iter()
                    .filter(|a| a.applied != self.signature_of(version))
                    .map(|a| a.enb)
                    // lint:allow(alloc-reach) once per rollout phase transition
                    .collect();
                for enb in targets {
                    self.push_paced(now, enb, version, actions);
                }
            }
            RolloutPhase::Fleet => {
                let sig = self.signature_of(self.active);
                let mut all_applied = true;
                // lint:allow(alloc-reach) straggler list — bounded by fleet size, rollout-only
                let mut stragglers: Vec<EnbId> = Vec::new();
                for a in fleet.agents {
                    if a.applied != sig {
                        all_applied = false;
                        stragglers.push(a.enb);
                    }
                }
                if !all_applied {
                    let version = self.active;
                    for enb in stragglers {
                        self.push_paced(now, enb, version, actions);
                    }
                    return;
                }
                let Some(from) = self.observe_from else {
                    self.open_window(now, fleet);
                    self.record(now, RolloutEventKind::FleetApplied, self.active, EnbId(0));
                    return;
                };
                if let Some(enb) = self.window_regression(fleet) {
                    self.start_rollback(now, enb);
                    return;
                }
                if now.0.saturating_sub(from.0) < self.cfg.observation_window {
                    return;
                }
                if let Some(enb) = self.goodput_regression(fleet) {
                    self.start_rollback(now, enb);
                    return;
                }
                let version = self.active;
                self.last_converged = version;
                self.set_phase(RolloutPhase::Converged);
                self.record(now, RolloutEventKind::Converged, version, EnbId(0));
            }
            RolloutPhase::RollingBack => {
                if self.last_converged == 0 {
                    // Nothing ever converged: there is no known-good
                    // bundle to restore, so the rollback degenerates to
                    // ending the rollout (agents that applied the bad
                    // version keep it until a future rollout replaces
                    // it — documented limitation of the first rollout).
                    let version = self.active;
                    self.set_phase(RolloutPhase::RolledBack);
                    self.record(now, RolloutEventKind::RolledBack, version, EnbId(0));
                    return;
                }
                let target = self.last_converged;
                let sig = self.signature_of(target);
                let mut all_back = true;
                let mut pushed_any = false;
                // lint:allow(alloc-reach) straggler list — bounded by fleet size, rollback-only
                let mut stragglers: Vec<EnbId> = Vec::new();
                for a in fleet.agents {
                    if a.applied != sig {
                        all_back = false;
                        stragglers.push(a.enb);
                    }
                }
                for enb in stragglers {
                    pushed_any |= self.push_paced(now, enb, target, actions);
                }
                if pushed_any && self.observe_from.is_none() {
                    // (Ab)use observe_from as the "rollback pushes went
                    // out" latch so the event records exactly once.
                    self.observe_from = Some(now);
                    self.record(now, RolloutEventKind::RollbackPushed, target, EnbId(0));
                }
                if all_back {
                    let version = self.active;
                    self.set_phase(RolloutPhase::RolledBack);
                    self.record(now, RolloutEventKind::RolledBack, version, EnbId(0));
                }
            }
            RolloutPhase::Converged | RolloutPhase::RolledBack => {
                // Steady state: re-converge drifted stragglers (an agent
                // crash-restart wipes its applied config; its heartbeat
                // then advertises 0 and draws a paced re-push).
                if self.last_converged == 0 {
                    return;
                }
                let target = self.last_converged;
                let sig = self.signature_of(target);
                let drifted: Vec<EnbId> = fleet
                    .agents
                    .iter()
                    .filter(|a| !a.down && a.applied != sig)
                    .map(|a| a.enb)
                    // lint:allow(alloc-reach) drift list — non-empty only while a straggler exists
                    .collect();
                for enb in drifted {
                    if self.push_paced(now, enb, target, actions) {
                        self.drift_repushes += 1;
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Journal codec (raw bytes carried in a TAG_ROLLOUT record)
    // ------------------------------------------------------------------

    /// Serialize the durable state (bundle store, history, state-machine
    /// position, baseline). Volatile observation sub-state is excluded:
    /// recovery re-opens the current window.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.bundles.len() * 64 + self.history.len() * 21);
        out.push(CODEC_VERSION);
        out.push(self.phase.code());
        out.extend_from_slice(&self.active.to_be_bytes());
        out.extend_from_slice(&self.last_converged.to_be_bytes());
        out.extend_from_slice(&self.canary.0.to_be_bytes());
        for v in [
            self.cfg.observation_window,
            self.cfg.max_goodput_drop_pct,
            self.cfg.max_failovers,
            self.cfg.max_rejected_updates,
            self.cfg.max_over_budget_ttis,
        ] {
            out.extend_from_slice(&v.to_be_bytes());
        }
        out.extend_from_slice(&(self.bundles.len() as u32).to_be_bytes());
        for b in self.bundles.values() {
            out.extend_from_slice(&b.version.to_be_bytes());
            write_str(&mut out, &b.policy_yaml);
            write_str(&mut out, &b.vsf_key);
            write_str(&mut out, &b.scheduler);
            out.extend_from_slice(&b.signature.to_be_bytes());
        }
        out.extend_from_slice(&(self.history.len() as u32).to_be_bytes());
        for e in &self.history {
            out.extend_from_slice(&e.tti.0.to_be_bytes());
            out.push(e.kind.code());
            out.extend_from_slice(&e.version.to_be_bytes());
            out.extend_from_slice(&e.enb.0.to_be_bytes());
        }
        out.extend_from_slice(&(self.baseline.len() as u32).to_be_bytes());
        for (enb, goodput) in &self.baseline {
            out.extend_from_slice(&enb.0.to_be_bytes());
            out.extend_from_slice(&goodput.to_be_bytes());
        }
        out
    }

    /// Rebuild from journal bytes. Structured errors on corruption,
    /// never a panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut buf = bytes;
        let version = take_u8(&mut buf)?;
        if version != CODEC_VERSION {
            return Err(FlexError::Codec(format!(
                "rollout state codec version {version} unsupported"
            )));
        }
        let mut c = RolloutController::new();
        c.phase = RolloutPhase::from_code(take_u8(&mut buf)?)?;
        c.active = take_u64(&mut buf)?;
        c.last_converged = take_u64(&mut buf)?;
        c.canary = EnbId(take_u32(&mut buf)?);
        c.cfg.observation_window = take_u64(&mut buf)?;
        c.cfg.max_goodput_drop_pct = take_u64(&mut buf)?;
        c.cfg.max_failovers = take_u64(&mut buf)?;
        c.cfg.max_rejected_updates = take_u64(&mut buf)?;
        c.cfg.max_over_budget_ttis = take_u64(&mut buf)?;
        let n_bundles = take_u32(&mut buf)? as usize;
        for _ in 0..n_bundles {
            let version = take_u64(&mut buf)?;
            let policy_yaml = take_str(&mut buf)?;
            let vsf_key = take_str(&mut buf)?;
            let scheduler = take_str(&mut buf)?;
            let signature = take_u64(&mut buf)?;
            c.bundles.insert(
                version,
                ConfigBundle {
                    version,
                    policy_yaml,
                    vsf_key,
                    scheduler,
                    signature,
                },
            );
        }
        let n_history = (take_u32(&mut buf)? as usize).min(HISTORY_CAP);
        for _ in 0..n_history {
            let tti = Tti(take_u64(&mut buf)?);
            let kind = RolloutEventKind::from_code(take_u8(&mut buf)?)?;
            let version = take_u64(&mut buf)?;
            let enb = EnbId(take_u32(&mut buf)?);
            c.history.push(RolloutEvent {
                tti,
                kind,
                version,
                enb,
            });
        }
        let n_baseline = take_u32(&mut buf)? as usize;
        for _ in 0..n_baseline {
            let enb = EnbId(take_u32(&mut buf)?);
            let goodput = take_u64(&mut buf)?;
            c.baseline.insert(enb, goodput);
        }
        if !buf.is_empty() {
            return Err(FlexError::Codec("rollout state has trailing bytes".into()));
        }
        Ok(c)
    }
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_be_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if buf.len() < n {
        return Err(FlexError::Codec("rollout state truncated".into()));
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

fn take_u8(buf: &mut &[u8]) -> Result<u8> {
    Ok(take(buf, 1)?.first().copied().unwrap_or(0))
}

fn take_u32(buf: &mut &[u8]) -> Result<u32> {
    let b = take(buf, 4)?;
    let mut a = [0u8; 4];
    a.copy_from_slice(b);
    Ok(u32::from_be_bytes(a))
}

fn take_u64(buf: &mut &[u8]) -> Result<u64> {
    let b = take(buf, 8)?;
    let mut a = [0u8; 8];
    a.copy_from_slice(b);
    Ok(u64::from_be_bytes(a))
}

fn take_str(buf: &mut &[u8]) -> Result<String> {
    let len = take_u32(buf)? as usize;
    if len > flexran_proto::frame::MAX_FRAME_BYTES {
        return Err(FlexError::Codec(format!(
            "rollout string of {len} bytes exceeds the frame cap"
        )));
    }
    let raw = take(buf, len)?;
    String::from_utf8(raw.to_vec())
        .map_err(|_| FlexError::Codec("rollout string is not UTF-8".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kpi(enb: u32, goodput: u64, down: bool, applied: u64) -> AgentKpi {
        AgentKpi {
            enb: EnbId(enb),
            goodput,
            down,
            applied,
        }
    }

    fn fleet<'a>(agents: &'a [AgentKpi]) -> FleetKpi<'a> {
        FleetKpi {
            agents,
            rejected_updates: 0,
            over_budget_ttis: 0,
        }
    }

    fn quick_cfg() -> RolloutConfig {
        RolloutConfig {
            observation_window: 10,
            ..RolloutConfig::default()
        }
    }

    /// Drive a full clean rollout: Draft baseline → canary → fleet →
    /// converged, with agents whose goodput grows steadily.
    fn converge_v1(c: &mut RolloutController) -> u64 {
        let v = c
            .apply(
                Tti(0),
                String::new(),
                String::new(),
                "max-cqi".into(),
                EnbId(1),
                quick_cfg(),
            )
            .unwrap();
        let sig = c.bundle(v).unwrap().signature;
        let mut actions = Vec::new();
        let mut applied = [0u64, 0];
        for t in 0..200u64 {
            actions.clear();
            let agents = [
                kpi(1, t * 10, false, applied[0]),
                kpi(2, t * 10, false, applied[1]),
            ];
            c.step(Tti(t), &fleet(&agents), &[], &mut actions);
            for a in &actions {
                let RolloutAction::Push { enb, bundle } = a;
                assert_eq!(bundle.signature, sig);
                applied[(enb.0 - 1) as usize] = bundle.signature;
            }
            if c.phase() == RolloutPhase::Converged {
                return v;
            }
        }
        panic!("rollout did not converge; phase {}", c.phase());
    }

    #[test]
    fn clean_rollout_converges_canary_first() {
        let mut c = RolloutController::new();
        let v = converge_v1(&mut c);
        assert_eq!(v, 1);
        assert_eq!(c.last_converged(), 1);
        let kinds: Vec<RolloutEventKind> = c.history().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                RolloutEventKind::Applied,
                RolloutEventKind::CanaryPushed,
                RolloutEventKind::CanaryApplied,
                RolloutEventKind::FleetPushed,
                RolloutEventKind::FleetApplied,
                RolloutEventKind::Converged,
            ]
        );
        // The canary got the bundle before agent 2 did.
        assert_eq!(c.history()[1].enb, EnbId(1));
    }

    #[test]
    fn goodput_regression_rolls_back_to_last_converged() {
        let mut c = RolloutController::new();
        converge_v1(&mut c);
        let sig1 = c.bundle(1).unwrap().signature;
        let v2 = c
            .apply(
                Tti(300),
                String::new(),
                String::new(),
                "remote-stub".into(),
                EnbId(1),
                quick_cfg(),
            )
            .unwrap();
        let sig2 = c.bundle(v2).unwrap().signature;
        let mut actions = Vec::new();
        let mut applied = [sig1, sig1];
        let mut saw_rollback_push = false;
        for t in 300..600u64 {
            actions.clear();
            // Agent 1's goodput flatlines once it applies v2 (the bad
            // bundle); agent 2 keeps growing.
            let g1 = if applied[0] == sig2 { 3000 } else { t * 10 };
            let agents = [
                kpi(1, g1, false, applied[0]),
                kpi(2, t * 10, false, applied[1]),
            ];
            c.step(Tti(t), &fleet(&agents), &[], &mut actions);
            for a in &actions {
                let RolloutAction::Push { enb, bundle } = a;
                if bundle.signature == sig1 {
                    saw_rollback_push = true;
                }
                applied[(enb.0 - 1) as usize] = bundle.signature;
            }
            if c.phase() == RolloutPhase::RolledBack {
                break;
            }
        }
        assert_eq!(c.phase(), RolloutPhase::RolledBack);
        assert!(saw_rollback_push);
        assert_eq!(c.last_converged(), 1, "rollback lands on last converged");
        assert_eq!(applied, [sig1, sig1], "both agents back on v1");
        let kinds: Vec<RolloutEventKind> = c.history().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&RolloutEventKind::Regression));
        assert!(kinds.contains(&RolloutEventKind::RollbackPushed));
        assert!(kinds.contains(&RolloutEventKind::RolledBack));
        // v2 never spread beyond the canary: agent 2 never saw sig2.
    }

    #[test]
    fn canary_refusal_is_an_immediate_regression() {
        let mut c = RolloutController::new();
        converge_v1(&mut c);
        let sig1 = c.bundle(1).unwrap().signature;
        let v2 = c
            .apply(
                Tti(300),
                "bad: policy".into(),
                String::new(),
                String::new(),
                EnbId(1),
                quick_cfg(),
            )
            .unwrap();
        let sig2 = c.bundle(v2).unwrap().signature;
        let mut actions = Vec::new();
        // Draft baseline window first.
        for t in 300..315u64 {
            actions.clear();
            let agents = [kpi(1, t * 10, false, sig1), kpi(2, t * 10, false, sig1)];
            c.step(Tti(t), &fleet(&agents), &[], &mut actions);
        }
        assert_eq!(c.phase(), RolloutPhase::Canary);
        // The canary nacks the push.
        let agents = [kpi(1, 3150, false, sig1), kpi(2, 3150, false, sig1)];
        actions.clear();
        c.step(
            Tti(315),
            &fleet(&agents),
            &[BundleAck {
                enb: EnbId(1),
                version: v2,
                signature: sig2,
                ok: false,
            }],
            &mut actions,
        );
        assert_eq!(c.phase(), RolloutPhase::RollingBack);
        let kinds: Vec<RolloutEventKind> = c.history().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&RolloutEventKind::Rejected));
    }

    #[test]
    fn lost_canary_push_is_retried_paced() {
        let mut c = RolloutController::new();
        c.apply(
            Tti(0),
            String::new(),
            String::new(),
            "max-cqi".into(),
            EnbId(1),
            quick_cfg(),
        )
        .unwrap();
        let mut actions = Vec::new();
        let mut pushes = 0;
        for t in 0..100u64 {
            actions.clear();
            // The canary never applies (its pushes are "lost").
            let agents = [kpi(1, t * 10, false, 0)];
            c.step(Tti(t), &fleet(&agents), &[], &mut actions);
            pushes += actions.len();
        }
        // ~11 TTIs of Draft, then one push per ROLLOUT_PUSH_RETRY_PERIOD.
        assert!(
            (3..=6).contains(&pushes),
            "paced retries, not per-cycle spam: {pushes}"
        );
    }

    #[test]
    fn drift_draws_a_repush_after_convergence() {
        let mut c = RolloutController::new();
        converge_v1(&mut c);
        let sig1 = c.bundle(1).unwrap().signature;
        let mut actions = Vec::new();
        // Agent 2 crash-restarts: advertises 0 again.
        c.step(
            Tti(400),
            &fleet(&[kpi(1, 99_999, false, sig1), kpi(2, 99_999, false, 0)]),
            &[],
            &mut actions,
        );
        assert_eq!(actions.len(), 1);
        let RolloutAction::Push { enb, bundle } = &actions[0];
        assert_eq!(*enb, EnbId(2));
        assert_eq!(bundle.signature, sig1);
        assert_eq!(c.drift_repushes(), 1);
        // Still down agents are left alone (nothing to push to).
        actions.clear();
        c.step(
            Tti(500),
            &fleet(&[kpi(1, 99_999, false, sig1), kpi(2, 99_999, true, 0)]),
            &[],
            &mut actions,
        );
        assert!(actions.is_empty());
    }

    #[test]
    fn apply_while_in_flight_is_refused() {
        let mut c = RolloutController::new();
        c.apply(
            Tti(0),
            String::new(),
            String::new(),
            String::new(),
            EnbId(1),
            quick_cfg(),
        )
        .unwrap();
        let err = c
            .apply(
                Tti(1),
                String::new(),
                String::new(),
                String::new(),
                EnbId(1),
                quick_cfg(),
            )
            .unwrap_err();
        assert_eq!(err.category(), "conflict");
    }

    #[test]
    fn abort_rolls_back_only_what_was_pushed() {
        let mut c = RolloutController::new();
        // Abort in Draft: nothing was pushed, rollout just ends.
        c.apply(
            Tti(0),
            String::new(),
            String::new(),
            String::new(),
            EnbId(1),
            quick_cfg(),
        )
        .unwrap();
        c.abort(Tti(1)).unwrap();
        assert_eq!(c.phase(), RolloutPhase::RolledBack);
        assert!(c.abort(Tti(2)).is_err(), "nothing in flight");
    }

    #[test]
    fn state_roundtrips_through_journal_codec() {
        let mut c = RolloutController::new();
        converge_v1(&mut c);
        c.apply(
            Tti(300),
            "mac:\n".into(),
            "max-cqi".into(),
            "remote-stub".into(),
            EnbId(2),
            quick_cfg(),
        )
        .unwrap();
        let bytes = c.to_bytes();
        let restored = RolloutController::from_bytes(&bytes).unwrap();
        assert_eq!(restored.phase(), c.phase());
        assert_eq!(restored.active_version(), c.active_version());
        assert_eq!(restored.last_converged(), c.last_converged());
        assert_eq!(restored.status(), c.status());
        assert_eq!(restored.history(), c.history());
        assert_eq!(restored.issued_signatures(), c.issued_signatures());
        assert_eq!(restored.bundle(1), c.bundle(1));
        assert_eq!(restored.bundle(2), c.bundle(2));
        // Corruption errors structurally, never a panic.
        for cut in 0..bytes.len() {
            let _ = RolloutController::from_bytes(&bytes[..cut]);
        }
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0x55;
            let _ = RolloutController::from_bytes(&mutated);
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(RolloutController::from_bytes(&padded).is_err());
    }

    #[test]
    fn recovery_mid_canary_resumes_the_rollout() {
        let mut c = RolloutController::new();
        converge_v1(&mut c);
        let sig1 = c.bundle(1).unwrap().signature;
        let v2 = c
            .apply(
                Tti(300),
                String::new(),
                String::new(),
                "max-cqi".into(),
                EnbId(1),
                quick_cfg(),
            )
            .unwrap();
        let sig2 = c.bundle(v2).unwrap().signature;
        let mut actions = Vec::new();
        let mut applied = [sig1, sig1];
        // Run until the canary has applied v2 (mid-observation).
        for t in 300..330u64 {
            actions.clear();
            let agents = [
                kpi(1, t * 10, false, applied[0]),
                kpi(2, t * 10, false, applied[1]),
            ];
            c.step(Tti(t), &fleet(&agents), &[], &mut actions);
            for a in &actions {
                let RolloutAction::Push { enb, bundle } = a;
                applied[(enb.0 - 1) as usize] = bundle.signature;
            }
            if c.phase() == RolloutPhase::Canary && applied[0] == sig2 {
                break;
            }
        }
        assert_eq!(c.phase(), RolloutPhase::Canary);
        // Crash + recover: the machine resumes in Canary, re-opens the
        // window, and still converges.
        let mut c = RolloutController::from_bytes(&c.to_bytes()).unwrap();
        assert_eq!(c.phase(), RolloutPhase::Canary);
        for t in 400..700u64 {
            actions.clear();
            let agents = [
                kpi(1, t * 10, false, applied[0]),
                kpi(2, t * 10, false, applied[1]),
            ];
            c.step(Tti(t), &fleet(&agents), &[], &mut actions);
            for a in &actions {
                let RolloutAction::Push { enb, bundle } = a;
                applied[(enb.0 - 1) as usize] = bundle.signature;
            }
            if c.phase() == RolloutPhase::Converged {
                break;
            }
        }
        assert_eq!(c.phase(), RolloutPhase::Converged);
        assert_eq!(c.last_converged(), v2);
    }

    #[test]
    fn history_is_bounded() {
        let mut c = RolloutController::new();
        for i in 0..(HISTORY_CAP + 10) {
            c.record(Tti(i as u64), RolloutEventKind::Applied, 1, EnbId(0));
        }
        assert_eq!(c.history().len(), HISTORY_CAP);
        assert_eq!(c.history()[0].tti, Tti(10), "oldest entries dropped");
    }
}
