//! The FlexRAN agent.
//!
//! One agent sits on each eNodeB (paper Fig. 2). It owns the data plane,
//! hosts the eNodeB control modules with their VSF caches, runs the
//! message handler & dispatcher for the FlexRAN protocol, and the
//! Reports & Events manager. Control can be local (delegated VSFs),
//! remote (the master's centralized applications pushing commands), or a
//! mix — switchable at runtime through VSF updation + policy
//! reconfiguration without service interruption (§5.4).
//!
//! Each TTI runs in two phases, mirroring the data plane's pipeline:
//!
//! * [`FlexranAgent::phase_a`] — data-plane bookkeeping, then protocol
//!   intake (commands, delegation, subscriptions), then *local* VSF
//!   scheduling for this subframe.
//! * [`FlexranAgent::phase_b`] — the subframe commits; events, sync
//!   triggers and due statistics reports go out to the master.
//!
//! The split exists so a multi-cell harness can determine the
//! interference coupling (which cells transmit) between the two phases.

use flexran_proto::messages::delegation::{DelegationAck, VsfArtifact, VsfPush};
use flexran_proto::messages::stats::{ReportConfig, ReportFlags, ReportType};
use flexran_proto::messages::{
    ConfigBundleAck, ConfigBundlePb, ConfigReply, EventNotification, FlexranMessage, Header,
    SubframeTrigger,
};
use flexran_proto::transport::Transport;
use flexran_stack::enb::{Enb, PhyView};
use flexran_stack::events::EnbEvent;
use flexran_stack::mac::dci::{DlSchedulingDecision, UlSchedulingDecision};
use flexran_stack::mac::scheduler::{
    DlSchedulerInput, DlSchedulerOutput, UlSchedulerInput, UlSchedulerOutput,
};
use flexran_types::ids::{CellId, Rnti};
use flexran_types::time::Tti;
use flexran_types::{FlexError, Result};

/// A handover decision awaiting completion at the target side (the
/// harness or an X2-equivalent moves the UE context).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandoverRequest {
    pub cell: CellId,
    pub rnti: Rnti,
    /// Radio-site key chosen by a *local* handover VSF.
    pub target_site: Option<u32>,
    /// Target addressed explicitly by a master `HandoverCommand`.
    pub target_enb: Option<u32>,
    pub target_cell: Option<u16>,
}

use crate::cmi::{
    MacControlModule, RrcControlModule, MAC_DL_SCHEDULER, MAC_UL_SCHEDULER, RRC_HANDOVER,
};
use crate::liveness::{FailoverState, LivenessConfig, LivenessCounters, LivenessTracker};
use crate::policy::PolicyDoc;
use crate::reports::ReportsManager;
use crate::vsf::{verify_push, VsfImpl, VsfRegistry};

/// Agent configuration.
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// Registry key of the downlink scheduler active at start
    /// (`None` = no local DL scheduling until the master configures one).
    pub initial_dl_scheduler: Option<String>,
    pub initial_ul_scheduler: Option<String>,
    /// Subframe-sync period in TTIs towards the master (0 = disabled;
    /// the centralized-scheduling experiments run with 1).
    pub sync_period: u64,
    pub capabilities: Vec<String>,
    /// Heartbeat/failover knobs (default: liveness tracking disabled).
    pub liveness: LivenessConfig,
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig {
            initial_dl_scheduler: Some("round-robin".into()),
            initial_ul_scheduler: Some("ul-round-robin".into()),
            sync_period: 0,
            capabilities: vec!["dl_scheduling".into(), "vsf_dsl".into()],
            liveness: LivenessConfig::default(),
        }
    }
}

/// Operational counters (observability and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AgentCounters {
    pub rx_messages: u64,
    pub transport_errors: u64,
    pub command_errors: u64,
    pub pushes_accepted: u64,
    pub pushes_rejected: u64,
    pub policies_applied: u64,
    pub policy_errors: u64,
}

/// The per-eNodeB FlexRAN agent.
pub struct FlexranAgent<T: Transport> {
    enb: Enb,
    transport: T,
    pub mac: MacControlModule,
    pub rrc: RrcControlModule,
    reports: ReportsManager,
    registry: VsfRegistry,
    config: AgentConfig,
    counters: AgentCounters,
    liveness: LivenessTracker,
    /// DL scheduler that was active when failover swapped in the
    /// fallback; restored when the session rejoins.
    pre_failover_dl: Option<String>,
    /// (version, signature) of the fleet config bundle currently
    /// applied; `(0, 0)` until the first rollout reaches this agent.
    /// Soft state: a crash-restart wipes it, and the advertised zero
    /// signature is what draws the master's drift re-push.
    active_config: (u64, u64),
    hello_sent: bool,
    /// Chaos hook: while `true`, the control thread is over its TTI
    /// budget — subframes still commit but intake/liveness/scheduling
    /// are suspended (see [`FlexranAgent::set_stalled`]).
    stalled: bool,
    outbox_acks: Vec<DelegationAck>,
    handover_requests: Vec<HandoverRequest>,
    /// Reusable scheduler input/output buffers: phase A refills these in
    /// place every TTI instead of allocating fresh ones (the hot path's
    /// no-steady-state-allocation contract).
    sched_scratch: SchedScratch,
}

#[derive(Default)]
struct SchedScratch {
    dl_in: DlSchedulerInput,
    dl_out: DlSchedulerOutput,
    ul_in: UlSchedulerInput,
    ul_out: UlSchedulerOutput,
}

/// Preload all registry built-ins into fresh module caches and activate
/// the configured initial schedulers — the "hardcoded policies" baseline
/// of §4.3.1. Shared by construction and crash-restart so a restarted
/// agent comes back with exactly the state a freshly booted one has.
fn preload_modules(
    registry: &VsfRegistry,
    config: &AgentConfig,
) -> (MacControlModule, RrcControlModule) {
    let mut mac = MacControlModule::new();
    let mut rrc = RrcControlModule::new();
    for key in registry.keys() {
        // lint:allow(panic): keys() only lists instantiable entries.
        match registry.instantiate(key).expect("listed key") {
            VsfImpl::DlScheduler(s) => mac.dl.insert(key, s),
            VsfImpl::UlScheduler(s) => mac.ul.insert(key, s),
            VsfImpl::Handover(h) => rrc.handover.insert(key, h),
        }
    }
    if let Some(k) = &config.initial_dl_scheduler {
        // A misconfigured initial scheduler is a boot-time programming
        // error, caught by every test topology.
        mac.dl
            .activate(k)
            // lint:allow(panic): boot-time contract, see above.
            .expect("initial DL scheduler in registry");
    }
    if let Some(k) = &config.initial_ul_scheduler {
        mac.ul
            .activate(k)
            // lint:allow(panic): same boot-time contract as the DL slot.
            .expect("initial UL scheduler in registry");
    }
    (mac, rrc)
}

impl<T: Transport> FlexranAgent<T> {
    /// Build an agent over a data plane and a transport to the master.
    ///
    /// All registry built-ins are preloaded into the module caches (the
    /// "hardcoded policies" baseline of §4.3.1); new behaviour arrives
    /// through VSF pushes.
    pub fn new(enb: Enb, transport: T, registry: VsfRegistry, config: AgentConfig) -> Self {
        let (mac, rrc) = preload_modules(&registry, &config);
        let liveness = LivenessTracker::new(config.liveness.clone());
        FlexranAgent {
            enb,
            transport,
            mac,
            rrc,
            reports: ReportsManager::new(),
            registry,
            config,
            counters: AgentCounters::default(),
            liveness,
            pre_failover_dl: None,
            active_config: (0, 0),
            hello_sent: false,
            stalled: false,
            outbox_acks: Vec::new(),
            handover_requests: Vec::new(),
            sched_scratch: SchedScratch::default(),
        }
    }

    /// Simulate an agent *process* crash followed by a supervisor
    /// restart: every piece of soft control-plane state is lost — VSF
    /// caches fall back to the registry built-ins and the configured
    /// initial schedulers, report subscriptions, liveness history,
    /// pending acks and in-flight handover requests vanish — while the
    /// data plane (the eNodeB itself) keeps running, because the radio
    /// hardware does not reboot with the agent process.
    ///
    /// The restarted agent re-introduces itself with a `Hello` on its
    /// next TTI, which is what lets the master replay delegated state.
    pub fn crash_restart(&mut self) {
        let (mac, rrc) = preload_modules(&self.registry, &self.config);
        self.mac = mac;
        self.rrc = rrc;
        self.reports = ReportsManager::new();
        self.counters = AgentCounters::default();
        self.liveness = LivenessTracker::new(self.config.liveness.clone());
        self.pre_failover_dl = None;
        self.active_config = (0, 0);
        self.hello_sent = false;
        self.stalled = false;
        self.outbox_acks.clear();
        self.handover_requests.clear();
        self.sched_scratch = SchedScratch::default();
    }

    /// Chaos hook: mark the agent's control thread as over (or back
    /// under) its TTI budget. While stalled, subframes still commit —
    /// the data-plane pipeline is hardware-driven — but protocol intake,
    /// liveness probing and local VSF scheduling are suspended, so
    /// inbound traffic piles up in the transport and the master sees the
    /// session go quiet.
    pub fn set_stalled(&mut self, stalled: bool) {
        self.stalled = stalled;
    }

    pub fn enb(&self) -> &Enb {
        &self.enb
    }

    pub fn enb_mut(&mut self) -> &mut Enb {
        &mut self.enb
    }

    pub fn transport(&self) -> &T {
        &self.transport
    }

    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    pub fn counters(&self) -> AgentCounters {
        self.counters
    }

    /// `(version, signature)` of the applied fleet config bundle
    /// (`(0, 0)` = factory state). Chaos oracle #9 asserts the signature
    /// stays within the set the master has issued.
    pub fn active_config(&self) -> (u64, u64) {
        self.active_config
    }

    pub fn config(&self) -> &AgentConfig {
        &self.config
    }

    /// Where the control-plane session currently stands.
    pub fn failover_state(&self) -> FailoverState {
        self.liveness.state()
    }

    pub fn liveness_counters(&self) -> LivenessCounters {
        self.liveness.counters()
    }

    /// Approximate heap footprint of the agent layer on top of the data
    /// plane: the VSF caches, subscriptions and outboxes (the Fig. 6a
    /// memory-overhead comparison).
    pub fn heap_bytes(&self) -> usize {
        self.enb.heap_bytes()
            + (self.mac.dl.len() + self.mac.ul.len() + self.rrc.handover.len()) * 256
            + self.reports.n_subscriptions() * 96
            + self.outbox_acks.capacity() * std::mem::size_of::<DelegationAck>()
            + self.handover_requests.capacity() * std::mem::size_of::<HandoverRequest>()
    }

    /// Handover decisions made since the last call (by the local RRC VSF
    /// or by master commands). The harness (standing in for X2) completes
    /// them at the target eNodeB.
    pub fn take_handover_requests(&mut self) -> Vec<HandoverRequest> {
        std::mem::take(&mut self.handover_requests)
    }

    /// Phase 1 of the TTI (see module docs).
    pub fn phase_a(&mut self, tti: Tti, phy: &mut dyn PhyView) {
        if self.stalled {
            // The data plane is hardware-driven: the subframe opens even
            // when the control thread has blown its budget.
            self.enb.begin_tti(tti, phy);
            return;
        }
        if !self.hello_sent {
            // lint:allow(alloc-reach) hello composition runs once per (re)connect
            self.send_hello();
        }
        self.enb.begin_tti(tti, phy);
        // Protocol intake.
        loop {
            // lint:allow(alloc-reach) decode materializes owned messages — arrival-driven
            match self.transport.try_recv() {
                Ok(Some((header, msg))) => {
                    self.counters.rx_messages += 1;
                    if self.liveness.on_rx(tti) {
                        // LocalControl → Rejoining: re-introduce ourselves
                        // so the master replays delegated state.
                        self.hello_sent = false;
                    }
                    // Command/config handling runs only when a control
                    // message arrived — episodic vs the TTI loop.
                    // lint:allow(alloc-reach)
                    self.handle_message(header, msg, tti);
                }
                Ok(None) => break,
                Err(_) => {
                    self.counters.transport_errors += 1;
                    break;
                }
            }
        }
        // Liveness bookkeeping: probe the master, and on a declared
        // outage swap the DL scheduler to the cached local fallback (the
        // §5.4 pointer swap, driven by missed heartbeats).
        let tick = self.liveness.tick(tti);
        if let Some(seq) = tick.probe {
            let probe = flexran_proto::messages::Heartbeat {
                seq,
                tti: tti.0,
                applied_config: self.active_config.1,
            };
            let _ = self
                .transport
                // lint:allow(alloc-reach) wire frame growth is pooled; probe is paced
                .send(Header::default(), &FlexranMessage::Heartbeat(probe));
        }
        if tick.entered_local_control {
            // Entering local control happens once per master outage, not
            // per TTI. lint:allow(alloc-reach)
            let fallback = self.liveness.config().fallback_dl_scheduler.clone();
            if self.mac.dl.active_name() != Some(fallback.as_str()) {
                // lint:allow(alloc-reach) failover bookkeeping, once per outage
                self.pre_failover_dl = self.mac.dl.active_name().map(String::from);
            }
            // lint:allow(alloc-reach) VSF swap to the fallback scheduler, once per outage
            if self.mac.dl.activate(&fallback).is_err() {
                self.counters.command_errors += 1;
            }
        }
        // Local scheduling through the active VSFs. Inputs and outputs
        // are refilled in place (`SchedScratch`); only a non-empty
        // decision hands its DCI vector off to the data plane.
        for ci in 0..self.enb.n_cells() {
            let cell = self.enb.cell_id_at(ci);
            let scratch = &mut self.sched_scratch;
            if let Some(sched) = self.mac.dl.active_mut() {
                if self
                    .enb
                    .dl_scheduler_input_into(cell, tti, tti, &mut scratch.dl_in)
                    .is_ok()
                {
                    sched.schedule_dl_into(&scratch.dl_in, &mut scratch.dl_out);
                    if !scratch.dl_out.dcis.is_empty() {
                        // Hand off through a recycled buffer (returned to
                        // the cell's pool once executed) — the scratch
                        // vector keeps its capacity and the steady-state
                        // loop stays allocation-free.
                        let mut dcis = self.enb.recycled_dci_buffer(cell);
                        dcis.extend_from_slice(&scratch.dl_out.dcis);
                        let d = DlSchedulingDecision {
                            cell,
                            target: tti,
                            dcis,
                        };
                        if self.enb.submit_dl_decision(d, tti).is_err() {
                            self.counters.command_errors += 1;
                        }
                    }
                }
            }
            if let Some(sched) = self.mac.ul.active_mut() {
                if self
                    .enb
                    .ul_scheduler_input_into(cell, tti, tti, &mut scratch.ul_in)
                    .is_ok()
                {
                    sched.schedule_ul_into(&scratch.ul_in, &mut scratch.ul_out);
                    if !scratch.ul_out.grants.is_empty() {
                        let mut grants = self.enb.recycled_grant_buffer(cell);
                        grants.extend_from_slice(&scratch.ul_out.grants);
                        let d = UlSchedulingDecision {
                            cell,
                            target: tti,
                            grants,
                        };
                        if self.enb.submit_ul_decision(d, tti).is_err() {
                            self.counters.command_errors += 1;
                        }
                    }
                }
            }
        }
    }

    /// Phase 2 of the TTI (see module docs). Returns the data-plane
    /// events of this TTI (also forwarded to the master).
    pub fn phase_b(&mut self, tti: Tti, phy: &mut dyn PhyView) -> Vec<EnbEvent> {
        self.enb.finish_tti(tti, phy);
        let events = self.enb.take_events();
        if self.stalled {
            // Subframe committed, but the control thread never got to
            // run: no events, syncs or reports reach the master this TTI.
            return events;
        }
        let enb_id = self.enb.config().enb_id;
        for ev in &events {
            // Local handover policy reacts to measurement reports.
            if let EnbEvent::MeasurementReport {
                cell,
                rnti,
                serving_rsrp_dbm,
                neighbours,
                ..
            } = ev
            {
                if let Some(policy) = self.rrc.handover.active_mut() {
                    if let Some(target) = policy.on_measurement(*serving_rsrp_dbm, neighbours) {
                        if self.enb.start_handover(*cell, *rnti, tti).is_ok() {
                            self.handover_requests.push(HandoverRequest {
                                cell: *cell,
                                rnti: *rnti,
                                target_site: Some(target),
                                target_enb: None,
                                target_cell: None,
                            });
                        }
                    }
                }
            }
            // lint:allow(alloc-reach) notification composition — event-driven
            let note = EventNotification::from_enb_event(enb_id, ev);
            let _ = self
                .transport
                // lint:allow(alloc-reach) wire frame growth is pooled; send is event-driven
                .send(Header::default(), &FlexranMessage::EventNotification(note));
        }
        if self.config.sync_period > 0 && tti.0.is_multiple_of(self.config.sync_period) {
            let sfnsf = tti.sfn_sf();
            // lint:allow(alloc-reach) rides the sync_period, amortized
            let _ = self.transport.send(
                Header::default(),
                &FlexranMessage::SubframeTrigger(SubframeTrigger {
                    enb_id,
                    sfn: sfnsf.sfn,
                    sf: sfnsf.sf,
                    tti: tti.0,
                }),
            );
        }
        let transport = &mut self.transport;
        self.reports.due(tti, &self.enb, |xid, reply| {
            // lint:allow(alloc-reach) wire frame growth is pooled; reply rides the report interval
            let _ = transport.send(Header::with_xid(xid), reply);
        });
        for ack in std::mem::take(&mut self.outbox_acks) {
            // lint:allow(alloc-reach) ack send — command-driven
            let _ = self.transport.send(
                Header::with_xid(ack.xid),
                &FlexranMessage::DelegationAck(ack),
            );
        }
        events
    }

    /// Convenience for single-eNodeB scenarios: both phases back to back.
    pub fn run_tti(&mut self, tti: Tti, phy: &mut dyn PhyView) -> Vec<EnbEvent> {
        self.phase_a(tti, phy);
        self.phase_b(tti, phy)
    }

    // ------------------------------------------------------------------
    // Message handling (the dispatcher of paper Fig. 2)
    // ------------------------------------------------------------------

    fn handle_message(&mut self, header: Header, msg: FlexranMessage, tti: Tti) {
        match msg {
            FlexranMessage::EchoRequest(e) => {
                let _ = self.transport.send(header, &FlexranMessage::EchoReply(e));
            }
            FlexranMessage::Heartbeat(h) => {
                // Master-originated probe: mirror it back.
                let _ = self
                    .transport
                    .send(header, &FlexranMessage::HeartbeatAck(h));
            }
            FlexranMessage::HeartbeatAck(h) => {
                if self.liveness.on_ack(h.seq) {
                    // Session healthy again: swap the fallback out for the
                    // scheduler that ran before the outage — unless a
                    // replayed policy already changed the active VSF.
                    let fallback = self.liveness.config().fallback_dl_scheduler.clone();
                    if self.mac.dl.active_name() == Some(fallback.as_str()) {
                        if let Some(prev) = self.pre_failover_dl.take() {
                            if self.mac.dl.activate(&prev).is_err() {
                                self.counters.command_errors += 1;
                            }
                        }
                    }
                }
            }
            FlexranMessage::StatsRequest(req) => {
                self.reports.register(header.xid, req.config);
            }
            FlexranMessage::ConfigRequest(_) => {
                self.send_config_reply(header);
            }
            FlexranMessage::ResyncRequest(_) => {
                // A recovered master asks for a full state re-sync: we
                // re-introduce ourselves *first* (so the session is
                // adopted before state lands), then stream the complete
                // picture — cell/UE configuration plus an ALL-flags
                // statistics report — so the rebuilt RIB reconverges
                // without waiting for the next periodic report.
                self.send_hello();
                self.send_config_reply(Header::default());
                let reply = crate::reports::compose_reply(
                    &self.enb,
                    tti,
                    ReportConfig {
                        report_type: ReportType::OneOff,
                        flags: ReportFlags::ALL,
                    },
                );
                let _ = self
                    .transport
                    .send(Header::default(), &FlexranMessage::StatsReply(reply));
            }
            FlexranMessage::DlSchedulingCommand(cmd) => {
                if self.enb.submit_dl_decision(cmd.to_decision(), tti).is_err() {
                    self.counters.command_errors += 1;
                }
            }
            FlexranMessage::UlSchedulingCommand(cmd) => {
                if self.enb.submit_ul_decision(cmd.to_decision(), tti).is_err() {
                    self.counters.command_errors += 1;
                }
            }
            FlexranMessage::HandoverCommand(cmd) => {
                if self
                    .enb
                    .start_handover(CellId(cmd.cell), Rnti(cmd.rnti), tti)
                    .is_ok()
                {
                    self.handover_requests.push(HandoverRequest {
                        cell: CellId(cmd.cell),
                        rnti: Rnti(cmd.rnti),
                        target_site: None,
                        target_enb: Some(cmd.target_enb),
                        target_cell: Some(cmd.target_cell),
                    });
                } else {
                    self.counters.command_errors += 1;
                }
            }
            FlexranMessage::DrxCommand(cmd) => {
                if self
                    .enb
                    .set_drx(
                        CellId(cmd.cell),
                        Rnti(cmd.rnti),
                        cmd.cycle_ttis as u64,
                        cmd.on_duration_ttis as u64,
                    )
                    .is_err()
                {
                    self.counters.command_errors += 1;
                }
            }
            FlexranMessage::ScellCommand(cmd) => {
                if self
                    .enb
                    .set_scell(
                        CellId(cmd.cell),
                        Rnti(cmd.rnti),
                        CellId(cmd.scell),
                        cmd.activate,
                    )
                    .is_err()
                {
                    self.counters.command_errors += 1;
                }
            }
            FlexranMessage::AbsCommand(cmd) => {
                if self
                    .enb
                    .set_abs_pattern(CellId(cmd.cell), cmd.to_pattern())
                    .is_err()
                {
                    self.counters.command_errors += 1;
                }
            }
            FlexranMessage::VsfPush(push) => {
                let result = self.install_vsf(&push);
                match &result {
                    Ok(()) => self.counters.pushes_accepted += 1,
                    Err(_) => self.counters.pushes_rejected += 1,
                }
                self.outbox_acks.push(DelegationAck {
                    xid: header.xid,
                    ok: result.is_ok(),
                    error: result.err().map(|e| e.to_string()).unwrap_or_default(),
                });
            }
            FlexranMessage::PolicyReconfiguration(p) => {
                let result = self.apply_policy(&p.yaml);
                match &result {
                    Ok(()) => self.counters.policies_applied += 1,
                    Err(_) => self.counters.policy_errors += 1,
                }
                self.outbox_acks.push(DelegationAck {
                    xid: header.xid,
                    ok: result.is_ok(),
                    error: result.err().map(|e| e.to_string()).unwrap_or_default(),
                });
            }
            FlexranMessage::ConfigBundlePush(push) => {
                let result = self.apply_bundle(&push.bundle);
                match &result {
                    Ok(()) => self.counters.pushes_accepted += 1,
                    Err(_) => self.counters.pushes_rejected += 1,
                }
                // Acked directly (not via the outbox) so the master sees
                // the verdict the same TTI it drains the transport —
                // rollout gates react one observation cycle sooner.
                let ack = ConfigBundleAck {
                    enb_id: self.enb.config().enb_id,
                    version: push.bundle.version,
                    signature: push.bundle.signature,
                    ok: result.is_ok(),
                    error: result.err().map(|e| e.to_string()).unwrap_or_default(),
                };
                let _ = self
                    .transport
                    .send(header, &FlexranMessage::ConfigBundleAck(ack));
            }
            // Messages an agent never consumes.
            FlexranMessage::Hello(_)
            | FlexranMessage::EchoReply(_)
            | FlexranMessage::ConfigReply(_)
            | FlexranMessage::SubframeTrigger(_)
            | FlexranMessage::StatsReply(_)
            | FlexranMessage::EventNotification(_)
            | FlexranMessage::ConfigBundleAck(_)
            | FlexranMessage::DelegationAck(_) => {}
        }
    }

    fn send_hello(&mut self) {
        let hello = FlexranMessage::Hello(flexran_proto::messages::Hello {
            enb_id: self.enb.config().enb_id,
            n_cells: self.enb.cell_ids().len() as u32,
            capabilities: self.config.capabilities.clone(),
            applied_config: self.active_config.1,
        });
        let _ = self.transport.send(Header::default(), &hello);
        self.hello_sent = true;
    }

    fn send_config_reply(&mut self, header: Header) {
        let mut reply = ConfigReply {
            enb_id: self.enb.config().enb_id,
            cells: Vec::new(),
            ues: Vec::new(),
        };
        for cell in self.enb.cell_ids() {
            if let Ok(cfg) = self.enb.cell_config(cell) {
                reply
                    .cells
                    .push(flexran_proto::messages::config::CellConfigPb::from_config(
                        cfg,
                    ));
            }
            if let Ok(ues) = self.enb.ue_stats(cell) {
                for u in ues {
                    reply.ues.push(flexran_proto::messages::config::UeConfigPb {
                        rnti: u.rnti.0,
                        pcell: cell.0,
                        transmission_mode: 1,
                        slice: u.slice.0,
                        ue_category: 4,
                    });
                }
            }
        }
        let _ = self
            .transport
            .send(header, &FlexranMessage::ConfigReply(reply));
    }

    /// VSF updation: verify, build, cache.
    fn install_vsf(&mut self, push: &VsfPush) -> Result<()> {
        verify_push(push)?;
        let imp = match &push.artifact {
            VsfArtifact::Registry { key } => self.registry.instantiate(key)?,
            VsfArtifact::Dsl { source } => match (push.module.as_str(), push.vsf.as_str()) {
                ("mac", MAC_DL_SCHEDULER) => {
                    VsfImpl::DlScheduler(Box::new(crate::dsl::DslScheduler::compile(source)?))
                }
                (m, v) => {
                    return Err(FlexError::Delegation(format!(
                        "DSL artifacts are only supported for mac/{MAC_DL_SCHEDULER}, not {m}/{v}"
                    )))
                }
            },
        };
        match (push.module.as_str(), push.vsf.as_str(), imp) {
            ("mac", MAC_DL_SCHEDULER, VsfImpl::DlScheduler(s)) => {
                self.mac.dl.insert(&push.name, s);
                Ok(())
            }
            ("mac", MAC_UL_SCHEDULER, VsfImpl::UlScheduler(s)) => {
                self.mac.ul.insert(&push.name, s);
                Ok(())
            }
            ("rrc", RRC_HANDOVER, VsfImpl::Handover(h)) => {
                self.rrc.handover.insert(&push.name, h);
                Ok(())
            }
            (m, v, imp) => Err(FlexError::Delegation(format!(
                "artifact of kind '{}' does not fit slot {m}/{v}",
                imp.kind()
            ))),
        }
    }

    /// Apply a fleet config bundle transactionally: *validate* every
    /// piece (signature, policy document, VSF instantiation) before
    /// *swapping* any module state, so a bad bundle leaves the agent
    /// exactly as it was and the nack tells the rollout gate why.
    ///
    /// The swap itself reuses the pre-failover restore machinery: if the
    /// policy application fails halfway (it can — parameter validation
    /// happens against the live scheduler), the previously active DL
    /// scheduler is reinstated before the error propagates.
    fn apply_bundle(&mut self, bundle: &ConfigBundlePb) -> Result<()> {
        if !bundle.verify() {
            return Err(FlexError::Delegation(format!(
                "config bundle v{} failed signature verification",
                bundle.version
            )));
        }
        // Validation phase: nothing below may touch module state.
        let doc = if bundle.policy_yaml.is_empty() {
            None
        } else {
            Some(PolicyDoc::parse(&bundle.policy_yaml)?)
        };
        let vsf = if bundle.vsf_key.is_empty() {
            None
        } else {
            Some((
                bundle.vsf_key.clone(),
                self.registry.instantiate(&bundle.vsf_key)?,
            ))
        };
        if !bundle.scheduler.is_empty()
            && bundle.scheduler != bundle.vsf_key
            && !self.mac.dl.contains(&bundle.scheduler)
        {
            return Err(FlexError::Delegation(format!(
                "bundle selects unknown DL scheduler '{}'",
                bundle.scheduler
            )));
        }
        // Swap phase.
        let prev_dl = self.mac.dl.active_name().map(String::from);
        if let Some((key, imp)) = vsf {
            match imp {
                VsfImpl::DlScheduler(s) => self.mac.dl.insert(&key, s),
                VsfImpl::UlScheduler(s) => self.mac.ul.insert(&key, s),
                VsfImpl::Handover(h) => self.rrc.handover.insert(&key, h),
            }
        }
        if !bundle.scheduler.is_empty() {
            self.mac.dl.activate(&bundle.scheduler)?;
        }
        if let Some(doc) = doc {
            if let Err(e) = self.apply_policy_doc(&doc) {
                // Roll the scheduler swap back (same pointer-restore path
                // the failover machinery uses) so a half-applied bundle
                // cannot leave a Frankenstein configuration behind.
                if let Some(prev) = prev_dl {
                    if self.mac.dl.activate(&prev).is_err() {
                        self.counters.command_errors += 1;
                    }
                }
                return Err(e);
            }
        }
        self.active_config = (bundle.version, bundle.signature);
        Ok(())
    }

    /// Policy reconfiguration: behaviour swaps and parameter updates.
    fn apply_policy(&mut self, yaml: &str) -> Result<()> {
        let doc = PolicyDoc::parse(yaml)?;
        self.apply_policy_doc(&doc)
    }

    fn apply_policy_doc(&mut self, doc: &PolicyDoc) -> Result<()> {
        for module in &doc.modules {
            match module.module.as_str() {
                "mac" => {
                    for vsf in &module.vsfs {
                        match vsf.vsf.as_str() {
                            MAC_DL_SCHEDULER => {
                                if let Some(b) = &vsf.behavior {
                                    self.mac.dl.activate(b)?;
                                }
                                if !vsf.parameters.is_empty() {
                                    let target = self.mac.dl.active_mut().ok_or_else(|| {
                                        FlexError::Policy(
                                            "parameters given but no active DL scheduler".into(),
                                        )
                                    })?;
                                    for (k, v) in &vsf.parameters {
                                        target.set_param(k, v.clone())?;
                                    }
                                }
                            }
                            MAC_UL_SCHEDULER => {
                                if let Some(b) = &vsf.behavior {
                                    self.mac.ul.activate(b)?;
                                }
                                if !vsf.parameters.is_empty() {
                                    return Err(FlexError::Policy(
                                        "UL scheduler exposes no parameters".into(),
                                    ));
                                }
                            }
                            other => {
                                return Err(FlexError::Policy(format!(
                                    "mac module has no VSF '{other}'"
                                )))
                            }
                        }
                    }
                }
                "rrc" => {
                    for vsf in &module.vsfs {
                        if vsf.vsf != RRC_HANDOVER {
                            return Err(FlexError::Policy(format!(
                                "rrc module has no VSF '{}'",
                                vsf.vsf
                            )));
                        }
                        if let Some(b) = &vsf.behavior {
                            self.rrc.handover.activate(b)?;
                        }
                        if !vsf.parameters.is_empty() {
                            return Err(FlexError::Policy(
                                "handover policy exposes no wire parameters".into(),
                            ));
                        }
                    }
                }
                "agent" => {
                    for vsf in &module.vsfs {
                        if vsf.vsf != "sync" {
                            return Err(FlexError::Policy(format!(
                                "agent module has no VSF '{}'",
                                vsf.vsf
                            )));
                        }
                        for (k, v) in &vsf.parameters {
                            match k.as_str() {
                                "period" => {
                                    self.config.sync_period =
                                        v.as_i64()
                                            .ok_or_else(|| {
                                                FlexError::Policy("period must be integer".into())
                                            })?
                                            .max(0) as u64;
                                }
                                other => {
                                    return Err(FlexError::Policy(format!(
                                        "agent/sync has no parameter '{other}'"
                                    )))
                                }
                            }
                        }
                    }
                }
                other => {
                    return Err(FlexError::Policy(format!(
                        "unknown control module '{other}'"
                    )))
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vsf::sign_push;
    use flexran_proto::messages::stats::{ReportConfig, ReportFlags, ReportType, StatsRequest};
    use flexran_proto::messages::PolicyReconfiguration;
    use flexran_proto::transport::{channel_pair, ChannelTransport};
    use flexran_stack::enb::{EnbParams, StaticPhyView};
    use flexran_types::config::EnbConfig;
    use flexran_types::ids::{EnbId, SliceId, UeId};
    use flexran_types::units::Bytes;

    const CELL: CellId = CellId(0);

    fn agent_and_master() -> (FlexranAgent<ChannelTransport>, ChannelTransport) {
        let (a_side, m_side) = channel_pair();
        let enb = Enb::new(EnbConfig::single_cell(EnbId(1)), EnbParams::default()).unwrap();
        let agent = FlexranAgent::new(
            enb,
            a_side,
            VsfRegistry::with_builtins(),
            AgentConfig::default(),
        );
        (agent, m_side)
    }

    fn drain(master: &mut ChannelTransport) -> Vec<FlexranMessage> {
        let mut out = Vec::new();
        while let Ok(Some((_, m))) = master.try_recv() {
            out.push(m);
        }
        out
    }

    #[test]
    fn hello_sent_on_first_tti() {
        let (mut agent, mut master) = agent_and_master();
        let mut phy = StaticPhyView(20.0);
        agent.run_tti(Tti(0), &mut phy);
        let msgs = drain(&mut master);
        assert!(matches!(msgs.first(), Some(FlexranMessage::Hello(h)) if h.enb_id == EnbId(1)));
    }

    #[test]
    fn attach_and_traffic_via_local_vsf() {
        let (mut agent, mut master) = agent_and_master();
        let mut phy = StaticPhyView(20.0);
        let rnti = agent
            .enb_mut()
            .rach(CELL, UeId(1), SliceId::MNO, 0, Tti(0))
            .unwrap();
        let mut attached = false;
        for t in 0..80 {
            for ev in agent.run_tti(Tti(t), &mut phy) {
                if matches!(ev, EnbEvent::UeAttached { .. }) {
                    attached = true;
                }
            }
        }
        assert!(attached);
        // The attach event reached the master too.
        let msgs = drain(&mut master);
        assert!(msgs.iter().any(|m| matches!(
            m,
            FlexranMessage::EventNotification(n)
                if n.kind == flexran_proto::messages::events::EventKind::UeAttached
        )));
        agent
            .enb_mut()
            .inject_dl_traffic(CELL, rnti, Bytes(50_000), Tti(80))
            .unwrap();
        for t in 80..300 {
            agent.run_tti(Tti(t), &mut phy);
        }
        let stats = agent.enb().ue_stat(CELL, rnti).unwrap();
        assert!(stats.dl_delivered_bits >= 50_000 * 8);
    }

    #[test]
    fn periodic_stats_subscription_flows() {
        let (mut agent, mut master) = agent_and_master();
        let mut phy = StaticPhyView(20.0);
        master
            .send(
                Header::with_xid(42),
                &FlexranMessage::StatsRequest(StatsRequest {
                    config: ReportConfig {
                        report_type: ReportType::Periodic { period: 10 },
                        flags: ReportFlags::ALL,
                    },
                }),
            )
            .unwrap();
        for t in 0..35 {
            agent.run_tti(Tti(t), &mut phy);
        }
        let replies = drain(&mut master)
            .into_iter()
            .filter(|m| matches!(m, FlexranMessage::StatsReply(_)))
            .count();
        assert_eq!(replies, 4, "t=0,10,20,30");
    }

    #[test]
    fn sync_trigger_follows_policy() {
        let (mut agent, mut master) = agent_and_master();
        let mut phy = StaticPhyView(20.0);
        master
            .send(
                Header::with_xid(1),
                &FlexranMessage::PolicyReconfiguration(PolicyReconfiguration {
                    yaml: "agent:\n  sync:\n    parameters:\n      period: 1\n".into(),
                }),
            )
            .unwrap();
        for t in 0..10 {
            agent.run_tti(Tti(t), &mut phy);
        }
        let msgs = drain(&mut master);
        let syncs = msgs
            .iter()
            .filter(|m| matches!(m, FlexranMessage::SubframeTrigger(_)))
            .count();
        // Policy applied at t=0 → sync from t=0 or t=1 onwards.
        assert!(syncs >= 9, "got {syncs} sync triggers");
        assert!(msgs.iter().any(|m| matches!(
            m,
            FlexranMessage::DelegationAck(a) if a.ok && a.xid == 1
        )));
    }

    #[test]
    fn remote_scheduling_via_commands() {
        let (mut agent, mut master) = agent_and_master();
        let mut phy = StaticPhyView(20.0);
        let rnti = agent
            .enb_mut()
            .rach(CELL, UeId(1), SliceId::MNO, 0, Tti(0))
            .unwrap();
        // Attach locally first.
        for t in 0..80 {
            agent.run_tti(Tti(t), &mut phy);
        }
        // Switch to the remote stub: local VSF goes silent.
        master
            .send(
                Header::with_xid(2),
                &FlexranMessage::PolicyReconfiguration(PolicyReconfiguration {
                    yaml: "mac:\n  dl_ue_scheduler:\n    behavior: remote-stub\n".into(),
                }),
            )
            .unwrap();
        agent
            .enb_mut()
            .inject_dl_traffic(CELL, rnti, Bytes(20_000), Tti(80))
            .unwrap();
        // A few TTIs with no remote commands: queue must not drain.
        for t in 80..90 {
            agent.run_tti(Tti(t), &mut phy);
        }
        let before = agent.enb().ue_stat(CELL, rnti).unwrap().dl_delivered_bits;
        // Now the master schedules remotely for specific subframes.
        for t in 90..140u64 {
            let cmd = flexran_proto::messages::DlSchedulingCommand {
                enb_id: EnbId(1),
                cell: 0,
                target_tti: t,
                dcis: vec![flexran_proto::messages::commands::DciPb {
                    rnti: rnti.0,
                    n_prb: 50,
                    mcs: 15,
                    ..Default::default()
                }],
            };
            master
                .send(Header::default(), &FlexranMessage::DlSchedulingCommand(cmd))
                .unwrap();
            agent.run_tti(Tti(t), &mut phy);
        }
        let after = agent.enb().ue_stat(CELL, rnti).unwrap().dl_delivered_bits;
        assert!(after > before, "remote decisions must move data");
        assert_eq!(agent.counters().transport_errors, 0);
    }

    #[test]
    fn vsf_push_dsl_and_activate() {
        let (mut agent, mut master) = agent_and_master();
        let mut phy = StaticPhyView(20.0);
        let mut push = VsfPush {
            module: "mac".into(),
            vsf: MAC_DL_SCHEDULER.into(),
            name: "cqi-gate".into(),
            artifact: VsfArtifact::Dsl {
                source: "priority = step(cqi - 9)\n".into(),
            },
            signature: vec![],
        };
        sign_push(&mut push);
        master
            .send(Header::with_xid(7), &FlexranMessage::VsfPush(push))
            .unwrap();
        master
            .send(
                Header::with_xid(8),
                &FlexranMessage::PolicyReconfiguration(PolicyReconfiguration {
                    yaml: "mac:\n  dl_ue_scheduler:\n    behavior: cqi-gate\n".into(),
                }),
            )
            .unwrap();
        agent.run_tti(Tti(0), &mut phy);
        assert_eq!(agent.mac.dl.active_name(), Some("cqi-gate"));
        assert_eq!(agent.counters().pushes_accepted, 1);
        let acks: Vec<_> = drain(&mut master)
            .into_iter()
            .filter_map(|m| match m {
                FlexranMessage::DelegationAck(a) => Some(a),
                _ => None,
            })
            .collect();
        assert_eq!(acks.len(), 2);
        assert!(acks.iter().all(|a| a.ok));
    }

    #[test]
    fn tampered_push_rejected() {
        let (mut agent, mut master) = agent_and_master();
        let mut phy = StaticPhyView(20.0);
        let mut push = VsfPush {
            module: "mac".into(),
            vsf: MAC_DL_SCHEDULER.into(),
            name: "evil".into(),
            artifact: VsfArtifact::Registry {
                key: "max-cqi".into(),
            },
            signature: vec![],
        };
        sign_push(&mut push);
        push.artifact = VsfArtifact::Registry {
            key: "round-robin".into(),
        }; // tamper after signing
        master
            .send(Header::with_xid(9), &FlexranMessage::VsfPush(push))
            .unwrap();
        agent.run_tti(Tti(0), &mut phy);
        assert_eq!(agent.counters().pushes_rejected, 1);
        assert!(!agent.mac.dl.names().contains(&"evil"));
        let acks: Vec<_> = drain(&mut master)
            .into_iter()
            .filter_map(|m| match m {
                FlexranMessage::DelegationAck(a) => Some(a),
                _ => None,
            })
            .collect();
        assert_eq!(acks.len(), 1);
        assert!(!acks[0].ok);
        assert!(acks[0].error.contains("signature"));
    }

    #[test]
    fn bad_policy_is_acked_with_error() {
        let (mut agent, mut master) = agent_and_master();
        let mut phy = StaticPhyView(20.0);
        master
            .send(
                Header::with_xid(3),
                &FlexranMessage::PolicyReconfiguration(PolicyReconfiguration {
                    yaml: "mac:\n  dl_ue_scheduler:\n    behavior: not-cached\n".into(),
                }),
            )
            .unwrap();
        agent.run_tti(Tti(0), &mut phy);
        assert_eq!(agent.counters().policy_errors, 1);
        // The previous scheduler stays active.
        assert_eq!(agent.mac.dl.active_name(), Some("round-robin"));
        drain(&mut master);
    }

    #[test]
    fn scell_command_over_the_wire() {
        let (a_side, m_side) = channel_pair();
        let mut cfg = EnbConfig::single_cell(EnbId(1));
        cfg.cells
            .push(flexran_types::config::CellConfig::paper_default(CellId(1)));
        let enb = Enb::new(cfg, EnbParams::default()).unwrap();
        let mut agent = FlexranAgent::new(
            enb,
            a_side,
            VsfRegistry::with_builtins(),
            AgentConfig::default(),
        );
        let mut master = m_side;
        let mut phy = StaticPhyView(20.0);
        let rnti = agent
            .enb_mut()
            .rach(CELL, UeId(1), SliceId::MNO, 0, Tti(0))
            .unwrap();
        master
            .send(
                Header::with_xid(1),
                &FlexranMessage::ScellCommand(flexran_proto::messages::ScellCommand {
                    cell: 0,
                    rnti: rnti.0,
                    scell: 1,
                    activate: true,
                }),
            )
            .unwrap();
        agent.run_tti(Tti(0), &mut phy);
        assert_eq!(
            agent.enb().ue_stat(CELL, rnti).unwrap().active_scells,
            vec![1]
        );
        // Deactivation and an invalid scell.
        master
            .send(
                Header::with_xid(2),
                &FlexranMessage::ScellCommand(flexran_proto::messages::ScellCommand {
                    cell: 0,
                    rnti: rnti.0,
                    scell: 1,
                    activate: false,
                }),
            )
            .unwrap();
        master
            .send(
                Header::with_xid(3),
                &FlexranMessage::ScellCommand(flexran_proto::messages::ScellCommand {
                    cell: 0,
                    rnti: rnti.0,
                    scell: 9,
                    activate: true,
                }),
            )
            .unwrap();
        agent.run_tti(Tti(1), &mut phy);
        assert!(agent
            .enb()
            .ue_stat(CELL, rnti)
            .unwrap()
            .active_scells
            .is_empty());
        assert_eq!(agent.counters().command_errors, 1);
    }

    fn liveness_agent(
        period: u64,
        timeout: u64,
    ) -> (FlexranAgent<ChannelTransport>, ChannelTransport) {
        let (a_side, m_side) = channel_pair();
        let enb = Enb::new(EnbConfig::single_cell(EnbId(1)), EnbParams::default()).unwrap();
        let agent = FlexranAgent::new(
            enb,
            a_side,
            VsfRegistry::with_builtins(),
            AgentConfig {
                liveness: crate::liveness::LivenessConfig {
                    heartbeat_period: period,
                    liveness_timeout: timeout,
                    ..Default::default()
                },
                ..AgentConfig::default()
            },
        );
        (agent, m_side)
    }

    #[test]
    fn heartbeats_flow_and_master_probes_are_acked() {
        let (mut agent, mut master) = liveness_agent(5, 100);
        let mut phy = StaticPhyView(20.0);
        master
            .send(
                Header::default(),
                &FlexranMessage::Heartbeat(flexran_proto::messages::Heartbeat {
                    seq: 9,
                    tti: 0,
                    applied_config: 0,
                }),
            )
            .unwrap();
        for t in 0..12 {
            agent.run_tti(Tti(t), &mut phy);
        }
        let msgs = drain(&mut master);
        let probes = msgs
            .iter()
            .filter(|m| matches!(m, FlexranMessage::Heartbeat(_)))
            .count();
        assert_eq!(probes, 3, "t=0,5,10");
        assert!(msgs
            .iter()
            .any(|m| matches!(m, FlexranMessage::HeartbeatAck(a) if a.seq == 9)));
        assert_eq!(agent.liveness_counters().heartbeats_sent, 3);
    }

    #[test]
    fn silent_master_triggers_local_control_failover_and_rejoin() {
        let (mut agent, mut master) = liveness_agent(5, 40);
        let mut phy = StaticPhyView(20.0);
        // The master switches the agent to remote control, then goes dark.
        master
            .send(
                Header::with_xid(1),
                &FlexranMessage::PolicyReconfiguration(PolicyReconfiguration {
                    yaml: "mac:\n  dl_ue_scheduler:\n    behavior: remote-stub\n".into(),
                }),
            )
            .unwrap();
        agent.run_tti(Tti(0), &mut phy);
        assert_eq!(agent.mac.dl.active_name(), Some("remote-stub"));
        assert_eq!(agent.failover_state(), FailoverState::Connected);
        // Silence long enough to blow the timeout.
        for t in 1..=45 {
            agent.run_tti(Tti(t), &mut phy);
        }
        assert_eq!(agent.failover_state(), FailoverState::LocalControl);
        assert_eq!(
            agent.mac.dl.active_name(),
            Some("round-robin"),
            "failover swapped to the cached local policy"
        );
        assert_eq!(agent.liveness_counters().failovers, 1);
        drain(&mut master);
        // The master returns: ack every probe the agent sends.
        let mut rejoined_hello = 0;
        master
            .send(
                Header::default(),
                &FlexranMessage::EchoRequest(flexran_proto::messages::Echo {
                    timestamp_us: 1,
                    payload: vec![],
                }),
            )
            .unwrap();
        for t in 46..=70 {
            agent.run_tti(Tti(t), &mut phy);
            for m in drain(&mut master) {
                match m {
                    FlexranMessage::Heartbeat(h) => {
                        master
                            .send(Header::default(), &FlexranMessage::HeartbeatAck(h))
                            .unwrap();
                    }
                    FlexranMessage::Hello(_) => rejoined_hello += 1,
                    _ => {}
                }
            }
        }
        assert_eq!(agent.failover_state(), FailoverState::Connected);
        assert_eq!(agent.liveness_counters().rejoins, 1);
        assert_eq!(rejoined_hello, 1, "agent re-sent Hello while rejoining");
        assert_eq!(
            agent.mac.dl.active_name(),
            Some("remote-stub"),
            "rejoin restored the pre-failover scheduler, so remote \
             commands are not double-scheduled against the fallback"
        );
    }

    #[test]
    fn rejoin_keeps_replayed_policy_over_stale_restore() {
        let (mut agent, mut master) = liveness_agent(5, 40);
        let mut phy = StaticPhyView(20.0);
        master
            .send(
                Header::with_xid(1),
                &FlexranMessage::PolicyReconfiguration(PolicyReconfiguration {
                    yaml: "mac:\n  dl_ue_scheduler:\n    behavior: remote-stub\n".into(),
                }),
            )
            .unwrap();
        agent.run_tti(Tti(0), &mut phy);
        for t in 1..=45 {
            agent.run_tti(Tti(t), &mut phy);
        }
        assert_eq!(agent.failover_state(), FailoverState::LocalControl);
        drain(&mut master);
        // The master returns and, during the rejoin handshake, replays a
        // *different* policy than the one active before the outage.
        master
            .send(
                Header::with_xid(2),
                &FlexranMessage::PolicyReconfiguration(PolicyReconfiguration {
                    yaml: "mac:\n  dl_ue_scheduler:\n    behavior: proportional-fair\n".into(),
                }),
            )
            .unwrap();
        for t in 46..=70 {
            agent.run_tti(Tti(t), &mut phy);
            for m in drain(&mut master) {
                if let FlexranMessage::Heartbeat(h) = m {
                    master
                        .send(Header::default(), &FlexranMessage::HeartbeatAck(h))
                        .unwrap();
                }
            }
        }
        assert_eq!(agent.failover_state(), FailoverState::Connected);
        assert_eq!(
            agent.mac.dl.active_name(),
            Some("proportional-fair"),
            "a policy replayed during rejoin wins over the stale restore"
        );
    }

    #[test]
    fn resync_request_draws_hello_config_and_full_stats() {
        let (mut agent, mut master) = agent_and_master();
        let mut phy = StaticPhyView(20.0);
        agent
            .enb_mut()
            .rach(CELL, UeId(1), SliceId::MNO, 0, Tti(0))
            .unwrap();
        for t in 0..80 {
            agent.run_tti(Tti(t), &mut phy);
        }
        drain(&mut master);
        master
            .send(
                Header::default(),
                &FlexranMessage::ResyncRequest(flexran_proto::messages::ResyncRequest {
                    enb_id: EnbId(1),
                    since_tti: 0,
                }),
            )
            .unwrap();
        agent.run_tti(Tti(80), &mut phy);
        let msgs = drain(&mut master);
        let hello = msgs
            .iter()
            .position(|m| matches!(m, FlexranMessage::Hello(_)))
            .expect("re-hello");
        let config = msgs
            .iter()
            .position(|m| matches!(m, FlexranMessage::ConfigReply(c) if !c.ues.is_empty()))
            .expect("config reply with the attached UE");
        let stats = msgs
            .iter()
            .position(|m| matches!(m, FlexranMessage::StatsReply(s) if !s.ues.is_empty()))
            .expect("full stats reply");
        assert!(
            hello < config && config < stats,
            "session re-introduction must precede the state dump"
        );
    }

    #[test]
    fn crash_restart_loses_soft_state_but_keeps_the_data_plane() {
        let (mut agent, mut master) = agent_and_master();
        let mut phy = StaticPhyView(20.0);
        let rnti = agent
            .enb_mut()
            .rach(CELL, UeId(1), SliceId::MNO, 0, Tti(0))
            .unwrap();
        master
            .send(
                Header::with_xid(4),
                &FlexranMessage::StatsRequest(StatsRequest {
                    config: ReportConfig {
                        report_type: ReportType::Periodic { period: 5 },
                        flags: ReportFlags::ALL,
                    },
                }),
            )
            .unwrap();
        master
            .send(
                Header::with_xid(5),
                &FlexranMessage::PolicyReconfiguration(PolicyReconfiguration {
                    yaml: "mac:\n  dl_ue_scheduler:\n    behavior: proportional-fair\n".into(),
                }),
            )
            .unwrap();
        for t in 0..80 {
            agent.run_tti(Tti(t), &mut phy);
        }
        assert_eq!(agent.mac.dl.active_name(), Some("proportional-fair"));
        drain(&mut master);
        agent.crash_restart();
        // Soft state is gone: scheduler back to the configured initial,
        // the periodic subscription no longer fires, counters reset.
        assert_eq!(agent.mac.dl.active_name(), Some("round-robin"));
        assert_eq!(agent.counters(), AgentCounters::default());
        for t in 80..95 {
            agent.run_tti(Tti(t), &mut phy);
        }
        let msgs = drain(&mut master);
        assert!(
            msgs.iter().any(|m| matches!(m, FlexranMessage::Hello(_))),
            "restarted agent re-introduces itself"
        );
        assert!(
            !msgs
                .iter()
                .any(|m| matches!(m, FlexranMessage::StatsReply(_))),
            "crash wiped the report subscription"
        );
        // The data plane survived: the UE is still attached.
        assert!(agent.enb().ue_stat(CELL, rnti).is_ok());
    }

    #[test]
    fn stalled_agent_commits_subframes_but_goes_silent() {
        let (mut agent, mut master) = liveness_agent(5, 100);
        let mut phy = StaticPhyView(20.0);
        agent.run_tti(Tti(0), &mut phy);
        drain(&mut master);
        agent.set_stalled(true);
        // Messages sent to a stalled agent are not consumed…
        master
            .send(
                Header::with_xid(9),
                &FlexranMessage::StatsRequest(StatsRequest {
                    config: ReportConfig {
                        report_type: ReportType::OneOff,
                        flags: ReportFlags::ALL,
                    },
                }),
            )
            .unwrap();
        for t in 1..=20 {
            agent.run_tti(Tti(t), &mut phy);
        }
        assert!(drain(&mut master).is_empty(), "no probes, syncs or replies");
        assert_eq!(agent.counters().rx_messages, 0);
        // …but are processed once the stall clears.
        agent.set_stalled(false);
        agent.run_tti(Tti(21), &mut phy);
        let msgs = drain(&mut master);
        assert!(msgs
            .iter()
            .any(|m| matches!(m, FlexranMessage::StatsReply(_))));
    }

    #[test]
    fn echo_and_config_requests_answered() {
        let (mut agent, mut master) = agent_and_master();
        let mut phy = StaticPhyView(20.0);
        master
            .send(
                Header::with_xid(5),
                &FlexranMessage::EchoRequest(flexran_proto::messages::Echo {
                    timestamp_us: 77,
                    payload: vec![1],
                }),
            )
            .unwrap();
        master
            .send(
                Header::with_xid(6),
                &FlexranMessage::ConfigRequest(flexran_proto::messages::ConfigRequest::default()),
            )
            .unwrap();
        agent.run_tti(Tti(0), &mut phy);
        let msgs = drain(&mut master);
        assert!(msgs
            .iter()
            .any(|m| matches!(m, FlexranMessage::EchoReply(e) if e.timestamp_us == 77)));
        assert!(msgs
            .iter()
            .any(|m| matches!(m, FlexranMessage::ConfigReply(c) if c.cells.len() == 1)));
    }
}
