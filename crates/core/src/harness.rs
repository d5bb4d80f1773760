//! The simulation harness: the paper's testbed in virtual time.
//!
//! A [`SimHarness`] owns one master controller, any number of
//! agent-enabled eNodeBs connected over configurable control-channel
//! links (latency/jitter/rate — the `netem` stand-in), the global radio
//! environment, the UE population and their traffic sources. One call to
//! [`SimHarness::step`] advances everything by exactly one TTI:
//!
//! 1. the master runs one Task Manager cycle (so its commands ride the
//!    control links this TTI),
//! 2. traffic sources inject bytes, measurement reports fire,
//! 3. every agent runs phase A (data-plane bookkeeping, protocol intake,
//!    local VSF scheduling),
//! 4. the harness derives which cells transmit and updates the
//!    interference coupling,
//! 5. every agent runs phase B (transmissions commit; events, sync and
//!    reports go out), and the harness completes attach bookkeeping and
//!    X2-style handovers.
//!
//! [`VanillaHarness`] is the agent-less baseline of Fig. 6: the same data
//! plane driven directly by an embedded scheduler, no FlexRAN anywhere.

use std::collections::BTreeMap;
use std::sync::Arc;

use flexran_agent::{AgentConfig, FlexranAgent, VsfRegistry};
use flexran_controller::{MasterController, TaskManagerConfig};
use flexran_phy::channel::{ChannelProcess, CqiSquareWave, FixedCqi, FixedSinr, GaussMarkovFading};
use flexran_phy::link_adaptation::Cqi;
use flexran_proto::transport::Transport;
use flexran_sim::clock::VirtualClock;
use flexran_sim::link::{
    sim_link_pair, sim_link_pair_with_faults, FaultHandle, LinkConfig, SimTransport,
};
use flexran_sim::radio::{PhyAdapter, RadioEnvironment, UeRadio};
use flexran_sim::traffic::TrafficSource;
use flexran_stack::enb::{Enb, EnbParams};
use flexran_stack::events::EnbEvent;
use flexran_stack::mac::dci::{DlSchedulingDecision, UlSchedulingDecision};
use flexran_stack::mac::scheduler::{
    DlScheduler, DlSchedulerInput, DlSchedulerOutput, RoundRobinScheduler, UlRoundRobinScheduler,
    UlScheduler, UlSchedulerInput, UlSchedulerOutput,
};
use flexran_stack::stats::UeStats;
use flexran_types::budget::TtiBudget;
use flexran_types::config::EnbConfig;
use flexran_types::hash::Fnv1a;
use flexran_types::ids::{CellId, EnbId, Rnti, SliceId, UeId};
use flexran_types::time::Tti;
use flexran_types::units::Bytes;
use flexran_types::{FlexError, Result};

/// Harness-wide configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Default agent→master link.
    pub uplink: LinkConfig,
    /// Default master→agent link.
    pub downlink: LinkConfig,
    pub master: TaskManagerConfig,
    pub seed: u64,
    /// Ignored: the TTI engine is one serial loop. The field stays so
    /// that code written against the former parallel engine still
    /// compiles; no setting of it changes what a run does or observes.
    pub workers: Option<usize>,
    /// Whole-step wall-time deadline for the TTI budget monitor
    /// (nanoseconds; LTE subframe = 1 ms). Observability only — the
    /// monitor never feeds wall time back into simulation state.
    pub tti_budget_ns: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            uplink: LinkConfig::ideal(),
            downlink: LinkConfig::ideal(),
            master: TaskManagerConfig::default(),
            seed: 1,
            workers: None,
            tti_budget_ns: flexran_types::budget::DEFAULT_TTI_BUDGET_NS,
        }
    }
}

/// Cumulative wall-clock spent in each part of [`SimHarness::step`],
/// for the perf-trajectory experiments (`experiments scale`).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Number of `step` calls accumulated.
    pub steps: u64,
    /// Master cycle: begin, every shard's RIB slot, finish.
    pub serial_front_ns: u64,
    /// Phase A across all agents, including per-agent traffic and
    /// measurement injection.
    pub phase_a_ns: u64,
    /// Interference coupling between the two phases.
    pub coupling_ns: u64,
    /// Phase B across all agents.
    pub phase_b_ns: u64,
    /// Event/handover merge in agent-index order.
    pub merge_ns: u64,
}

/// Per-agent output of phase B, collected for every agent before the
/// merge so that no agent's phase B sees another agent's events of the
/// same TTI applied (see [`SimHarness::step`]).
#[derive(Default)]
struct PhaseBOut {
    events: Vec<EnbEvent>,
    handovers: Vec<flexran_agent::HandoverRequest>,
}

/// Shared lookup into the per-agent UE buckets (the permanent home of
/// every [`UeEntry`]): `index` maps a UE to its owning agent, the
/// bucket is sorted by `UeId`. Free functions so callers can hold
/// disjoint borrows of the harness's other fields.
fn ue_entry<'a>(
    index: &BTreeMap<UeId, usize>,
    buckets: &'a [Vec<(UeId, UeEntry)>],
    ue: UeId,
) -> Option<&'a UeEntry> {
    let &idx = index.get(&ue)?;
    let b = buckets.get(idx)?;
    let i = b.binary_search_by_key(&ue, |(u, _)| *u).ok()?;
    Some(&b[i].1)
}

fn ue_entry_mut<'a>(
    index: &BTreeMap<UeId, usize>,
    buckets: &'a mut [Vec<(UeId, UeEntry)>],
    ue: UeId,
) -> Option<&'a mut UeEntry> {
    let &idx = index.get(&ue)?;
    let b = buckets.get_mut(idx)?;
    let i = b.binary_search_by_key(&ue, |(u, _)| *u).ok()?;
    Some(&mut b[i].1)
}

/// One UE's per-TTI traffic-source and measurement-report injection
/// into its owning agent, run just before that agent's phase A.
/// `rsrp_all_sites` is pure geometry (it ignores the active-site set),
/// so a report does not depend on which agents ran before.
fn drive_ue_traffic(
    agent: &mut FlexranAgent<SimTransport>,
    radio: &mut RadioEnvironment,
    ue: UeId,
    entry: &mut UeEntry,
    now: Tti,
) {
    let Some(rnti) = entry.rnti else { return };
    let cell = entry.cell;
    if entry.dl_source.is_some() || entry.ul_source.is_some() {
        // One context lookup serves the queue read and both injections.
        // The sources are polled even if the context is gone (they keep
        // their own pacing state); only the injection is skipped.
        let mut ingress = agent.enb_mut().ue_ingress(cell, rnti).ok();
        if let Some(src) = entry.dl_source.as_mut() {
            let queue = ingress.as_ref().map_or(Bytes::ZERO, |i| i.dl_queue_bytes());
            let due = src.bytes_due(now, queue);
            if !due.is_zero() {
                if let Some(i) = ingress.as_mut() {
                    i.enqueue_dl(due, now);
                }
            }
        }
        if let Some(src) = entry.ul_source.as_mut() {
            let due = src.bytes_due(now, Bytes::ZERO);
            if !due.is_zero() {
                if let Some(i) = ingress.as_mut() {
                    i.add_ul_backlog(due);
                }
            }
        }
    }
    // Measurement reports (geometry mode).
    if let (Some(period), Some(site)) = (entry.meas_period, entry.serving_site) {
        if now.0.is_multiple_of(period) {
            // lint:allow(alloc-reach) measurement sweep — runs per meas-report period
            let all = radio.rsrp_all_sites(ue, now);
            if !all.is_empty() {
                let serving_rsrp = all
                    .iter()
                    .find(|(s, _)| *s == site)
                    .map(|(_, r)| *r)
                    .unwrap_or(-140.0);
                let neighbours: Vec<(u32, f64)> = all
                    .into_iter()
                    .filter(|(s, _)| *s != site)
                    .map(|(s, r)| (s as u32, r))
                    // lint:allow(alloc-reach) owned by the measurement event — per meas period
                    .collect();
                let _ =
                    agent
                        .enb_mut()
                        .submit_measurement(cell, rnti, serving_rsrp, neighbours, now);
            }
        }
    }
}

/// How a UE's radio is specified when added to the harness.
pub enum UeRadioSpec {
    FixedCqi(u8),
    FixedSinrDb(f64),
    /// `(high CQI, low CQI, half-period ms)`.
    CqiSquareWave(u8, u8, u64),
    /// `(mean SINR dB, sigma dB, rho, seed)`.
    Fading(f64, f64, f64, u64),
    Custom(Box<dyn ChannelProcess>),
    /// Geometry mode: mobility model + serving site index.
    Geo(Box<dyn flexran_phy::mobility::MobilityModel>, usize),
}

struct UeEntry {
    agent_idx: usize,
    cell: CellId,
    slice: SliceId,
    group: u8,
    rnti: Option<Rnti>,
    dl_source: Option<Box<dyn TrafficSource>>,
    ul_source: Option<Box<dyn TrafficSource>>,
    /// Measurement-report period (ms), geometry mode only.
    meas_period: Option<u64>,
    serving_site: Option<usize>,
}

struct PendingHandover {
    target_enb: EnbId,
    target_cell: CellId,
    target_site: Option<usize>,
}

/// The virtual testbed.
pub struct SimHarness {
    clock: Arc<VirtualClock>,
    master: MasterController,
    agents: Vec<FlexranAgent<SimTransport>>,
    rnti_maps: Vec<BTreeMap<(CellId, Rnti), UeId>>,
    radio: RadioEnvironment,
    /// UE → owning agent index (cold path: attach, handover, queries).
    /// The entries themselves live in `ue_buckets`.
    ues: BTreeMap<UeId, usize>,
    next_ue: u32,
    now: Tti,
    /// `(agent, cell)` → radio site (geometry-mode interference).
    cell_sites: BTreeMap<(EnbId, CellId), usize>,
    /// Static activity hints per site: `(pattern, transmit_in_abs)`.
    /// Drives the active-site set used for *measurements* (the
    /// restricted-measurement behaviour eICIC UEs apply), before the
    /// actual per-TTI transmission set is known.
    site_activity: BTreeMap<usize, (flexran_stack::enb::AbsPattern, bool)>,
    pending_handovers: BTreeMap<(usize, Rnti), PendingHandover>,
    /// Events of the last step, for callers that inspect them.
    pub last_events: Vec<(EnbId, EnbEvent)>,
    /// Phase-B scratch, reused every TTI.
    phase_b_out: Vec<PhaseBOut>,
    /// Permanent per-agent UE buckets (sorted by `UeId`), indexed by
    /// `ues`. Phase A iterates these directly — no per-TTI rebucketing.
    ue_buckets: Vec<Vec<(UeId, UeEntry)>>,
    /// Active-site scratch (measurement hint, then interference
    /// coupling), reused every TTI.
    site_scratch: Vec<usize>,
    timings: PhaseTimings,
    /// Whole-step deadline monitor against `config.tti_budget_ns`
    /// (records the same span `PhaseTimings` decomposes).
    budget: TtiBudget,
    config: SimConfig,
    /// Per-agent fault handle (same order as `agents`), where one was
    /// attached.
    fault_handles: Vec<Option<FaultHandle>>,
    /// Master crash state: while `true`, no Task Manager cycles run and
    /// everything the agents send evaporates at the (dead) master side.
    master_down: bool,
    /// Links survive a master crash — the processes die, the network
    /// does not. Parked here between kill and restart, in session order.
    parked_transports: Vec<Box<dyn Transport>>,
    /// The journal "on disk" at the moment of the crash.
    parked_journal: Option<Vec<u8>>,
}

impl SimHarness {
    pub fn new(config: SimConfig) -> Self {
        SimHarness::with_radio(config, RadioEnvironment::new())
    }

    /// Harness over a geometry-aware radio environment.
    pub fn with_radio(config: SimConfig, radio: RadioEnvironment) -> Self {
        SimHarness {
            clock: Arc::new(VirtualClock::new()),
            master: MasterController::new(config.master),
            agents: Vec::new(),
            rnti_maps: Vec::new(),
            radio,
            ues: BTreeMap::new(),
            next_ue: 1,
            now: Tti::ZERO,
            cell_sites: BTreeMap::new(),
            pending_handovers: BTreeMap::new(),
            last_events: Vec::new(),
            site_activity: BTreeMap::new(),
            phase_b_out: Vec::new(),
            ue_buckets: Vec::new(),
            site_scratch: Vec::new(),
            timings: PhaseTimings::default(),
            budget: TtiBudget::new(config.tti_budget_ns),
            config,
            fault_handles: Vec::new(),
            master_down: false,
            parked_transports: Vec::new(),
            parked_journal: None,
        }
    }

    /// Add an agent-enabled eNodeB connected over the default links.
    pub fn add_enb(&mut self, config: EnbConfig, agent_config: AgentConfig) -> EnbId {
        self.add_enb_with(config, agent_config, EnbParams::default(), None)
    }

    /// Full-control variant: custom data-plane parameters and links.
    pub fn add_enb_with(
        &mut self,
        config: EnbConfig,
        agent_config: AgentConfig,
        enb_params: EnbParams,
        links: Option<(LinkConfig, LinkConfig)>,
    ) -> EnbId {
        self.add_enb_inner(config, agent_config, enb_params, links, None)
    }

    /// Like [`SimHarness::add_enb_with`], with a fault model steering the
    /// control links (partitions, drops, bursts) — the outage experiments
    /// script the handle while the simulation runs.
    pub fn add_enb_with_faults(
        &mut self,
        config: EnbConfig,
        agent_config: AgentConfig,
        enb_params: EnbParams,
        links: Option<(LinkConfig, LinkConfig)>,
        faults: FaultHandle,
    ) -> EnbId {
        self.add_enb_inner(config, agent_config, enb_params, links, Some(faults))
    }

    fn add_enb_inner(
        &mut self,
        config: EnbConfig,
        agent_config: AgentConfig,
        enb_params: EnbParams,
        links: Option<(LinkConfig, LinkConfig)>,
        faults: Option<FaultHandle>,
    ) -> EnbId {
        let enb_id = config.enb_id;
        let (up, down) = links.unwrap_or((self.config.uplink, self.config.downlink));
        let (agent_side, master_side) = match &faults {
            Some(f) => sim_link_pair_with_faults(self.clock.clone(), up, down, f.clone()),
            None => sim_link_pair(self.clock.clone(), up, down),
        };
        self.fault_handles.push(faults);
        let mut registry = VsfRegistry::with_builtins();
        flexran_apps::register_app_vsfs(&mut registry);
        let enb = Enb::new(config, enb_params).expect("valid eNodeB config");
        let agent = FlexranAgent::new(enb, agent_side, registry, agent_config);
        self.master.add_agent(Box::new(master_side));
        self.agents.push(agent);
        self.rnti_maps.push(BTreeMap::new());
        enb_id
    }

    fn agent_idx(&self, enb: EnbId) -> Result<usize> {
        self.agents
            .iter()
            .position(|a| a.enb().config().enb_id == enb)
            .ok_or_else(|| FlexError::NotFound(format!("{enb}"))) // lint:allow(alloc-reach) error path
    }

    /// The agent of an eNodeB.
    pub fn agent(&self, enb: EnbId) -> Result<&FlexranAgent<SimTransport>> {
        Ok(&self.agents[self.agent_idx(enb)?])
    }

    pub fn agent_mut(&mut self, enb: EnbId) -> Result<&mut FlexranAgent<SimTransport>> {
        let i = self.agent_idx(enb)?;
        Ok(&mut self.agents[i])
    }

    pub fn master(&self) -> &MasterController {
        &self.master
    }

    pub fn master_mut(&mut self) -> &mut MasterController {
        &mut self.master
    }

    /// Whether the master is currently crashed (between
    /// [`SimHarness::kill_master`] and [`SimHarness::restart_master`]).
    pub fn master_down(&self) -> bool {
        self.master_down
    }

    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The fault handle attached to an eNodeB's control link, if any.
    pub fn fault_handle(&self, enb: EnbId) -> Option<FaultHandle> {
        let i = self.agent_idx(enb).ok()?;
        self.fault_handles[i].clone()
    }

    /// Crash the master process. Its journal survives "on disk"; the
    /// control links survive too (the network outlives the process), but
    /// everything queued towards the master — and everything the agents
    /// send while it is down — is lost with its sockets. No Task Manager
    /// cycles run until [`SimHarness::restart_master`]. Idempotent.
    pub fn kill_master(&mut self) {
        if self.master_down {
            return;
        }
        self.parked_journal = self.master.journal_bytes();
        self.parked_transports = self.master.take_transports();
        for t in &mut self.parked_transports {
            let _ = t.purge_inbound();
        }
        self.master_down = true;
    }

    /// Restart the master: recover the RIB from the crash-time journal
    /// (fresh controller if journaling was off), re-attach the surviving
    /// links in session order, and resume Task Manager cycles. Apps are
    /// *not* carried over — a restarted process re-registers its apps;
    /// do that via [`SimHarness::master_mut`] after this returns.
    pub fn restart_master(&mut self) -> Result<()> {
        if !self.master_down {
            return Err(FlexError::Liveness("master is not down".into()));
        }
        let mut master = match self.parked_journal.take() {
            Some(journal) => MasterController::recover(self.config.master, &journal, self.now)?,
            None => MasterController::new(self.config.master),
        };
        for t in self.parked_transports.drain(..) {
            master.add_agent(t);
        }
        self.master = master;
        self.master_down = false;
        Ok(())
    }

    /// Crash and immediately restart an agent *process*: all soft
    /// control-plane state is lost ([`FlexranAgent::crash_restart`]) and
    /// so is everything queued towards the agent — the dead process's
    /// socket buffers. The data plane keeps running.
    pub fn crash_agent(&mut self, enb: EnbId) -> Result<()> {
        let i = self.agent_idx(enb)?;
        self.agents[i].crash_restart();
        let _ = self.agents[i].transport_mut().purge_inbound();
        Ok(())
    }

    pub fn now(&self) -> Tti {
        self.now
    }

    /// Associate a cell with a radio site (geometry mode: the site's
    /// activity drives interference for other cells' UEs).
    pub fn map_cell_to_site(&mut self, enb: EnbId, cell: CellId, site: usize) {
        self.cell_sites.insert((enb, cell), site);
    }

    /// Declare a site's subframe activity pattern for *measurement*
    /// purposes (eICIC restricted measurements): `transmit_in_abs = false`
    /// means the site is silent during ABS subframes of `pattern` (a
    /// macro cell), `true` means it transmits only then (a protected
    /// small cell). Sites without a hint count as always-on.
    pub fn set_site_activity_pattern(
        &mut self,
        site: usize,
        pattern: flexran_stack::enb::AbsPattern,
        transmit_in_abs: bool,
    ) {
        self.site_activity.insert(site, (pattern, transmit_in_abs));
    }

    fn measurement_active_sites_into(&self, tti: Tti, out: &mut Vec<usize>) {
        out.clear();
        out.extend(
            self.cell_sites
                .values()
                .filter(|site| match self.site_activity.get(site) {
                    None => true,
                    Some((pattern, tx_in_abs)) => {
                        let abs = pattern[(tti.0 % 40) as usize];
                        abs == *tx_in_abs
                    }
                })
                .copied(),
        );
    }

    /// Add a UE and start its attach procedure.
    pub fn add_ue(
        &mut self,
        enb: EnbId,
        cell: CellId,
        slice: SliceId,
        group: u8,
        radio: UeRadioSpec,
    ) -> UeId {
        let ue = UeId(self.next_ue);
        self.next_ue += 1;
        let (ue_radio, serving_site) = match radio {
            UeRadioSpec::FixedCqi(c) => (
                UeRadio::Process(Box::new(FixedCqi(Cqi::new_clamped(c)))),
                None,
            ),
            UeRadioSpec::FixedSinrDb(s) => (UeRadio::Process(Box::new(FixedSinr(s))), None),
            UeRadioSpec::CqiSquareWave(hi, lo, half) => (
                UeRadio::Process(Box::new(CqiSquareWave::new(
                    Cqi::new_clamped(hi),
                    Cqi::new_clamped(lo),
                    half,
                ))),
                None,
            ),
            UeRadioSpec::Fading(mean, sigma, rho, seed) => (
                UeRadio::Process(Box::new(GaussMarkovFading::new(mean, sigma, rho, seed))),
                None,
            ),
            UeRadioSpec::Custom(p) => (UeRadio::Process(p), None),
            UeRadioSpec::Geo(mobility, site) => (
                UeRadio::Geo {
                    mobility,
                    serving_site: site,
                },
                Some(site),
            ),
        };
        self.radio.register_ue(ue, ue_radio);
        let idx = self.agent_idx(enb).expect("known eNodeB");
        let rnti = self.agents[idx]
            .enb_mut()
            .rach(cell, ue, slice, group, self.now)
            .expect("cell exists");
        self.rnti_maps[idx].insert((cell, rnti), ue);
        self.insert_ue_entry(
            ue,
            UeEntry {
                agent_idx: idx,
                cell,
                slice,
                group,
                rnti: Some(rnti),
                dl_source: None,
                ul_source: None,
                meas_period: None,
                serving_site,
            },
        );
        ue
    }

    /// Place a UE entry into its agent's bucket (sorted by `UeId`) and
    /// record the owner in the index. Cold path: attach and handover.
    fn insert_ue_entry(&mut self, ue: UeId, entry: UeEntry) {
        let idx = entry.agent_idx;
        if self.ue_buckets.len() < self.agents.len() {
            self.ue_buckets.resize_with(self.agents.len(), Vec::new);
        }
        let b = &mut self.ue_buckets[idx];
        let pos = b
            .binary_search_by_key(&ue, |(u, _)| *u)
            .unwrap_or_else(|p| p);
        b.insert(pos, (ue, entry));
        self.ues.insert(ue, idx);
    }

    /// Move a UE's entry to another agent's bucket (handover).
    fn rehome_ue_entry(&mut self, ue: UeId, new_idx: usize) {
        let Some(&old_idx) = self.ues.get(&ue) else {
            return;
        };
        if old_idx == new_idx {
            return;
        }
        let Ok(i) = self.ue_buckets[old_idx].binary_search_by_key(&ue, |(u, _)| *u) else {
            return;
        };
        let (_, mut entry) = self.ue_buckets[old_idx].remove(i);
        entry.agent_idx = new_idx;
        self.insert_ue_entry(ue, entry);
    }

    fn entry(&self, ue: UeId) -> Option<&UeEntry> {
        ue_entry(&self.ues, &self.ue_buckets, ue)
    }

    fn entry_mut(&mut self, ue: UeId) -> Option<&mut UeEntry> {
        ue_entry_mut(&self.ues, &mut self.ue_buckets, ue)
    }

    pub fn set_dl_traffic(&mut self, ue: UeId, source: Box<dyn TrafficSource>) {
        if let Some(e) = self.entry_mut(ue) {
            e.dl_source = Some(source);
        }
    }

    pub fn set_ul_traffic(&mut self, ue: UeId, source: Box<dyn TrafficSource>) {
        if let Some(e) = self.entry_mut(ue) {
            e.ul_source = Some(source);
        }
    }

    /// Enable periodic measurement reports for a geometry-mode UE.
    pub fn enable_measurements(&mut self, ue: UeId, period_ms: u64) {
        if let Some(e) = self.entry_mut(ue) {
            e.meas_period = Some(period_ms.max(1));
        }
    }

    /// Current serving eNodeB of a UE.
    pub fn serving_enb(&self, ue: UeId) -> Option<EnbId> {
        let e = self.entry(ue)?;
        Some(self.agents[e.agent_idx].enb().config().enb_id)
    }

    /// Data-plane statistics for a UE (None while detached / re-attaching).
    pub fn ue_stats(&self, ue: UeId) -> Option<UeStats> {
        let e = self.entry(ue)?;
        let rnti = e.rnti?;
        self.agents[e.agent_idx].enb().ue_stat(e.cell, rnti).ok()
    }

    /// Fold the end-state digest of `ues`, in the order given, into `h`:
    /// per UE its delivered DL and UL bits, DL queue bytes, CQI and HARQ
    /// transmissions, or `u64::MAX` for a UE without stats (detached or
    /// re-attaching). Scale and campaign runs, chaos reports and the
    /// determinism goldens all pin this digest.
    pub fn fold_end_state(&self, ues: impl IntoIterator<Item = UeId>, h: &mut Fnv1a) {
        for ue in ues {
            let Some(s) = self.ue_stats(ue) else {
                h.write_u64(u64::MAX);
                continue;
            };
            h.write_u64(s.dl_delivered_bits);
            h.write_u64(s.ul_delivered_bits);
            h.write_u64(s.dl_queue_bytes.as_u64());
            h.write_u64(s.cqi.0 as u64);
            h.write_u64(s.harq_tx + s.harq_retx);
        }
    }

    /// Inject downlink bytes directly (application-paced flows: TCP/DASH
    /// drive this between steps).
    pub fn inject_dl(&mut self, ue: UeId, bytes: Bytes) -> Result<()> {
        let (agent_idx, cell, rnti) = {
            let e = self
                .entry(ue)
                .ok_or_else(|| FlexError::NotFound(format!("{ue}")))?;
            let rnti = e
                .rnti
                .ok_or_else(|| FlexError::NotFound(format!("{ue} has no RNTI")))?;
            (e.agent_idx, e.cell, rnti)
        };
        let now = self.now;
        self.agents[agent_idx]
            .enb_mut()
            .inject_dl_traffic(cell, rnti, bytes, now)
    }

    /// Cumulative per-phase wall-clock of every `step` so far.
    pub fn phase_timings(&self) -> PhaseTimings {
        self.timings
    }

    /// Deadline-monitor snapshot over whole `step` calls: latency
    /// percentiles, worst case, and the over-budget TTI count against
    /// `config.tti_budget_ns`.
    pub fn budget_stats(&self) -> flexran_types::budget::BudgetStats {
        self.budget.stats()
    }

    /// Forget all deadline-monitor samples (benchmarks call this after
    /// warm-up so percentiles cover only the measured window). Also
    /// resets the master's monitor.
    pub fn reset_budget(&mut self) {
        self.budget.reset();
        self.master.reset_budget();
    }

    /// Advance one TTI.
    // lint:no-alloc — the whole-TTI hot path (serial front, phase A,
    // coupling, phase B, merge); `experiments allocgate` asserts zero
    // steady-state heap traffic for this body and everything it calls
    pub fn step(&mut self) {
        // The Instant reads in this function only feed `PhaseTimings`
        // (profiling counters); no scheduling decision ever depends on
        // them, so simulation results stay bit-identical regardless of
        // wall-clock behaviour. lint:allow(wall-clock)
        let t_start = std::time::Instant::now();
        self.now = self.now.next();
        let now = self.now;
        self.clock.advance_to(now);

        // 1. Master cycle (commands ride the links this TTI): begin
        //    (limbo routing, cycle clock), every shard's RIB slot, and
        //    finish (agent-index-ordered event merge, apps slot,
        //    cross-shard mailbox). A crashed master runs nothing, and its
        //    dead sockets swallow whatever the agents send.
        if self.master_down {
            for t in &mut self.parked_transports {
                let _ = t.purge_inbound();
            }
        } else {
            self.master.run_cycle(now);
        }

        // Profiling only, as above. lint:allow(wall-clock)
        let t_front = std::time::Instant::now();
        self.timings.serial_front_ns += (t_front - t_start).as_nanos() as u64;

        // 2. Traffic, measurements and phase A, agent by agent. UE
        //    entries are bucketed by owning agent (UeId order preserved
        //    within each bucket) so every injection is agent-local;
        //    measurements in this phase use the declared activity hints
        //    (restricted measurements).
        let mut sites = std::mem::take(&mut self.site_scratch);
        self.measurement_active_sites_into(now, &mut sites);
        self.radio.set_active_sites(&sites);
        if self.ue_buckets.len() < self.agents.len() {
            // lint:allow(hot-alloc) grows only when an eNB is added (cold)
            self.ue_buckets.resize_with(self.agents.len(), Vec::new);
        }
        for (i, (agent, ues)) in self
            .agents
            .iter_mut()
            .zip(self.ue_buckets.iter_mut())
            .enumerate()
        {
            for (ue, entry) in ues.iter_mut() {
                drive_ue_traffic(agent, &mut self.radio, *ue, entry, now);
            }
            let mut phy = PhyAdapter {
                radio: &mut self.radio,
                rnti_map: &self.rnti_maps[i],
            };
            agent.phase_a(now, &mut phy);
        }
        // Profiling only, as above. lint:allow(wall-clock)
        let t_a = std::time::Instant::now();
        self.timings.phase_a_ns += (t_a - t_front).as_nanos() as u64;

        // 3. Interference coupling: which sites put energy on the air.
        //    Every agent's phase A has decided its transmissions by now.
        sites.clear();
        for agent in &self.agents {
            let enb_id = agent.enb().config().enb_id;
            for ci in 0..agent.enb().n_cells() {
                let cell = agent.enb().cell_id_at(ci);
                if agent.enb().will_transmit_dl(cell, now) {
                    if let Some(site) = self.cell_sites.get(&(enb_id, cell)) {
                        sites.push(*site);
                    }
                }
            }
        }
        self.radio.set_active_sites(&sites);
        self.site_scratch = sites;
        // Profiling only, as above. lint:allow(wall-clock)
        let t_couple = std::time::Instant::now();
        self.timings.coupling_ns += (t_couple - t_a).as_nanos() as u64;

        // 4. Phase B on every agent, outputs collected per agent index.
        //    Nothing is merged until every agent has run: a handover
        //    admitted during the merge changes the target agent's UE
        //    set, which that agent must not see before its own phase B
        //    of this TTI.
        let mut outs = std::mem::take(&mut self.phase_b_out);
        outs.clear();
        for (agent, rnti_map) in self.agents.iter_mut().zip(&self.rnti_maps) {
            let mut phy = PhyAdapter {
                radio: &mut self.radio,
                rnti_map,
            };
            let events = agent.phase_b(now, &mut phy);
            let handovers = agent.take_handover_requests();
            outs.push(PhaseBOut { events, handovers });
        }
        // Profiling only, as above. lint:allow(wall-clock)
        let t_b = std::time::Instant::now();
        self.timings.phase_b_ns += (t_b - t_couple).as_nanos() as u64;

        // 5. Merge in agent-index order: attach bookkeeping and X2-style
        //    handover admission (the stand-in for the X2 interface).
        self.last_events.clear();
        for (i, out) in outs.iter().enumerate() {
            let enb_id = self.agents[i].enb().config().enb_id;
            for ev in &out.events {
                // lint:allow(hot-alloc) events fire on attach/handover only (cold)
                self.last_events.push((enb_id, ev.clone()));
                // lint:allow(alloc-reach) scenario events (arrival/handover) are episodic
                self.apply_event(i, ev);
            }
            // X2 stand-in: remember where each starting handover goes.
            for req in &out.handovers {
                let target =
                    self.resolve_handover_target(req.target_site, req.target_enb, req.target_cell);
                if let Some((target_enb, target_cell, target_site)) = target {
                    self.pending_handovers.insert(
                        (i, req.rnti),
                        PendingHandover {
                            target_enb,
                            target_cell,
                            target_site,
                        },
                    );
                }
            }
        }
        self.phase_b_out = outs;
        self.timings.merge_ns += t_b.elapsed().as_nanos() as u64;
        self.timings.steps += 1;
        self.budget.record(t_start.elapsed().as_nanos() as u64);
    }

    fn resolve_handover_target(
        &self,
        site: Option<u32>,
        enb: Option<u32>,
        cell: Option<u16>,
    ) -> Option<(EnbId, CellId, Option<usize>)> {
        if let Some(site) = site {
            // Local VSF picked a radio site: reverse-map to its cell.
            let ((enb, cell), s) = self
                .cell_sites
                .iter()
                .find(|(_, s)| **s == site as usize)
                .map(|(k, s)| (*k, *s))?;
            return Some((enb, cell, Some(s)));
        }
        let enb = EnbId(enb?);
        let cell = CellId(cell.unwrap_or(0));
        let site = self.cell_sites.get(&(enb, cell)).copied();
        Some((enb, cell, site))
    }

    fn apply_event(&mut self, agent_idx: usize, ev: &EnbEvent) {
        match ev {
            EnbEvent::RachAttempt { cell, rnti, ue, .. } => {
                // Re-attach after failure: track the fresh RNTI.
                self.rnti_maps[agent_idx].insert((*cell, *rnti), *ue);
                self.rehome_ue_entry(*ue, agent_idx);
                if let Some(e) = self.entry_mut(*ue) {
                    e.rnti = Some(*rnti);
                    e.cell = *cell;
                }
            }
            EnbEvent::UeAttached { cell, rnti, ue, .. } => {
                self.rnti_maps[agent_idx].insert((*cell, *rnti), *ue);
                self.rehome_ue_entry(*ue, agent_idx);
                if let Some(e) = self.entry_mut(*ue) {
                    e.rnti = Some(*rnti);
                    e.cell = *cell;
                }
            }
            EnbEvent::AttachFailed { cell, rnti, ue, .. }
            | EnbEvent::UeDetached { cell, rnti, ue, .. } => {
                self.rnti_maps[agent_idx].remove(&(*cell, *rnti));
                if let Some(e) = self.entry_mut(*ue) {
                    if e.rnti == Some(*rnti) {
                        e.rnti = None;
                    }
                }
            }
            EnbEvent::HandoverExecuted {
                cell,
                rnti,
                ue,
                forwarded_bytes,
                ..
            } => {
                self.rnti_maps[agent_idx].remove(&(*cell, *rnti));
                let Some(pending) = self.pending_handovers.remove(&(agent_idx, *rnti)) else {
                    if let Some(e) = self.entry_mut(*ue) {
                        e.rnti = None;
                    }
                    return;
                };
                let Ok(tgt_idx) = self.agent_idx(pending.target_enb) else {
                    return;
                };
                let (slice, group) = self
                    .entry(*ue)
                    .map(|e| (e.slice, e.group))
                    .unwrap_or((SliceId::MNO, 0));
                let now = self.now;
                if let Ok(new_rnti) = self.agents[tgt_idx].enb_mut().admit_ue(
                    pending.target_cell,
                    *ue,
                    slice,
                    group,
                    *forwarded_bytes,
                    now,
                ) {
                    self.rnti_maps[tgt_idx].insert((pending.target_cell, new_rnti), *ue);
                    self.rehome_ue_entry(*ue, tgt_idx);
                    if let Some(e) = self.entry_mut(*ue) {
                        e.cell = pending.target_cell;
                        e.rnti = Some(new_rnti);
                        if let Some(site) = pending.target_site {
                            e.serving_site = Some(site);
                        }
                    }
                    if let Some(site) = pending.target_site {
                        self.radio.set_serving_site(*ue, site);
                    }
                }
            }
            _ => {}
        }
    }

    /// Run `n` TTIs.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }
}

/// The agent-less baseline (vanilla OAI stand-in, Fig. 6): the same data
/// plane driven directly by embedded schedulers.
pub struct VanillaHarness {
    pub enb: Enb,
    dl: Box<dyn DlScheduler>,
    ul: Box<dyn UlScheduler>,
    radio: RadioEnvironment,
    rnti_map: BTreeMap<(CellId, Rnti), UeId>,
    now: Tti,
    dl_in: DlSchedulerInput,
    dl_out: DlSchedulerOutput,
    ul_in: UlSchedulerInput,
    ul_out: UlSchedulerOutput,
}

impl VanillaHarness {
    pub fn new(config: EnbConfig, params: EnbParams) -> Self {
        VanillaHarness {
            enb: Enb::new(config, params).expect("valid config"),
            dl: Box::new(RoundRobinScheduler::new()),
            ul: Box::new(UlRoundRobinScheduler::new()),
            radio: RadioEnvironment::new(),
            rnti_map: BTreeMap::new(),
            now: Tti::ZERO,
            dl_in: DlSchedulerInput::default(),
            dl_out: DlSchedulerOutput::default(),
            ul_in: UlSchedulerInput::default(),
            ul_out: UlSchedulerOutput::default(),
        }
    }

    pub fn now(&self) -> Tti {
        self.now
    }

    pub fn add_ue(&mut self, cell: CellId, radio: UeRadioSpec) -> (UeId, Rnti) {
        static NEXT: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(1);
        let ue = UeId(NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed));
        let ue_radio = match radio {
            UeRadioSpec::FixedCqi(c) => UeRadio::Process(Box::new(FixedCqi(Cqi::new_clamped(c)))),
            UeRadioSpec::FixedSinrDb(s) => UeRadio::Process(Box::new(FixedSinr(s))),
            UeRadioSpec::CqiSquareWave(hi, lo, half) => UeRadio::Process(Box::new(
                CqiSquareWave::new(Cqi::new_clamped(hi), Cqi::new_clamped(lo), half),
            )),
            UeRadioSpec::Fading(m, s, r, seed) => {
                UeRadio::Process(Box::new(GaussMarkovFading::new(m, s, r, seed)))
            }
            UeRadioSpec::Custom(p) => UeRadio::Process(p),
            UeRadioSpec::Geo(..) => panic!("geometry mode needs SimHarness"),
        };
        self.radio.register_ue(ue, ue_radio);
        let rnti = self
            .enb
            .rach(cell, ue, SliceId::MNO, 0, self.now)
            .expect("cell exists");
        self.rnti_map.insert((cell, rnti), ue);
        (ue, rnti)
    }

    /// One TTI with the embedded schedulers.
    pub fn step(&mut self) {
        self.now = self.now.next();
        let now = self.now;
        let mut phy = PhyAdapter {
            radio: &mut self.radio,
            rnti_map: &self.rnti_map,
        };
        self.enb.begin_tti(now, &mut phy);
        for ci in 0..self.enb.n_cells() {
            let cell = self.enb.cell_id_at(ci);
            if self
                .enb
                .dl_scheduler_input_into(cell, now, now, &mut self.dl_in)
                .is_ok()
            {
                self.dl.schedule_dl_into(&self.dl_in, &mut self.dl_out);
                if !self.dl_out.dcis.is_empty() {
                    let mut dcis = self.enb.recycled_dci_buffer(cell);
                    dcis.extend_from_slice(&self.dl_out.dcis);
                    let _ = self.enb.submit_dl_decision(
                        DlSchedulingDecision {
                            cell,
                            target: now,
                            dcis,
                        },
                        now,
                    );
                }
            }
            if self
                .enb
                .ul_scheduler_input_into(cell, now, now, &mut self.ul_in)
                .is_ok()
            {
                self.ul.schedule_ul_into(&self.ul_in, &mut self.ul_out);
                if !self.ul_out.grants.is_empty() {
                    let mut grants = self.enb.recycled_grant_buffer(cell);
                    grants.extend_from_slice(&self.ul_out.grants);
                    let _ = self.enb.submit_ul_decision(
                        UlSchedulingDecision {
                            cell,
                            target: now,
                            grants,
                        },
                        now,
                    );
                }
            }
        }
        let mut phy = PhyAdapter {
            radio: &mut self.radio,
            rnti_map: &self.rnti_map,
        };
        self.enb.finish_tti(now, &mut phy);
        for ev in self.enb.take_events() {
            if let EnbEvent::UeAttached { cell, rnti, ue, .. }
            | EnbEvent::RachAttempt { cell, rnti, ue, .. } = ev
            {
                self.rnti_map.insert((cell, rnti), ue);
            }
        }
    }

    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexran_sim::traffic::{CbrSource, FullBufferSource};
    use flexran_types::units::BitRate;

    #[test]
    fn ue_attaches_and_receives_cbr_traffic() {
        let mut sim = SimHarness::new(SimConfig::default());
        let enb = sim.add_enb(EnbConfig::single_cell(EnbId(1)), AgentConfig::default());
        let ue = sim.add_ue(enb, CellId(0), SliceId::MNO, 0, UeRadioSpec::FixedCqi(12));
        sim.set_dl_traffic(ue, Box::new(CbrSource::new(BitRate::from_mbps(2))));
        sim.run(2000);
        let stats = sim.ue_stats(ue).expect("attached");
        assert!(stats.connected);
        let mbps = stats.dl_delivered_bits as f64 / 2000.0 / 1000.0;
        assert!((1.7..=2.2).contains(&mbps), "CBR delivered {mbps} Mb/s");
    }

    #[test]
    fn vanilla_matches_agent_throughput() {
        // The Fig. 6b claim: FlexRAN is transparent to the UE.
        let mut vanilla =
            VanillaHarness::new(EnbConfig::single_cell(EnbId(1)), EnbParams::default());
        let (ue_v, rnti_v) = vanilla.add_ue(CellId(0), UeRadioSpec::FixedCqi(14));
        let mut sim = SimHarness::new(SimConfig::default());
        let enb = sim.add_enb(EnbConfig::single_cell(EnbId(2)), AgentConfig::default());
        let ue_f = sim.add_ue(enb, CellId(0), SliceId::MNO, 0, UeRadioSpec::FixedCqi(14));
        sim.set_dl_traffic(ue_f, Box::new(FullBufferSource::default()));
        // Drive vanilla's traffic by hand.
        for _ in 0..3000u64 {
            let queue = vanilla
                .enb
                .ue_stat(CellId(0), rnti_v)
                .map(|s| s.dl_queue_bytes)
                .unwrap_or(Bytes::ZERO);
            if queue.as_u64() < 500_000 {
                let now = vanilla.now();
                let _ = vanilla.enb.inject_dl_traffic(
                    CellId(0),
                    rnti_v,
                    Bytes(500_000 - queue.as_u64()),
                    now,
                );
            }
            vanilla.step();
            sim.step();
        }
        let v = vanilla.enb.ue_stat(CellId(0), rnti_v).unwrap();
        let f = sim.ue_stats(ue_f).unwrap();
        let v_mbps = v.dl_delivered_bits as f64 / 3000.0 / 1000.0;
        let f_mbps = f.dl_delivered_bits as f64 / 3000.0 / 1000.0;
        assert!(v_mbps > 10.0, "vanilla {v_mbps}");
        let ratio = f_mbps / v_mbps;
        assert!(
            (0.95..=1.05).contains(&ratio),
            "transparency: vanilla {v_mbps} vs flexran {f_mbps}"
        );
        let _ = ue_v;
    }

    #[test]
    fn vanilla_harness_works_late_in_the_process_wide_id_sequence() {
        // `VanillaHarness` ids come from one process-wide counter, so a
        // harness created late registers ids far above its own UE count.
        let mut burner =
            VanillaHarness::new(EnbConfig::single_cell(EnbId(1)), EnbParams::default());
        for _ in 0..3_000 {
            burner.add_ue(CellId(0), UeRadioSpec::FixedCqi(1));
        }
        let mut vanilla =
            VanillaHarness::new(EnbConfig::single_cell(EnbId(2)), EnbParams::default());
        let (ue, rnti) = vanilla.add_ue(CellId(0), UeRadioSpec::FixedCqi(12));
        assert!(ue.0 > 3_000, "{ue}");
        assert_eq!(vanilla.radio.n_ues(), 1);
        vanilla.run(100);
        let now = vanilla.now();
        vanilla
            .enb
            .inject_dl_traffic(CellId(0), rnti, Bytes(50_000), now)
            .unwrap();
        vanilla.run(200);
        let stats = vanilla.enb.ue_stat(CellId(0), rnti).unwrap();
        assert!(stats.connected);
        // The registered channel is in force, not the -20 dB default.
        assert_eq!(stats.cqi, Cqi(12));
        assert!(stats.dl_delivered_bits > 0);
    }

    #[test]
    fn control_channel_latency_delays_commands() {
        // With a 20 ms one-way link, agent events take 20 ms to reach the
        // master's RIB.
        let cfg = SimConfig {
            uplink: LinkConfig::with_one_way_ms(20),
            downlink: LinkConfig::with_one_way_ms(20),
            ..SimConfig::default()
        };
        let mut sim = SimHarness::new(cfg);
        let enb = sim.add_enb(EnbConfig::single_cell(EnbId(1)), AgentConfig::default());
        sim.add_ue(enb, CellId(0), SliceId::MNO, 0, UeRadioSpec::FixedCqi(10));
        sim.run(10);
        assert!(
            sim.master().view().agent(EnbId(1)).is_none(),
            "hello in flight"
        );
        sim.run(15);
        assert!(
            sim.master().view().agent(EnbId(1)).is_some(),
            "hello landed"
        );
    }
}
