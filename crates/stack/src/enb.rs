//! The eNodeB data plane.
//!
//! [`Enb`] executes — it never decides. Scheduling decisions enter via
//! [`Enb::submit_dl_decision`] / [`Enb::submit_ul_decision`]; RRC
//! procedures via [`Enb::rach`], [`Enb::start_handover`], [`Enb::detach`].
//! In a FlexRAN deployment those calls are made by the agent's control
//! modules (local VSFs) or relayed from the master controller.
//!
//! Each TTI is executed in two phases so a scheduler can observe the
//! subframe before it is committed:
//!
//! 1. [`Enb::begin_tti`] — CQI measurement, HARQ feedback processing,
//!    RRC timers, RACH processing, retransmission reservation. After this
//!    call [`Enb::dl_scheduler_input`] describes the subframe accurately.
//! 2. *(control plane runs; decisions are submitted)*
//! 3. [`Enb::finish_tti`] — retransmissions and the submitted decisions
//!    are put on the air, block success is evaluated against the PHY
//!    view, uplink grants execute, statistics update.
//!
//! Decisions whose target subframe has already passed are rejected and
//! counted ([`crate::stats::CellStats::missed_deadlines`]) — the
//! deadline-miss semantics of the paper's Fig. 9.

use flexran_phy::bler::BlerModel;
use flexran_phy::link_adaptation::{cqi_from_sinr, Cqi};
use flexran_phy::tables::{itbs_for_mcs, tbs_bits};
use flexran_types::config::{CellConfig, EnbConfig};
use flexran_types::ids::{CellId, Rnti, SliceId, UeId};
use flexran_types::time::Tti;
use flexran_types::units::Bytes;
use flexran_types::{FlexError, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::events::EnbEvent;
use crate::mac::bsr::bsr_index;
use crate::mac::dci::{DlDci, DlSchedulingDecision, UlGrant, UlSchedulingDecision};
use crate::mac::harq::{FeedbackOutcome, HarqEntity};
use crate::mac::scheduler::{DlSchedulerInput, RetxInfo, UeSchedInfo, UlSchedulerInput, UlUeInfo};
use crate::mac::{HARQ_FEEDBACK_DELAY, MAC_HEADER_BYTES};
use crate::pdcp::PdcpTx;
use crate::rlc::RlcTx;
use crate::rrc::{RrcState, RrcTimers, CONN_SETUP_BYTES, HO_COMMAND_BYTES};
use crate::stats::{CellStats, UeStats};

/// Secondary component carriers one UE may aggregate (TS 36.331
/// `maxSCell-r10`).
pub const MAX_SCELLS: usize = 4;

/// Executed decisions' buffers kept for reuse, per cell and direction.
/// Local scheduling takes one back out every TTI, so the pool hovers at
/// one or two; remote decisions arrive in freshly decoded vectors and
/// never take one, so without a cap the pool grew by a vector per TTI.
const DECISION_POOL_DEPTH: usize = 4;

/// The PHY as seen by the data plane: per-UE instantaneous SINR.
///
/// The simulator implements this against its radio environment (geometry,
/// per-UE channel processes, and — crucially for eICIC — the set of cells
/// transmitting in the subframe).
pub trait PhyView {
    fn sinr_db(&mut self, cell: CellId, rnti: Rnti, tti: Tti) -> f64;
}

/// A trivial PHY view: one SINR for everyone (unit tests, baselines).
#[derive(Debug, Clone, Copy)]
pub struct StaticPhyView(pub f64);

impl PhyView for StaticPhyView {
    fn sinr_db(&mut self, _cell: CellId, _rnti: Rnti, _tti: Tti) -> f64 {
        self.0
    }
}

/// Tunables of the data plane. All-scalar, so `Copy`: the TTI pipeline
/// takes a by-value snapshot without touching the heap.
#[derive(Debug, Clone, Copy)]
pub struct EnbParams {
    pub timers: RrcTimers,
    /// Re-RACH automatically after an attach failure.
    pub auto_reattach: bool,
    /// CQI measurement/report period in TTIs.
    pub cqi_period: u64,
    /// Power-headroom cap on uplink PRBs per UE.
    pub ul_prb_cap: u8,
    /// EWMA coefficient for the proportional-fair average rate.
    pub avg_rate_alpha: f64,
    /// BLER model used to evaluate transport-block success.
    pub bler: BlerModel,
    /// RNG seed (deterministic runs).
    pub seed: u64,
}

impl Default for EnbParams {
    fn default() -> Self {
        EnbParams {
            timers: RrcTimers::default(),
            auto_reattach: true,
            cqi_period: 2,
            ul_prb_cap: 24,
            avg_rate_alpha: 0.01,
            bler: BlerModel::default(),
            seed: 1,
        }
    }
}

/// ABS (almost-blank subframe) pattern: 40-subframe bitmap, `true` = muted.
pub type AbsPattern = [bool; 40];

#[derive(Debug)]
struct UeContext {
    rnti: Rnti,
    ue_tag: UeId,
    slice: SliceId,
    priority_group: u8,
    state: RrcState,
    srb: RlcTx,
    drb: RlcTx,
    pdcp_dl: PdcpTx,
    harq: HarqEntity,
    /// SRB bytes currently inside HARQ (delivery pending).
    srb_in_flight: u64,
    last_cqi: Cqi,
    sinr_db: f64,
    cqi_updated: Tti,
    avg_rate_bps: f64,
    bits_this_tti: u64,
    dl_delivered_bits: u64,
    ul_delivered_bits: u64,
    /// True UE-side uplink backlog.
    ul_backlog: u64,
    /// Backlog the eNodeB assumes (BSR view).
    ul_bsr: u64,
    /// DRX configuration `(cycle, on_duration)` in TTIs.
    drx: Option<(u64, u64)>,
    /// Activated secondary component carriers (carrier aggregation).
    /// Activation state is tracked and reported; cross-carrier transport
    /// aggregation is outside the model (DESIGN.md §7).
    active_scells: std::collections::BTreeSet<u16>,
}

impl UeContext {
    fn new(rnti: Rnti, ue_tag: UeId, slice: SliceId, priority_group: u8, state: RrcState) -> Self {
        UeContext {
            rnti,
            ue_tag,
            slice,
            priority_group,
            state,
            srb: RlcTx::new(),
            drb: RlcTx::new(),
            pdcp_dl: PdcpTx::new(),
            harq: HarqEntity::new(),
            srb_in_flight: 0,
            last_cqi: Cqi(0),
            sinr_db: f64::NEG_INFINITY,
            cqi_updated: Tti::ZERO,
            avg_rate_bps: 1.0,
            bits_this_tti: 0,
            dl_delivered_bits: 0,
            ul_delivered_bits: 0,
            ul_backlog: 0,
            ul_bsr: 0,
            drx: None,
            // lint:allow(alloc-reach) context construction — once per attach
            active_scells: std::collections::BTreeSet::new(),
        }
    }

    fn stats(&self) -> UeStats {
        UeStats {
            rnti: self.rnti,
            ue: self.ue_tag,
            slice: self.slice,
            priority_group: self.priority_group,
            connected: self.state.is_connected(),
            cqi: self.last_cqi,
            cqi_updated: self.cqi_updated,
            sinr_db: self.sinr_db,
            dl_queue_bytes: self.drb.buffer_occupancy(),
            srb_queue_bytes: self.srb.buffer_occupancy(),
            ul_bsr_bytes: Bytes(self.ul_bsr),
            dl_delivered_bits: self.dl_delivered_bits,
            ul_delivered_bits: self.ul_delivered_bits,
            avg_rate_bps: self.avg_rate_bps,
            harq_tx: self.harq.tx_new,
            harq_retx: self.harq.tx_retx,
            hol_delay_ms: self.drb.hol_delay(Tti(self.cqi_updated.0)),
            // lint:allow(alloc-reach) stats snapshot — composed per report interval
            active_scells: self.active_scells.iter().copied().collect(),
        }
    }

    fn is_schedulable(&self, tti: Tti) -> bool {
        match self.drx {
            None => true,
            Some((cycle, on)) => (tti.0 % cycle.max(1)) < on,
        }
    }

    fn srb_drained(&self) -> bool {
        !self.srb.has_data() && self.srb_in_flight == 0
    }
}

#[derive(Debug, Clone, Copy)]
struct Feedback {
    rnti: Rnti,
    pid: u8,
    success: bool,
}

#[derive(Debug, Clone, Copy)]
struct PendingRetx {
    rnti: Rnti,
    pid: u8,
    n_prb: u8,
    mcs: flexran_phy::link_adaptation::Mcs,
    attempt: u8,
}

/// Find-or-insert the feedback vector for `key` and push `fb`, reusing
/// pooled vectors so steady-state enqueueing never allocates. A free
/// function (not a `CellState` method) so callers can hold disjoint
/// borrows of the cell's other fields.
fn push_feedback(
    queue: &mut Vec<(u64, Vec<Feedback>)>,
    pool: &mut Vec<Vec<Feedback>>,
    key: u64,
    fb: Feedback,
) {
    if let Some(i) = queue.iter().position(|(k, _)| *k == key) {
        queue[i].1.push(fb);
    } else {
        let mut v = pool.pop().unwrap_or_default();
        v.push(fb);
        queue.push((key, v));
    }
}

/// A re-attach waiting out its backoff: `(due TTI, ue, slice, group)`.
type PendingRach = (u64, UeId, SliceId, u8);

struct CellState {
    config: CellConfig,
    abs_pattern: Option<AbsPattern>,
    /// UE contexts, sorted by RNTI (dense slab: per-TTI walks are linear
    /// scans, lookups binary-search; inserts/removes only on attach,
    /// detach and handover).
    ues: Vec<UeContext>,
    /// Pending decisions keyed by target subframe. A handful of entries
    /// at most (current TTI + schedule-ahead), so a linear scan beats
    /// any tree — and, unlike a node-based map, inserting and removing
    /// one entry per TTI never touches the allocator.
    pending_dl: Vec<(u64, DlSchedulingDecision)>,
    pending_ul: Vec<(u64, UlSchedulingDecision)>,
    /// HARQ feedback due per subframe (`HARQ_FEEDBACK_DELAY` keys live
    /// at once). Drained vectors return to `feedback_pool`.
    feedback_queue: Vec<(u64, Vec<Feedback>)>,
    feedback_pool: Vec<Vec<Feedback>>,
    /// Recycled decision buffers: consumed decisions donate their DCI /
    /// grant vectors back so the next cycle's submission allocates
    /// nothing (see [`Enb::recycled_dci_buffer`]).
    dci_pool: Vec<Vec<DlDci>>,
    grant_pool: Vec<Vec<UlGrant>>,
    current_retx: Vec<PendingRetx>,
    retx_prbs: u8,
    /// Backed-off re-attaches, `(due TTI, ue, slice, group)`, in the
    /// order they were scheduled.
    scheduled_rach: Vec<PendingRach>,
    /// The entries of `scheduled_rach` due this TTI (scratch, refilled by
    /// [`CellState::take_due_rach`]; its capacity is reused).
    due_rach: Vec<PendingRach>,
    stats: CellStats,
    next_rnti: u16,
    muted_now: bool,
}

impl CellState {
    fn new(config: CellConfig) -> Self {
        CellState {
            config,
            abs_pattern: None,
            ues: Vec::new(),
            pending_dl: Vec::new(),
            pending_ul: Vec::new(),
            feedback_queue: Vec::new(),
            feedback_pool: Vec::new(),
            dci_pool: Vec::new(),
            grant_pool: Vec::new(),
            current_retx: Vec::new(),
            retx_prbs: 0,
            scheduled_rach: Vec::new(),
            due_rach: Vec::new(),
            stats: CellStats::default(),
            next_rnti: Rnti::CRNTI_MIN + 0xC3, // 0x100
            muted_now: false,
        }
    }

    fn ue_idx(&self, rnti: Rnti) -> Option<usize> {
        self.ues.binary_search_by_key(&rnti, |u| u.rnti).ok()
    }

    fn ue(&self, rnti: Rnti) -> Option<&UeContext> {
        self.ue_idx(rnti).map(|i| &self.ues[i])
    }

    fn ue_mut(&mut self, rnti: Rnti) -> Option<&mut UeContext> {
        self.ue_idx(rnti).map(|i| &mut self.ues[i])
    }

    /// Sorted insert (attach paths only — never per-TTI).
    fn insert_ue(&mut self, ctx: UeContext) {
        match self.ues.binary_search_by_key(&ctx.rnti, |u| u.rnti) {
            Ok(i) => self.ues[i] = ctx,
            Err(i) => self.ues.insert(i, ctx),
        }
    }

    fn remove_ue(&mut self, rnti: Rnti) -> Option<UeContext> {
        self.ue_idx(rnti).map(|i| self.ues.remove(i))
    }

    /// Move the re-attaches due at `tti` from `scheduled_rach` into
    /// `due_rach`, both keeping their relative (insertion) order. Splits
    /// in place: a backing-off UE costs no allocation per TTI.
    fn take_due_rach(&mut self, tti: Tti) {
        self.due_rach.clear();
        let due_rach = &mut self.due_rach;
        self.scheduled_rach.retain(|&entry| {
            let due = entry.0 <= tti.0;
            if due {
                due_rach.push(entry);
            }
            !due
        });
    }

    fn is_abs(&self, tti: Tti) -> bool {
        self.abs_pattern
            .map(|p| p[(tti.0 % 40) as usize])
            .unwrap_or(false)
    }

    fn alloc_rnti(&mut self) -> Rnti {
        loop {
            let r = Rnti(self.next_rnti);
            self.next_rnti = if self.next_rnti >= Rnti::CRNTI_MAX {
                Rnti::CRNTI_MIN
            } else {
                self.next_rnti + 1
            };
            if self.ue_idx(r).is_none() {
                return r;
            }
        }
    }

    fn do_rach(
        &mut self,
        ue_tag: UeId,
        slice: SliceId,
        group: u8,
        now: Tti,
        timers: &RrcTimers,
        events: &mut Vec<EnbEvent>,
    ) -> Rnti {
        let rnti = self.alloc_rnti();
        // RAR and Msg3 are common-channel scheduling: the MAC executes
        // them autonomously (below FlexRAN's delegation granularity).
        let ctx = UeContext::new(
            rnti,
            ue_tag,
            slice,
            group,
            RrcState::AwaitMsg3 {
                at: now + timers.msg3_delay,
            },
        );
        self.insert_ue(ctx);
        events.push(EnbEvent::RachAttempt {
            cell: self.config.cell_id,
            rnti,
            ue: ue_tag,
            at: now,
        });
        rnti
    }
}

/// One UE's traffic ingress (EPC side and UE side), borrowed from
/// [`Enb::ue_ingress`].
pub struct UeIngress<'a> {
    ctx: &'a mut UeContext,
}

impl UeIngress<'_> {
    /// The UE's downlink data-queue occupancy.
    pub fn dl_queue_bytes(&self) -> Bytes {
        self.ctx.drb.buffer_occupancy()
    }

    /// Downlink traffic from the core network for the UE's data bearer.
    pub fn enqueue_dl(&mut self, payload: Bytes, now: Tti) {
        let pdu = self.ctx.pdcp_dl.submit(payload, now);
        self.ctx.drb.enqueue(pdu.size, now);
    }

    /// Uplink backlog generated at the UE.
    pub fn add_ul_backlog(&mut self, payload: Bytes) {
        self.ctx.ul_backlog += payload.as_u64();
    }
}

/// The eNodeB data plane: one or more cells plus their UE contexts.
pub struct Enb {
    config: EnbConfig,
    params: EnbParams,
    cells: Vec<CellState>,
    events: Vec<EnbEvent>,
    rng: StdRng,
}

impl Enb {
    /// Build an eNodeB from a validated configuration.
    pub fn new(config: EnbConfig, params: EnbParams) -> Result<Self> {
        config.validate()?;
        let cells = config.cells.iter().cloned().map(CellState::new).collect();
        let rng = StdRng::seed_from_u64(params.seed);
        Ok(Enb {
            config,
            params,
            cells,
            events: Vec::new(),
            rng,
        })
    }

    /// The eNodeB's static configuration.
    pub fn config(&self) -> &EnbConfig {
        &self.config
    }

    /// The data-plane parameters.
    pub fn params(&self) -> &EnbParams {
        &self.params
    }

    fn cell_idx(&self, cell: CellId) -> Result<usize> {
        self.cells
            .iter()
            .position(|c| c.config.cell_id == cell)
            .ok_or_else(|| FlexError::NotFound(format!("{cell}"))) // lint:allow(alloc-reach) error path
    }

    fn cell_mut(&mut self, cell: CellId) -> Result<&mut CellState> {
        let i = self.cell_idx(cell)?;
        Ok(&mut self.cells[i])
    }

    fn cell_ref(&self, cell: CellId) -> Result<&CellState> {
        let i = self.cell_idx(cell)?;
        Ok(&self.cells[i])
    }

    // ------------------------------------------------------------------
    // RRC-facing commands (driven by the control plane)
    // ------------------------------------------------------------------

    /// Receive a random-access attempt from a UE. Returns the temporary
    /// C-RNTI. RAR/Msg3 complete autonomously; the RRC connection setup is
    /// then queued on the SRB and must be *scheduled* (locally or
    /// remotely) before the T300-like timer expires, or the attach fails.
    pub fn rach(
        &mut self,
        cell: CellId,
        ue_tag: UeId,
        slice: SliceId,
        priority_group: u8,
        now: Tti,
    ) -> Result<Rnti> {
        let timers = self.params.timers;
        let mut events = std::mem::take(&mut self.events);
        let rnti =
            self.cell_mut(cell)?
                .do_rach(ue_tag, slice, priority_group, now, &timers, &mut events);
        self.events = events;
        Ok(rnti)
    }

    /// Admit an already-connected UE (handover target side): no attach
    /// procedure, optionally preloaded with forwarded downlink bytes.
    pub fn admit_ue(
        &mut self,
        cell: CellId,
        ue_tag: UeId,
        slice: SliceId,
        priority_group: u8,
        forwarded: Bytes,
        now: Tti,
    ) -> Result<Rnti> {
        let cell_state = self.cell_mut(cell)?;
        let rnti = cell_state.alloc_rnti();
        let mut ctx = UeContext::new(rnti, ue_tag, slice, priority_group, RrcState::Connected);
        if !forwarded.is_zero() {
            ctx.drb.enqueue(forwarded, now);
        }
        cell_state.insert_ue(ctx);
        cell_state.stats.attaches += 1;
        self.events.push(EnbEvent::UeAttached {
            cell,
            rnti,
            ue: ue_tag,
            at: now,
        });
        Ok(rnti)
    }

    /// Start a handover for a connected UE: the handover command is queued
    /// on the SRB; once delivered the UE leaves and its remaining backlog
    /// is surfaced for forwarding.
    pub fn start_handover(&mut self, cell: CellId, rnti: Rnti, now: Tti) -> Result<()> {
        let deadline = now + self.params.timers.ho_deadline;
        let ctx = self
            .cell_mut(cell)?
            .ue_mut(rnti)
            .ok_or_else(|| FlexError::NotFound(format!("{rnti}")))?; // lint:allow(alloc-reach) error path
        if ctx.state != RrcState::Connected {
            // lint:allow(alloc-reach) error path
            return Err(FlexError::InvalidConfig(format!(
                "{rnti} not in connected state"
            )));
        }
        ctx.state = RrcState::HandoverPrep { deadline };
        ctx.srb.enqueue(Bytes(HO_COMMAND_BYTES), now);
        Ok(())
    }

    /// Detach a UE immediately.
    pub fn detach(&mut self, cell: CellId, rnti: Rnti, now: Tti) -> Result<()> {
        let ctx = self
            .cell_mut(cell)?
            .remove_ue(rnti)
            .ok_or_else(|| FlexError::NotFound(format!("{rnti}")))?; // lint:allow(alloc-reach) error path
        self.events.push(EnbEvent::UeDetached {
            cell,
            rnti,
            ue: ctx.ue_tag,
            at: now,
        });
        Ok(())
    }

    /// Record a measurement report from a UE (the simulator computes the
    /// RSRP values from its geometry).
    pub fn submit_measurement(
        &mut self,
        cell: CellId,
        rnti: Rnti,
        serving_rsrp_dbm: f64,
        neighbours: Vec<(u32, f64)>,
        now: Tti,
    ) -> Result<()> {
        // Validate the UE exists, then emit.
        self.cell_ref(cell)?
            .ue(rnti)
            .ok_or_else(|| FlexError::NotFound(format!("{rnti}")))?; // lint:allow(alloc-reach) error path
        self.events.push(EnbEvent::MeasurementReport {
            cell,
            rnti,
            at: now,
            serving_rsrp_dbm,
            neighbours,
        });
        Ok(())
    }

    /// Configure DRX for a UE (`cycle`, `on_duration` in TTIs). The UE is
    /// only schedulable during the on-duration.
    pub fn set_drx(&mut self, cell: CellId, rnti: Rnti, cycle: u64, on: u64) -> Result<()> {
        let ctx = self
            .cell_mut(cell)?
            .ue_mut(rnti)
            .ok_or_else(|| FlexError::NotFound(format!("{rnti}")))?; // lint:allow(alloc-reach) error path
        if on == 0 || on > cycle {
            return Err(FlexError::InvalidConfig(format!(
                "DRX on-duration {on} outside 1..=cycle({cycle})"
            )));
        }
        ctx.drx = Some((cycle, on));
        Ok(())
    }

    /// (De)activate a secondary component carrier for a UE (the paper's
    /// Table 1 carrier-aggregation command). The secondary cell must be
    /// another cell of this eNodeB.
    pub fn set_scell(
        &mut self,
        pcell: CellId,
        rnti: Rnti,
        scell: CellId,
        activate: bool,
    ) -> Result<()> {
        if scell == pcell {
            return Err(FlexError::InvalidConfig(format!(
                "{scell} is the UE's primary cell"
            )));
        }
        self.cell_idx(scell)?; // must exist on this eNodeB
        let ctx = self
            .cell_mut(pcell)?
            .ue_mut(rnti)
            .ok_or_else(|| FlexError::NotFound(format!("{rnti}")))?; // lint:allow(alloc-reach) error path
        if activate {
            if ctx.active_scells.len() >= MAX_SCELLS && !ctx.active_scells.contains(&scell.0) {
                return Err(FlexError::InvalidConfig(format!(
                    "{rnti} already aggregates {MAX_SCELLS} secondary carriers"
                )));
            }
            ctx.active_scells.insert(scell.0);
        } else {
            ctx.active_scells.remove(&scell.0);
        }
        Ok(())
    }

    /// Set (or clear) a cell's almost-blank-subframe pattern.
    pub fn set_abs_pattern(&mut self, cell: CellId, pattern: Option<AbsPattern>) -> Result<()> {
        self.cell_mut(cell)?.abs_pattern = pattern;
        Ok(())
    }

    /// The current ABS pattern of a cell.
    pub fn abs_pattern(&self, cell: CellId) -> Result<Option<AbsPattern>> {
        Ok(self.cell_ref(cell)?.abs_pattern)
    }

    // ------------------------------------------------------------------
    // Traffic ingress (EPC side / UE side)
    // ------------------------------------------------------------------

    /// A UE's traffic ingress: one context lookup, then any number of
    /// queue reads and injections (the per-TTI pacing loop needs three).
    pub fn ue_ingress(&mut self, cell: CellId, rnti: Rnti) -> Result<UeIngress<'_>> {
        let ctx = self
            .cell_mut(cell)?
            .ue_mut(rnti)
            .ok_or_else(|| FlexError::NotFound(format!("{rnti}")))?; // lint:allow(alloc-reach) error path
        Ok(UeIngress { ctx })
    }

    /// Downlink traffic from the core network for a UE's data bearer.
    pub fn inject_dl_traffic(
        &mut self,
        cell: CellId,
        rnti: Rnti,
        payload: Bytes,
        now: Tti,
    ) -> Result<()> {
        self.ue_ingress(cell, rnti)?.enqueue_dl(payload, now);
        Ok(())
    }

    /// Uplink backlog generated at the UE.
    pub fn inject_ul_traffic(&mut self, cell: CellId, rnti: Rnti, payload: Bytes) -> Result<()> {
        self.ue_ingress(cell, rnti)?.add_ul_backlog(payload);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Scheduling interface
    // ------------------------------------------------------------------

    /// Describe the subframe for a downlink scheduler. Call after
    /// [`Enb::begin_tti`]. For `target == now` the input reflects the
    /// retransmission reservations of the current subframe; for a future
    /// target (remote schedule-ahead) the full budgets are assumed.
    pub fn dl_scheduler_input(
        &self,
        cell: CellId,
        now: Tti,
        target: Tti,
    ) -> Result<DlSchedulerInput> {
        let mut input = DlSchedulerInput::default();
        self.dl_scheduler_input_into(cell, now, target, &mut input)?;
        Ok(input)
    }

    /// In-place variant of [`Enb::dl_scheduler_input`]: refills `input`,
    /// reusing its `ues`/`retx` buffers (the per-TTI hot path).
    pub fn dl_scheduler_input_into(
        &self,
        cell: CellId,
        now: Tti,
        target: Tti,
        input: &mut DlSchedulerInput,
    ) -> Result<()> {
        let c = self.cell_ref(cell)?;
        let current = target == now;
        let n_prb = c.config.dl_bandwidth.n_prb();
        let available = if current {
            if c.muted_now {
                0
            } else {
                n_prb.saturating_sub(c.retx_prbs)
            }
        } else {
            n_prb
        };
        let max_dcis = if current {
            c.config
                .max_dl_dcis_per_tti
                .saturating_sub(c.current_retx.len() as u8)
        } else {
            c.config.max_dl_dcis_per_tti
        };
        input.cell = cell;
        input.now = now;
        input.target = target;
        input.available_prb = available;
        input.max_dcis = max_dcis;
        input.ues.clear();
        input.ues.extend(
            c.ues
                .iter()
                .filter(|u| u.is_schedulable(target))
                .map(|u| UeSchedInfo {
                    rnti: u.rnti,
                    cqi: u.last_cqi,
                    queue_bytes: u.drb.buffer_occupancy(),
                    srb_bytes: u.srb.buffer_occupancy(),
                    avg_rate_bps: u.avg_rate_bps,
                    slice: u.slice,
                    priority_group: u.priority_group,
                    hol_delay_ms: u.drb.hol_delay(now),
                }),
        );
        input.retx.clear();
        input.retx.extend(c.current_retx.iter().map(|r| RetxInfo {
            rnti: r.rnti,
            n_prb: r.n_prb,
        }));
        Ok(())
    }

    /// Describe the subframe for an uplink scheduler.
    pub fn ul_scheduler_input(
        &self,
        cell: CellId,
        now: Tti,
        target: Tti,
    ) -> Result<UlSchedulerInput> {
        let mut input = UlSchedulerInput::default();
        self.ul_scheduler_input_into(cell, now, target, &mut input)?;
        Ok(input)
    }

    /// In-place variant of [`Enb::ul_scheduler_input`], reusing `input.ues`.
    pub fn ul_scheduler_input_into(
        &self,
        cell: CellId,
        now: Tti,
        target: Tti,
        input: &mut UlSchedulerInput,
    ) -> Result<()> {
        let c = self.cell_ref(cell)?;
        input.cell = cell;
        input.now = now;
        input.target = target;
        input.available_prb = c.config.ul_bandwidth.n_prb();
        input.max_grants = c.config.max_ul_grants_per_tti;
        input.ues.clear();
        input.ues.extend(
            c.ues
                .iter()
                .filter(|u| u.state.is_connected())
                .map(|u| UlUeInfo {
                    rnti: u.rnti,
                    bsr_bytes: Bytes(u.ul_bsr),
                    cqi: u.last_cqi,
                    prb_cap: self.params.ul_prb_cap,
                }),
        );
        Ok(())
    }

    /// Submit a downlink scheduling decision. Rejected (and counted) if
    /// the target subframe has already passed, or if a decision for the
    /// same cell × subframe exists (control conflict, paper §7.3).
    pub fn submit_dl_decision(&mut self, decision: DlSchedulingDecision, now: Tti) -> Result<()> {
        let cell = decision.cell;
        let i = self.cell_idx(cell)?;
        let c = &mut self.cells[i];
        if decision.target < now {
            c.stats.missed_deadlines += 1;
            self.events.push(EnbEvent::DecisionMissedDeadline {
                cell,
                target: decision.target,
                at: now,
            });
            // lint:allow(alloc-reach) error path
            return Err(FlexError::Deadline(format!(
                "decision for {} arrived at {}",
                decision.target, now
            )));
        }
        decision.validate(c.config.dl_bandwidth.n_prb(), c.config.max_dl_dcis_per_tti)?;
        if c.pending_dl.iter().any(|(t, _)| *t == decision.target.0) {
            // lint:allow(alloc-reach) error path
            return Err(FlexError::Conflict(format!(
                "decision for {}/{} already pending",
                cell, decision.target
            )));
        }
        c.pending_dl.push((decision.target.0, decision));
        Ok(())
    }

    /// Submit an uplink scheduling decision (same deadline semantics).
    pub fn submit_ul_decision(&mut self, decision: UlSchedulingDecision, now: Tti) -> Result<()> {
        let i = self.cell_idx(decision.cell)?;
        let c = &mut self.cells[i];
        if decision.target < now {
            c.stats.missed_deadlines += 1;
            // lint:allow(alloc-reach) error path
            return Err(FlexError::Deadline(format!(
                "UL decision for {} arrived at {}",
                decision.target, now
            )));
        }
        if c.pending_ul.iter().any(|(t, _)| *t == decision.target.0) {
            // lint:allow(alloc-reach) error path
            return Err(FlexError::Conflict(format!(
                "UL decision for {}/{} already pending",
                decision.cell, decision.target
            )));
        }
        c.pending_ul.push((decision.target.0, decision));
        Ok(())
    }

    /// A cleared DCI vector recycled from decisions this cell has already
    /// executed. Schedulers build their decision into this buffer so the
    /// submit → execute → recycle loop is allocation-free in steady state.
    pub fn recycled_dci_buffer(&mut self, cell: CellId) -> Vec<DlDci> {
        match self.cell_idx(cell) {
            Ok(i) => self.cells[i].dci_pool.pop().unwrap_or_default(),
            Err(_) => Vec::new(), // lint:allow(alloc-reach) error path — unknown cell
        }
    }

    /// Uplink counterpart of [`Enb::recycled_dci_buffer`].
    pub fn recycled_grant_buffer(&mut self, cell: CellId) -> Vec<UlGrant> {
        match self.cell_idx(cell) {
            Ok(i) => self.cells[i].grant_pool.pop().unwrap_or_default(),
            Err(_) => Vec::new(), // lint:allow(alloc-reach) error path — unknown cell
        }
    }

    /// Whether the cell will put energy on the air this subframe
    /// (retransmissions reserved in `begin_tti` or a pending decision).
    /// Valid after `begin_tti` and any decision submissions.
    pub fn will_transmit_dl(&self, cell: CellId, tti: Tti) -> bool {
        let Ok(c) = self.cell_ref(cell) else {
            return false;
        };
        if c.muted_now {
            return false;
        }
        !c.current_retx.is_empty()
            || c.pending_dl
                .iter()
                .any(|(t, d)| *t == tti.0 && !d.dcis.is_empty())
    }

    // ------------------------------------------------------------------
    // The TTI pipeline
    // ------------------------------------------------------------------

    /// Phase 1 of the TTI: measurements, feedback, timers, RACH,
    /// retransmission reservation.
    pub fn begin_tti(&mut self, tti: Tti, phy: &mut dyn PhyView) {
        let params = self.params;
        let mut events = std::mem::take(&mut self.events);
        for c in &mut self.cells {
            c.stats.ttis += 1;
            c.muted_now = c.is_abs(tti);
            if c.muted_now {
                c.stats.abs_muted_ttis += 1;
            }

            // Scheduled (re-)RACHes.
            c.take_due_rach(tti);
            for i in 0..c.due_rach.len() {
                let (_, ue_tag, slice, group) = c.due_rach[i];
                c.do_rach(ue_tag, slice, group, tti, &params.timers, &mut events);
            }

            // CQI measurement.
            let cell_id = c.config.cell_id;
            for u in c.ues.iter_mut() {
                if u.cqi_updated == Tti::ZERO || tti.0.is_multiple_of(params.cqi_period) {
                    let sinr = phy.sinr_db(cell_id, u.rnti, tti);
                    u.sinr_db = sinr;
                    u.last_cqi = cqi_from_sinr(sinr);
                    u.cqi_updated = tti;
                }
            }

            // HARQ feedback due this TTI (the drained vector returns to
            // the pool once processed — no steady-state allocation).
            if let Some(qi) = c.feedback_queue.iter().position(|(t, _)| *t == tti.0) {
                let (_, mut fbs) = c.feedback_queue.swap_remove(qi);
                for fb in fbs.iter().copied() {
                    let Ok(ui) = c.ues.binary_search_by_key(&fb.rnti, |u| u.rnti) else {
                        continue;
                    };
                    let u = &mut c.ues[ui];
                    match u.harq.feedback(fb.pid, fb.success, tti) {
                        FeedbackOutcome::Acked { srb, drb } => {
                            u.srb_in_flight = u.srb_in_flight.saturating_sub(srb);
                            u.dl_delivered_bits += drb * 8;
                            // RRC advances when the outstanding signalling
                            // message is fully delivered.
                            if srb > 0 && u.srb_drained() {
                                match u.state {
                                    RrcState::AwaitSetup { .. } => {
                                        u.state = RrcState::Connected;
                                        c.stats.attaches += 1;
                                        events.push(EnbEvent::UeAttached {
                                            cell: cell_id,
                                            rnti: u.rnti,
                                            ue: u.ue_tag,
                                            at: tti,
                                        });
                                    }
                                    RrcState::HandoverPrep { .. } => {
                                        // Handled below: mark for removal by
                                        // setting the deadline in the past is
                                        // fragile; instead record rnti.
                                    }
                                    _ => {}
                                }
                            }
                        }
                        FeedbackOutcome::WillRetransmit => {}
                        FeedbackOutcome::Exhausted { srb, drb } => {
                            // Higher-layer recovery: bytes return to the
                            // head of their queues.
                            if srb > 0 {
                                u.srb_in_flight = u.srb_in_flight.saturating_sub(srb);
                                u.srb.requeue_front(Bytes(srb), tti);
                            }
                            if drb > 0 {
                                u.drb.requeue_front(Bytes(drb), tti);
                                u.drb.account_loss(Bytes(drb));
                            }
                        }
                    }
                }
                fbs.clear();
                c.feedback_pool.push(fbs);
            }

            // Handover completion: command delivered → UE leaves.
            let ho_done: Vec<Rnti> = c
                .ues
                .iter()
                .filter(|u| matches!(u.state, RrcState::HandoverPrep { .. }) && u.srb_drained())
                .map(|u| u.rnti)
                // lint:allow(alloc-reach) fills only while a handover is in flight
                .collect();
            for rnti in ho_done {
                let mut ctx = c.remove_ue(rnti).expect("context exists"); // lint:allow(panic-reach) rnti from the scan above
                let forwarded = ctx.drb.flush() + ctx.harq.outstanding();
                events.push(EnbEvent::HandoverExecuted {
                    cell: cell_id,
                    rnti,
                    ue: ctx.ue_tag,
                    at: tti,
                    forwarded_bytes: forwarded,
                });
            }

            // RRC timers: Msg3 completion and deadline expiry.
            // lint:allow(alloc-reach) populated only on RRC deadline expiry
            let mut failed: Vec<(Rnti, &'static str)> = Vec::new();
            for u in c.ues.iter_mut() {
                match u.state {
                    RrcState::AwaitMsg3 { at } if at <= tti => {
                        u.srb.enqueue(Bytes(CONN_SETUP_BYTES), tti);
                        u.state = RrcState::AwaitSetup {
                            deadline: tti + params.timers.setup_deadline,
                        };
                    }
                    _ => {}
                }
                if let Some(deadline) = u.state.deadline() {
                    if deadline < tti {
                        failed.push((u.rnti, u.state.stage()));
                    }
                }
            }
            for (rnti, stage) in failed {
                let ctx = c.remove_ue(rnti).expect("context exists"); // lint:allow(panic-reach) rnti from the scan above
                c.stats.attach_failures += 1;
                events.push(EnbEvent::AttachFailed {
                    cell: cell_id,
                    rnti,
                    ue: ctx.ue_tag,
                    at: tti,
                    stage,
                });
                if params.auto_reattach && stage != "handover" {
                    c.scheduled_rach.push((
                        tti.0 + params.timers.attach_backoff,
                        ctx.ue_tag,
                        ctx.slice,
                        ctx.priority_group,
                    ));
                }
            }

            // Reserve HARQ retransmissions (transmitted in finish_tti).
            c.current_retx.clear();
            c.retx_prbs = 0;
            if !c.muted_now {
                let current_retx = &mut c.current_retx;
                let retx_prbs = &mut c.retx_prbs;
                for u in c.ues.iter_mut() {
                    let rnti = u.rnti;
                    u.harq.drain_due_retx(tti, |pid, n_prb, mcs, attempt| {
                        current_retx.push(PendingRetx {
                            rnti,
                            pid,
                            n_prb,
                            mcs,
                            attempt,
                        });
                        *retx_prbs = retx_prbs.saturating_add(n_prb);
                    });
                }
            }

            // Scheduling requests for new uplink data.
            for u in c.ues.iter_mut() {
                if u.state.is_connected() && u.ul_backlog > 0 && u.ul_bsr == 0 {
                    events.push(EnbEvent::SchedulingRequest {
                        cell: cell_id,
                        rnti: u.rnti,
                        at: tti,
                    });
                    u.ul_bsr = crate::mac::bsr::bsr_upper_edge_bytes(bsr_index(u.ul_backlog))
                        .min(u.ul_backlog.max(1));
                }
            }
        }
        self.events = events;
    }

    /// Phase 2 of the TTI: put retransmissions and the submitted decisions
    /// on the air, execute uplink grants, update statistics.
    pub fn finish_tti(&mut self, tti: Tti, phy: &mut dyn PhyView) {
        let params = self.params;
        for c in &mut self.cells {
            let cell_id = c.config.cell_id;
            // Retransmissions first (they pre-empted the PRBs). The
            // reservation buffer is walked in place and cleared after —
            // its capacity survives into the next TTI.
            if !c.muted_now {
                for i in 0..c.current_retx.len() {
                    let r = c.current_retx[i];
                    let Ok(ui) = c.ues.binary_search_by_key(&r.rnti, |u| u.rnti) else {
                        continue;
                    };
                    let sinr = phy.sinr_db(cell_id, r.rnti, tti)
                        + HarqEntity::combining_gain_db(r.attempt);
                    let draw: f64 = self.rng.random();
                    let success = params.bler.success(r.mcs, sinr, draw);
                    push_feedback(
                        &mut c.feedback_queue,
                        &mut c.feedback_pool,
                        tti.0 + HARQ_FEEDBACK_DELAY,
                        Feedback {
                            rnti: r.rnti,
                            pid: r.pid,
                            success,
                        },
                    );
                    c.stats.dl_prbs_used += r.n_prb as u64;
                    let tbs = tbs_bits(itbs_for_mcs(r.mcs.0), r.n_prb) as u64;
                    c.stats.dl_mac_bits += tbs;
                    c.ues[ui].bits_this_tti += tbs;
                }
                c.current_retx.clear();
            }

            // New-data decision for this subframe. The decision's DCI
            // buffer is donated back to the pool once executed.
            if let Some(pi) = c.pending_dl.iter().position(|(t, _)| *t == tti.0) {
                let (_, mut decision) = c.pending_dl.swap_remove(pi);
                if !c.muted_now {
                    c.stats.decisions_applied += 1;
                    for dci in decision.dcis.iter().copied() {
                        let Ok(ui) = c.ues.binary_search_by_key(&dci.rnti, |u| u.rnti) else {
                            continue;
                        };
                        let u = &mut c.ues[ui];
                        if !u.is_schedulable(tti) {
                            continue;
                        }
                        let Some(pid) = u.harq.idle_process() else {
                            continue;
                        };
                        let tbs_bytes = (tbs_bits(itbs_for_mcs(dci.mcs.0), dci.n_prb) as u64) / 8;
                        if tbs_bytes <= MAC_HEADER_BYTES {
                            continue;
                        }
                        let mut capacity = tbs_bytes - MAC_HEADER_BYTES;
                        let mut srb_payload = 0u64;
                        let mut drb_payload = 0u64;
                        if let Some(pdu) = u.srb.dequeue_pdu(Bytes(capacity), tti) {
                            srb_payload = pdu.payload.as_u64();
                            capacity -= pdu.size.as_u64();
                        }
                        if capacity > 0 {
                            if let Some(pdu) = u.drb.dequeue_pdu(Bytes(capacity), tti) {
                                drb_payload = pdu.payload.as_u64();
                            }
                        }
                        let payload = srb_payload + drb_payload;
                        if payload == 0 {
                            continue; // nothing to send: allocation wasted
                        }
                        u.srb_in_flight += srb_payload;
                        u.harq
                            .start(pid, srb_payload, drb_payload, dci.mcs, dci.n_prb, tti);
                        let sinr = phy.sinr_db(cell_id, dci.rnti, tti);
                        let draw: f64 = self.rng.random();
                        let success = params.bler.success(dci.mcs, sinr, draw);
                        push_feedback(
                            &mut c.feedback_queue,
                            &mut c.feedback_pool,
                            tti.0 + HARQ_FEEDBACK_DELAY,
                            Feedback {
                                rnti: dci.rnti,
                                pid,
                                success,
                            },
                        );
                        c.stats.dl_prbs_used += dci.n_prb as u64;
                        let tbs = tbs_bits(itbs_for_mcs(dci.mcs.0), dci.n_prb) as u64;
                        c.stats.dl_mac_bits += tbs;
                        c.ues[ui].bits_this_tti += tbs;
                    }
                }
                if c.dci_pool.len() < DECISION_POOL_DEPTH {
                    decision.dcis.clear();
                    c.dci_pool.push(decision.dcis);
                }
            }

            // Uplink grants for this subframe (grant buffer recycled the
            // same way as the DCI buffer above).
            if let Some(pi) = c.pending_ul.iter().position(|(t, _)| *t == tti.0) {
                let (_, mut decision) = c.pending_ul.swap_remove(pi);
                for g in decision.grants.iter().copied() {
                    let Ok(ui) = c.ues.binary_search_by_key(&g.rnti, |u| u.rnti) else {
                        continue;
                    };
                    let u = &mut c.ues[ui];
                    let tbs_bytes = (tbs_bits(itbs_for_mcs(g.mcs.0), g.n_prb) as u64) / 8;
                    let sent = tbs_bytes.saturating_sub(MAC_HEADER_BYTES).min(u.ul_backlog);
                    if sent == 0 {
                        continue;
                    }
                    c.stats.ul_prbs_used += g.n_prb as u64;
                    let sinr = phy.sinr_db(cell_id, g.rnti, tti);
                    let draw: f64 = self.rng.random();
                    if params.bler.success(g.mcs, sinr, draw) {
                        u.ul_backlog -= sent;
                        u.ul_bsr = u.ul_bsr.saturating_sub(sent);
                        u.ul_delivered_bits += sent * 8;
                        // Piggybacked BSR keeps the eNodeB view fresh.
                        if u.ul_backlog > 0 {
                            u.ul_bsr =
                                crate::mac::bsr::bsr_upper_edge_bytes(bsr_index(u.ul_backlog))
                                    .min(u.ul_backlog);
                        }
                    }
                    // On failure the backlog stays; a later grant retries.
                }
                if c.grant_pool.len() < DECISION_POOL_DEPTH {
                    decision.grants.clear();
                    c.grant_pool.push(decision.grants);
                }
            }

            // Average-rate EWMA for proportional fairness.
            for u in c.ues.iter_mut() {
                let inst = (u.bits_this_tti * 1000) as f64; // bits/s this TTI
                u.avg_rate_bps =
                    (1.0 - params.avg_rate_alpha) * u.avg_rate_bps + params.avg_rate_alpha * inst;
                u.bits_this_tti = 0;
            }
        }
    }

    /// Drain the events accumulated since the last call.
    pub fn take_events(&mut self) -> Vec<EnbEvent> {
        std::mem::take(&mut self.events)
    }

    // ------------------------------------------------------------------
    // Statistics / introspection
    // ------------------------------------------------------------------

    /// Cell identifiers served by this eNodeB.
    pub fn cell_ids(&self) -> Vec<CellId> {
        self.cells.iter().map(|c| c.config.cell_id).collect()
    }

    /// Number of cells (allocation-free companion to [`Enb::cell_ids`]).
    pub fn n_cells(&self) -> usize {
        self.cells.len()
    }

    /// The id of the `idx`-th cell (same order as [`Enb::cell_ids`]).
    pub fn cell_id_at(&self, idx: usize) -> CellId {
        self.cells[idx].config.cell_id
    }

    /// A cell's configuration.
    pub fn cell_config(&self, cell: CellId) -> Result<&CellConfig> {
        Ok(&self.cell_ref(cell)?.config)
    }

    /// Per-UE statistics for a cell.
    pub fn ue_stats(&self, cell: CellId) -> Result<Vec<UeStats>> {
        Ok(self.ue_stats_iter(cell)?.collect())
    }

    /// Allocation-free variant of [`Enb::ue_stats`]: stream the per-UE
    /// statistics (the per-TTI reports hot path).
    pub fn ue_stats_iter(&self, cell: CellId) -> Result<impl Iterator<Item = UeStats> + '_> {
        let c = self.cell_ref(cell)?;
        Ok(c.ues.iter().map(|u| u.stats()))
    }

    /// A single UE's statistics (binary-searched slab lookup, not a scan).
    pub fn ue_stat(&self, cell: CellId, rnti: Rnti) -> Result<UeStats> {
        let c = self.cell_ref(cell)?;
        c.ue(rnti)
            .map(|u| u.stats())
            .ok_or_else(|| FlexError::NotFound(format!("{rnti}")))
    }

    /// A UE's downlink queue occupancy — the cheap accessor the per-TTI
    /// traffic pacing loop needs (no [`UeStats`] construction).
    pub fn dl_queue_bytes(&self, cell: CellId, rnti: Rnti) -> Result<Bytes> {
        let c = self.cell_ref(cell)?;
        let u = c
            .ue(rnti)
            .ok_or_else(|| FlexError::NotFound(format!("{rnti}")))?; // lint:allow(alloc-reach) error path
        Ok(u.drb.buffer_occupancy())
    }

    /// Cell-level statistics.
    pub fn cell_stats(&self, cell: CellId) -> Result<&CellStats> {
        Ok(&self.cell_ref(cell)?.stats)
    }

    /// Number of UE contexts in a cell.
    pub fn n_ues(&self, cell: CellId) -> Result<usize> {
        Ok(self.cell_ref(cell)?.ues.len())
    }

    /// Approximate heap footprint of the data-plane state (Fig. 6a's
    /// memory-overhead comparison).
    pub fn heap_bytes(&self) -> usize {
        let mut total = 0usize;
        for c in &self.cells {
            total += c.ues.len() * std::mem::size_of::<UeContext>();
            for u in c.ues.iter() {
                total += u.srb.heap_bytes() + u.drb.heap_bytes();
            }
            total += c.pending_dl.len() * std::mem::size_of::<DlSchedulingDecision>();
            total += c.feedback_queue.len() * std::mem::size_of::<Vec<Feedback>>();
            total += c.dci_pool.capacity() * std::mem::size_of::<Vec<DlDci>>();
            total += c.grant_pool.capacity() * std::mem::size_of::<Vec<UlGrant>>();
            for buf in &c.dci_pool {
                total += buf.capacity() * std::mem::size_of::<DlDci>();
            }
            for buf in &c.grant_pool {
                total += buf.capacity() * std::mem::size_of::<UlGrant>();
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::scheduler::{
        DlScheduler, RoundRobinScheduler, UlRoundRobinScheduler, UlScheduler,
    };
    use flexran_types::config::EnbConfig;

    fn enb() -> Enb {
        Enb::new(
            EnbConfig::single_cell(flexran_types::ids::EnbId(1)),
            EnbParams::default(),
        )
        .unwrap()
    }

    const CELL: CellId = CellId(0);

    /// Drive the eNodeB with local RR schedulers for `n` TTIs.
    fn run_local(enb: &mut Enb, phy: &mut dyn PhyView, from: u64, n: u64) -> Vec<EnbEvent> {
        let mut dl = RoundRobinScheduler::new();
        let mut ul = UlRoundRobinScheduler::new();
        let mut events = Vec::new();
        for t in from..from + n {
            let tti = Tti(t);
            enb.begin_tti(tti, phy);
            let input = enb.dl_scheduler_input(CELL, tti, tti).unwrap();
            let out = dl.schedule_dl(&input);
            if !out.dcis.is_empty() {
                enb.submit_dl_decision(
                    DlSchedulingDecision {
                        cell: CELL,
                        target: tti,
                        dcis: out.dcis,
                    },
                    tti,
                )
                .unwrap();
            }
            let uin = enb.ul_scheduler_input(CELL, tti, tti).unwrap();
            let uout = ul.schedule_ul(&uin);
            if !uout.grants.is_empty() {
                enb.submit_ul_decision(
                    UlSchedulingDecision {
                        cell: CELL,
                        target: tti,
                        grants: uout.grants,
                    },
                    tti,
                )
                .unwrap();
            }
            enb.finish_tti(tti, phy);
            events.extend(enb.take_events());
        }
        events
    }

    #[test]
    fn attach_completes_with_local_scheduler() {
        let mut e = enb();
        let mut phy = StaticPhyView(20.0);
        let rnti = e.rach(CELL, UeId(1), SliceId::MNO, 0, Tti(0)).unwrap();
        let events = run_local(&mut e, &mut phy, 0, 60);
        assert!(
            events
                .iter()
                .any(|ev| matches!(ev, EnbEvent::UeAttached { rnti: r, .. } if *r == rnti)),
            "UE should attach: {events:?}"
        );
        let stats = e.ue_stat(CELL, rnti).unwrap();
        assert!(stats.connected);
    }

    #[test]
    fn attach_fails_without_scheduling() {
        let params = EnbParams {
            auto_reattach: false,
            ..EnbParams::default()
        };
        let mut e = Enb::new(EnbConfig::single_cell(flexran_types::ids::EnbId(1)), params).unwrap();
        let mut phy = StaticPhyView(20.0);
        e.rach(CELL, UeId(1), SliceId::MNO, 0, Tti(0)).unwrap();
        // Step TTIs without ever submitting a decision.
        for t in 0..250 {
            e.begin_tti(Tti(t), &mut phy);
            e.finish_tti(Tti(t), &mut phy);
        }
        let events = e.take_events();
        assert!(events
            .iter()
            .any(|ev| matches!(ev, EnbEvent::AttachFailed { stage: "setup", .. })));
        assert_eq!(e.n_ues(CELL).unwrap(), 0);
    }

    #[test]
    fn full_buffer_throughput_matches_cqi15_regime() {
        let mut e = enb();
        let mut phy = StaticPhyView(26.0); // CQI 15
        let rnti = e.rach(CELL, UeId(1), SliceId::MNO, 0, Tti(0)).unwrap();
        run_local(&mut e, &mut phy, 0, 60);
        // Saturate the downlink for 2 simulated seconds.
        for t in 60..2060 {
            if e.ue_stat(CELL, rnti).unwrap().dl_queue_bytes.as_u64() < 1_000_000 {
                e.inject_dl_traffic(CELL, rnti, Bytes(100_000), Tti(t))
                    .unwrap();
            }
            let mut phy2 = StaticPhyView(26.0);
            run_local(&mut e, &mut phy2, t, 1);
        }
        let stats = e.ue_stat(CELL, rnti).unwrap();
        let mbps = stats.dl_delivered_bits as f64 / 2.0 / 1e6;
        assert!(
            (28.0..38.0).contains(&mbps),
            "CQI-15 full-buffer goodput {mbps} Mb/s"
        );
    }

    #[test]
    fn late_decision_rejected_and_counted() {
        let mut e = enb();
        let mut phy = StaticPhyView(20.0);
        e.begin_tti(Tti(10), &mut phy);
        let err = e
            .submit_dl_decision(
                DlSchedulingDecision {
                    cell: CELL,
                    target: Tti(5),
                    dcis: vec![],
                },
                Tti(10),
            )
            .unwrap_err();
        assert_eq!(err.category(), "deadline");
        assert_eq!(e.cell_stats(CELL).unwrap().missed_deadlines, 1);
        assert!(e
            .take_events()
            .iter()
            .any(|ev| ev.kind() == "missed-deadline"));
    }

    #[test]
    fn conflicting_decisions_rejected() {
        let mut e = enb();
        let d = DlSchedulingDecision {
            cell: CELL,
            target: Tti(100),
            dcis: vec![],
        };
        e.submit_dl_decision(d.clone(), Tti(0)).unwrap();
        let err = e.submit_dl_decision(d, Tti(0)).unwrap_err();
        assert_eq!(err.category(), "conflict");
    }

    #[test]
    fn abs_mutes_downlink() {
        let mut e = enb();
        let mut phy = StaticPhyView(20.0);
        let rnti = e.rach(CELL, UeId(1), SliceId::MNO, 0, Tti(0)).unwrap();
        run_local(&mut e, &mut phy, 0, 60);
        // Mute everything.
        e.set_abs_pattern(CELL, Some([true; 40])).unwrap();
        e.inject_dl_traffic(CELL, rnti, Bytes(50_000), Tti(60))
            .unwrap();
        let before = e.ue_stat(CELL, rnti).unwrap().dl_delivered_bits;
        run_local(&mut e, &mut phy, 60, 100);
        let after = e.ue_stat(CELL, rnti).unwrap().dl_delivered_bits;
        assert_eq!(before, after, "no delivery while muted");
        assert!(e.cell_stats(CELL).unwrap().abs_muted_ttis >= 100);
        // Unmute: traffic flows again.
        e.set_abs_pattern(CELL, None).unwrap();
        run_local(&mut e, &mut phy, 160, 100);
        assert!(e.ue_stat(CELL, rnti).unwrap().dl_delivered_bits > after);
    }

    #[test]
    fn harq_recovers_under_poor_channel() {
        // SINR well below the scheduled MCS's operating point forces
        // retransmissions; chase combining should still deliver most data.
        let mut e = enb();
        let rnti = {
            let mut phy = StaticPhyView(20.0);
            let r = e.rach(CELL, UeId(1), SliceId::MNO, 0, Tti(0)).unwrap();
            run_local(&mut e, &mut phy, 0, 60);
            r
        };
        // Now drop the channel: CQI follows (measured), so link adaptation
        // keeps BLER near target; verify retransmissions happen and data
        // still arrives.
        let mut phy = StaticPhyView(2.0);
        for t in 60..1060 {
            if e.ue_stat(CELL, rnti).unwrap().dl_queue_bytes.as_u64() < 100_000 {
                e.inject_dl_traffic(CELL, rnti, Bytes(20_000), Tti(t))
                    .unwrap();
            }
            run_local(&mut e, &mut phy, t, 1);
        }
        let stats = e.ue_stat(CELL, rnti).unwrap();
        assert!(stats.dl_delivered_bits > 0);
        assert!(stats.harq_tx > 0);
        // At the 10% BLER operating point we expect some retransmissions.
        assert!(stats.harq_retx > 0, "expected HARQ retransmissions");
        let retx_rate = stats.harq_retx as f64 / stats.harq_tx as f64;
        assert!(retx_rate < 0.5, "retx rate {retx_rate} too high");
    }

    #[test]
    fn uplink_flows() {
        let mut e = enb();
        let mut phy = StaticPhyView(20.0);
        let rnti = e.rach(CELL, UeId(1), SliceId::MNO, 0, Tti(0)).unwrap();
        run_local(&mut e, &mut phy, 0, 60);
        e.inject_ul_traffic(CELL, rnti, Bytes(100_000)).unwrap();
        let events = run_local(&mut e, &mut phy, 60, 200);
        assert!(events.iter().any(|ev| ev.kind() == "sr"), "SR raised");
        let stats = e.ue_stat(CELL, rnti).unwrap();
        assert!(
            stats.ul_delivered_bits >= 100_000 * 8,
            "UL backlog drained: {}",
            stats.ul_delivered_bits
        );
    }

    #[test]
    fn handover_emits_forwarding_event() {
        let mut e = enb();
        let mut phy = StaticPhyView(20.0);
        let rnti = e.rach(CELL, UeId(1), SliceId::MNO, 0, Tti(0)).unwrap();
        run_local(&mut e, &mut phy, 0, 60);
        e.inject_dl_traffic(CELL, rnti, Bytes(5_000), Tti(60))
            .unwrap();
        e.start_handover(CELL, rnti, Tti(60)).unwrap();
        let events = run_local(&mut e, &mut phy, 60, 60);
        let ho = events
            .iter()
            .find(|ev| matches!(ev, EnbEvent::HandoverExecuted { .. }));
        assert!(ho.is_some(), "handover should execute: {events:?}");
        assert_eq!(e.n_ues(CELL).unwrap(), 0);
    }

    #[test]
    fn admit_ue_joins_connected() {
        let mut e = enb();
        let rnti = e
            .admit_ue(CELL, UeId(9), SliceId(1), 1, Bytes(1000), Tti(5))
            .unwrap();
        let s = e.ue_stat(CELL, rnti).unwrap();
        assert!(s.connected);
        assert_eq!(s.dl_queue_bytes, Bytes(1000));
        assert_eq!(s.slice, SliceId(1));
    }

    #[test]
    fn drx_gates_scheduling() {
        let mut e = enb();
        let mut phy = StaticPhyView(20.0);
        let rnti = e.rach(CELL, UeId(1), SliceId::MNO, 0, Tti(0)).unwrap();
        run_local(&mut e, &mut phy, 0, 60);
        e.set_drx(CELL, rnti, 10, 2).unwrap();
        assert!(e.set_drx(CELL, rnti, 10, 0).is_err());
        assert!(e.set_drx(CELL, rnti, 10, 11).is_err());
        // At TTI 105 (105 % 10 = 5 >= 2) the UE must be filtered out.
        e.begin_tti(Tti(105), &mut phy);
        let input = e.dl_scheduler_input(CELL, Tti(105), Tti(105)).unwrap();
        assert!(input.ues.is_empty());
        e.finish_tti(Tti(105), &mut phy);
        // At TTI 110 (0 < 2) it is schedulable again.
        e.begin_tti(Tti(110), &mut phy);
        let input = e.dl_scheduler_input(CELL, Tti(110), Tti(110)).unwrap();
        assert_eq!(input.ues.len(), 1);
        e.finish_tti(Tti(110), &mut phy);
    }

    #[test]
    fn auto_reattach_retries() {
        let mut e = enb(); // auto_reattach = true
        let mut phy = StaticPhyView(20.0);
        e.rach(CELL, UeId(1), SliceId::MNO, 0, Tti(0)).unwrap();
        // Let the first attach fail (no scheduling), then start scheduling.
        for t in 0..230 {
            e.begin_tti(Tti(t), &mut phy);
            e.finish_tti(Tti(t), &mut phy);
        }
        let pre_events = e.take_events();
        assert!(pre_events.iter().any(|ev| ev.kind() == "attach-failed"));
        let events = run_local(&mut e, &mut phy, 230, 120);
        assert!(
            events.iter().any(|ev| ev.kind() == "attach"),
            "retried attach should succeed: {events:?}"
        );
    }

    #[test]
    fn due_rach_fires_in_insertion_order_and_splits_in_place() {
        let mut e = enb();
        let mut phy = StaticPhyView(20.0);
        let fired = |e: &mut Enb| -> Vec<u32> {
            e.take_events()
                .iter()
                .filter_map(|ev| match ev {
                    EnbEvent::RachAttempt { ue, .. } => Some(ue.0),
                    _ => None,
                })
                .collect()
        };
        let waiting = |e: &Enb| -> Vec<u32> {
            let rach = &e.cells[0].scheduled_rach;
            rach.iter().map(|(_, ue, ..)| ue.0).collect()
        };
        for (due, ue) in [(10, 1), (50, 2), (10, 3), (9, 4), (50, 5), (10, 6)] {
            e.cells[0]
                .scheduled_rach
                .push((due, UeId(ue), SliceId::MNO, 0));
        }
        e.begin_tti(Tti(5), &mut phy);
        assert!(fired(&mut e).is_empty());
        assert_eq!(waiting(&e), [1, 2, 3, 4, 5, 6]);

        e.begin_tti(Tti(10), &mut phy);
        assert_eq!(fired(&mut e), [1, 3, 4, 6], "due entries, insertion order");
        assert_eq!(waiting(&e), [2, 5], "not-due entries survive, in order");

        let buffers = |e: &Enb| {
            let c = &e.cells[0];
            (
                (c.scheduled_rach.as_ptr(), c.scheduled_rach.capacity()),
                (c.due_rach.as_ptr(), c.due_rach.capacity()),
            )
        };
        let before = buffers(&e);
        e.cells[0]
            .scheduled_rach
            .push((60, UeId(7), SliceId::MNO, 0));
        e.begin_tti(Tti(60), &mut phy);
        assert_eq!(fired(&mut e), [2, 5, 7]);
        assert!(waiting(&e).is_empty());
        assert_eq!(buffers(&e), before, "both buffers are reused, not rebuilt");
    }

    #[test]
    fn scheduler_input_excludes_retx_budget() {
        let mut e = enb();
        let mut phy = StaticPhyView(20.0);
        e.begin_tti(Tti(0), &mut phy);
        let input = e.dl_scheduler_input(CELL, Tti(0), Tti(0)).unwrap();
        assert_eq!(input.available_prb, 50);
        // Future target sees full budget.
        let input = e.dl_scheduler_input(CELL, Tti(0), Tti(10)).unwrap();
        assert_eq!(input.available_prb, 50);
        e.finish_tti(Tti(0), &mut phy);
    }

    #[test]
    fn scell_activation_tracked_and_validated() {
        let mut e = Enb::new(
            {
                let mut cfg = EnbConfig::single_cell(flexran_types::ids::EnbId(1));
                cfg.cells
                    .push(flexran_types::config::CellConfig::paper_default(CellId(1)));
                cfg
            },
            EnbParams::default(),
        )
        .unwrap();
        let rnti = e.rach(CELL, UeId(1), SliceId::MNO, 0, Tti(0)).unwrap();
        // Unknown scell / self-activation rejected.
        assert!(e.set_scell(CELL, rnti, CellId(9), true).is_err());
        assert!(e.set_scell(CELL, rnti, CELL, true).is_err());
        assert!(e.set_scell(CELL, Rnti(0xBEEF), CellId(1), true).is_err());
        // Activate, observe, deactivate.
        e.set_scell(CELL, rnti, CellId(1), true).unwrap();
        assert_eq!(e.ue_stat(CELL, rnti).unwrap().active_scells, vec![1]);
        e.set_scell(CELL, rnti, CellId(1), false).unwrap();
        assert!(e.ue_stat(CELL, rnti).unwrap().active_scells.is_empty());
    }

    #[test]
    fn scell_aggregation_is_capped() {
        let mut cfg = EnbConfig::single_cell(flexran_types::ids::EnbId(1));
        for c in 1..=MAX_SCELLS as u16 + 1 {
            cfg.cells
                .push(flexran_types::config::CellConfig::paper_default(CellId(c)));
        }
        let mut e = Enb::new(cfg, EnbParams::default()).unwrap();
        let rnti = e.rach(CELL, UeId(1), SliceId::MNO, 0, Tti(0)).unwrap();
        for c in 1..=MAX_SCELLS as u16 {
            e.set_scell(CELL, rnti, CellId(c), true).unwrap();
        }
        let one_more = CellId(MAX_SCELLS as u16 + 1);
        assert!(e.set_scell(CELL, rnti, one_more, true).is_err());
        // Re-activating an active carrier is not a new one.
        e.set_scell(CELL, rnti, CellId(1), true).unwrap();
        e.set_scell(CELL, rnti, CellId(1), false).unwrap();
        e.set_scell(CELL, rnti, one_more, true).unwrap();
        assert_eq!(
            e.ue_stat(CELL, rnti).unwrap().active_scells.len(),
            MAX_SCELLS
        );
    }

    #[test]
    fn remote_decisions_do_not_grow_the_buffer_pools() {
        // Regression: a remotely scheduled eNodeB is handed a fresh DCI /
        // grant vector per decision and never draws from the recycling
        // pools, which used to keep every executed vector forever (one
        // per cell per TTI).
        let footprint_after = |ttis: u64| {
            let mut e = enb();
            let mut phy = StaticPhyView(20.0);
            let rnti = e
                .admit_ue(CELL, UeId(1), SliceId::MNO, 0, Bytes(0), Tti(0))
                .unwrap();
            for t in 0..ttis {
                let tti = Tti(t);
                e.begin_tti(tti, &mut phy);
                // One SDU in flight at a time keeps the RLC queue's own
                // capacity out of the comparison.
                if e.dl_queue_bytes(CELL, rnti).unwrap().is_zero() {
                    e.inject_dl_traffic(CELL, rnti, Bytes(2_000), tti).unwrap();
                }
                let mcs = flexran_phy::link_adaptation::Mcs(10);
                e.submit_dl_decision(
                    DlSchedulingDecision {
                        cell: CELL,
                        target: tti,
                        dcis: vec![DlDci {
                            rnti,
                            n_prb: 10,
                            mcs,
                        }],
                    },
                    tti,
                )
                .unwrap();
                e.submit_ul_decision(
                    UlSchedulingDecision {
                        cell: CELL,
                        target: tti,
                        grants: vec![UlGrant {
                            rnti,
                            n_prb: 4,
                            mcs,
                        }],
                    },
                    tti,
                )
                .unwrap();
                e.finish_tti(tti, &mut phy);
                e.take_events();
            }
            let pooled = e.cells[0].dci_pool.len() + e.cells[0].grant_pool.len();
            (e.heap_bytes(), pooled)
        };
        let (short, pooled_short) = footprint_after(500);
        let (long, pooled_long) = footprint_after(5_000);
        assert_eq!(pooled_short, 2 * DECISION_POOL_DEPTH);
        assert_eq!(pooled_long, pooled_short);
        assert_eq!(
            long, short,
            "Enb heap footprint must not depend on run length"
        );
    }

    #[test]
    fn unknown_cell_and_ue_errors() {
        let mut e = enb();
        assert!(e.rach(CellId(9), UeId(1), SliceId::MNO, 0, Tti(0)).is_err());
        assert!(e
            .inject_dl_traffic(CELL, Rnti(0xBEEF), Bytes(1), Tti(0))
            .is_err());
        assert!(e.detach(CELL, Rnti(0xBEEF), Tti(0)).is_err());
        assert!(e.start_handover(CELL, Rnti(0xBEEF), Tti(0)).is_err());
    }
}

#[cfg(test)]
mod conservation_tests {
    //! Property: the data plane never delivers more payload than the core
    //! network injected, and every injected byte is either delivered,
    //! queued, in flight inside HARQ, or (rarely) dropped after HARQ
    //! exhaustion — under arbitrary traffic patterns and channels.

    use super::*;
    use crate::mac::scheduler::{DlScheduler, RoundRobinScheduler};
    use flexran_types::config::EnbConfig;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn dl_byte_conservation(
            seed in any::<u64>(),
            sinr in 0.0f64..25.0,
            bursts in proptest::collection::vec((0u64..2000, 1u64..40), 1..30),
        ) {
            let params = EnbParams { seed, ..EnbParams::default() };
            let mut e = Enb::new(
                EnbConfig::single_cell(flexran_types::ids::EnbId(1)),
                params,
            )
            .unwrap();
            let mut phy = StaticPhyView(sinr);
            let rnti = e
                .rach(CellId(0), UeId(1), SliceId::MNO, 0, Tti(0))
                .unwrap();
            let mut rr = RoundRobinScheduler::new();
            let mut injected_payload = 0u64;
            let mut t = 0u64;
            let mut burst_iter = bursts.into_iter();
            let mut current = burst_iter.next();
            while t < 2_000 {
                let tti = Tti(t);
                e.begin_tti(tti, &mut phy);
                // Inject per the burst schedule (payload + PDCP header
                // lands in the queue; conservation is on the PDU bytes).
                if let Some((bytes, at)) = current {
                    if t >= at && e.ue_stat(CellId(0), rnti).is_ok() && bytes > 0 {
                        if e.inject_dl_traffic(CellId(0), rnti, Bytes(bytes), tti).is_ok() {
                            injected_payload += bytes + crate::pdcp::PDCP_HEADER_BYTES;
                        }
                        current = burst_iter.next();
                    }
                }
                if let Ok(input) = e.dl_scheduler_input(CellId(0), tti, tti) {
                    let out = rr.schedule_dl(&input);
                    if !out.dcis.is_empty() {
                        let _ = e.submit_dl_decision(
                            DlSchedulingDecision {
                                cell: CellId(0),
                                target: tti,
                                dcis: out.dcis,
                            },
                            tti,
                        );
                    }
                }
                e.finish_tti(tti, &mut phy);
                t += 1;
            }
            if let Ok(s) = e.ue_stat(CellId(0), rnti) {
                let delivered = s.dl_delivered_bits / 8;
                prop_assert!(
                    delivered <= injected_payload,
                    "delivered {delivered} > injected {injected_payload}"
                );
                // Accounting closes: delivered + still queued ≤ injected
                // (the difference is HARQ-in-flight or exhaustion drops).
                prop_assert!(
                    delivered + s.dl_queue_bytes.as_u64()
                        <= injected_payload + 8, // RLC header slack on a partial PDU
                    "delivered {delivered} + queued {} vs injected {injected_payload}",
                    s.dl_queue_bytes.as_u64()
                );
            }
        }
    }
}
