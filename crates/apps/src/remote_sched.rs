//! The centralized (remote) downlink scheduler with schedule-ahead
//! (paper §5.3).
//!
//! Runs at the master as a real-time application: each cycle it reads the
//! RIB (whose contents are stale by half the control-channel RTT), takes
//! the freshest synced agent subframe `x`, and issues scheduling
//! decisions for subframe `x + n`, where `n` is the *schedule-ahead*
//! parameter. The agent applies a decision only if it arrives before its
//! target subframe — so, as the paper derives, the UE can only be served
//! when `n ≥ RTT` (half to cover the stale subframe report, half for the
//! command's flight time).
//!
//! The actual allocation policy is pluggable (any [`DlScheduler`]); the
//! RIB's raw UE reports are adapted into the scheduler-input vocabulary.

use std::collections::BTreeMap;

use flexran_controller::northbound::{App, ControlHandle, RibView};
use flexran_controller::rib::CellNode;
use flexran_phy::link_adaptation::Cqi;
use flexran_proto::messages::{DlSchedulingCommand, FlexranMessage, UlSchedulingCommand};
use flexran_stack::mac::dci::{DlSchedulingDecision, UlSchedulingDecision};
use flexran_stack::mac::scheduler::{
    DlScheduler, DlSchedulerInput, UeSchedInfo, UlScheduler, UlSchedulerInput, UlUeInfo,
};
use flexran_types::ids::{CellId, EnbId, SliceId};
use flexran_types::time::Tti;
use flexran_types::units::Bytes;

/// Build scheduler input from a RIB cell node.
///
/// `queue_discount` lets a caller scheduling several future subframes in
/// one cycle account for bytes it already granted (keyed by RNTI).
pub fn scheduler_input_from_rib(
    cell: &CellNode,
    now: Tti,
    target: Tti,
    queue_discount: &BTreeMap<u16, u64>,
) -> DlSchedulerInput {
    let (available_prb, max_dcis) = match &cell.config {
        Some(c) => (c.dl_prbs, c.max_dl_dcis),
        None => (50, 10), // the paper's 10 MHz defaults
    };
    let ues = cell
        .ues()
        .iter()
        .map(|u| {
            let r = &u.report;
            let raw_queue: u64 = r
                .rlc
                .iter()
                .filter(|b| b.lcid >= 3)
                .map(|b| b.tx_queue_bytes)
                .sum();
            let srb: u64 = r
                .rlc
                .iter()
                .filter(|b| b.lcid < 3)
                .map(|b| b.tx_queue_bytes)
                .sum();
            let discount = queue_discount.get(&r.rnti).copied().unwrap_or(0);
            UeSchedInfo {
                rnti: u.rnti,
                cqi: Cqi::new_clamped(r.wideband_cqi),
                queue_bytes: Bytes(raw_queue.saturating_sub(discount)),
                srb_bytes: Bytes(srb),
                avg_rate_bps: r.avg_rate_bps as f64,
                slice: SliceId(r.slice),
                priority_group: r.priority_group,
                hol_delay_ms: r.rlc.iter().map(|b| b.hol_delay_ms).max().unwrap_or(0),
            }
        })
        .collect();
    DlSchedulerInput {
        cell: cell.cell_id,
        now,
        target,
        available_prb,
        max_dcis,
        ues,
        retx: Vec::new(), // HARQ is below the remote scheduler's view
    }
}

/// Build an *uplink* scheduler input from a RIB cell node (backlogs come
/// from the BSR indices in the UE reports).
pub fn ul_scheduler_input_from_rib(cell: &CellNode, now: Tti, target: Tti) -> UlSchedulerInput {
    let (available_prb, max_grants) = match &cell.config {
        Some(c) => (c.ul_prbs, c.max_ul_grants),
        None => (50, 8),
    };
    let ues = cell
        .ues()
        .iter()
        .filter(|u| u.report.connected)
        .map(|u| {
            let bsr_idx = u.report.bsr.first().copied().unwrap_or(0);
            UlUeInfo {
                rnti: u.rnti,
                bsr_bytes: Bytes(flexran_stack::mac::bsr::bsr_upper_edge_bytes(bsr_idx)),
                cqi: Cqi::new_clamped(u.report.wideband_cqi),
                prb_cap: 24,
            }
        })
        .collect();
    UlSchedulerInput {
        cell: cell.cell_id,
        now,
        target,
        available_prb,
        max_grants,
        ues,
    }
}

/// The centralized scheduler application.
pub struct CentralizedScheduler {
    /// Schedule-ahead in subframes (`n` of Fig. 9).
    pub schedule_ahead: u64,
    policy: Box<dyn DlScheduler>,
    /// Optional uplink policy: when set, uplink grants are also issued
    /// remotely (full centralization).
    ul_policy: Option<Box<dyn UlScheduler>>,
    /// Most recent target issued per (agent, cell).
    last_target: BTreeMap<(EnbId, u16), u64>,
    /// Cap on targets issued per cycle per cell (sync hiccup catch-up).
    pub max_catchup: u64,
    /// Commands issued (observability / Fig. 7b accounting cross-check).
    pub commands_sent: u64,
}

impl CentralizedScheduler {
    pub fn new(schedule_ahead: u64, policy: Box<dyn DlScheduler>) -> Self {
        CentralizedScheduler {
            schedule_ahead,
            policy,
            ul_policy: None,
            last_target: BTreeMap::new(),
            max_catchup: 4,
            commands_sent: 0,
        }
    }

    /// Also centralize uplink scheduling with the given policy.
    pub fn with_uplink(mut self, ul: Box<dyn UlScheduler>) -> Self {
        self.ul_policy = Some(ul);
        self
    }
}

impl App for CentralizedScheduler {
    fn name(&self) -> &str {
        "centralized-scheduler"
    }

    fn priority(&self) -> u8 {
        200 // time-critical (paper §4.3.3)
    }

    fn on_cycle(&mut self, rib: &RibView<'_>, ctl: &mut ControlHandle<'_>) {
        let agents: Vec<EnbId> = rib.agents().into_iter().map(|a| a.enb_id).collect();
        for enb in agents {
            if rib.is_stale(enb) {
                continue; // session down: the RIB subtree is a pre-outage
                          // snapshot and the agent runs local control
            }
            let Some(sync) = rib.synced_subframe(enb) else {
                continue; // agent not syncing: cannot schedule remotely
            };
            let agent = rib.agent(enb).expect("listed agent");
            let cells: Vec<u16> = agent.cells().iter().map(|c| c.cell_id.0).collect();
            for cell_id in cells {
                let horizon = sync.0 + self.schedule_ahead;
                let start = self
                    .last_target
                    .get(&(enb, cell_id))
                    .map(|t| t + 1)
                    .unwrap_or(horizon)
                    .max(sync.0 + 1);
                if start > horizon {
                    continue; // nothing new to cover
                }
                let from = horizon.saturating_sub(self.max_catchup - 1).max(start);
                // Bytes already granted this cycle, so consecutive targets
                // don't re-schedule the same queue.
                let mut discount: BTreeMap<u16, u64> = BTreeMap::new();
                for target in from..=horizon {
                    let cell = agent.cell(CellId(cell_id)).expect("listed cell");
                    let input = scheduler_input_from_rib(cell, rib.now(), Tti(target), &discount);
                    let out = self.policy.schedule_dl(&input);
                    self.last_target.insert((enb, cell_id), target);
                    // Uplink grants for the same target, if centralized
                    // (independent of whether the downlink has work).
                    if let Some(ul) = self.ul_policy.as_mut() {
                        let input = ul_scheduler_input_from_rib(cell, rib.now(), Tti(target));
                        let ul_out = ul.schedule_ul(&input);
                        if !ul_out.grants.is_empty() {
                            let cmd = UlSchedulingCommand::from_decision(
                                enb,
                                &UlSchedulingDecision {
                                    cell: CellId(cell_id),
                                    target: Tti(target),
                                    grants: ul_out.grants,
                                },
                            );
                            ctl.send(enb, FlexranMessage::UlSchedulingCommand(cmd));
                            self.commands_sent += 1;
                        }
                    }
                    if out.dcis.is_empty() {
                        continue;
                    }
                    for dci in &out.dcis {
                        let tbs = flexran_phy::tables::tbs_bits(
                            flexran_phy::tables::itbs_for_mcs(dci.mcs.0),
                            dci.n_prb,
                        ) as u64
                            / 8;
                        *discount.entry(dci.rnti.0).or_insert(0) += tbs;
                    }
                    let cmd = DlSchedulingCommand::from_decision(
                        enb,
                        &DlSchedulingDecision {
                            cell: CellId(cell_id),
                            target: Tti(target),
                            dcis: out.dcis,
                        },
                    );
                    if ctl.schedule_dl(enb, cmd).is_ok() {
                        self.commands_sent += 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexran_controller::rib::{Rib, UeNode};
    use flexran_controller::{MasterController, Northbound, TaskManagerConfig};
    use flexran_proto::messages::stats::RlcReport;
    use flexran_proto::messages::{FlexranMessage, Header, Hello, SubframeTrigger, UeReport};
    use flexran_proto::transport::{channel_pair, Transport};
    use flexran_stack::mac::scheduler::RoundRobinScheduler;
    use flexran_types::ids::Rnti;

    #[test]
    fn input_adapter_maps_rib_fields() {
        let mut cell = CellNode::default();
        cell.cell_id = CellId(0);
        cell.insert_ue(UeNode {
            rnti: Rnti(0x100),
            report: UeReport {
                rnti: 0x100,
                wideband_cqi: 9,
                slice: 1,
                priority_group: 1,
                rlc: [
                    RlcReport {
                        lcid: 1,
                        tx_queue_bytes: 60,
                        ..Default::default()
                    },
                    RlcReport {
                        lcid: 3,
                        tx_queue_bytes: 9_000,
                        hol_delay_ms: 12,
                        ..Default::default()
                    },
                ]
                .into(),
                ..Default::default()
            },
            ..Default::default()
        });
        let input = scheduler_input_from_rib(&cell, Tti(10), Tti(16), &BTreeMap::new());
        assert_eq!(input.available_prb, 50);
        let ue = &input.ues[0];
        assert_eq!(ue.cqi, Cqi(9));
        assert_eq!(ue.queue_bytes, Bytes(9_000));
        assert_eq!(ue.srb_bytes, Bytes(60));
        assert_eq!(ue.slice, SliceId(1));
        assert_eq!(ue.hol_delay_ms, 12);
        // Discounting reduces the visible queue.
        let mut discount = BTreeMap::new();
        discount.insert(0x100u16, 8_500u64);
        let input = scheduler_input_from_rib(&cell, Tti(10), Tti(17), &discount);
        assert_eq!(input.ues[0].queue_bytes, Bytes(500));
    }

    /// End-to-end through a real master: sync + stats in, commands out.
    #[test]
    fn issues_commands_n_ahead_of_sync() {
        let mut master = MasterController::new(TaskManagerConfig::default());
        master.register_app(Box::new(CentralizedScheduler::new(
            6,
            Box::new(RoundRobinScheduler::new()),
        )));
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
        // Stats first so the RIB knows the UE, then per-TTI sync.
        agent_side
            .send(
                Header::default(),
                &FlexranMessage::StatsReply(flexran_proto::messages::StatsReply {
                    enb_id: EnbId(1),
                    tti: 99,
                    cells: vec![],
                    ues: vec![UeReport {
                        rnti: 0x100,
                        cell: 0,
                        connected: true,
                        wideband_cqi: 12,
                        rlc: [RlcReport {
                            lcid: 3,
                            tx_queue_bytes: 100_000,
                            ..Default::default()
                        }]
                        .into(),
                        ..Default::default()
                    }],
                }),
            )
            .unwrap();
        for t in 100..110u64 {
            agent_side
                .send(
                    Header::default(),
                    &FlexranMessage::SubframeTrigger(SubframeTrigger {
                        enb_id: EnbId(1),
                        sfn: 0,
                        sf: 0,
                        tti: t,
                    }),
                )
                .unwrap();
            master.run_cycle(Tti(t + 1));
        }
        // Collect the scheduling commands the agent received.
        let mut targets = Vec::new();
        while let Ok(Some((_, msg))) = agent_side.try_recv() {
            if let FlexranMessage::DlSchedulingCommand(c) = msg {
                assert_eq!(c.dcis[0].rnti, 0x100);
                targets.push(c.target_tti);
            }
        }
        assert!(!targets.is_empty(), "commands must flow");
        // Every target is exactly schedule-ahead past some synced subframe
        // and strictly increasing.
        for w in targets.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert!(
            targets.iter().all(|t| (105..=115).contains(t)),
            "{targets:?}"
        );
    }

    #[test]
    fn no_sync_no_commands() {
        let mut sched = CentralizedScheduler::new(6, Box::new(RoundRobinScheduler::new()));
        let rib = Rib::new();
        let mut nb = Northbound::new();
        let view = RibView::over(Tti(5), &rib);
        let mut ctl = nb.control();
        sched.on_cycle(&view, &mut ctl);
        assert!(nb.staged().is_empty());
        assert_eq!(sched.commands_sent, 0);
    }

    #[test]
    fn stale_agents_are_skipped() {
        let mut sched = CentralizedScheduler::new(6, Box::new(RoundRobinScheduler::new()));
        let mut rib = Rib::new();
        {
            let agent = rib.agent_mut(EnbId(1));
            agent.last_sync = Some((Tti(100), Tti(101)));
            let cell = agent.cell_entry(CellId(0));
            cell.insert_ue(UeNode {
                rnti: Rnti(0x100),
                report: UeReport {
                    rnti: 0x100,
                    connected: true,
                    wideband_cqi: 12,
                    rlc: [RlcReport {
                        lcid: 3,
                        tx_queue_bytes: 100_000,
                        ..Default::default()
                    }]
                    .into(),
                    ..Default::default()
                },
                ..Default::default()
            });
            agent.mark_stale(Tti(105));
        }
        let mut nb = Northbound::new();
        {
            let view = RibView::over(Tti(106), &rib);
            let mut ctl = nb.control();
            sched.on_cycle(&view, &mut ctl);
        }
        assert!(
            nb.staged().is_empty(),
            "no commands toward a down session's pre-outage snapshot"
        );
        // Session restored: the same RIB state now yields commands.
        rib.agent_mut(EnbId(1)).mark_fresh();
        {
            let view = RibView::over(Tti(107), &rib);
            let mut ctl = nb.control();
            sched.on_cycle(&view, &mut ctl);
        }
        assert!(!nb.staged().is_empty(), "commands resume after mark_fresh");
    }
}
