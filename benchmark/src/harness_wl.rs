//! The three workloads that run on `SimHarness`: `dense_local`,
//! `central_ctrl` and `fleet_events`.
//!
//! The harness is stepped and read through its public API only. In a
//! traced window the per-step deltas of `phase_timings()` and of the
//! master's `accounting()` are laid out as child spans of one
//! `core.step` root per TTI.

use std::collections::BTreeMap;

use flexran::agent::{AgentConfig, LivenessConfig};
use flexran::apps::{CentralizedScheduler, MobilityManagerApp};
use flexran::controller::{MasterController, ShardSpec, TaskManagerConfig};
use flexran::harness::{SimConfig, SimHarness, UeRadioSpec};
use flexran::phy::geometry::{Environment, PathLossModel, Position, TxSite};
use flexran::phy::mobility::{MobilityModel, RandomWaypoint};
use flexran::proto::{ReportConfig, ReportFlags, ReportType};
use flexran::sim::link::LinkConfig;
use flexran::sim::radio::RadioEnvironment;
use flexran::sim::traffic::{CbrSource, FullBufferSource};
use flexran::stack::enb::Enb;
use flexran::stack::events::EnbEvent;
use flexran::stack::mac::scheduler::RoundRobinScheduler;
use flexran::types::config::EnbConfig;
use flexran::types::ids::{CellId, EnbId, SliceId, UeId};
use flexran::types::time::Tti;
use flexran::types::units::{BitRate, Dbm};

use crate::alloc;
use crate::metrics::Metrics;
use crate::scenario::{Counts, Fnv, Scenario, SplitMix, UeService, WARMUP_TTIS};
use crate::spans;
use crate::stats::{percentile_sorted, WindowEstimator, WINDOW};

/// Schedule-ahead of the centralized scheduler, in TTIs (`central_ctrl`
/// and `tcp_loop`): two more than the 2 ms round trip of `central_ctrl`.
pub const SCHEDULE_AHEAD: u64 = 4;

/// Step-time samples kept for `core.step_us_p999`.
const STEP_SAMPLE_CAP: usize = 400_000;

pub struct HarnessScenario {
    sim: SimHarness,
    enbs: Vec<EnbId>,
    ues: Vec<UeId>,
    rib_tracks_ues: bool,
    handovers: u64,
    // Traced-window state.
    cycle: WindowEstimator,
    step_ns: Vec<u32>,
    traced_allocs: u64,
}

impl HarnessScenario {
    fn new(sim: SimHarness, enbs: Vec<EnbId>, ues: Vec<UeId>, rib_tracks_ues: bool) -> Self {
        HarnessScenario {
            sim,
            enbs,
            ues,
            rib_tracks_ues,
            handovers: 0,
            cycle: WindowEstimator::new(WINDOW),
            step_ns: Vec::new(),
            traced_allocs: 0,
        }
    }

    /// Run the warm-up and open the measured window.
    fn warmed_up(mut self) -> Self {
        for _ in 0..WARMUP_TTIS {
            self.sim.step();
            self.after_step();
        }
        self.sim.reset_budget();
        self
    }
}

fn subscribe_all(sim: &mut SimHarness, enbs: &[EnbId], period: u32) {
    for &enb in enbs {
        sim.master_mut()
            .request_stats(
                enb,
                ReportConfig {
                    report_type: ReportType::Periodic { period },
                    flags: ReportFlags::ALL,
                },
            )
            .expect("the agent introduced itself before the subscription");
    }
}

/// 4 eNB × 64 UEs, everything scheduled locally; no control traffic
/// beyond the hello.
pub fn dense_local(seed: u64) -> HarnessScenario {
    let mut rng = SplitMix(seed);
    let mut sim = SimHarness::new(SimConfig {
        seed,
        ..SimConfig::default()
    });
    let mut enbs = Vec::new();
    let mut ues = Vec::new();
    for e in 0..4u32 {
        let enb = EnbId(e + 1);
        let sched = if e < 2 {
            "proportional-fair"
        } else {
            "round-robin"
        };
        sim.add_enb(
            EnbConfig::single_cell(enb),
            AgentConfig {
                initial_dl_scheduler: Some(sched.into()),
                ..AgentConfig::default()
            },
        );
        enbs.push(enb);
        for u in 0..64 {
            let ue = add_fading_ue(&mut sim, enb, &mut rng);
            if u % 4 == 0 {
                sim.set_ul_traffic(ue, Box::new(CbrSource::new(BitRate::from_kbps(256))));
            }
            ues.push(ue);
        }
    }
    HarnessScenario::new(sim, enbs, ues, false).warmed_up()
}

fn add_fading_ue(sim: &mut SimHarness, enb: EnbId, rng: &mut SplitMix) -> UeId {
    let ue = sim.add_ue(
        enb,
        CellId(0),
        SliceId::MNO,
        0,
        UeRadioSpec::Fading(15.0, 4.0, 0.95, rng.next_u64()),
    );
    sim.set_dl_traffic(ue, Box::new(FullBufferSource::default()));
    ue
}

/// 8 eNB × 16 UEs, every cell scheduled by the master from per-TTI full
/// reports over 1 ms links, journal on: the paper's Fig. 7–9 regime.
pub fn central_ctrl(seed: u64) -> HarnessScenario {
    let mut rng = SplitMix(seed);
    let mut sim = SimHarness::new(SimConfig {
        seed,
        uplink: LinkConfig::with_one_way_ms(1),
        downlink: LinkConfig::with_one_way_ms(1),
        master: TaskManagerConfig {
            journal_snapshot_every: 1_000,
            ..TaskManagerConfig::default()
        },
        ..SimConfig::default()
    });
    sim.master_mut()
        .register_app(Box::new(CentralizedScheduler::new(
            SCHEDULE_AHEAD,
            Box::new(RoundRobinScheduler::new()),
        )));
    let mut enbs = Vec::new();
    let mut ues = Vec::new();
    for e in 0..8u32 {
        let enb = EnbId(e + 1);
        sim.add_enb(
            EnbConfig::single_cell(enb),
            AgentConfig {
                initial_dl_scheduler: Some("remote-stub".into()),
                sync_period: 1,
                ..AgentConfig::default()
            },
        );
        enbs.push(enb);
        for u in 0..16 {
            let ue = add_fading_ue(&mut sim, enb, &mut rng);
            if u % 4 == 0 {
                sim.set_ul_traffic(ue, Box::new(CbrSource::new(BitRate::from_kbps(256))));
            }
            ues.push(ue);
        }
    }
    sim.run(5); // hellos cross the 1 ms links
    subscribe_all(&mut sim, &enbs, 1);
    HarnessScenario::new(sim, enbs, ues, true).warmed_up()
}

/// 16 eNBs on a 4×4 grid, 64 UEs on random waypoints: events,
/// heartbeats, handovers, journal compaction, two shards. `workers` is
/// the engine's fan-out: `None` in the measured run, `Some(2)` in the
/// traced run's `core.par_*` probe and in the serial ≡ parallel test.
pub fn fleet_events(seed: u64, workers: Option<usize>) -> HarnessScenario {
    const SPACING_M: f64 = 500.0;
    let mut rng = SplitMix(seed);
    let mut env = Environment::new(10_000_000);
    let mut sites = Vec::new();
    for i in 0..16 {
        let position = Position::new((i % 4) as f64 * SPACING_M, (i / 4) as f64 * SPACING_M);
        sites.push((
            env.add_site(TxSite {
                position,
                tx_power: Dbm(43.0),
                path_loss: PathLossModel::UrbanMacro,
            }),
            position,
        ));
    }
    let links = LinkConfig::with_one_way_ms(1);
    let mut sim = SimHarness::with_radio(
        SimConfig {
            seed,
            uplink: links,
            downlink: links,
            workers,
            master: TaskManagerConfig {
                liveness_timeout: 200,
                journal_snapshot_every: 200,
                shards: ShardSpec::Fixed(2),
                ..TaskManagerConfig::default()
            },
            ..SimConfig::default()
        },
        RadioEnvironment::with_geometry(env),
    );
    let mut enbs = Vec::new();
    let mut site_map = BTreeMap::new();
    for (i, (site, _)) in sites.iter().enumerate() {
        let enb = EnbId(i as u32 + 1);
        sim.add_enb(
            EnbConfig::single_cell(enb),
            AgentConfig {
                liveness: LivenessConfig::probing(10),
                ..AgentConfig::default()
            },
        );
        sim.map_cell_to_site(enb, CellId(0), *site);
        site_map.insert(*site as u32, (enb, CellId(0)));
        enbs.push(enb);
    }
    sim.master_mut()
        .register_app(Box::new(MobilityManagerApp::new(site_map)));
    let (lo, hi) = (Position::new(-100.0, -100.0), Position::new(1600.0, 1600.0));
    let mut ues = Vec::new();
    for _ in 0..64 {
        let walk_seed = rng.next_u64();
        let walk = |s| RandomWaypoint::new(lo, hi, 30.0, s).expect("region has positive area");
        // A second walker with the same seed tells where this one starts.
        let start = walk(walk_seed).position(Tti::ZERO);
        let (nearest, _) = sites
            .iter()
            .enumerate()
            .min_by(|a, b| {
                start
                    .distance_to(a.1 .1)
                    .total_cmp(&start.distance_to(b.1 .1))
            })
            .expect("sixteen sites");
        let ue = sim.add_ue(
            enbs[nearest],
            CellId(0),
            SliceId::MNO,
            0,
            UeRadioSpec::Geo(Box::new(walk(walk_seed)), sites[nearest].0),
        );
        sim.set_dl_traffic(ue, Box::new(CbrSource::new(BitRate::from_mbps(1))));
        sim.enable_measurements(ue, 40);
        ues.push(ue);
    }
    sim.run(5);
    subscribe_all(&mut sim, &enbs, 10);
    HarnessScenario::new(sim, enbs, ues, true).warmed_up()
}

impl Scenario for HarnessScenario {
    fn n_enbs(&self) -> usize {
        self.enbs.len()
    }

    fn n_ues(&self) -> usize {
        self.ues.len()
    }

    fn step(&mut self) {
        if !spans::active() {
            self.sim.step();
            return;
        }
        let pt0 = self.sim.phase_timings();
        let acc0 = self.sim.master().accounting();
        let allocs0 = alloc::allocs();
        let t0 = spans::with(|r| r.now_ns()).unwrap_or(0);
        alloc::set_counting(true);
        self.sim.step();
        alloc::set_counting(false);
        let t1 = spans::with(|r| r.now_ns()).unwrap_or(0);
        self.traced_allocs += alloc::allocs() - allocs0;
        let pt = self.sim.phase_timings();
        let acc = self.sim.master().accounting();
        let rib = (acc.rib_total - acc0.rib_total).as_nanos() as u64;
        let apps = (acc.apps_total - acc0.apps_total).as_nanos() as u64;
        self.cycle.push(rib + apps);
        if self.step_ns.len() < STEP_SAMPLE_CAP {
            self.step_ns.push((t1 - t0).min(u32::MAX as u64) as u32);
        }
        let tti = self.sim.now().0;
        spans::with(|r| {
            // The harness reports durations, not instants: lay the phases
            // out back to back from the step's start.
            r.open_at(spans::CORE_STEP, tti, t0);
            let mut at = t0;
            let front = pt.serial_front_ns - pt0.serial_front_ns;
            r.open_at(spans::CORE_FRONT, tti, at);
            r.leaf(spans::CTRL_RIB_SLOT, at, at + rib);
            r.leaf(spans::CTRL_APPS_SLOT, at + rib, at + rib + apps);
            at += front;
            r.close_at(at);
            for (name, dur) in [
                (spans::CORE_PHASE_A, pt.phase_a_ns - pt0.phase_a_ns),
                (spans::CORE_COUPLING, pt.coupling_ns - pt0.coupling_ns),
                (spans::CORE_PHASE_B, pt.phase_b_ns - pt0.phase_b_ns),
                (spans::CORE_MERGE, pt.merge_ns - pt0.merge_ns),
            ] {
                r.leaf(name, at, at + dur);
                at += dur;
            }
            r.close_at(t1);
        });
    }

    fn after_step(&mut self) {
        for (_, ev) in &self.sim.last_events {
            if matches!(ev, EnbEvent::HandoverExecuted { .. }) {
                self.handovers += 1;
            }
        }
    }

    fn service(&self, out: &mut Vec<UeService>) {
        out.clear();
        out.extend(self.ues.iter().map(|&ue| match self.sim.ue_stats(ue) {
            Some(s) => UeService {
                connected: s.connected,
                dl_bits: s.dl_delivered_bits,
            },
            None => UeService {
                connected: false,
                dl_bits: 0,
            },
        }));
    }

    fn counts(&self) -> Counts {
        use flexran::proto::Transport;
        let mut c = Counts {
            handovers: self.handovers,
            ..Counts::default()
        };
        for &enb in &self.enbs {
            let agent = self.sim.agent(enb).expect("listed eNodeB");
            c.up.merge(&agent.transport().tx_counters());
            c.down.merge(&agent.transport().rx_counters());
            let k = agent.counters();
            c.agent_rx_msgs += k.rx_messages;
            c.command_errors += k.command_errors;
            c.transport_errors += k.transport_errors;
            c.policy_errors += k.policy_errors;
        }
        for &ue in &self.ues {
            if let Some(s) = self.sim.ue_stats(ue) {
                c.harq_tx += s.harq_tx;
                c.harq_retx += s.harq_retx;
            }
        }
        c
    }

    fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for &ue in &self.ues {
            h.ue(self.sim.ue_stats(ue).as_ref());
        }
        self.counts().hash_into(&mut h);
        h.0
    }

    fn master(&self) -> &MasterController {
        self.sim.master()
    }

    fn rib_tracks_ues(&self) -> bool {
        self.rib_tracks_ues
    }

    fn probe_enb(&self) -> &Enb {
        self.sim.agent(self.enbs[0]).expect("first eNodeB").enb()
    }

    fn layer_metrics(&mut self, traced_ttis: u64, m: &mut Metrics) {
        let n = traced_ttis.max(1) as f64;
        let per_tti_us = |name: u16, self_time: bool| {
            spans::with(|r| {
                let t = r.total(name);
                (if self_time { t.self_ns } else { t.total_ns }) as f64 / n / 1e3
            })
            .unwrap_or(0.0)
        };
        m.set("core.front_us", per_tti_us(spans::CORE_FRONT, false));
        m.set("core.phase_a_us", per_tti_us(spans::CORE_PHASE_A, false));
        m.set("core.coupling_us", per_tti_us(spans::CORE_COUPLING, false));
        m.set("core.phase_b_us", per_tti_us(spans::CORE_PHASE_B, false));
        m.set("core.merge_us", per_tti_us(spans::CORE_MERGE, false));
        m.set("core.unattributed_us", per_tti_us(spans::CORE_STEP, true));
        m.set(
            "controller.rib_slot_us",
            per_tti_us(spans::CTRL_RIB_SLOT, false),
        );
        m.set(
            "controller.apps_slot_us",
            per_tti_us(spans::CTRL_APPS_SLOT, false),
        );
        m.set("controller.cycle_us_p50", self.cycle.p50_ns() / 1e3);
        m.set("controller.cycle_us_p99", self.cycle.p99w_ns() / 1e3);
        self.step_ns.sort_unstable();
        m.set(
            "core.step_us_p999",
            percentile_sorted(&self.step_ns, 0.999) as f64 / 1e3,
        );
        m.set(
            "core.over_budget_ttis",
            self.sim.budget_stats().over_budget as f64,
        );
        m.set("core.allocs_per_tti", self.traced_allocs as f64 / n);
    }
}
