//! `tcp_loop`: two agents and one master over real loopback TCP, driven
//! in lockstep from one thread. No harness: the benchmark owns the PHY
//! view and the traffic, and times every call into agent, master and
//! transport itself.
//!
//! Pacing waits are left out on purpose: the 1 ms-paced deployment with
//! one thread per endpoint needs code in the repository.

use std::collections::BTreeMap;
use std::net::TcpListener;

use flexran::agent::{AgentConfig, FlexranAgent, VsfRegistry};
use flexran::apps::CentralizedScheduler;
use flexran::controller::{MasterController, TaskManagerConfig};
use flexran::proto::{ReportConfig, ReportFlags, ReportType, TcpTransport, Transport};
use flexran::stack::enb::{Enb, EnbParams, PhyView};
use flexran::stack::mac::scheduler::RoundRobinScheduler;
use flexran::types::config::EnbConfig;
use flexran::types::ids::{CellId, EnbId, Rnti, SliceId, UeId};
use flexran::types::time::Tti;
use flexran::types::units::Bytes;

use crate::harness_wl::SCHEDULE_AHEAD;
use crate::metrics::Metrics;
use crate::scenario::{Counts, Fnv, Scenario, SplitMix, UeService};
use crate::spans;
use crate::stats::{WindowEstimator, WINDOW};
use crate::timed::{timed_pair, TimedTransport};

const N_AGENTS: usize = 2;
const UES_PER_AGENT: usize = 16;
/// Warm-up of this workload: attach over TCP plus the queue ramp.
pub const TCP_WARMUP_TTIS: u64 = 3_000;
/// DL queues are topped up to this depth every [`TOP_UP_EVERY`] TTIs.
const QUEUE_TARGET: u64 = 100_000;
const TOP_UP_EVERY: u64 = 8;

/// Benchmark-owned PHY: one fixed SINR per UE.
struct FixedSinrView(BTreeMap<Rnti, f64>);

impl PhyView for FixedSinrView {
    fn sinr_db(&mut self, _cell: CellId, rnti: Rnti, _tti: Tti) -> f64 {
        self.0.get(&rnti).copied().unwrap_or(5.0)
    }
}

struct AgentSide {
    agent: FlexranAgent<TimedTransport<TcpTransport>>,
    phy: FixedSinrView,
    rntis: Vec<Rnti>,
}

pub struct TcpLoop {
    master: MasterController,
    agents: Vec<AgentSide>,
    now: Tti,
    /// Control-loop latency, report leaves agent → command back at agent.
    ctrl_loop: WindowEstimator,
    /// Master cycle wall time, traced windows only.
    cycle: WindowEstimator,
    scratch_ns: Vec<u64>,
}

/// Seed-drawn SINRs in 5–25 dB, one per stratum of the range so that
/// every seed gives the same mix of good and bad channels.
fn draw_sinrs(rng: &mut SplitMix, n: usize) -> Vec<f64> {
    let mut strata: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        strata.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    strata
        .into_iter()
        .map(|s| 5.0 + 20.0 * (s as f64 + rng.next_f64()) / n as f64)
        .collect()
}

pub fn tcp_loop(seed: u64) -> TcpLoop {
    let mut rng = SplitMix(seed);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address").to_string();
    let mut master = MasterController::new(TaskManagerConfig::default());
    master.register_app(Box::new(CentralizedScheduler::new(
        SCHEDULE_AHEAD,
        Box::new(RoundRobinScheduler::new()),
    )));
    let mut agents = Vec::new();
    let mut next_ue = 1u32;
    for a in 0..N_AGENTS {
        let agent_end = TcpTransport::connect(&addr).expect("connect over loopback");
        let (stream, _) = listener.accept().expect("accept the agent");
        let master_end = TcpTransport::from_stream(stream).expect("configure the socket");
        let (agent_end, master_end) = timed_pair(agent_end, master_end, SCHEDULE_AHEAD);
        master.add_agent(Box::new(master_end));
        let enb = Enb::new(
            EnbConfig::single_cell(EnbId(a as u32 + 1)),
            EnbParams::default(),
        )
        .expect("paper-default cell");
        let mut agent = FlexranAgent::new(
            enb,
            agent_end,
            VsfRegistry::with_builtins(),
            AgentConfig {
                initial_dl_scheduler: Some("remote-stub".into()),
                sync_period: 1,
                ..AgentConfig::default()
            },
        );
        let mut phy = FixedSinrView(BTreeMap::new());
        let mut rntis = Vec::new();
        for sinr in draw_sinrs(&mut rng, UES_PER_AGENT) {
            let rnti = agent
                .enb_mut()
                .rach(CellId(0), UeId(next_ue), SliceId::MNO, 0, Tti::ZERO)
                .expect("cell 0 exists");
            next_ue += 1;
            phy.0.insert(rnti, sinr);
            rntis.push(rnti);
        }
        agents.push(AgentSide { agent, phy, rntis });
    }
    let mut s = TcpLoop {
        master,
        agents,
        now: Tti::ZERO,
        ctrl_loop: WindowEstimator::new(WINDOW),
        cycle: WindowEstimator::new(WINDOW),
        scratch_ns: Vec::with_capacity(16),
    };
    for _ in 0..5 {
        s.step();
    }
    for a in 0..N_AGENTS {
        s.master
            .request_stats(
                EnbId(a as u32 + 1),
                ReportConfig {
                    report_type: ReportType::Periodic { period: 1 },
                    flags: ReportFlags::ALL,
                },
            )
            .expect("the agent introduced itself before the subscription");
    }
    for _ in 5..TCP_WARMUP_TTIS {
        s.step();
        s.after_step();
    }
    s.master.reset_budget();
    // Warm-up latencies are not part of the window.
    s.ctrl_loop = WindowEstimator::new(WINDOW);
    s
}

impl Scenario for TcpLoop {
    fn n_enbs(&self) -> usize {
        N_AGENTS
    }

    fn n_ues(&self) -> usize {
        N_AGENTS * UES_PER_AGENT
    }

    fn step(&mut self) {
        self.now = self.now.next();
        let now = self.now;
        let tti = now.0;
        spans::span(spans::TCP_ITERATION, tti, || {
            for a in &mut self.agents {
                spans::span(spans::AGENT_PHASE_A, tti, || {
                    a.agent.phase_a(now, &mut a.phy)
                });
                spans::span(spans::AGENT_PHASE_B, tti, || {
                    a.agent.phase_b(now, &mut a.phy)
                });
            }
            let master = &mut self.master;
            let cycle_start = spans::active().then(std::time::Instant::now);
            spans::span(spans::CTRL_BEGIN, tti, || master.begin_cycle(now));
            spans::span(spans::CTRL_RIB_SLOT, tti, || {
                for shard in master.shards_mut() {
                    shard.run_rib_slot(now);
                }
            });
            spans::span(spans::CTRL_FINISH, tti, || master.finish_cycle(now));
            if let Some(t) = cycle_start {
                self.cycle.push(t.elapsed().as_nanos() as u64);
            }
        });
    }

    fn after_step(&mut self) {
        let now = self.now;
        for a in &mut self.agents {
            a.agent.transport_mut().drain_loop_ns(&mut self.scratch_ns);
            if now.0.is_multiple_of(TOP_UP_EVERY) {
                for &rnti in &a.rntis {
                    let Ok(s) = a.agent.enb().ue_stat(CellId(0), rnti) else {
                        continue;
                    };
                    let queued = s.dl_queue_bytes.as_u64();
                    if s.connected && queued < QUEUE_TARGET {
                        let _ = a.agent.enb_mut().inject_dl_traffic(
                            CellId(0),
                            rnti,
                            Bytes(QUEUE_TARGET - queued),
                            now,
                        );
                    }
                }
            }
        }
        for ns in self.scratch_ns.drain(..) {
            self.ctrl_loop.push(ns);
        }
    }

    fn service(&self, out: &mut Vec<UeService>) {
        out.clear();
        for a in &self.agents {
            for &rnti in &a.rntis {
                out.push(match a.agent.enb().ue_stat(CellId(0), rnti) {
                    Ok(s) => UeService {
                        connected: s.connected,
                        dl_bits: s.dl_delivered_bits,
                    },
                    Err(_) => UeService {
                        connected: false,
                        dl_bits: 0,
                    },
                });
            }
        }
    }

    fn counts(&self) -> Counts {
        let mut c = Counts::default();
        for a in &self.agents {
            c.up.merge(&a.agent.transport().tx_counters());
            c.down.merge(&a.agent.transport().rx_counters());
            let k = a.agent.counters();
            c.agent_rx_msgs += k.rx_messages;
            c.command_errors += k.command_errors;
            c.transport_errors += k.transport_errors;
            c.policy_errors += k.policy_errors;
            for &rnti in &a.rntis {
                if let Ok(s) = a.agent.enb().ue_stat(CellId(0), rnti) {
                    c.harq_tx += s.harq_tx;
                    c.harq_retx += s.harq_retx;
                }
            }
        }
        c
    }

    fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for a in &self.agents {
            for &rnti in &a.rntis {
                h.ue(a.agent.enb().ue_stat(CellId(0), rnti).ok().as_ref());
            }
        }
        self.counts().hash_into(&mut h);
        h.0
    }

    fn master(&self) -> &MasterController {
        &self.master
    }

    fn rib_tracks_ues(&self) -> bool {
        true
    }

    fn probe_enb(&self) -> &Enb {
        self.agents[0].agent.enb()
    }

    fn layer_metrics(&mut self, traced_ttis: u64, m: &mut Metrics) {
        let n = traced_ttis.max(1) as f64;
        let self_us =
            |name: u16| spans::with(|r| r.total(name).self_ns as f64 / n / 1e3).unwrap_or(0.0);
        m.set("agent.phase_a_us", self_us(spans::AGENT_PHASE_A));
        m.set("agent.phase_b_us", self_us(spans::AGENT_PHASE_B));
        m.set("controller.begin_us", self_us(spans::CTRL_BEGIN));
        m.set("controller.rib_slot_us", self_us(spans::CTRL_RIB_SLOT));
        m.set("controller.finish_us", self_us(spans::CTRL_FINISH));
        m.set("proto.tcp_send_us", self_us(spans::TCP_SEND));
        m.set("proto.tcp_recv_us", self_us(spans::TCP_RECV));
        m.set("core.unattributed_us", self_us(spans::TCP_ITERATION));
        let c = crate::timed::calls();
        m.set("proto.tcp_sends_per_tti", c.sends as f64 / n);
        m.set("proto.tcp_recv_calls_per_tti", c.recv_calls as f64 / n);
        m.set("proto.tcp_empty_polls_per_tti", c.empty_polls as f64 / n);
        m.set("proto.tcp_deferred_cmds", c.deferred as f64);
        m.set("ctrl_loop_us_p50", self.ctrl_loop.p50_ns() / 1e3);
        m.set("ctrl_loop_us_p99w", self.ctrl_loop.p99w_ns() / 1e3);
        m.set("controller.cycle_us_p50", self.cycle.p50_ns() / 1e3);
        m.set("controller.cycle_us_p99", self.cycle.p99w_ns() / 1e3);
    }
}
