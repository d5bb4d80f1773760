//! One benchmark run: set up the workload, measure it for the asked
//! time, check its outputs, and name every number.
//!
//! The measured window opens after the warm-up. Its first `exact_ttis`
//! TTIs are the *exact window*: the digest, the simulated goodput and
//! every exact count are taken there, so they depend on workload and seed
//! alone. The run then keeps stepping until the asked seconds are over;
//! timing metrics cover all of it.

use std::time::Instant;

use crate::harness_wl;
use crate::metrics::Metrics;
use crate::probes;
use crate::scenario::{Counts, Scenario, UeService};
use crate::spans;
use crate::stats::{median, WindowEstimator, WINDOW};
use crate::tcp_loop;
use flexran::controller::MasterController;
use flexran::proto::{ByteCounters, MessageCategory};
use flexran::types::time::Tti;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DenseLocal,
    CentralCtrl,
    TcpLoop,
    FleetEvents,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DenseLocal,
        Workload::CentralCtrl,
        Workload::TcpLoop,
        Workload::FleetEvents,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DenseLocal => "dense_local",
            Workload::CentralCtrl => "central_ctrl",
            Workload::TcpLoop => "tcp_loop",
            Workload::FleetEvents => "fleet_events",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// TTIs of the exact window: about a third of a 20 s run on the
    /// 2-core reference box, so slower hosts still finish it in time.
    fn exact_ttis(self) -> u64 {
        match self {
            Workload::DenseLocal => 40_000,
            Workload::CentralCtrl => 8_000,
            Workload::TcpLoop => 40_000,
            Workload::FleetEvents => 60_000,
        }
    }

    /// Floor on `sim_goodput_mbps`: well under what any seed delivers,
    /// well over what a broken data or control path would.
    fn goodput_floor_mbps(self) -> f64 {
        match self {
            Workload::DenseLocal => 40.0,
            Workload::CentralCtrl => 60.0,
            Workload::TcpLoop => 15.0,
            Workload::FleetEvents => 30.0,
        }
    }

    /// UEs move between cells, so a UE may be between cells at a
    /// checkpoint and its delivered-bits counter restarts at handover.
    fn mobile(self) -> bool {
        self == Workload::FleetEvents
    }

    pub fn build(self, seed: u64) -> Box<dyn Scenario> {
        match self {
            Workload::DenseLocal => Box::new(harness_wl::dense_local(seed)),
            Workload::CentralCtrl => Box::new(harness_wl::central_ctrl(seed)),
            Workload::TcpLoop => Box::new(tcp_loop::tcp_loop(seed)),
            // Serial: with `workers = Some(2)` a TTI costs four times as
            // much on the 2-core box and two runs of one commit disagree
            // by 15 %. The traced run reports that engine as `core.par_*`.
            Workload::FleetEvents => Box::new(harness_wl::fleet_events(seed, None)),
        }
    }
}

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Measure exactly [`SMOKE_TTIS`] TTIs after one set-up.
    pub smoke: bool,
    pub out_dir: String,
}

pub const SMOKE_TTIS: u64 = 2_000;
/// Service checks and goodput deltas are taken every this many TTIs.
const CHECKPOINT_EVERY: u64 = 1_000;
/// A UE found between cells at a checkpoint passes its check if it is
/// connected again within this many TTIs.
const RECONNECT_WITHIN: u64 = 100;
/// A traced run alternates traced and untraced blocks of this many TTIs.
const TRACE_BLOCK: u64 = 500;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub digest: u64,
    /// Exact counts of the exact window, by name.
    pub exact: Vec<(&'static str, u64)>,
    pub ttis: u64,
    pub n_enbs: usize,
    pub windows: usize,
    pub problems: Vec<String>,
}

/// `VmHWM` now. Read at the end of the exact window, after the same
/// number of TTIs in every run: the master and the agents keep growing
/// by some 70 B per TTI and agent, so the mark at exit would say how many
/// TTIs fitted into the run, not what the program needs.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Checkpoint bookkeeping: per-UE delivered bits, service checks, and
/// UEs waiting to reconnect.
struct Service {
    mobile: bool,
    last_bits: Vec<u64>,
    now: Vec<UeService>,
    /// `(ue index, TTI by which it must be connected again)`.
    reconnecting: Vec<(usize, u64)>,
    checks: u64,
    failed: u64,
    window_bits: u64,
}

impl Service {
    fn new(s: &dyn Scenario, mobile: bool) -> Self {
        let mut now = Vec::new();
        s.service(&mut now);
        Service {
            mobile,
            last_bits: now.iter().map(|u| u.dl_bits).collect(),
            now,
            reconnecting: Vec::new(),
            checks: 0,
            failed: 0,
            window_bits: 0,
        }
    }

    fn checkpoint(&mut self, s: &dyn Scenario, tti: u64) {
        s.service(&mut self.now);
        for (i, u) in self.now.iter().enumerate() {
            self.checks += 1;
            // A counter that went down restarted at a handover.
            let delta = if u.dl_bits >= self.last_bits[i] {
                u.dl_bits - self.last_bits[i]
            } else {
                u.dl_bits
            };
            self.last_bits[i] = u.dl_bits;
            self.window_bits += delta;
            if !u.connected {
                if self.mobile {
                    self.reconnecting.push((i, tti + RECONNECT_WITHIN));
                } else {
                    self.failed += 1;
                }
            } else if !self.mobile && delta == 0 {
                self.failed += 1;
            }
        }
    }

    fn recheck(&mut self, s: &dyn Scenario, tti: u64) {
        s.service(&mut self.now);
        let (now, failed) = (&self.now, &mut self.failed);
        self.reconnecting.retain(|&(i, deadline)| {
            if now[i].connected {
                return false;
            }
            if tti >= deadline {
                *failed += 1;
                return false;
            }
            true
        });
    }
}

/// What the end of the exact window fixes.
struct Exact {
    counts: Counts,
    digest: u64,
    /// Downlink bits delivered over the window, all UEs.
    bits: u64,
    rib_ues: usize,
    rss_mb: f64,
}

fn messages(c: &ByteCounters) -> u64 {
    MessageCategory::ALL.iter().map(|&k| c.messages(k)).sum()
}

/// The exact counts of the per-layer table, over `n` TTIs.
fn count_metrics(x: &Exact, master: &MasterController, n: f64, m: &mut Metrics) {
    let c = &x.counts;
    m.set("proto.ctrl_bytes_per_tti", c.ctrl_bytes() as f64 / n);
    m.set("proto.up_msgs_per_tti", messages(&c.up) as f64 / n);
    m.set("proto.down_msgs_per_tti", messages(&c.down) as f64 / n);
    m.set(
        "proto.stats_bytes_per_tti",
        c.up.bytes(MessageCategory::StatsReporting) as f64 / n,
    );
    m.set(
        "proto.cmd_bytes_per_tti",
        c.down.bytes(MessageCategory::Commands) as f64 / n,
    );
    m.set(
        "proto.event_bytes_per_tti",
        c.up.bytes(MessageCategory::Events) as f64 / n,
    );
    m.set("agent.rx_msgs", c.agent_rx_msgs as f64);
    m.set("agent.command_errors", c.command_errors as f64);
    m.set("agent.transport_errors", c.transport_errors as f64);
    m.set("controller.rib_ues", x.rib_ues as f64);
    m.set(
        "controller.journal_bytes",
        master.journal_bytes().map(|b| b.len()).unwrap_or(0) as f64,
    );
    m.set(
        "controller.journal_compactions",
        master.journal_compactions().unwrap_or(0) as f64,
    );
    m.set(
        "controller.xshard_handovers",
        master.cross_shard_handovers() as f64,
    );
    m.set("controller.conflicts", master.conflicts() as f64);
    m.set(
        "stack.harq_retx_ratio",
        c.harq_retx as f64 / c.harq_tx.max(1) as f64,
    );
    m.set("stack.handovers", c.handovers as f64);
}

/// `fleet_events` once more with the engine's `workers = Some(2)`: its
/// median TTI, and that over the serial run's.
fn parallel_engine_probe(seed: u64, serial_p50_ns: f64, m: &mut Metrics) {
    let mut par = harness_wl::fleet_events(seed, Some(2));
    let mut est = WindowEstimator::new(WINDOW);
    for _ in 0..2 * WINDOW {
        let t = Instant::now();
        par.step();
        est.push(t.elapsed().as_nanos() as u64);
        par.after_step();
    }
    m.set("core.par_tti_us_p50", est.p50_ns() / 1e3);
    m.set("core.par_slowdown", est.p50_ns() / serial_p50_ns.max(1.0));
}

pub fn run(opts: &Options) -> Outcome {
    let w = opts.workload;
    let mut problems = Vec::new();
    let mut m = Metrics::default();

    // ---- set-up: scenario from the seed, subscriptions, warm-up ----
    let setups = if opts.smoke { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut scenario = None;
    for _ in 0..setups {
        drop(scenario.take()); // one scenario alive at a time
        let t = Instant::now();
        scenario = Some(w.build(opts.seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut s = scenario.expect("at least one set-up");
    m.set("setup_s", median(&setup_s));

    if opts.trace {
        spans::enable();
    }
    let exact_ttis = if opts.smoke {
        SMOKE_TTIS
    } else {
        w.exact_ttis()
    };
    let seconds = if opts.smoke { 0.0 } else { opts.seconds };

    // ---- measured window ----
    let counts0 = s.counts();
    let mut service = Service::new(s.as_ref(), w.mobile());
    let mut all = WindowEstimator::new(WINDOW);
    let mut traced_est = WindowEstimator::new(WINDOW);
    let mut untraced_est = WindowEstimator::new(WINDOW);
    let mut ttis = 0u64;
    let mut exact: Option<Exact> = None;
    let started = Instant::now();
    loop {
        let traced = opts.trace && (ttis / TRACE_BLOCK).is_multiple_of(2);
        if opts.trace && ttis.is_multiple_of(TRACE_BLOCK) {
            spans::set_active(traced);
        }
        let t = Instant::now();
        s.step();
        let ns = t.elapsed().as_nanos() as u64;
        s.after_step();
        ttis += 1;
        all.push(ns);
        if opts.trace {
            if traced {
                traced_est.push(ns);
            } else {
                untraced_est.push(ns);
            }
        }
        if !service.reconnecting.is_empty() {
            service.recheck(s.as_ref(), ttis);
        }
        if ttis.is_multiple_of(CHECKPOINT_EVERY) {
            service.checkpoint(s.as_ref(), ttis);
            if ttis == exact_ttis {
                let connected = service.now.iter().filter(|u| u.connected).count();
                let rib_ues = s.master().view().n_ues();
                if s.rib_tracks_ues() {
                    // A UE between cells may be in the RIB under its old
                    // or new cell, or neither: allow that many.
                    let slack = s.n_ues() - connected;
                    if rib_ues.abs_diff(connected) > slack {
                        problems.push(format!(
                            "RIB holds {rib_ues} UEs, {connected} are connected"
                        ));
                    }
                }
                exact = Some(Exact {
                    counts: s.counts().since(&counts0),
                    digest: s.digest(),
                    bits: service.window_bits,
                    rib_ues,
                    rss_mb: peak_rss_mb(),
                });
            }
            if ttis >= exact_ttis && started.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
    }
    spans::set_active(false);
    let x = exact.expect("the loop runs past the exact window");
    let total = s.counts().since(&counts0);

    // ---- end-to-end metrics ----
    m.set("ttis_per_s", 1e9 / all.mean_w_ns());
    m.set("tti_us_p50", all.p50_ns() / 1e3);
    m.set("tti_us_p99w", all.p99w_ns() / 1e3);
    let goodput = x.bits as f64 / exact_ttis as f64 / 1e3;
    m.set("sim_goodput_mbps", goodput);

    // ---- output checks ----
    if total.transport_errors != 0 || total.policy_errors != 0 {
        problems.push(format!(
            "{} transport errors, {} policy errors",
            total.transport_errors, total.policy_errors
        ));
    }
    if service.failed * 50 > service.checks {
        problems.push(format!(
            "{} of {} UE service checks failed",
            service.failed, service.checks
        ));
    }
    if goodput < w.goodput_floor_mbps() {
        problems.push(format!(
            "sim_goodput_mbps {goodput:.2} under the floor {}",
            w.goodput_floor_mbps()
        ));
    }
    if w.mobile() && !opts.smoke && x.counts.handovers == 0 {
        problems.push("no handover executed".into());
    }

    // ---- per-layer metrics (traced run) ----
    if opts.trace {
        let traced_ttis = traced_est.count();
        s.layer_metrics(traced_ttis, &mut m);
        count_metrics(&x, s.master(), exact_ttis as f64, &mut m);
        if untraced_est.count() > 0 {
            m.set(
                "trace.overhead_pct",
                (traced_est.mean_w_ns() / untraced_est.mean_w_ns() - 1.0) * 100.0,
            );
        }
        probes::run(s.probe_enb(), Tti(ttis), opts.seed, &mut m);
        if w == Workload::FleetEvents {
            parallel_engine_probe(opts.seed, untraced_est.p50_ns(), &mut m);
        }
        // Agent TTI (phases A and B, per eNodeB) minus the agent-less TTI.
        let agent_ns = spans::with(|r| {
            [
                spans::CORE_PHASE_A,
                spans::CORE_PHASE_B,
                spans::AGENT_PHASE_A,
                spans::AGENT_PHASE_B,
            ]
            .iter()
            .map(|&n| r.total(n).total_ns)
            .sum::<u64>()
        })
        .unwrap_or(0);
        let agent_us = agent_ns as f64 / traced_ttis.max(1) as f64 / s.n_enbs() as f64 / 1e3;
        m.set(
            "agent.overhead_us",
            agent_us - m.get("stack.vanilla_tti_us"),
        );
        let path = format!("{}/trace_{}.json", opts.out_dir, w.name());
        let written = std::fs::create_dir_all(&opts.out_dir).and_then(|_| {
            spans::with(|r| std::fs::write(&path, r.to_json(w.name()))).unwrap_or(Ok(()))
        });
        if let Err(e) = written {
            problems.push(format!("cannot write {path}: {e}"));
        }
    }
    m.set("peak_rss_mb", x.rss_mb);

    let attempted = total.commands() + service.checks;
    let failed = total.command_errors + total.transport_errors + service.failed;
    Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics: m,
        digest: x.digest,
        exact: vec![
            ("ctrl_bytes", x.counts.ctrl_bytes()),
            ("up_msgs", messages(&x.counts.up)),
            ("down_msgs", messages(&x.counts.down)),
            ("commands", x.counts.commands()),
            ("agent_rx_msgs", x.counts.agent_rx_msgs),
            ("harq_tx", x.counts.harq_tx),
            ("harq_retx", x.counts.harq_retx),
            ("handovers", x.counts.handovers),
            ("goodput_bits", x.bits),
            ("rib_ues", x.rib_ues as u64),
            ("exact_ttis", exact_ttis),
        ],
        ttis,
        n_enbs: s.n_enbs(),
        windows: all.windows(),
        problems,
    }
}
