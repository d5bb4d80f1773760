//! The experiment registry: every table and figure of the paper, by id.

pub mod ablations;
pub mod allocgate;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod outage;
pub mod rollout;
pub mod sec54;
pub mod table2;

use flexran::agent::AgentConfig;
use flexran::harness::{SimConfig, SimHarness};
use flexran::prelude::*;
use flexran::proto::{ReportConfig, ReportFlags, ReportType};
use flexran::sim::link::LinkConfig;

use crate::{ExpContext, ExpResult};

/// Every experiment id, in paper order.
pub const ALL: &[&str] = &[
    "fig6a",
    "fig6b",
    "fig7a",
    "fig7b",
    "fig8",
    "fig9",
    "sec54",
    "fig10a",
    "fig10b",
    "table2",
    "fig11a",
    "fig11b",
    "fig12a",
    "fig12b",
    "ablation-reporting",
    "ablation-dci-budget",
    "ablation-bler-target",
    "outage",
    "rollout",
    "allocgate",
];

/// Run one experiment id (some ids share a runner and return together).
pub fn run(id: &str, ctx: &ExpContext) -> Vec<ExpResult> {
    match id {
        "fig6a" => vec![fig6::fig6a(ctx)],
        "fig6b" => vec![fig6::fig6b(ctx)],
        "fig7a" | "fig7b" => fig7::fig7(ctx),
        "fig8" => vec![fig8::fig8(ctx)],
        "fig9" => vec![fig9::fig9(ctx)],
        "sec54" => vec![sec54::sec54(ctx)],
        "fig10a" | "fig10b" => fig10::fig10(ctx),
        "table2" => vec![table2::table2(ctx)],
        "fig11a" => vec![fig11::fig11(ctx, true)],
        "fig11b" => vec![fig11::fig11(ctx, false)],
        "fig12a" => vec![fig12::fig12a(ctx)],
        "fig12b" => vec![fig12::fig12b(ctx)],
        "ablation-reporting" => vec![ablations::ablation_reporting(ctx)],
        "ablation-dci-budget" => vec![ablations::ablation_dci_budget(ctx)],
        "ablation-bler-target" => vec![ablations::ablation_bler_target(ctx)],
        "outage" => vec![outage::outage(ctx)],
        "rollout" => vec![rollout::rollout(ctx)],
        "allocgate" => vec![allocgate::allocgate(ctx)],
        other => panic!("unknown experiment id '{other}' (available: {ALL:?})"),
    }
}

// ----------------------------------------------------------------------
// Shared builders
// ----------------------------------------------------------------------

/// Agent configuration for centralized-scheduling experiments: no local
/// data scheduler, per-TTI subframe sync.
pub fn remote_agent_config() -> AgentConfig {
    AgentConfig {
        initial_dl_scheduler: Some("remote-stub".into()),
        sync_period: 1,
        ..AgentConfig::default()
    }
}

/// A harness whose control links have the given symmetric one-way delay.
pub fn sim_with_rtt(rtt_ms: u64) -> SimHarness {
    let cfg = SimConfig {
        uplink: LinkConfig::with_one_way_ms(rtt_ms / 2),
        downlink: LinkConfig::with_one_way_ms(rtt_ms - rtt_ms / 2),
        ..SimConfig::default()
    };
    SimHarness::new(cfg)
}

/// Subscribe the master to full statistics from `enb`.
pub fn subscribe_stats(sim: &mut SimHarness, enb: EnbId, period: u32) {
    let _ = sim.master_mut().request_stats(
        enb,
        ReportConfig {
            report_type: ReportType::Periodic { period },
            flags: ReportFlags::ALL,
        },
    );
}

/// Mb/s from a cumulative bit counter over a TTI window.
pub fn mbps(bits: u64, ttis: u64) -> f64 {
    bits as f64 / ttis.max(1) as f64 / 1000.0
}
