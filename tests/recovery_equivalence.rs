//! Recovery equivalence: a journaled master, crashed at any TTI, recovers
//! exactly the RIB forest it held live (DESIGN.md §9 "Journal format").
//!
//! `master_fuzz` covers the journal under hostile frames on a fake
//! transport; this covers it under the traffic a real deployment
//! produces, over sim links: per-TTI or sparser full reports, subframe
//! sync, scheduling-request events from uplink CBR flows, a UE attaching
//! mid-run, remote or local scheduling, one or two RIB shards, and
//! compaction every cycle, every few cycles or (almost) never. At a drawn
//! TTI and again at the horizon, `MasterController::recover` on the live
//! master's journal must rebuild the live forest field by field.
//!
//! The default run draws a few dozen cases; the `#[ignore]`d variant is
//! the deep run `scripts/check.sh` and CI execute in release.

use proptest::prelude::*;

use flexran::apps::CentralizedScheduler;
use flexran::harness::{SimConfig, SimHarness, UeRadioSpec};
use flexran::prelude::*;
use flexran::proto::{ReportConfig, ReportFlags, ReportType};
use flexran::sim::link::LinkConfig;
use flexran::sim::traffic::{CbrSource, FullBufferSource};
use flexran::stack::mac::scheduler::RoundRobinScheduler;

const N_ENBS: u32 = 3;
const UES_PER_ENB: u64 = 3;
/// TTIs before the report subscriptions go out: the hellos cross the
/// 1 ms links first.
const SETTLE_TTIS: u64 = 5;

#[derive(Debug, Clone, Copy)]
struct Case {
    seed: u64,
    horizon: u64,
    recover_at: u64,
    attach_at: u64,
    shards: ShardSpec,
    snapshot_every: u64,
    report_period: u32,
    remote: bool,
}

fn add_ue(sim: &mut SimHarness, enb: EnbId, seed: u64, n: u64) {
    let ue = sim.add_ue(
        enb,
        CellId(0),
        SliceId::MNO,
        0,
        UeRadioSpec::Fading(15.0, 4.0, 0.95, seed ^ (n + 1)),
    );
    sim.set_dl_traffic(ue, Box::new(FullBufferSource::default()));
    if n.is_multiple_of(2) {
        // Uplink data makes the UE raise scheduling requests: SR events.
        sim.set_ul_traffic(ue, Box::new(CbrSource::new(BitRate::from_kbps(256))));
    }
}

/// The live forest and the one recovered from the live journal agree on
/// every journaled field. `stale_since` is excluded: recovery marks every
/// agent stale at the recovery TTI by design.
fn assert_recovers(sim: &SimHarness, config: TaskManagerConfig, case: &Case) {
    let journal = sim.master().journal_bytes().expect("journaling is on");
    let recovered = MasterController::recover(config, &journal, sim.now())
        .unwrap_or_else(|e| panic!("recovery failed at {} for {case:?}: {e}", sim.now()));
    let live = sim.master().merged_rib();
    let rec = recovered.merged_rib();
    assert_eq!(rec.n_agents(), live.n_agents(), "{case:?}");
    for (live, rec) in live.agents().zip(rec.agents()) {
        assert_eq!(live.enb_id, rec.enb_id, "{case:?}");
        assert_eq!(live.capabilities, rec.capabilities, "{case:?}");
        assert_eq!(live.n_cells, rec.n_cells, "{case:?}");
        assert_eq!(live.connected_at, rec.connected_at, "{case:?}");
        assert_eq!(live.last_sync, rec.last_sync, "{case:?}");
        assert_eq!(live.cells(), rec.cells(), "at {} for {case:?}", sim.now());
    }
}

fn run_case(case: Case) {
    let links = LinkConfig::with_one_way_ms(1);
    let config = TaskManagerConfig {
        journal_snapshot_every: case.snapshot_every,
        shards: case.shards,
        ..TaskManagerConfig::default()
    };
    let mut sim = SimHarness::new(SimConfig {
        seed: case.seed,
        uplink: links,
        downlink: links,
        master: config,
        ..SimConfig::default()
    });
    if case.remote {
        sim.master_mut()
            .register_app(Box::new(CentralizedScheduler::new(
                4,
                Box::new(RoundRobinScheduler::new()),
            )));
    }
    let mut n_ues = 0;
    for e in 1..=N_ENBS {
        let enb = sim.add_enb(
            EnbConfig::single_cell(EnbId(e)),
            AgentConfig {
                initial_dl_scheduler: Some(
                    if case.remote {
                        "remote-stub"
                    } else {
                        "round-robin"
                    }
                    .into(),
                ),
                sync_period: 1,
                ..AgentConfig::default()
            },
        );
        for _ in 0..UES_PER_ENB {
            add_ue(&mut sim, enb, case.seed, n_ues);
            n_ues += 1;
        }
    }
    sim.run(SETTLE_TTIS);
    for e in 1..=N_ENBS {
        sim.master_mut()
            .request_stats(
                EnbId(e),
                ReportConfig {
                    report_type: ReportType::Periodic {
                        period: case.report_period,
                    },
                    flags: ReportFlags::ALL,
                },
            )
            .expect("the agent introduced itself");
    }
    for t in SETTLE_TTIS..case.horizon {
        if t == case.attach_at {
            add_ue(&mut sim, EnbId(2), case.seed, n_ues);
            n_ues += 1;
        }
        sim.step();
        if t == case.recover_at {
            assert_recovers(&sim, config, &case);
        }
    }
    assert_recovers(&sim, config, &case);
}

fn case() -> impl Strategy<Value = Case> {
    (
        (any::<u64>(), 50u64..401, any::<u64>(), any::<u64>()),
        (any::<bool>(), 0usize..3, any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |((seed, horizon, recover, attach), (two_shards, snap, sparse, remote))| {
                let span = horizon - SETTLE_TTIS;
                Case {
                    seed,
                    horizon,
                    recover_at: SETTLE_TTIS + recover % span,
                    attach_at: SETTLE_TTIS + attach % span,
                    shards: if two_shards {
                        ShardSpec::Fixed(2)
                    } else {
                        ShardSpec::Auto
                    },
                    snapshot_every: [1, 5, 1000][snap],
                    report_period: if sparse { 3 } else { 1 },
                    remote,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn recovered_forest_equals_live_forest(c in case()) {
        run_case(c);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Deep run: `cargo test --release --test recovery_equivalence -- --ignored`.
    #[test]
    #[ignore]
    fn recovered_forest_equals_live_forest_deep(c in case()) {
        run_case(c);
    }
}
