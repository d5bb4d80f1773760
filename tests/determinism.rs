//! Determinism contract of the TTI engine and the sharded control plane
//! (DESIGN.md §"Simulation engine", §"Sharded control plane"): the
//! scenario's observables — the per-TTI event stream, the end-state UE
//! statistics, and the master's (merged) RIB — are pinned for one
//! shard, and every shard spec must reproduce them bit for bit, over a
//! long run that exercises mobility handovers crossing shard
//! boundaries and control-link fault injection.

use std::collections::BTreeMap;

use flexran::agent::AgentConfig;
use flexran::apps::MobilityManagerApp;
use flexran::harness::{SimConfig, SimHarness, UeRadioSpec};
use flexran::phy::geometry::{Environment, PathLossModel, Position, TxSite};
use flexran::phy::mobility::LinearMotion;
use flexran::prelude::*;
use flexran::sim::link::{FaultConfig, FaultHandle, LinkConfig};
use flexran::sim::radio::RadioEnvironment;
use flexran::sim::traffic::{CbrSource, FullBufferSource};
use flexran::stack::enb::EnbParams;
use flexran::types::hash::Fnv1a;
use flexran::types::units::Dbm;

const TTIS: u64 = 3_500;
const N_ENBS: usize = 3;
const UES_PER_ENB: usize = 6;

/// The scenario: three macro sites in a row, mobile UEs driving across
/// the cell borders (measurement-report-driven handovers via the
/// master's mobility manager), stationary fading UEs with mixed
/// traffic, and one eNodeB behind a lossy, partition-scripted control
/// link (liveness failover + recovery).
fn build(shards: ShardSpec) -> (SimHarness, Vec<UeId>) {
    let mut env = Environment::new(10_000_000);
    let sites: Vec<usize> = (0..N_ENBS)
        .map(|i| {
            env.add_site(TxSite {
                position: Position::new(i as f64 * 900.0, 0.0),
                tx_power: Dbm(43.0),
                path_loss: PathLossModel::UrbanMacro,
            })
        })
        .collect();
    let mut sim = SimHarness::with_radio(
        SimConfig {
            seed: 11,
            master: TaskManagerConfig {
                shards,
                ..TaskManagerConfig::default()
            },
            ..SimConfig::default()
        },
        RadioEnvironment::with_geometry(env),
    );

    let mut site_map = BTreeMap::new();
    let mut enbs = Vec::new();
    for (i, site) in sites.iter().enumerate() {
        let enb_id = EnbId(i as u32 + 1);
        let enb = if i == 1 {
            // The middle eNodeB suffers a lossy control link plus two
            // scripted partitions long enough to trip liveness failover.
            let faults = FaultHandle::new(23);
            faults.set_config(FaultConfig {
                drop_prob: 0.02,
                ..FaultConfig::default()
            });
            faults.partition_between(Tti(800), Tti(1_300));
            faults.partition_between(Tti(2_400), Tti(2_700));
            sim.add_enb_with_faults(
                EnbConfig::single_cell(enb_id),
                AgentConfig::default(),
                EnbParams::default(),
                Some((
                    LinkConfig::with_one_way_ms(2),
                    LinkConfig::with_one_way_ms(2),
                )),
                faults,
            )
        } else {
            sim.add_enb(EnbConfig::single_cell(enb_id), AgentConfig::default())
        };
        sim.map_cell_to_site(enb, CellId(0), *site);
        site_map.insert(*site as u32, (enb, CellId(0)));
        enbs.push(enb);
    }
    sim.master_mut()
        .register_app(Box::new(MobilityManagerApp::new(site_map)));

    let mut ues = Vec::new();
    for (i, enb) in enbs.iter().enumerate() {
        for u in 0..UES_PER_ENB {
            let ue = if u < 2 {
                // Travellers: start near the border with the neighbour
                // site and drive across it at ~30 m/s, so handovers fire
                // well within the run.
                let (heading, start_x) = if i + 1 < N_ENBS {
                    (0.0, i as f64 * 900.0 + 380.0 + u as f64 * 40.0)
                } else {
                    (
                        std::f64::consts::PI,
                        i as f64 * 900.0 - 380.0 - u as f64 * 40.0,
                    )
                };
                let ue = sim.add_ue(
                    *enb,
                    CellId(0),
                    SliceId::MNO,
                    0,
                    UeRadioSpec::Geo(
                        Box::new(LinearMotion {
                            start: Position::new(start_x, 0.0),
                            speed_mps: 30.0,
                            heading_rad: heading,
                        }),
                        sites[i],
                    ),
                );
                sim.enable_measurements(ue, 200);
                ue
            } else {
                sim.add_ue(
                    *enb,
                    CellId(0),
                    SliceId::MNO,
                    (u % 2) as u8,
                    UeRadioSpec::Fading(14.0, 4.0, 0.9, 1000 + (i * UES_PER_ENB + u) as u64),
                )
            };
            if u % 2 == 0 {
                sim.set_dl_traffic(ue, Box::new(FullBufferSource::default()));
            } else {
                sim.set_dl_traffic(ue, Box::new(CbrSource::new(BitRate::from_mbps(2))));
                sim.set_ul_traffic(ue, Box::new(CbrSource::new(BitRate::from_kbps(256))));
            }
            ues.push(ue);
        }
    }
    (sim, ues)
}

/// Run the scenario and digest every observable along the way.
fn run(shards: ShardSpec) -> (u64, u64, u64) {
    let (mut sim, ues) = build(shards);
    let mut events_digest = Fnv1a::new();
    let mut scratch = String::new();
    for _ in 0..TTIS {
        sim.step();
        for (enb, ev) in &sim.last_events {
            scratch.clear();
            use std::fmt::Write as _;
            let _ = write!(scratch, "{enb:?}|{ev:?}");
            events_digest.write(scratch.as_bytes());
        }
    }
    let mut stats_digest = Fnv1a::new();
    for ue in &ues {
        scratch.clear();
        use std::fmt::Write as _;
        let _ = write!(
            scratch,
            "{ue:?}={:?}:{:?}",
            sim.serving_enb(*ue),
            sim.ue_stats(*ue)
        );
        stats_digest.write(scratch.as_bytes());
    }
    let mut rib_digest = Fnv1a::new();
    rib_digest.write(format!("{:?}", sim.master().merged_rib()).as_bytes());
    (
        events_digest.finish(),
        stats_digest.finish(),
        rib_digest.finish(),
    )
}

/// `(events, stats, RIB)` digests of `run(ShardSpec::Auto)`: the
/// one-shard run every shard spec must reproduce.
const PINNED: (u64, u64, u64) = (
    0xeb79_4a5b_9277_eb87,
    0xf2f7_81d6_3e24_bbab,
    0xeaad_6b63_9fbe_be2b,
);

#[test]
fn serial_run_matches_pinned_digests() {
    let serial = run(ShardSpec::Auto);
    assert_eq!(serial.0, PINNED.0, "event stream diverged from the pin");
    assert_eq!(serial.1, PINNED.1, "UE stats diverged from the pin");
    assert_eq!(serial.2, PINNED.2, "RIB diverged from the pin");
}

#[test]
fn sharded_control_plane_is_bit_identical_to_one_shard() {
    // The shard matrix vs. the pinned one-shard digests, including runs
    // where the travellers' handovers cross a shard boundary (Fixed(2)
    // puts EnbId 1 and 3 on shard 1 and EnbId 2 on shard 0, so every
    // inter-site handover is cross-shard).
    for shards in [
        ShardSpec::Fixed(2),
        ShardSpec::Fixed(4),
        ShardSpec::PerAgent,
    ] {
        let sharded = run(shards);
        assert_eq!(
            PINNED.0, sharded.0,
            "event stream diverged at shards={shards:?}"
        );
        assert_eq!(
            PINNED.1, sharded.1,
            "UE stats diverged at shards={shards:?}"
        );
        assert_eq!(PINNED.2, sharded.2, "RIB diverged at shards={shards:?}");
    }
}

/// Slab-RIB golden: the scale grid's 1 eNB × 16 UE point as the former
/// single-run scale experiment ran it (seed 7, warm-up + measured TTI
/// count), must digest to the value that experiment committed in
/// BENCH_scale.json *before* the RIB was flattened from B-tree nodes
/// onto index-addressed slabs. This pins the slab layout to the
/// historical observable stream: any layout change that reorders
/// iteration or perturbs state is caught here, for every shard spec.
#[test]
fn slab_rib_digests_match_pre_flattening_goldens() {
    // Golden recorded pre-flattening (BENCH_scale.json, enbs=1,
    // ues_per_enb=16, seed 7, 100 warm-up + 2000 measured TTIs).
    const GOLDEN_1X16: &str = "0a3e0d5c0635f4e2";
    const SCALE_SEED: u64 = 7;
    const SCALE_TTIS: u64 = 2_100;
    const N_UES: u32 = 16;

    let run_scale_point = |shards: ShardSpec| -> String {
        let mut sim = SimHarness::new(SimConfig {
            seed: SCALE_SEED,
            master: TaskManagerConfig {
                shards,
                ..TaskManagerConfig::default()
            },
            ..SimConfig::default()
        });
        let enb = sim.add_enb(EnbConfig::single_cell(EnbId(1)), AgentConfig::default());
        for u in 0..N_UES as u64 {
            let ue = sim.add_ue(
                enb,
                CellId(0),
                SliceId::MNO,
                0,
                UeRadioSpec::Fading(15.0, 4.0, 0.95, SCALE_SEED ^ u),
            );
            sim.set_dl_traffic(ue, Box::new(FullBufferSource::default()));
        }
        sim.run(SCALE_TTIS);
        let mut h = Fnv1a::new();
        sim.fold_end_state((1..=N_UES).map(UeId), &mut h);
        format!("{:016x}", h.finish())
    };

    for shards in [
        ShardSpec::Fixed(1),
        ShardSpec::Fixed(2),
        ShardSpec::Fixed(4),
        ShardSpec::PerAgent,
    ] {
        assert_eq!(
            run_scale_point(shards),
            GOLDEN_1X16,
            "slab-RIB digest diverged from the pre-flattening golden at shards={shards:?}"
        );
    }
}

#[test]
fn sharded_scenario_exercises_cross_shard_handovers() {
    // The matrix above is only meaningful if handovers actually cross
    // shard boundaries: under Fixed(2) the mobility manager's commands
    // route between the two shards through the cross-shard mailbox.
    let (mut sim, _ues) = build(ShardSpec::Fixed(2));
    for _ in 0..TTIS {
        sim.step();
    }
    assert_eq!(sim.master().n_shards(), 2);
    assert!(
        sim.master().cross_shard_handovers() > 0,
        "no handover ever crossed a shard boundary — the matrix is too tame"
    );
}

#[test]
fn scenario_actually_exercises_handovers_and_faults() {
    // The determinism assertion above is only meaningful if the scenario
    // produces the hard cases: cross-agent handovers and failover events.
    let (mut sim, ues) = build(ShardSpec::Auto);
    let mut saw_handover = false;
    let start_serving: Vec<_> = ues.iter().map(|u| sim.serving_enb(*u)).collect();
    for _ in 0..TTIS {
        sim.step();
        for (_, ev) in &sim.last_events {
            let s = format!("{ev:?}");
            if s.contains("Handover") {
                saw_handover = true;
            }
        }
    }
    let moved = ues
        .iter()
        .zip(&start_serving)
        .filter(|(u, s0)| sim.serving_enb(**u) != **s0)
        .count();
    assert!(
        saw_handover || moved > 0,
        "no handover activity — scenario too tame for a determinism test"
    );
}
