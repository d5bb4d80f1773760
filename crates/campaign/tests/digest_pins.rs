//! Pinned end-state digests of the two campaign run kinds.
//!
//! A sweep run and a chaos run each fold every UE's end-state
//! observables into one FNV-1a digest; the chaos digest also folds the
//! fault log and the verdict. These pins were recorded from the digest
//! code as first written, so any change to what is folded, in which
//! order, or by which hash moves them — as does any change to the
//! simulation itself.

use flexran_campaign::sweep::{run_one, SweepRun, SweepSpec};
use flexran_chaos::{run_chaos, ChaosConfig};

#[test]
fn sweep_run_digests_are_pinned() {
    let spec = SweepSpec {
        grid: vec![(1, 4), (2, 3)],
        seeds: 2,
        ttis: 200,
        warmup: 50,
        workers: 1,
    };
    let pins = [
        0xf577_4327_4eca_fbc7u64,
        0xc092_8c61_85cb_24cb,
        0x0a13_cf59_d303_90e3,
        0xcce9_0105_99ee_e309,
    ];
    let got: Vec<u64> = spec
        .plan()
        .iter()
        .map(|run: &SweepRun| run_one(run, &spec).digest)
        .collect();
    assert_eq!(got, pins, "sweep digests moved; got {got:#018x?}");
}

#[test]
fn chaos_run_digests_are_pinned() {
    let pins = [
        ((0u64, 0.0), 0x8224_d81c_4a83_ecefu64),
        ((1, 0.0), 0xf82b_241e_7914_c20e),
        ((0, 0.005), 0x0d9d_9dca_dd18_0a8d),
        ((1, 0.005), 0xa4f1_9fe8_d197_272a),
    ];
    let got: Vec<u64> = pins
        .iter()
        .map(|&((seed, rollout_prob), _)| {
            let report = run_chaos(&ChaosConfig {
                seed,
                ttis: 300,
                rollout_prob,
                ..ChaosConfig::default()
            });
            assert!(report.pass(), "seed {seed} violated invariants");
            report.digest
        })
        .collect();
    let want: Vec<u64> = pins.iter().map(|(_, pin)| *pin).collect();
    assert_eq!(got, want, "chaos digests moved; got {got:#018x?}");
}
