//! Differential oracle for the baseline downlink schedulers.
//!
//! Deliberately naive reference implementations of proportional-fair,
//! max-CQI and round-robin — full sorts, fresh `Vec`s, the CQI → MCS scan
//! and the linear PRB probe spelled out here instead of shared with the
//! shipped code — compared DCI by DCI with the shipped schedulers on
//! random inputs. The goldens in `tests/determinism.rs` only say that
//! *something* moved; this says what the right answer is.

use flexran_phy::link_adaptation::{mcs_operating_sinr_db, sinr_threshold_for_cqi};
use flexran_phy::tables::MAX_MCS;
use proptest::prelude::*;

use super::*;

/// Highest MCS whose operating point the CQI's attested SINR meets.
fn ref_mcs(cqi: Cqi) -> Mcs {
    if cqi.0 == 0 {
        return Mcs(0);
    }
    let attested = sinr_threshold_for_cqi(cqi);
    let best = (0..=MAX_MCS)
        .take_while(|&m| mcs_operating_sinr_db(Mcs(m)) <= attested + 1e-9)
        .last();
    Mcs(best.unwrap_or(0))
}

/// First PRB count whose transport block covers `bytes`, probing upwards.
fn ref_prbs(mcs: Mcs, bytes: u64, max_prb: u8) -> u8 {
    (1..=max_prb)
        .find(|&p| tbs_bits(itbs_for_mcs(mcs.0), p) as u64 >= bytes * 8)
        .unwrap_or(max_prb.max(1))
}

/// Signalling first: one robust-MCS DCI per UE with SRB backlog, in input
/// order. Returns the DCIs and the PRBs left for data.
fn ref_srbs(input: &DlSchedulerInput) -> (Vec<DlDci>, u8) {
    let mut dcis = Vec::new();
    let mut prb_left = input.available_prb;
    for ue in input.ues.iter().filter(|u| u.srb_bytes.as_u64() > 0) {
        if dcis.len() >= input.max_dcis as usize || prb_left == 0 {
            break;
        }
        let mcs = Mcs(ref_mcs(ue.cqi).0.min(5));
        let overhead = crate::mac::MAC_HEADER_BYTES + crate::rlc::RLC_HEADER_BYTES;
        let n_prb = ref_prbs(mcs, ue.srb_bytes.as_u64() + overhead, prb_left);
        dcis.push(DlDci {
            rnti: ue.rnti,
            n_prb,
            mcs,
        });
        prb_left -= n_prb;
    }
    (dcis, prb_left)
}

/// UEs eligible for a data grant: backlog, usable channel, no DCI yet.
fn ref_candidates<'a>(input: &'a DlSchedulerInput, dcis: &[DlDci]) -> Vec<&'a UeSchedInfo> {
    input
        .ues
        .iter()
        .filter(|u| u.queue_bytes.as_u64() > 0 && u.cqi.0 > 0)
        .filter(|u| dcis.iter().all(|d| d.rnti != u.rnti))
        .collect()
}

/// Serve `order` front to back, each UE taking what its queue needs of
/// the PRBs left, until PRBs or DCIs run out.
fn ref_grant_greedily(
    input: &DlSchedulerInput,
    order: &[&UeSchedInfo],
    mut dcis: Vec<DlDci>,
    mut prb_left: u8,
) -> Vec<DlDci> {
    for ue in order {
        if prb_left == 0 || dcis.len() >= input.max_dcis as usize {
            break;
        }
        let mcs = ref_mcs(ue.cqi);
        let n_prb = ref_prbs(mcs, ue.queue_bytes.as_u64() + 8, prb_left);
        dcis.push(DlDci {
            rnti: ue.rnti,
            n_prb,
            mcs,
        });
        prb_left -= n_prb;
    }
    dcis
}

fn ref_pf(input: &DlSchedulerInput, exponent: f64) -> Vec<DlDci> {
    let (dcis, prb_left) = ref_srbs(input);
    let metric = |u: &UeSchedInfo| {
        let full_band_bits = tbs_bits(itbs_for_mcs(ref_mcs(u.cqi).0), 50) as f64;
        full_band_bits / u.avg_rate_bps.max(1.0).powf(exponent)
    };
    let mut order = ref_candidates(input, &dcis);
    order.sort_by(|a, b| {
        metric(b)
            .partial_cmp(&metric(a))
            .expect("PF metric is never NaN")
            .then(a.rnti.cmp(&b.rnti))
    });
    ref_grant_greedily(input, &order, dcis, prb_left)
}

fn ref_max_cqi(input: &DlSchedulerInput) -> Vec<DlDci> {
    let (dcis, prb_left) = ref_srbs(input);
    let mut order = ref_candidates(input, &dcis);
    order.sort_by(|a, b| b.cqi.cmp(&a.cqi).then(a.rnti.cmp(&b.rnti)));
    ref_grant_greedily(input, &order, dcis, prb_left)
}

/// Round-robin keeps one piece of cross-TTI state: the rotation offset
/// into the RNTI-sorted candidate list, advanced once per subframe that
/// has candidates, PRBs and DCI budget.
#[derive(Default)]
struct RefRoundRobin {
    rotation: usize,
}

impl RefRoundRobin {
    fn schedule(&mut self, input: &DlSchedulerInput) -> Vec<DlDci> {
        let (mut dcis, mut prb_left) = ref_srbs(input);
        let mut order = ref_candidates(input, &dcis);
        order.sort_by_key(|u| u.rnti);
        let n = order
            .len()
            .min((input.max_dcis as usize).saturating_sub(dcis.len()));
        if prb_left == 0 || n == 0 {
            return dcis;
        }
        self.rotation = (self.rotation + 1) % order.len();
        order.rotate_left(self.rotation);
        let share = (prb_left as usize / n).max(1) as u8;
        for ue in &order[..n] {
            if prb_left == 0 {
                break;
            }
            let mcs = ref_mcs(ue.cqi);
            let n_prb = ref_prbs(mcs, ue.queue_bytes.as_u64() + 8, share.min(prb_left));
            dcis.push(DlDci {
                rnti: ue.rnti,
                n_prb,
                mcs,
            });
            prb_left -= n_prb;
        }
        dcis
    }
}

// Value pools with repeats, so ties (equal CQI and equal average rate),
// empty queues and CQI 0 are common rather than one-in-a-million.
const QUEUE_BYTES: [u64; 8] = [0, 0, 1, 40, 700, 4_000, 60_000, 1_000_000];
const SRB_BYTES: [u64; 8] = [0, 0, 0, 0, 0, 0, 50, 300];
const AVG_RATES_BPS: [f64; 7] = [f64::NAN, 0.0, 1.0, 1e9, 1e9, 2.5e5, f64::INFINITY];
const EXPONENTS: [f64; 4] = [0.0, 0.5, 1.0, 2.0];

/// 0–80 UEs with unique RNTIs in shuffled order, `available_prb` 0..=100,
/// `max_dcis` 0..=10.
fn input_strategy() -> impl Strategy<Value = DlSchedulerInput> {
    let ue = (
        any::<u32>(),
        0u8..16,
        0usize..QUEUE_BYTES.len(),
        0usize..SRB_BYTES.len(),
        0usize..AVG_RATES_BPS.len(),
    );
    (proptest::collection::vec(ue, 0..81), 0u8..101, 0u8..11).prop_map(
        |(raw, available_prb, max_dcis)| {
            let mut keyed: Vec<(u32, UeSchedInfo)> = raw
                .into_iter()
                .enumerate()
                .map(|(i, (shuffle_key, cqi, queue, srb, avg))| {
                    let ue = UeSchedInfo {
                        rnti: Rnti(0x100 + i as u16),
                        cqi: Cqi(cqi),
                        queue_bytes: Bytes(QUEUE_BYTES[queue]),
                        srb_bytes: Bytes(SRB_BYTES[srb]),
                        avg_rate_bps: AVG_RATES_BPS[avg],
                        slice: SliceId::MNO,
                        priority_group: 0,
                        hol_delay_ms: 0,
                    };
                    (shuffle_key, ue)
                })
                .collect();
            keyed.sort_by_key(|(key, _)| *key);
            DlSchedulerInput {
                cell: CellId(0),
                now: Tti(100),
                target: Tti(100),
                available_prb,
                max_dcis,
                ues: keyed.into_iter().map(|(_, ue)| ue).collect(),
                retx: Vec::new(),
            }
        },
    )
}

/// One scheduler instance serves the whole sequence, so scratch reuse and
/// (for round-robin) the rotation state are part of what is compared.
fn check_pf(inputs: &[DlSchedulerInput], exponent: usize) {
    let exponent = EXPONENTS[exponent];
    let mut pf = ProportionalFairScheduler::new();
    pf.set_param("fairness_exponent", ParamValue::F64(exponent))
        .unwrap();
    for input in inputs {
        assert_eq!(pf.schedule_dl(input).dcis, ref_pf(input, exponent));
    }
}

fn check_max_cqi(inputs: &[DlSchedulerInput]) {
    let mut max_cqi = MaxCqiScheduler::new();
    for input in inputs {
        assert_eq!(max_cqi.schedule_dl(input).dcis, ref_max_cqi(input));
    }
}

fn check_rr(inputs: &[DlSchedulerInput]) {
    let mut rr = RoundRobinScheduler::new();
    let mut reference = RefRoundRobin::default();
    for input in inputs {
        assert_eq!(rr.schedule_dl(input).dcis, reference.schedule(input));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn pf_matches_reference(
        inputs in proptest::collection::vec(input_strategy(), 3..4),
        exponent in 0usize..EXPONENTS.len(),
    ) {
        check_pf(&inputs, exponent);
    }

    #[test]
    fn max_cqi_matches_reference(
        inputs in proptest::collection::vec(input_strategy(), 3..4),
    ) {
        check_max_cqi(&inputs);
    }

    #[test]
    fn rr_matches_reference_over_20_ttis(
        inputs in proptest::collection::vec(input_strategy(), 20..21),
    ) {
        check_rr(&inputs);
    }
}

// The vendored proptest honours only `ProptestConfig::cases`, so the deep
// run is its own `#[ignore]`d block; `scripts/check.sh` and CI invoke it
// in release with `-- --ignored`.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    #[ignore = "deep run: cargo test --release -p flexran-stack --lib mac::scheduler::oracle -- --ignored"]
    fn deep_pf_matches_reference(
        inputs in proptest::collection::vec(input_strategy(), 3..4),
        exponent in 0usize..EXPONENTS.len(),
    ) {
        check_pf(&inputs, exponent);
    }

    #[test]
    #[ignore = "deep run: cargo test --release -p flexran-stack --lib mac::scheduler::oracle -- --ignored"]
    fn deep_max_cqi_matches_reference(
        inputs in proptest::collection::vec(input_strategy(), 3..4),
    ) {
        check_max_cqi(&inputs);
    }

    #[test]
    #[ignore = "deep run: cargo test --release -p flexran-stack --lib mac::scheduler::oracle -- --ignored"]
    fn deep_rr_matches_reference_over_20_ttis(
        inputs in proptest::collection::vec(input_strategy(), 20..21),
    ) {
        check_rr(&inputs);
    }
}
