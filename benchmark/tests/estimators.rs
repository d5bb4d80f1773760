//! The estimators and recorders every number goes through, checked
//! against brute-force oracles and hand-computed cases.

use flexran::proto::messages::{FlexranMessage, Header};
use flexran::proto::{channel_pair, DlSchedulingCommand, SubframeTrigger, Transport};
use flexran::types::ids::EnbId;
use flexran_benchmark::scenario::SplitMix;
use flexran_benchmark::spans::{self, Recorder, NO_PARENT};
use flexran_benchmark::stats::{lower_decile, median, percentile_sorted, WindowEstimator};
use flexran_benchmark::timed::timed_pair;

/// Oracle: the smallest sample with at least q·n samples at or below it,
/// found by counting instead of by rank arithmetic.
fn percentile_oracle(samples: &[u32], q: f64) -> u32 {
    let need = q * samples.len() as f64;
    let mut candidates: Vec<u32> = samples.to_vec();
    candidates.sort_unstable();
    for &c in &candidates {
        let at_or_below = samples.iter().filter(|&&s| s <= c).count();
        if at_or_below as f64 >= need {
            return c;
        }
    }
    *candidates.last().unwrap()
}

#[test]
fn percentile_matches_brute_force() {
    let mut rng = SplitMix(11);
    for n in [1usize, 2, 3, 10, 99, 100, 101, 2_000] {
        let samples: Vec<u32> = (0..n).map(|_| (rng.next_u64() % 1_000) as u32).collect();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(
                percentile_sorted(&sorted, q),
                percentile_oracle(&samples, q),
                "n={n} q={q}"
            );
        }
    }
    assert_eq!(percentile_sorted(&[], 0.5), 0);
}

#[test]
fn p99_of_a_full_window_leaves_twenty_samples_beyond() {
    let sorted: Vec<u32> = (1..=2_000).collect();
    let p99 = percentile_sorted(&sorted, 0.99);
    assert_eq!(sorted.iter().filter(|&&s| s > p99).count(), 20);
}

#[test]
fn windowed_estimator_matches_brute_force() {
    const W: usize = 50;
    let mut rng = SplitMix(5);
    // 12 full windows and a partial one; nine windows are disturbed:
    // every sample of theirs is slower.
    let samples: Vec<u64> = (0..12 * W + 13)
        .map(|i| {
            let base = 1_000 + rng.next_u64() % 200;
            if (3..12).contains(&(i / W)) {
                base + 700
            } else {
                base
            }
        })
        .collect();
    let mut est = WindowEstimator::new(W);
    for &s in &samples {
        est.push(s);
    }
    let mut p50s = Vec::new();
    let mut p99s = Vec::new();
    let mut means = Vec::new();
    for w in samples.chunks_exact(W) {
        means.push(w.iter().sum::<u64>() as f64 / W as f64);
        let w: Vec<u32> = w.iter().map(|&s| s as u32).collect();
        p50s.push(percentile_oracle(&w, 0.5) as f64);
        p99s.push(percentile_oracle(&w, 0.99) as f64);
    }
    // Oracle for the decile over windows: sort, take the 2nd of 12.
    let second_smallest = |v: &[f64]| {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        v[1]
    };
    assert_eq!(est.windows(), 12);
    assert_eq!(est.count(), samples.len() as u64);
    assert_eq!(est.p50_ns(), second_smallest(&p50s));
    assert_eq!(est.p99w_ns(), second_smallest(&p99s));
    assert_eq!(est.mean_w_ns(), second_smallest(&means));
    // Nine disturbed windows out of twelve do not move what is reported.
    assert!(est.p99w_ns() < 1_200.0 && est.mean_w_ns() < 1_200.0);
}

#[test]
fn estimator_with_no_full_window_reports_the_partial_one() {
    let mut est = WindowEstimator::new(100);
    for s in [5u64, 1, 9, 3, 7] {
        est.push(s);
    }
    assert_eq!(est.windows(), 0);
    assert_eq!(est.p50_ns(), 5.0);
    assert_eq!(est.p99w_ns(), 9.0);
}

#[test]
fn median_and_lower_decile() {
    assert_eq!(median(&[]), 0.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(lower_decile(&[]), 0.0);
    assert_eq!(lower_decile(&[5.0]), 5.0);
    let ten: Vec<f64> = (1..=10).rev().map(f64::from).collect();
    assert_eq!(lower_decile(&ten), 1.0);
    let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
    assert_eq!(lower_decile(&eleven), 2.0);
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(lower_decile(&hundred), 10.0);
}

#[test]
fn span_self_time_is_duration_minus_children() {
    let mut r = Recorder::default();
    r.open_at(spans::TCP_ITERATION, 42, 0);
    r.leaf(spans::AGENT_PHASE_A, 10, 30);
    r.open_at(spans::AGENT_PHASE_B, 42, 40);
    r.leaf(spans::TCP_SEND, 50, 60);
    r.leaf(spans::TCP_SEND, 60, 65);
    r.close_at(70);
    r.close_at(100);

    let root = r.total(spans::TCP_ITERATION);
    assert_eq!((root.count, root.total_ns, root.self_ns), (1, 100, 50));
    let a = r.total(spans::AGENT_PHASE_A);
    assert_eq!((a.count, a.total_ns, a.self_ns), (1, 20, 20));
    let b = r.total(spans::AGENT_PHASE_B);
    assert_eq!((b.count, b.total_ns, b.self_ns), (1, 30, 15));
    let send = r.total(spans::TCP_SEND);
    assert_eq!((send.count, send.total_ns, send.self_ns), (2, 15, 15));
    // Self times of one TTI add up to the TTI.
    assert_eq!(root.self_ns + a.self_ns + b.self_ns + send.self_ns, 100);

    // Stored spans: closed in order, each naming the span that caused it.
    let recs = r.records();
    assert_eq!(recs.len(), 5);
    let root_rec = recs.last().unwrap();
    assert_eq!(root_rec.parent, NO_PARENT);
    let b_rec = recs
        .iter()
        .find(|s| s.name == spans::AGENT_PHASE_B)
        .unwrap();
    assert_eq!(b_rec.parent, root_rec.seq);
    for s in recs.iter().filter(|s| s.name == spans::TCP_SEND) {
        assert_eq!(s.parent, b_rec.seq);
        assert_eq!(s.tti, 42, "a leaf inherits its parent's TTI");
    }
    assert!(r
        .to_json("tcp_loop")
        .contains("\"name\":\"proto.tcp_send\""));
}

fn trigger(tti: u64) -> FlexranMessage {
    FlexranMessage::SubframeTrigger(SubframeTrigger {
        enb_id: EnbId(1),
        sfn: 0,
        sf: 0,
        tti,
    })
}

fn command(target_tti: u64) -> FlexranMessage {
    FlexranMessage::DlSchedulingCommand(DlSchedulingCommand {
        enb_id: EnbId(1),
        cell: 0,
        target_tti,
        dcis: Vec::new(),
    })
}

#[test]
fn timed_transport_matches_command_to_its_trigger() {
    let (a, m) = channel_pair();
    let (mut agent, mut master) = timed_pair(a, m, 4);
    let mut lat = Vec::new();

    // Trigger 10 → command for 14 is the loop; one sample.
    agent.send(Header::default(), &trigger(10)).unwrap();
    assert!(matches!(
        master.try_recv().unwrap(),
        Some((_, FlexranMessage::SubframeTrigger(t))) if t.tti == 10
    ));
    assert!(master.try_recv().unwrap().is_none());
    master.send(Header::default(), &command(14)).unwrap();
    assert!(agent.try_recv().unwrap().is_some());
    agent.drain_loop_ns(&mut lat);
    assert_eq!(lat.len(), 1);
    assert_eq!(agent.unmatched(), 0);

    // A catch-up command for a subframe older than any pending trigger
    // matches nothing and drops nothing.
    agent.send(Header::default(), &trigger(11)).unwrap();
    master.send(Header::default(), &command(13)).unwrap();
    assert!(agent.try_recv().unwrap().is_some());
    agent.drain_loop_ns(&mut lat);
    assert_eq!(lat.len(), 1);
    assert_eq!(agent.unmatched(), 1);

    // Trigger 11 never gets its command; the command for 12's trigger
    // retires it and matches 12.
    agent.send(Header::default(), &trigger(12)).unwrap();
    master.send(Header::default(), &command(16)).unwrap();
    assert!(agent.try_recv().unwrap().is_some());
    agent.drain_loop_ns(&mut lat);
    assert_eq!(lat.len(), 2);
    assert_eq!(agent.unmatched(), 0);

    // The master side stamps nothing.
    while master.try_recv().unwrap().is_some() {}
    master.drain_loop_ns(&mut lat);
    assert_eq!(lat.len(), 2);
}

#[test]
fn timed_transport_counts_bytes_like_the_wrapped_one() {
    let (a, m) = channel_pair();
    let (mut agent, mut master) = timed_pair(a, m, 4);
    agent.send(Header::default(), &trigger(1)).unwrap();
    master.try_recv().unwrap();
    assert_eq!(
        agent.tx_counters().total_bytes(),
        master.rx_counters().total_bytes()
    );
    assert!(agent.tx_counters().total_bytes() > 0);
}
