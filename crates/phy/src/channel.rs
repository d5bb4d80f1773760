//! Per-UE channel processes.
//!
//! A [`ChannelProcess`] produces the instantaneous SINR a UE experiences at
//! each TTI. The implementations cover every channel the paper's
//! experiments need:
//!
//! * [`FixedSinr`] / [`FixedCqi`] — the Table 2 measurements ("various
//!   fixed CQI values").
//! * [`CqiSquareWave`] — the MEC experiment's emulated CQI fluctuation
//!   (CQI 3↔2 and 10↔4 toggles).
//! * [`TraceChannel`] — replay of an arbitrary SINR trace.
//! * [`GaussMarkovFading`] — an AR(1) shadow-fading process around a mean,
//!   giving the time-varying channel that makes stale CQI costly (Fig. 9).

use flexran_types::time::Tti;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::link_adaptation::{sinr_for_cqi, Cqi};

/// A source of per-TTI SINR samples for one UE.
pub trait ChannelProcess: Send {
    /// SINR in dB at `tti`. Implementations may assume `tti` is
    /// non-decreasing across calls.
    fn sinr_db(&mut self, tti: Tti) -> f64;
}

/// Constant SINR.
#[derive(Debug, Clone, Copy)]
pub struct FixedSinr(pub f64);

impl ChannelProcess for FixedSinr {
    fn sinr_db(&mut self, _tti: Tti) -> f64 {
        self.0
    }
}

/// Constant channel specified by the CQI the UE should report.
#[derive(Debug, Clone, Copy)]
pub struct FixedCqi(pub Cqi);

impl ChannelProcess for FixedCqi {
    fn sinr_db(&mut self, _tti: Tti) -> f64 {
        sinr_for_cqi(self.0)
    }
}

/// Alternates between two CQI levels with a fixed period, starting on
/// `high`. Used by the MEC/DASH experiment to emulate channel-quality
/// fluctuation reproducibly.
#[derive(Debug, Clone, Copy)]
pub struct CqiSquareWave {
    pub high: Cqi,
    pub low: Cqi,
    /// Half-period: TTIs spent at each level.
    pub half_period: u64,
    /// Phase offset in TTIs.
    pub phase: u64,
}

impl CqiSquareWave {
    pub fn new(high: Cqi, low: Cqi, half_period_ms: u64) -> Self {
        CqiSquareWave {
            high,
            low,
            half_period: half_period_ms.max(1),
            phase: 0,
        }
    }

    /// The CQI level active at `tti`.
    pub fn level_at(&self, tti: Tti) -> Cqi {
        let phase = (tti.0 + self.phase) / self.half_period;
        if phase.is_multiple_of(2) {
            self.high
        } else {
            self.low
        }
    }
}

impl ChannelProcess for CqiSquareWave {
    fn sinr_db(&mut self, tti: Tti) -> f64 {
        sinr_for_cqi(self.level_at(tti))
    }
}

/// Replays a fixed SINR trace, holding each sample for `sample_ttis` and
/// looping at the end.
#[derive(Debug, Clone)]
pub struct TraceChannel {
    samples_db: Vec<f64>,
    sample_ttis: u64,
}

impl TraceChannel {
    /// `samples_db` must be non-empty; each sample is held for
    /// `sample_ttis` TTIs.
    pub fn new(samples_db: Vec<f64>, sample_ttis: u64) -> flexran_types::Result<Self> {
        if samples_db.is_empty() {
            return Err(flexran_types::FlexError::InvalidConfig(
                "channel trace must be non-empty".into(),
            ));
        }
        Ok(TraceChannel {
            samples_db,
            sample_ttis: sample_ttis.max(1),
        })
    }
}

impl ChannelProcess for TraceChannel {
    fn sinr_db(&mut self, tti: Tti) -> f64 {
        let idx = (tti.0 / self.sample_ttis) as usize % self.samples_db.len();
        self.samples_db[idx]
    }
}

/// First-order Gauss–Markov (AR(1)) fading around a mean SINR:
///
/// `x[t+1] = mean + rho * (x[t] - mean) + sqrt(1-rho^2) * sigma * N(0,1)`
///
/// `rho` close to 1 gives slowly varying shadowing whose decorrelation time
/// determines how quickly a stale CQI report becomes wrong — the knob
/// behind the throughput decay across Fig. 9's upper triangle.
#[derive(Debug)]
pub struct GaussMarkovFading {
    mean_db: f64,
    rho: f64,
    /// `sqrt(1 - rho^2) * sigma`, the scale of each step's innovation.
    innovation_db: f64,
    state_db: f64,
    last_tti: Option<Tti>,
    rng: StdRng,
}

impl GaussMarkovFading {
    pub fn new(mean_db: f64, sigma_db: f64, rho: f64, seed: u64) -> Self {
        let rho = rho.clamp(0.0, 1.0);
        GaussMarkovFading {
            mean_db,
            rho,
            innovation_db: (1.0 - rho * rho).sqrt() * sigma_db,
            state_db: mean_db,
            last_tti: None,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// A standard-normal draw via Box–Muller (keeps `rand_distr` out of the
    /// dependency set).
    fn standard_normal(&mut self) -> f64 {
        let u1: f64 = self.rng.random::<f64>().max(1e-12);
        let u2: f64 = self.rng.random();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    fn step_once(&mut self) {
        let n = self.standard_normal();
        self.state_db =
            self.mean_db + self.rho * (self.state_db - self.mean_db) + self.innovation_db * n;
    }
}

impl ChannelProcess for GaussMarkovFading {
    fn sinr_db(&mut self, tti: Tti) -> f64 {
        // Advance the process once per elapsed TTI (capped so a long jump
        // does not spin; beyond ~5 decorrelation times the state is
        // independent anyway).
        let steps = match self.last_tti {
            None => 1,
            Some(prev) => tti.saturating_since(prev).min(256),
        };
        for _ in 0..steps.max(1) {
            self.step_once();
        }
        self.last_tti = Some(tti);
        self.state_db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link_adaptation::cqi_from_sinr;

    #[test]
    fn fixed_cqi_reports_itself() {
        for c in 1..=15u8 {
            let mut ch = FixedCqi(Cqi(c));
            assert_eq!(cqi_from_sinr(ch.sinr_db(Tti(0))), Cqi(c));
        }
    }

    #[test]
    fn square_wave_alternates_with_period() {
        let mut ch = CqiSquareWave::new(Cqi(10), Cqi(4), 100);
        assert_eq!(cqi_from_sinr(ch.sinr_db(Tti(0))), Cqi(10));
        assert_eq!(cqi_from_sinr(ch.sinr_db(Tti(99))), Cqi(10));
        assert_eq!(cqi_from_sinr(ch.sinr_db(Tti(100))), Cqi(4));
        assert_eq!(cqi_from_sinr(ch.sinr_db(Tti(199))), Cqi(4));
        assert_eq!(cqi_from_sinr(ch.sinr_db(Tti(200))), Cqi(10));
    }

    #[test]
    fn trace_loops() {
        let mut ch = TraceChannel::new(vec![0.0, 10.0, 20.0], 2).unwrap();
        assert_eq!(ch.sinr_db(Tti(0)), 0.0);
        assert_eq!(ch.sinr_db(Tti(1)), 0.0);
        assert_eq!(ch.sinr_db(Tti(2)), 10.0);
        assert_eq!(ch.sinr_db(Tti(5)), 20.0);
        assert_eq!(ch.sinr_db(Tti(6)), 0.0);
        assert!(TraceChannel::new(vec![], 1).is_err());
    }

    #[test]
    fn gauss_markov_is_deterministic_per_seed() {
        let mut a = GaussMarkovFading::new(10.0, 3.0, 0.99, 7);
        let mut b = GaussMarkovFading::new(10.0, 3.0, 0.99, 7);
        for t in 0..100 {
            assert_eq!(a.sinr_db(Tti(t)), b.sinr_db(Tti(t)));
        }
    }

    /// FNV-1a over the bit patterns of 2 000 samples drawn at `ttis`.
    fn sample_digest(ch: &mut GaussMarkovFading, ttis: impl Iterator<Item = u64>) -> u64 {
        let mut h = flexran_types::hash::Fnv1a::new();
        for t in ttis.take(2_000) {
            h.write_u64(ch.sinr_db(Tti(t)).to_bits());
        }
        h.finish()
    }

    #[test]
    fn gauss_markov_sample_streams_are_pinned() {
        // Any change to the arithmetic or to the RNG draw order moves
        // these digests. Per channel: every TTI in order; a pattern that
        // skips TTIs (including jumps past the 256-step cap); every third
        // TTI queried twice (the repeat query still advances the process
        // once).
        let pins = [
            (
                (15.0, 4.0, 0.95, 7u64),
                [
                    0xfa05_6c77_4a3e_5cf7,
                    0x1a89_481f_705a_7c46,
                    0x3943_e97d_9b58_8e29,
                ],
            ),
            (
                (0.0, 3.0, 0.99, 42),
                [
                    0x3aa7_96e7_bdca_1614,
                    0x873a_01de_d97d_cbce,
                    0xd0ff_a2cc_7835_8688,
                ],
            ),
            (
                (-3.5, 8.0, 0.0, 0xDEAD_BEEF),
                [
                    0xbb4f_19d9_52df_71d2,
                    0xb8b0_1356_f4a7_7e31,
                    0x7da8_27fb_2395_0290,
                ],
            ),
        ];
        for ((mean, sigma, rho, seed), expect) in pins {
            let fresh = || GaussMarkovFading::new(mean, sigma, rho, seed);
            let got: [u64; 3] = [
                sample_digest(&mut fresh(), 0..),
                sample_digest(
                    &mut fresh(),
                    (0u64..).map(|i| 3 * i + (i % 7) * (i % 11) * 40),
                ),
                sample_digest(&mut fresh(), (0u64..).map(|i| i / 2 * 3)),
            ];
            assert_eq!(got, expect, "({mean}, {sigma}, {rho}, {seed}): {got:#x?}");
        }
    }

    #[test]
    fn gauss_markov_stays_near_mean() {
        let mut ch = GaussMarkovFading::new(12.0, 3.0, 0.98, 42);
        let n = 20_000u64;
        let mut sum = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for t in 0..n {
            let s = ch.sinr_db(Tti(t));
            sum += s;
            min = min.min(s);
            max = max.max(s);
        }
        let mean = sum / n as f64;
        assert!((mean - 12.0).abs() < 1.0, "empirical mean {mean}");
        assert!(max - min > 2.0, "process should actually vary");
    }

    #[test]
    fn gauss_markov_decorrelates() {
        // With rho=0.99 the state 1 TTI later is close; 500 TTIs later the
        // correlation should have mostly washed out (statistically).
        let mut ch = GaussMarkovFading::new(0.0, 3.0, 0.99, 9);
        let s0 = ch.sinr_db(Tti(0));
        let s1 = ch.sinr_db(Tti(1));
        assert!((s1 - s0).abs() < 3.0);
        let far = ch.sinr_db(Tti(2000));
        // Not a strict test of independence, just that it moved.
        assert!((far - s0).abs() > 1e-6);
    }
}
