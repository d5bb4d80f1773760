//! A DASH adaptive-streaming client model (the MEC use case, paper §6.2).
//!
//! The client downloads fixed-duration segments over a [`TcpFlow`],
//! maintains a playback buffer, and picks the next segment's bitrate with
//! a pluggable ABR policy:
//!
//! * [`ReferenceAbr`] — the dash.js-style throughput rule with a
//!   buffer-fullness bump: when the buffer is comfortable it probes one
//!   level above the throughput estimate. This is the behaviour the paper
//!   observed ("the default player aggressively attempts to increase the
//!   bitrate when the CQI increases, setting it to 19.6 Mb/s even though
//!   the maximum achievable throughput is 15 Mb/s"), which triggers TCP
//!   congestion and buffer freezes.
//! * [`AssistedAbr`] — the FlexRAN-assisted player: follows the bitrate
//!   hint computed by the MEC application from the RAN's CQI reports
//!   (forwarded out-of-band, as in the paper).
//! * [`FixedAbr`] — pins one level (used to measure the "maximum
//!   sustainable bitrate" column of Table 2).

use std::collections::VecDeque;

use flexran_types::time::Tti;
use flexran_types::units::{BitRate, Bytes};

use crate::tcp::{TcpFlow, TcpParams};

/// Context handed to the ABR policy at each segment boundary.
#[derive(Debug, Clone)]
pub struct AbrContext {
    /// Recent per-segment throughput samples, most recent last.
    pub throughput_history: Vec<BitRate>,
    pub buffer_s: f64,
    pub buffer_max_s: f64,
    pub current_level: usize,
    /// Out-of-band bitrate hint from the MEC application, if any.
    pub hint: Option<BitRate>,
}

impl AbrContext {
    /// Harmonic mean of the last up-to-3 throughput samples (the standard
    /// dash.js estimator).
    pub fn throughput_estimate(&self) -> Option<BitRate> {
        let tail: Vec<_> = self
            .throughput_history
            .iter()
            .rev()
            .take(3)
            .map(|r| r.as_bps() as f64)
            .filter(|v| *v > 0.0)
            .collect();
        if tail.is_empty() {
            return None;
        }
        let hm = tail.len() as f64 / tail.iter().map(|v| 1.0 / v).sum::<f64>();
        Some(BitRate(hm as u64))
    }
}

/// An adaptive-bitrate policy.
pub trait Abr: Send {
    fn name(&self) -> &str;
    /// Index into the ladder for the next segment.
    fn choose(&mut self, ladder: &[BitRate], ctx: &AbrContext) -> usize;
}

fn highest_level_at_most(ladder: &[BitRate], cap: BitRate) -> usize {
    let mut level = 0;
    for (i, b) in ladder.iter().enumerate() {
        if *b <= cap {
            level = i;
        }
    }
    level
}

/// dash.js-style throughput rule with a buffer-based probe.
#[derive(Debug, Clone, Copy)]
pub struct ReferenceAbr {
    /// Probe one level up when the buffer exceeds this fraction of max.
    pub probe_buffer_fraction: f64,
}

impl Default for ReferenceAbr {
    fn default() -> Self {
        ReferenceAbr {
            probe_buffer_fraction: 0.5,
        }
    }
}

impl Abr for ReferenceAbr {
    fn name(&self) -> &str {
        "reference-throughput"
    }

    fn choose(&mut self, ladder: &[BitRate], ctx: &AbrContext) -> usize {
        let Some(est) = ctx.throughput_estimate() else {
            return 0; // startup: lowest
        };
        let mut level = highest_level_at_most(ladder, est);
        if ctx.buffer_s > self.probe_buffer_fraction * ctx.buffer_max_s {
            level = (level + 1).min(ladder.len().saturating_sub(1));
        }
        level
    }
}

/// The FlexRAN-assisted policy: follow the RAN-derived hint.
#[derive(Debug, Clone, Copy, Default)]
pub struct AssistedAbr;

impl Abr for AssistedAbr {
    fn name(&self) -> &str {
        "flexran-assisted"
    }

    fn choose(&mut self, ladder: &[BitRate], ctx: &AbrContext) -> usize {
        match ctx.hint {
            Some(hint) => highest_level_at_most(ladder, hint),
            // No hint yet: behave conservatively.
            None => 0,
        }
    }
}

/// Pin one ladder level (Table 2's sustainability probe).
#[derive(Debug, Clone, Copy)]
pub struct FixedAbr(pub usize);

impl Abr for FixedAbr {
    fn name(&self) -> &str {
        "fixed"
    }

    fn choose(&mut self, ladder: &[BitRate], _ctx: &AbrContext) -> usize {
        self.0.min(ladder.len().saturating_sub(1))
    }
}

/// DASH client configuration.
#[derive(Debug, Clone)]
pub struct DashConfig {
    /// Available representation bitrates, ascending.
    pub ladder: Vec<BitRate>,
    pub segment_s: f64,
    pub buffer_max_s: f64,
    /// Playback starts/resumes once this much is buffered.
    pub startup_buffer_s: f64,
    pub tcp: TcpParams,
}

impl DashConfig {
    /// The paper's first test video: 1.2 / 2 / 4 Mb/s.
    pub fn paper_low_ladder() -> Self {
        DashConfig {
            ladder: vec![
                BitRate::from_mbps_f64(1.2),
                BitRate::from_mbps_f64(2.0),
                BitRate::from_mbps_f64(4.0),
            ],
            segment_s: 2.0,
            buffer_max_s: 25.0,
            startup_buffer_s: 2.0,
            tcp: TcpParams::default(),
        }
    }

    /// The paper's 4K test video: 2.9 … 19.6 Mb/s.
    pub fn paper_4k_ladder() -> Self {
        DashConfig {
            ladder: vec![
                BitRate::from_mbps_f64(2.9),
                BitRate::from_mbps_f64(4.9),
                BitRate::from_mbps_f64(7.3),
                BitRate::from_mbps_f64(9.6),
                BitRate::from_mbps_f64(14.6),
                BitRate::from_mbps_f64(19.6),
            ],
            segment_s: 2.0,
            buffer_max_s: 80.0,
            startup_buffer_s: 2.0,
            tcp: TcpParams::default(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Downloading {
        level: usize,
        segment_bits: u64,
        start_bits: u64,
        started: Tti,
    },
    Paused,
}

/// The streaming client: buffer dynamics + segment downloads over TCP.
pub struct DashClient {
    config: DashConfig,
    abr: Box<dyn Abr>,
    tcp: TcpFlow,
    phase: Phase,
    buffer_s: f64,
    playing: bool,
    started_once: bool,
    throughput_history: Vec<BitRate>,
    hint: Option<BitRate>,
    last_delivered_bits: u64,
    /// Statistics.
    pub rebuffer_events: u64,
    pub rebuffer_ms: u64,
    pub segments_completed: u64,
    /// `(time_s, bitrate_mbps)` at each segment start.
    pub bitrate_series: Vec<(f64, f64)>,
    /// `(time_s, buffer_s)` sampled every 100 ms.
    pub buffer_series: Vec<(f64, f64)>,
}

impl DashClient {
    pub fn new(config: DashConfig, abr: Box<dyn Abr>) -> Self {
        let tcp = TcpFlow::new(config.tcp);
        DashClient {
            config,
            abr,
            tcp,
            phase: Phase::Paused,
            buffer_s: 0.0,
            playing: false,
            started_once: false,
            throughput_history: Vec::new(),
            hint: None,
            last_delivered_bits: 0,
            rebuffer_events: 0,
            rebuffer_ms: 0,
            segments_completed: 0,
            bitrate_series: Vec::new(),
            buffer_series: Vec::new(),
        }
    }

    /// Out-of-band bitrate hint from the MEC application.
    pub fn set_hint(&mut self, hint: BitRate) {
        self.hint = Some(hint);
    }

    pub fn buffer_s(&self) -> f64 {
        self.buffer_s
    }

    fn start_segment(&mut self, tti: Tti, delivered_bits: u64) {
        let ctx = AbrContext {
            throughput_history: self.throughput_history.clone(),
            buffer_s: self.buffer_s,
            buffer_max_s: self.config.buffer_max_s,
            current_level: match self.phase {
                Phase::Downloading { level, .. } => level,
                Phase::Paused => 0,
            },
            hint: self.hint,
        };
        let level = self
            .abr
            .choose(&self.config.ladder, &ctx)
            .min(self.config.ladder.len() - 1);
        let bitrate = self.config.ladder[level];
        let segment_bits = (bitrate.as_bps() as f64 * self.config.segment_s) as u64;
        self.phase = Phase::Downloading {
            level,
            segment_bits,
            start_bits: delivered_bits,
            started: tti,
        };
        self.bitrate_series
            .push((tti.as_secs_f64(), bitrate.as_mbps_f64()));
    }

    /// Advance one TTI. Inputs mirror [`TcpFlow::on_tti`]; the return
    /// value is the bytes the server injects into the bearer this TTI.
    pub fn on_tti(&mut self, tti: Tti, queue_bytes: Bytes, delivered_cum_bits: u64) -> Bytes {
        self.last_delivered_bits = delivered_cum_bits;
        // Playback.
        if self.playing {
            self.buffer_s -= 0.001;
            if self.buffer_s <= 0.0 {
                self.buffer_s = 0.0;
                self.playing = false;
                self.rebuffer_events += 1;
            }
        } else {
            if self.started_once {
                self.rebuffer_ms += 1;
            }
            if self.buffer_s >= self.config.startup_buffer_s {
                self.playing = true;
                self.started_once = true;
            }
        }
        if tti.0.is_multiple_of(100) {
            self.buffer_series.push((tti.as_secs_f64(), self.buffer_s));
        }

        // Download state machine.
        match self.phase {
            Phase::Downloading {
                level,
                segment_bits,
                start_bits,
                started,
            } => {
                if delivered_cum_bits.saturating_sub(start_bits) >= segment_bits {
                    // Segment done.
                    self.segments_completed += 1;
                    self.buffer_s += self.config.segment_s;
                    let dt_ms = tti.saturating_since(started).max(1);
                    let tput = BitRate(segment_bits * 1000 / dt_ms);
                    self.throughput_history.push(tput);
                    let _ = level;
                    if self.buffer_s + self.config.segment_s > self.config.buffer_max_s {
                        self.phase = Phase::Paused;
                    } else {
                        self.start_segment(tti, delivered_cum_bits);
                    }
                }
            }
            Phase::Paused => {
                if self.buffer_s + self.config.segment_s <= self.config.buffer_max_s {
                    self.start_segment(tti, delivered_cum_bits);
                }
            }
        }

        let active = matches!(self.phase, Phase::Downloading { .. });
        self.tcp
            .on_tti(tti, queue_bytes, delivered_cum_bits, active)
    }
}

/// Ring-buffered recent throughput (helper for MEC-style hint computation
/// from CQI-derived capacity — an exponential moving average as in the
/// paper's application).
#[derive(Debug, Clone)]
pub struct Ema {
    alpha: f64,
    value: Option<f64>,
    _history: VecDeque<f64>,
}

impl Ema {
    pub fn new(alpha: f64) -> Self {
        Ema {
            alpha: alpha.clamp(0.0, 1.0),
            value: None,
            _history: VecDeque::new(),
        }
    }

    pub fn update(&mut self, sample: f64) -> f64 {
        let v = match self.value {
            None => sample,
            Some(prev) => prev + self.alpha * (sample - prev),
        };
        self.value = Some(v);
        v
    }

    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive a client against a fixed-rate bearer.
    fn run_client(mut client: DashClient, capacity_bytes_per_tti: u64, ttis: u64) -> DashClient {
        let mut queue = 0u64;
        let mut delivered_bits = 0u64;
        for t in 0..ttis {
            let inj = client.on_tti(Tti(t), Bytes(queue), delivered_bits);
            queue += inj.as_u64();
            let tx = queue.min(capacity_bytes_per_tti);
            queue -= tx;
            delivered_bits += tx * 8;
        }
        client
    }

    #[test]
    fn sustainable_level_plays_without_freezes() {
        // 2 Mb/s video on a 15 Mb/s link.
        let cfg = DashConfig::paper_low_ladder();
        let client = DashClient::new(cfg, Box::new(FixedAbr(1)));
        let done = run_client(client, 1875, 120_000);
        assert!(done.segments_completed > 40, "{}", done.segments_completed);
        assert_eq!(done.rebuffer_events, 0, "no freezes at sustainable rate");
    }

    #[test]
    fn oversized_level_freezes() {
        // 4 Mb/s video on a ~1.7 Mb/s link: must rebuffer.
        let cfg = DashConfig::paper_low_ladder();
        let client = DashClient::new(cfg, Box::new(FixedAbr(2)));
        let done = run_client(client, 212, 120_000);
        assert!(done.rebuffer_events > 0, "expected freezes");
    }

    #[test]
    fn reference_abr_tracks_throughput() {
        // 2.5 Mb/s effective link: the reference ABR should mostly sit at
        // the 2 Mb/s level (occasionally probing 4).
        let cfg = DashConfig::paper_low_ladder();
        let client = DashClient::new(cfg, Box::new(ReferenceAbr::default()));
        let done = run_client(client, 312, 60_000);
        let mean_bitrate: f64 = done.bitrate_series.iter().map(|p| p.1).sum::<f64>()
            / done.bitrate_series.len().max(1) as f64;
        assert!(
            (1.2..=4.0).contains(&mean_bitrate),
            "mean bitrate {mean_bitrate}"
        );
        assert!(done.segments_completed > 20);
    }

    #[test]
    fn assisted_abr_follows_hint() {
        let cfg = DashConfig::paper_4k_ladder();
        let mut client = DashClient::new(cfg, Box::new(AssistedAbr));
        client.set_hint(BitRate::from_mbps_f64(7.5));
        let done = run_client(client, 1875, 30_000);
        // Every chosen bitrate ≤ hint, and the top hinted level is used.
        assert!(
            done.bitrate_series.iter().all(|p| p.1 <= 7.31),
            "{:?}",
            done.bitrate_series
        );
        assert!(done.bitrate_series.iter().any(|p| (p.1 - 7.3).abs() < 0.01));
    }

    #[test]
    fn abr_context_estimator_is_harmonic() {
        let ctx = AbrContext {
            throughput_history: vec![
                BitRate::from_mbps(2),
                BitRate::from_mbps(4),
                BitRate::from_mbps(8),
            ],
            buffer_s: 0.0,
            buffer_max_s: 30.0,
            current_level: 0,
            hint: None,
        };
        // Harmonic mean of 2,4,8 = 3/(1/2+1/4+1/8) = 3.428... Mb/s.
        let est = ctx.throughput_estimate().unwrap();
        assert!((est.as_mbps_f64() - 3.4286).abs() < 0.01, "{est}");
        let empty = AbrContext {
            throughput_history: vec![],
            ..ctx
        };
        assert!(empty.throughput_estimate().is_none());
    }

    #[test]
    fn ema_converges() {
        let mut e = Ema::new(0.2);
        assert_eq!(e.update(10.0), 10.0);
        for _ in 0..100 {
            e.update(4.0);
        }
        assert!((e.value().unwrap() - 4.0).abs() < 0.01);
    }

    #[test]
    fn buffer_never_exceeds_cap() {
        let cfg = DashConfig::paper_low_ladder();
        let cap = cfg.buffer_max_s;
        let client = DashClient::new(cfg, Box::new(FixedAbr(0)));
        let done = run_client(client, 6250, 120_000);
        for (_, b) in &done.buffer_series {
            assert!(*b <= cap + 1e-9, "buffer {b} over cap {cap}");
        }
    }
}
