#![forbid(unsafe_code)]
//! # flexran-sim
//!
//! The virtual-time simulation substrate for the FlexRAN platform — the
//! pieces of the paper's testbed that are not FlexRAN itself:
//!
//! * [`clock`] — the shared virtual clock (1 tick = 1 TTI = 1 ms).
//! * [`link`] — the control-channel emulator: a `netem`-equivalent link
//!   with configurable latency/jitter/rate/loss carrying FlexRAN protocol
//!   messages in virtual time, with per-category byte accounting
//!   (replaces the paper's Gigabit Ethernet + `netem` setup).
//! * [`traffic`] — the EPC-side traffic generators (uniform/CBR UDP,
//!   Poisson, on-off, full-buffer) used by every throughput experiment.
//! * [`tcp`] — a NewReno-style TCP download model over the LTE bearer
//!   (the "speedtest"/iperf substitute for Table 2 and the MEC use case).
//! * [`dash`] — a DASH streaming client model with pluggable ABR: the
//!   reference throughput-rule player and the FlexRAN-assisted player.
//! * [`radio`] — per-UE channel processes and multi-cell geometry wired
//!   into the data plane's `PhyView`.
//! * [`metrics`] — throughput meters, time series and CDFs used to
//!   reproduce the paper's figures.
//!
//! The full orchestration of eNodeBs + agents + master controller lives
//! in the umbrella `flexran` crate; this crate deliberately stays below
//! the control plane in the dependency order.

pub mod clock;
pub mod dash;
pub mod link;
pub mod metrics;
pub mod radio;
pub mod tcp;
pub mod traffic;

pub use clock::VirtualClock;
pub use link::{sim_link_pair, LinkConfig, SimTransport};
pub use metrics::{Cdf, ThroughputMeter, TimeSeries};
pub use radio::{PhyAdapter, RadioEnvironment, UeRadio};
pub use tcp::{TcpFlow, TcpParams};
pub use traffic::{CbrSource, FullBufferSource, OnOffSource, PoissonSource, TrafficSource};
