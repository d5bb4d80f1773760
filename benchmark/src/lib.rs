//! The repository benchmark: four workloads that drive FlexRAN through
//! its public API, end-to-end metrics from an untraced run and a
//! per-layer ledger from a traced one. See `benchmark/README.md`.

pub mod alloc;
pub mod harness_wl;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod scenario;
pub mod spans;
pub mod stats;
pub mod tcp_loop;
pub mod timed;
