//! flexran-campaign — the parallel multi-seed campaign orchestrator.
//!
//! Soaks, sweeps and chaos experiments all share a shape: run the same
//! deterministic simulation N times under independent seeds (and config
//! variants), then decide pass/fail and report KPIs. Run one at a time,
//! that shape yields anecdotes — one seed, one number, no variance.
//! This crate turns it into a statistics-grade test:
//!
//! * [`pool`] fans independent runs over a worker pool of OS threads
//!   (one process), with cooperative cancellation and results filed by
//!   *plan index*, so aggregation is deterministic regardless of
//!   completion order or worker count.
//! * [`report`] aggregates per-run records into one machine-readable
//!   [`CampaignReport`]: per-seed digest + verdict, oracle-violation
//!   pins carrying the exact `(seed, TTI)` for bit-identical replay,
//!   and KPI distributions.
//! * [`stats`] computes those distributions from the collected samples
//!   with *exact* nearest-rank percentiles (p50/p95/p99), a mean, a
//!   sample standard deviation and a 95% CI — property-tested against
//!   an independent oracle.
//! * [`chaos`] plans N seeds × M shard-spec variants of the seeded
//!   fault orchestrator (`flexran-chaos`) — the campaign behind
//!   `flexran-campaign chaos`, the only way to run chaos, and the
//!   `scripts/check.sh` chaos gate.
//! * [`sweep`] runs the scale grid across seeds so `BENCH_scale.json`
//!   gains confidence intervals instead of single-run points.
//! * [`alloc_probe`] is the workspace's one counting allocator: binaries
//!   install it with `#[global_allocator]`, and runs read it for the
//!   allocs/TTI KPI (`None` where no binary installed it).
//!
//! The load-bearing contract, pinned by `tests/campaign.rs`: a run's
//! digest and fault log depend only on its `(seed, config)` — never on
//! the pool, the worker count, or its neighbours — so a campaign is
//! exactly as trustworthy as the serial runs it replaces, just N of
//! them at once.

#![deny(unsafe_code)]

#[allow(unsafe_code)]
pub mod alloc_probe;
pub mod chaos;
pub mod pool;
pub mod report;
pub mod stats;
pub mod sweep;

pub use pool::{run_pool, CancelToken, Progress};
pub use report::{CampaignReport, RunRecord, ViolationPin};
pub use stats::{percentile, Distribution};
