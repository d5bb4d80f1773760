#![forbid(unsafe_code)]
//! flexran-campaign — run a multi-seed campaign from the command line.
//!
//! ```text
//! flexran-campaign chaos --seeds 8 --ttis 2000 --configs 1,4 --workers 0 --out target/campaign
//! flexran-campaign sweep --seeds 8 --ttis 2000 --grid 1x16,2x32 --out target/campaign
//! ```
//!
//! `chaos` fans N seeds × M shard-spec variants of the seeded fault
//! orchestrator and fails (exit 1) on any oracle violation, printing
//! the exact `(config, seed, TTI)` pin to replay each one. `sweep` runs
//! the scale grid across seeds and writes a distribution-grade
//! `BENCH_scale.json`. Both write `campaign_<name>.json` (schema in
//! EXPERIMENTS.md §"Campaign reports") into `--out`.
//!
//! Exit codes: 0 pass, 1 campaign failed (violation / skipped runs /
//! cancelled), 2 usage error.

use std::io::Write as _;

use flexran_campaign::alloc_probe::CountingAllocator;
use flexran_campaign::chaos::{run_chaos_campaign, ChaosCampaignSpec, ChaosVariant};
use flexran_campaign::sweep::{parse_grid, run_sweep, SweepSpec};
use flexran_campaign::{CampaignReport, CancelToken};

/// Counted so campaign runs can report an allocs/TTI KPI.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const USAGE: &str = "\
usage: flexran-campaign <chaos|sweep> [flags]

  chaos — N seeds x M shard-spec variants of the seeded fault orchestrator
    --seeds N             seeds 0..N per variant          (default 8)
    --ttis N              chaos TTIs per run              (default 2000)
    --configs LIST        shard specs, e.g. 1,4,per-agent (default 1)
    --negative-control T  inject a PRB violation at TTI T (proves the
                          oracles fire and pin correctly; inverts exit)
  sweep — the scale grid across seeds; BENCH_scale.json with CIs
    --seeds N             seeds 0..N per grid point       (default 8)
    --ttis N              measured TTIs per run           (default 2000)
    --warmup N            warm-up TTIs per run            (default 2000)
    --grid LIST           grid points, e.g. 1x16,2x32     (default scale grid)

  common flags
    --workers N           pool threads; 0 = all cores     (default: chaos 0,
                          sweep 1 — sweep KPIs are wall-clock timings,
                          which concurrent runs would skew)
    --out DIR             report directory                (default target/campaign)
    --max-seconds S       cancel (cooperatively) after S seconds
    --quick               clamp to a smoke-sized campaign (4 seeds, 500 TTIs)

exit: 0 pass, 1 fail, 2 usage error";

fn parse<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value '{value}' for {flag}"))
}

/// Common campaign flags shared by both subcommands.
struct CommonArgs {
    workers: usize,
    out: std::path::PathBuf,
    max_seconds: Option<u64>,
    quick: bool,
}

impl CommonArgs {
    /// Defaults, with the subcommand's own `--workers` default.
    fn new(workers: usize) -> Self {
        CommonArgs {
            workers,
            out: std::path::PathBuf::from("target/campaign"),
            max_seconds: None,
            quick: false,
        }
    }

    /// Consume a common flag; `Ok(false)` means the flag is not a
    /// common one and the subcommand parser should reject it.
    fn consume(
        &mut self,
        flag: &str,
        value: &mut dyn FnMut() -> Result<String, String>,
    ) -> Result<bool, String> {
        match flag {
            "--workers" => self.workers = parse(&value()?, flag)?,
            "--out" => self.out = std::path::PathBuf::from(value()?),
            "--max-seconds" => self.max_seconds = Some(parse(&value()?, flag)?),
            "--quick" => self.quick = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }

    /// Arm the `--max-seconds` watchdog: a detached thread that sleeps
    /// and then cancels. Cooperative — in-flight runs finish, unstarted
    /// runs are skipped and the campaign reports itself cancelled.
    fn arm_watchdog(&self, cancel: &CancelToken) {
        if let Some(secs) = self.max_seconds {
            let cancel = cancel.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_secs(secs));
                cancel.cancel();
            });
        }
    }

    fn write_report(&self, report: &CampaignReport) -> Result<(), String> {
        std::fs::create_dir_all(&self.out)
            .map_err(|e| format!("create {}: {e}", self.out.display()))?;
        let path = self.out.join(format!("campaign_{}.json", report.name));
        let json = serde_json::to_string_pretty(&report.to_json())
            .map_err(|e| format!("serialize report: {e}"))?;
        std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("report: {}", path.display());
        Ok(())
    }
}

fn progress_line(
    name: &str,
) -> impl FnMut(&flexran_campaign::Progress<'_, flexran_campaign::RunRecord>) + '_ {
    move |p| {
        let r = p.result;
        let verdict = if r.pass { "ok" } else { "VIOLATION" };
        println!(
            "[{:>3}/{:>3}] {name} {} seed={} digest={:016x} {}",
            p.done, p.total, r.label, r.seed, r.digest, verdict
        );
        let _ = std::io::stdout().flush();
    }
}

fn run_chaos(args: &[String]) -> Result<i32, String> {
    // Chaos verdicts are deterministic per seed, so fan out over every core.
    let mut common = CommonArgs::new(0);
    let mut seeds = 8u64;
    let mut ttis = 2_000u64;
    let mut configs = vec!["1".to_string()];
    let mut negative_control: Option<u64> = None;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--seeds" => seeds = parse(&value()?, flag)?,
            "--ttis" => ttis = parse(&value()?, flag)?,
            "--configs" => {
                configs = value()?.split(',').map(|s| s.trim().to_string()).collect();
            }
            "--negative-control" => negative_control = Some(parse(&value()?, flag)?),
            other => {
                if !common.consume(other, &mut value)? {
                    return Err(format!("unknown chaos flag '{other}'"));
                }
            }
        }
    }
    if common.quick {
        seeds = seeds.min(4);
        ttis = ttis.min(500);
    }

    let mut spec = ChaosCampaignSpec::new(seeds, ttis, common.resolved_workers());
    spec.variants = configs
        .iter()
        .map(|t| ChaosVariant::parse(t))
        .collect::<Result<Vec<_>, _>>()?;
    spec.base.inject_violation_at = negative_control;

    let cancel = CancelToken::new();
    common.arm_watchdog(&cancel);
    println!(
        "campaign chaos: {} seeds x {} variants, {} TTIs/run, {} workers",
        seeds,
        spec.variants.len(),
        ttis,
        spec.workers
    );
    let report = run_chaos_campaign(&spec, &cancel, &mut progress_line("chaos"));
    print!("{}", report.render_text());
    common.write_report(&report)?;

    if let Some(tti) = negative_control {
        // Negative control: the campaign must FAIL, and every seed's
        // roll-up must pin a violation at (or right after) the
        // injection TTI. A green negative control means dead oracles.
        let every_run_pinned = report
            .completed()
            .all(|r| r.violations.iter().any(|v| v.tti >= tti));
        let ok = !report.pass() && report.skipped() == 0 && every_run_pinned;
        println!(
            "negative control (inject at TTI {tti}): {}",
            if ok {
                "oracles fired and pinned — ok"
            } else {
                "NOT DETECTED"
            }
        );
        return Ok(if ok { 0 } else { 1 });
    }
    Ok(if report.pass() { 0 } else { 1 })
}

fn run_sweep_cmd(args: &[String]) -> Result<i32, String> {
    // One run at a time: the sweep measures wall-clock TTI latency.
    let mut common = CommonArgs::new(1);
    let mut spec = SweepSpec::default();

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--seeds" => spec.seeds = parse(&value()?, flag)?,
            "--ttis" => spec.ttis = parse(&value()?, flag)?,
            "--warmup" => spec.warmup = parse(&value()?, flag)?,
            "--grid" => spec.grid = parse_grid(&value()?)?,
            other => {
                if !common.consume(other, &mut value)? {
                    return Err(format!("unknown sweep flag '{other}'"));
                }
            }
        }
    }
    if common.quick {
        spec.seeds = spec.seeds.min(4);
        spec.ttis = spec.ttis.min(500);
        spec.grid.truncate(2);
    }
    spec.workers = common.resolved_workers();

    let cancel = CancelToken::new();
    common.arm_watchdog(&cancel);
    println!(
        "campaign sweep: {} grid points x {} seeds, {} TTIs/run, {} workers",
        spec.grid.len(),
        spec.seeds,
        spec.ttis,
        spec.workers
    );
    let report = run_sweep(&spec, &cancel, &mut progress_line("sweep"));
    print!("{}", report.render_text());
    common.write_report(&report)?;

    let bench = flexran_campaign::sweep::sweep_json(&report, &spec);
    let path = common.out.join("BENCH_scale.json");
    let json = serde_json::to_string_pretty(&bench).map_err(|e| format!("serialize sweep: {e}"))?;
    std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("sweep distributions: {}", path.display());
    Ok(if report.pass() { 0 } else { 1 })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.split_first() {
        Some((cmd, rest)) if cmd == "chaos" => run_chaos(rest),
        Some((cmd, rest)) if cmd == "sweep" => run_sweep_cmd(rest),
        Some((cmd, _)) if cmd == "--help" || cmd == "-h" || cmd == "help" => {
            println!("{USAGE}");
            Ok(0)
        }
        Some((cmd, _)) => Err(format!("unknown subcommand '{cmd}'")),
        None => Err("missing subcommand".to_string()),
    }
    .unwrap_or_else(|err| {
        eprintln!("error: {err}\n\n{USAGE}");
        2
    });
    std::process::exit(code);
}
