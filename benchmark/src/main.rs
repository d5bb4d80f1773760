//! `flexran-benchmark --workload NAME --seed N --seconds S --trace 0|1`
//! runs one workload once and prints, as the last line of its standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--smoke` measures a fixed 2 000 TTIs instead of seconds.

use flexran_benchmark::alloc::CountingAlloc;
use flexran_benchmark::metrics::{END_TO_END, PER_LAYER};
use flexran_benchmark::run::{run, Options, Workload, SMOKE_TTIS};
use flexran_benchmark::stats::WINDOW;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn usage() -> ! {
    eprintln!(
        "usage: flexran-benchmark --workload {{dense_local|central_ctrl|tcp_loop|fleet_events}} \
         [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out-dir DIR]"
    );
    std::process::exit(2);
}

fn parse() -> Options {
    let mut opts = Options {
        workload: Workload::DenseLocal,
        seed: 7,
        seconds: 20.0,
        trace: false,
        smoke: false,
        out_dir: "benchmark/out".into(),
    };
    let mut workload = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value()),
            "--seed" => opts.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => opts.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => opts.trace = value() == "1",
            "--smoke" => opts.smoke = true,
            "--out-dir" => opts.out_dir = value(),
            _ => usage(),
        }
    }
    opts.workload = workload.unwrap_or_else(|| usage());
    opts
}

fn main() {
    let opts = parse();
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let out = run(&opts);
    let w = opts.workload.name();
    let table = if opts.trace { PER_LAYER } else { END_TO_END };

    println!(
        "workload {w}  seed {}  trace {}  {}",
        opts.seed,
        opts.trace as u8,
        if opts.smoke {
            format!("smoke ({SMOKE_TTIS} TTIs)")
        } else {
            format!("{} s", opts.seconds)
        }
    );
    println!(
        "load model: closed loop, one generator thread in one process{}, loopback only, nproc={nproc}",
        match opts.workload {
            Workload::FleetEvents if opts.trace =>
                " (the `core.par_*` probe adds the engine's own 2 workers)",
            Workload::TcpLoop => ", 2 TCP connections",
            _ => "",
        }
    );
    println!(
        "samples: {} TTIs measured in {} windows of {WINDOW}; ttis_per_s, p50 and p99w are the \
         lower decile over windows of the window mean, median and p99 (20 samples beyond it)",
        out.ttis, out.windows
    );
    for (name, unit) in table {
        println!("  {name:<34} {:>16.4} {unit}", out.metrics.get(name));
    }
    if !opts.trace {
        let enbs = out.n_enbs as f64;
        println!(
            "  {:<34} {:>16.4} cells (eNBs x 1000 / tti_us_p99w)",
            "cells_at_budget",
            enbs * 1000.0 / out.metrics.get("tti_us_p99w").max(1e-9)
        );
        println!(
            "  {:<34} {:>16.4} cells (eNBs x ttis_per_s / 1000)",
            "cells_per_core",
            enbs * out.metrics.get("ttis_per_s") / 1000.0
        );
    }
    println!("digest {:016x}", out.digest);
    for p in &out.problems {
        println!("CHECK FAILED: {p}");
    }
    let exact: Vec<String> = out
        .exact
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!(
        "detail: {{\"workload\": \"{w}\", \"seed\": {}, \"trace\": {}, \"digest\": \"{:016x}\", \
         \"ttis\": {}, \"windows\": {}, \"nproc\": {nproc}, \"exact\": {{{}}}}}",
        opts.seed,
        opts.trace as u8,
        out.digest,
        out.ttis,
        out.windows,
        exact.join(", ")
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        out.metrics.to_json(table)
    );
    if !out.correct {
        std::process::exit(1);
    }
}
