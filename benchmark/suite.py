#!/usr/bin/env python3
"""The whole suite, for people: every workload untraced (end-to-end
metrics), then traced for a quarter of the time (per-layer metrics).

Called by run.sh, which builds first. Each run is its own process of the
benchmark binary -- the same one-run mode the driver of BENCHMARK.json
uses -- so peak RSS and set-up are per run. Streams each run's report,
checks outputs, writes the results file and exits non-zero when any
check fails.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def one_run(binary, workload, seed, seconds, trace, smoke, out_dir):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--trace", str(trace),
           "--seconds", str(seconds), "--out-dir", out_dir]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    detail, result = {}, None
    for line in lines:
        if line.startswith("detail: "):
            detail = json.loads(line[len("detail: "):])
        elif line.startswith("{"):
            result = json.loads(line)
        else:
            print(line)
    sys.stderr.write(proc.stderr)
    if result is None:
        print(f"CHECK FAILED: {workload} trace={trace} printed no result (exit {proc.returncode})")
        return None
    return {"workload": workload, "trace": trace, "exit": proc.returncode, **detail, **result}


def main():
    contract = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in contract["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bin", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--smoke", action="store_true", help="2 000 TTIs per run, under a minute in all")
    ap.add_argument("--repeat", type=int, default=1, help="run the suite K times and compare the sets")
    ap.add_argument("--seconds", type=float, default=contract["run_seconds"])
    ap.add_argument("--out", default=os.path.join("benchmark", "out", "results.json"))
    args = ap.parse_args()

    out_path = args.out if os.path.isabs(args.out) else os.path.join(ROOT, args.out)
    out_dir = os.path.dirname(out_path)
    runs, ok = [], True
    for rep in range(args.repeat):
        for w in [args.workload] if args.workload else names:
            for trace in (0, 1):
                seconds = args.seconds if trace == 0 else args.seconds / 4
                print(f"--- repeat {rep + 1}/{args.repeat}  {w}  {'traced' if trace else 'untraced'}")
                r = one_run(args.bin, w, args.seed, seconds, trace, args.smoke, out_dir)
                if r is None or r["exit"] != 0 or not r["correct"]:
                    ok = False
                if r is not None:
                    runs.append({"repeat": rep, **r})

    # One commit, one seed: the simulated statistics must not depend on
    # the run, nor on whether it was traced.
    for w in names:
        mine = [r for r in runs if r["workload"] == w]
        if len({r["digest"] for r in mine}) > 1:
            print(f"CHECK FAILED: {w}: digests differ between runs: {sorted({r['digest'] for r in mine})}")
            ok = False
        if len({json.dumps(r["exact"], sort_keys=True) for r in mine}) > 1:
            print(f"CHECK FAILED: {w}: exact counts differ between runs")
            ok = False

    # With repeats: do two sets of one commit agree within the bounds?
    if args.repeat >= 2 and not args.smoke:
        half = args.repeat // 2
        for w in names:
            for m in contract["end_to_end"]:
                def med(reps):
                    v = [r["metrics"][m["name"]]["value"] for r in runs
                         if r["workload"] == w and r["trace"] == 0 and r["repeat"] in reps]
                    return statistics.median(v) if v else None
                a, b = med(range(half)), med(range(half, args.repeat))
                if a is None or b is None or a == 0:
                    continue
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                verdict = "ok" if abs(worse) <= m["bound"] else "DISAGREE"
                print(f"repeat-sets {w:13s} {m['name']:18s} first {a:12.4f} second {b:12.4f} "
                      f"{worse:+7.2%} (bound {m['bound']:.0%}) {verdict}")
                ok &= verdict == "ok"

    os.makedirs(out_dir, exist_ok=True)
    with open(out_path, "w") as f:
        json.dump({
            "seed": args.seed, "smoke": args.smoke, "seconds": args.seconds,
            "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                     "kernel": platform.release()},
            "runs": runs,
        }, f, indent=1)
    print(f"wrote {args.out}; {'all checks passed' if ok else 'SOME CHECKS FAILED'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
