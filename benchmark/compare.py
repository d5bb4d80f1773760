#!/usr/bin/env python3
"""Compare result sets of two commits against the bounds of BENCHMARK.json.

    run.sh compare --base b1.json [b2.json ...] --change c1.json [c2.json ...]

Each file is a results file of `run.sh --out FILE`. Per (metric,
workload): both medians, the relative difference counted so that positive
is worse, the bound, and a verdict -- "unresolved" when the base runs'
own spread (first to third quartile over their median) is wider than the
bound, because then the bound cannot be read off these runs. Per-layer
metrics have no bound and are listed with their difference only.
"""
import argparse
import json
import os
import statistics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths):
    values = {}  # (workload, trace, metric) -> [value per run]
    for p in paths:
        for r in json.load(open(p))["runs"]:
            for name, m in r["metrics"].items():
                values.setdefault((r["workload"], r["trace"], name), []).append(m["value"])
    return values


def spread(v):
    if len(v) < 2 or statistics.median(v) == 0:
        return 0.0
    q = statistics.quantiles(v, n=4)
    return (q[2] - q[0]) / abs(statistics.median(v))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    args = ap.parse_args()
    contract = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    base, change = load(args.base), load(args.change)
    regressions = 0
    for kind, trace in (("end_to_end", 0), ("per_layer", 1)):
        print(f"== {kind}")
        for w in [x["name"] for x in contract["workloads"]]:
            for m in contract[kind]:
                b, c = base.get((w, trace, m["name"])), change.get((w, trace, m["name"]))
                if not b or not c:
                    continue
                bm, cm = statistics.median(b), statistics.median(c)
                if bm == 0:
                    diff = 0.0 if cm == 0 else float("inf")
                else:
                    diff = (cm - bm) / abs(bm) * (1 if m["better"] == "lower" else -1)
                line = (f"{w:13s} {m['name']:32s} base {bm:14.4f} change {cm:14.4f} "
                        f"{m['unit']:6s} worse by {diff:+8.2%}")
                if "bound" in m:
                    if spread(b) > m["bound"]:
                        verdict = f"unresolved (base spread {spread(b):.1%})"
                    elif diff > m["bound"]:
                        verdict = "REGRESSION"
                        regressions += 1
                    else:
                        verdict = "within bound"
                    line += f"  bound {m['bound']:.0%}  {verdict}  (n={len(b)}/{len(c)})"
                print(line)
    raise SystemExit(1 if regressions else 0)


if __name__ == "__main__":
    main()
