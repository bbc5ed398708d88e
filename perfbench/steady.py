"""Steadiness check: run each workload several times, each in fresh
processes with its own seed, and print every metric's median, quartiles
and spread (interquartile distance over median), next to its bound in
BENCHMARK.json, plus the jobs attempted and failed per run.

    python3 perfbench/steady.py --runs 10 [--workloads analyze search] [--trace 1]

The bounds in BENCHMARK.json are set from this spread.  The figures also
go to perfbench/out/steady-<trace>-<first seed>.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    report = {}
    for w in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True, timeout=180)
            res = json.loads(out.stdout.splitlines()[-1])
            info = json.loads(out.stderr.splitlines()[-1])
            runs.append({"seed": seed, **res, "info": info})
            print(f"{w} seed {seed}: attempted {res['attempted']} failed {res['failed']} "
                  f"correct {res['correct']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()
                      if bounds.get(k) is not None or args.trace), flush=True)
        stats = {}
        for k in runs[0]["metrics"]:
            vals = [r["metrics"][k]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            stats[k] = {"median": med, "q1": q1, "q3": q3,
                        "spread": (q3 - q1) / med if med else 0.0, "bound": bounds.get(k)}
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        report[w] = {"runs": runs, "stats": stats, "failed_shares": shares}
        print(f"== {w}: failed share per run {shares}")
        for k, s in stats.items():
            flag = ""
            if k == "setup_s":  # only its median is held to the bound
                flag = "(spread not held to the bound)"
            elif s["bound"] is not None:
                flag = "ok" if s["spread"] < s["bound"] / 3 else "WIDE"
            print(f"   {k:34s} median {s['median']:<12.5g} q1 {s['q1']:<12.5g} "
                  f"q3 {s['q3']:<12.5g} spread {s['spread']:.3f} "
                  f"bound {s['bound']} {flag}", flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    path = HERE / "out" / f"steady-{args.trace}-{args.first_seed}.json"
    path.write_text(json.dumps(report, indent=1))
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
