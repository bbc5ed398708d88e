"""apnlab benchmark: one workload, one seed, one run length.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 22 --trace 0

Runs from the root of a source checkout.  The workload runs in a fresh
single-threaded process (perfbench/worker.py) that calls
`apnlab.cli.main` in-process; further fresh processes measure set-up
time.  After the timed run this process checks every job's output
against perfbench/checks.py, which does not import apnlab, and prints
as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones from a traced run, which alternates untraced and
traced rounds.  A job counts as failed when its only fault is the
program's signed-Walsh comparison (see README.md); any other mismatch
makes `correct` false.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

SETUP_SAMPLES = 4  # set-up-only processes, besides the timed one
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def worker(args, workdir: Path, results: Path, setup_only: bool,
           trace_file: Path | None = None) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update({v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir),
           "--results", str(results)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    subprocess.run(cmd, env=env, check=True, timeout=60 if setup_only else args.seconds + 100)
    return [json.loads(line) for line in results.read_text().splitlines()]


def p50_ref(recs: list[dict]) -> float:
    """Median job time in reference-loop units: each job's wall time over
    the mean of the reference loops run just before and after it."""
    return statistics.median(r["seconds"] / r["ref_seconds"] for r in recs)


def per_layer(wl, summary: dict, recs: list[dict]) -> dict:
    spans = summary["spans"]
    jobs = max(summary["traced_jobs"], 1)

    def get(name, key="dur"):
        return spans.get(name, {}).get(key, 0.0)

    def ms(*names, key="dur"):
        return 1e3 * sum(get(n, key) for n in names) / jobs

    field_total = sum(part.get(n, {}).get("dur", 0.0)
                      for part in (spans, summary["warmup_spans"])
                      for n in ("field.field_for", "field.tables"))
    m = {
        "field.field_for_ms": ("ms", 1e3 * field_total),
        "cli.self_ms": ("ms", ms("cli.main", key="self")),
        "io.read_ms": ("ms", ms("io.read_vbf1", "io.read_lin1")),
        "io.write_ms": ("ms", ms("io.write")),
        "vbf.is_apn_ms": ("ms", ms("vbf.is_apn")),
        "vbf.is_apn_calls": ("count", get("vbf.is_apn", "calls") / jobs),
        "vbf.ddt_ms": ("ms", ms("vbf.ddt")),
        "vbf.walsh_ms": ("ms", ms("vbf.walsh")),
        "vbf.anf_ms": ("ms", ms("vbf.anf")),
        "vbf.dstar_ms": ("ms", ms("vbf.dstar")),
        "constructions.th31_ms": ("ms", ms("constructions.th31", key="self")),
        "constructions.admissible_ms": ("ms", ms("constructions.admissible", key="self")),
        "constructions.concat_ms": ("ms", ms("constructions.concat", key="self")),
        "constructions.switch_ms": ("ms", ms("constructions.switch", key="self")),
        "constructions.build_ms": ("ms", ms("constructions.build")),
        "vbf.build_ms": ("ms", ms("vbf.build")),
    }
    holds = [h for r in recs for h in wl.holds(r)] if wl.name == "certify" else []
    m["constructions.certified"] = ("count", len(holds))
    m["constructions.holds_ratio"] = ("ratio", sum(holds) / max(len(holds), 1))
    ex, rnd = "search.search_tr_l.exhaustive", "search.search_tr_l.random"
    m["search.exhaustive_ms"] = ("ms", ms(ex, key="self"))
    m["search.random_ms"] = ("ms", ms(rnd, key="self"))
    m["search.rng_ms"] = ("ms", ms(rnd, key="leaf"))
    m["search.verify_ms"] = ("ms", ms(ex, rnd, key="child"))
    for mode, name, call in (("exhaustive", ex, 0), ("random", rnd, 1)):
        reports = [json.loads(r["stdout"][call]) | {"traced": r["traced"]}
                   for r in recs if wl.name == "search"]
        examined = sum(rep["examined"] for rep in reports if rep["traced"])
        m[f"search.{mode}_maps_per_s"] = ("1/s", examined / get(name) if get(name) else 0.0)
        m[f"search.{mode}_hits"] = (
            "count", sum(rep["hits"] for rep in reports) / max(len(reports), 1))
    m["invariants.gamma_rank_ms"] = ("ms", ms("invariants.gamma_rank"))
    m["invariants.gamma_rank_calls"] = ("count", get("invariants.gamma_rank", "calls") / jobs)
    m["invariants.bundle_ms"] = ("ms", ms("invariants.bundle", key="self"))
    m["invariants.distinguish_ms"] = ("ms", ms("invariants.distinguish", key="self"))
    p50 = {t: p50_ref([r for r in recs if r["traced"] is t]) for t in (True, False)}
    m["trace.traced_job_p50_ref"] = ("ref", p50[True])
    m["trace.untraced_job_p50_ref"] = ("ref", p50[False])
    m["trace.overhead_pct"] = ("%", 100 * (p50[True] / p50[False] - 1))
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "apnlab" / "cli.py").is_file() \
            or not (ROOT / "tests" / "_oracles.py").is_file():
        print(f"error: no apnlab source tree under {ROOT}", file=sys.stderr)
        return 2

    import checks
    from workloads import OK, SIGNED_WALSH, WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    checks.self_test(ROOT)
    wl = WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_SAMPLES):
                setups += worker(args, workdir, workdir / f"setup{i}.jsonl", True)
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json" if args.trace else None
        lines = worker(args, workdir, workdir / "run.jsonl", False, trace_file)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    *recs, summary = lines
    setups.append(summary)

    wrong: list[str] = []
    if any(s["warmup_codes"] != [0] * len(s["warmup_codes"]) for s in setups):
        wrong.append("a warm-up job did not exit 0")
    failed = 0
    rounds: dict[int, list] = {}
    for r in recs:
        if r["round"] not in rounds:
            rounds = {r["round"]: wl.make_round(args.seed, r["round"])}
        verdict = wl.check(rounds[r["round"]][r["slot"]], r)
        if verdict == SIGNED_WALSH:
            failed += 1
        elif verdict != OK:
            wrong.append(f"round {r['round']} job {r['slot']}: {verdict}")

    times = sorted(r["seconds"] for r in recs)
    info = {"jobs": len(recs), "rounds": recs[-1]["round"] + 1 if recs else 0,
            "failed": failed, "wrong": wrong[:5],
            "job_p50_ms": 1e3 * statistics.median(times),
            "jobs_per_s": len(times) / sum(times),
            "ref_p50_ms": 1e3 * statistics.median(r["ref_seconds"] for r in recs)}
    if len(times) >= 40:
        info["tail_ms"] = 1e3 * times[-11]
    if args.trace:
        metrics = per_layer(wl, summary, recs)
    else:
        metrics = {
            "setup_s": ("s", statistics.median(s["setup_s"] for s in setups)),
            "job_p50_ref": ("ref", p50_ref(recs)),
            "peak_rss_mb": ("MB", summary["peak_rss_mb"]),
        }
    print(json.dumps(info), file=sys.stderr)
    print(json.dumps({
        "correct": not wrong, "attempted": len(recs), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (u, v) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
