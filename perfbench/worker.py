"""One workload in one fresh process: import apnlab, run an untimed
warm-up job, then whole rounds of timed jobs until the run length is
reached.  Each job calls `apnlab.cli.main` in-process, between two runs
of a fixed reference loop.  Job records go to
a JSON-lines file, one line per job, then a summary line; the parent
process (perfbench/run.py) checks them.  With --setup-only the process
stops after the warm-up job.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
from collections import defaultdict
from functools import cache
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent


@cache
def _reference_arrays():
    # numpy is imported here, after set-up time is measured, not at the
    # top of the module, so that set-up time still includes its import.
    import numpy as np
    return np.arange(1 << 14, dtype=np.int64), (np.arange(1 << 12, dtype=np.int64) * 40503) & 0xFFF


def reference_loop(kinds: tuple[str, ...]) -> float:
    """Wall time of a fixed loop that does not touch apnlab.  Its "python"
    part is about 1 ms of interpreted integer and dict work; its "numpy"
    part is about 1 ms of numpy gathers, XORs and reductions over
    2^14-element arrays.  Each workload runs the parts that match the work
    its jobs spend their time in (`Workload.reference`).  The loop runs
    just before and just after each timed job, outside the job's clock,
    so each job's time can be set against the host's speed at that moment
    (see README.md, Steadiness)."""
    y, table = _reference_arrays()
    t = perf_counter()
    acc = 0
    if "python" in kinds:
        x, d = 0x9E3779B97F4A7C15, {}
        for i in range(4000):
            x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
            acc ^= x >> (i & 31)
            d[i & 255] = acc
    if "numpy" in kinds:
        for _ in range(16):
            y = table[(y ^ (y >> 3)) & 0xFFF]
            acc ^= int((y & 1).sum())
    return perf_counter() - t


def run_job(cli, job, tracer, jid: int, reference: tuple[str, ...]) -> dict:
    for name, text in job.files.items():
        Path(name).write_text(text)
    if tracer is not None:
        tracer.job = jid
    codes, outs = [], []
    ref0 = reference_loop(reference)
    t0 = perf_counter()
    for argv in job.calls:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                codes.append(cli.main(list(argv)))
            except SystemExit as e:
                codes.append(e.code)
            except Exception as e:  # a crash is a wrong output, not a lost run
                codes.append(f"{type(e).__name__}: {e}")
        outs.append(buf.getvalue())
    seconds = perf_counter() - t0
    ref1 = reference_loop(reference)
    outputs = {}
    for name in job.outputs:
        p = Path(name)
        outputs[name] = p.read_text() if p.exists() else ""
    for name in list(job.files) + job.outputs:
        Path(name).unlink(missing_ok=True)
    return {"seconds": seconds, "ref_seconds": (ref0 + ref1) / 2, "codes": codes,
            "stdout": outs, "outputs": outputs}


def span_totals(tracer, jobs: set[int]) -> dict:
    """Per span name, over the spans of the given jobs: summed duration of
    the spans with no ancestor of the same name, summed self time, summed
    child-span time, summed leaf time, and the call count."""
    spans = tracer.spans
    out = defaultdict(lambda: {"dur": 0.0, "self": 0.0, "child": 0.0, "leaf": 0.0,
                               "calls": 0})
    for s in spans:
        if s.job not in jobs:
            continue
        t = out[s.name]
        t["self"] += s.self_time
        t["child"] += s.child
        t["leaf"] += s.leaf
        t["calls"] += 1
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        if p is None:
            t["dur"] += s.duration
    return dict(out)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--results", required=True)
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args()

    t0 = perf_counter()
    import apnlab.cli as cli
    import_s = perf_counter() - t0

    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    os.chdir(args.workdir)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    warm = run_job(cli, wl.warmup(), tracer, -1, wl.reference)
    summary = {"summary": True, "setup_s": import_s + warm["seconds"],
               "warmup_codes": warm["codes"]}
    with open(args.results, "w") as out:
        if not args.setup_only:
            traced_jobs: set[int] = set()
            start = perf_counter()
            k = jid = 0
            # at least one round, and one traced round when tracing
            min_rounds = 1 if tracer is None else 2
            while k < min_rounds or perf_counter() - start < args.seconds:
                traced = tracer is not None and k % 2 == 1
                if tracer is not None:
                    tracer.install() if traced else tracer.uninstall()
                for slot, job in enumerate(wl.make_round(args.seed, k)):
                    rec = run_job(cli, job, tracer if traced else None, jid, wl.reference)
                    rec.update(round=k, slot=slot, traced=traced)
                    out.write(json.dumps(rec) + "\n")
                    if traced:
                        traced_jobs.add(jid)
                    jid += 1
                k += 1
            summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if tracer is not None:
                tracer.uninstall()
                summary["spans"] = span_totals(tracer, traced_jobs)
                summary["warmup_spans"] = span_totals(tracer, {-1})
                summary["traced_jobs"] = len(traced_jobs)
                if args.trace_file:
                    with open(args.trace_file, "w") as fh:
                        json.dump({"fields": ["id", "name", "parent", "job", "start", "end"],
                                   "spans": [s.to_list() for s in tracer.spans]}, fh)
        out.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
