#!/usr/bin/env python3
"""Count linear maps L with L(e_0) = 0 for which x^3 + Tr(x)L(x) is APN.

Exhaustive for degree <= 5 (448 at n=4, 4608 at n=5); degree 6 runs
either a seeded random estimate or, with --exhaustive, the full 2^30
scan (about 0.1 s on one process; yields 35648).
"""
import argparse
import json

from apnlab import field_for, search_tr_l


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--samples", type=int, default=1_000_000,
                    help="sample count for the degree-6 estimate")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--exhaustive", action="store_true",
                    help="run the full degree-6 scan instead of sampling")
    args = ap.parse_args()
    spec = field_for(args.n)
    if args.n >= 6 and not args.exhaustive:
        rep = search_tr_l(spec, mode="random", samples=args.samples,
                          seed=args.seed, workers=args.workers)
        total = 1 << (args.n * (args.n - 1))
        est = rep.hits * total / rep.examined
        print(json.dumps({**rep.to_dict(), "estimated_total": round(est)},
                         indent=2))
    else:
        rep = search_tr_l(spec, workers=args.workers, long_ok=True)
        print(json.dumps(rep.to_dict(), indent=2))


if __name__ == "__main__":
    main()
