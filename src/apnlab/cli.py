"""Command-line front end: analyze function tables, verify reference
results, run certified constructions, run searches, and compute ranks.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage or parse error.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from functools import cache
from typing import Optional

from .constructions import (
    CosetDecomposition,
    SwitchSpec,
    admissible_sums,
    coset_criterion,
    coset_modify,
    concat_is_apn,
    concatenate,
    hyperplane_modify,
    nyberg_root_count,
    nyberg_roots,
    switch,
    table1_functions,
    th31_criterion,
    th31_witness,
)
from .field import FieldSpec, field_for
from .invariants import (
    MAX_RANK_SIDE_BITS,
    classical_spectrum,
    distinguish,
    gamma_rank,
    invariant_bundle,
)
from .io import FormatError, read_lin1, read_vbf1, write_vbf1
from .search import VerificationError, exp_sum_crosscheck, search_tr_l
from .vbf import VBF, from_univariate, power_function

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _parse_hex(s: str) -> int:
    return int(s, 16)


class _Checks:
    """Accumulates pass/fail lines for verify-style reports."""

    def __init__(self, out):
        self.out = out
        self.failed = 0

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        if not ok:
            self.failed += 1
        tail = f"  ({detail})" if detail else ""
        print(f"[{'PASS' if ok else 'FAIL'}] {label}{tail}", file=self.out)

    def exit_code(self) -> int:
        return EXIT_OK if self.failed == 0 else EXIT_FAIL


# -- analyze ---------------------------------------------------------------

def cmd_analyze(args, out=None) -> int:
    out = out or sys.stdout
    try:
        with open(args.path) as fh:
            F = read_vbf1(fh)
    except FormatError as e:
        print(f"error: {args.path}: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    if F.n == F.m:
        try:
            F = VBF(F.n, F.m, F.table, spec=field_for(F.n, args.modulus))
        except ValueError:
            pass
    print(f"n: {F.n}", file=out)
    print(f"m: {F.m}", file=out)
    uniformity = F.uniformity()
    apn = uniformity <= 2
    degree = F.algebraic_degree()
    print(f"uniformity: {uniformity}", file=out)
    print(f"APN: {str(apn).lower()}", file=out)
    print(f"algebraic degree: {degree}", file=out)
    print(f"quadratic: {str(degree <= 2).lower()}", file=out)
    ws = F.walsh_spectrum()
    hist = ", ".join(f"{v}:{c}" for v, c in ws.values)
    print(f"walsh histogram: {hist}", file=out)
    if F.n == F.m and F.n % 2 == 0 and F.n >= 4 and apn:
        classical = ws.magnitudes() == classical_spectrum(F.n).magnitudes()
        verdict = "classical" if classical else "non-classical"
        print(f"spectrum: {verdict}", file=out)
    return EXIT_OK


# -- verify ----------------------------------------------------------------

def _verify_table1(args, out) -> int:
    ck = _Checks(out)
    spec = field_for(6)
    funcs = table1_functions(spec)
    classical = classical_spectrum(6).magnitudes()
    for i, G in enumerate(funcs, start=1):
        ck.check(f"G_{i} APN and quadratic", G.is_apn() and G.is_quadratic())
    for i, G in enumerate(funcs, start=1):
        ws = G.walsh_spectrum()
        rank = f"Gamma-rank {gamma_rank(G)}"
        if i == 7:
            ck.check(
                "G_7 non-classical with value set {0, +/-8, +/-16, +/-32}",
                ws.magnitudes() != classical
                and ws.value_set() == {0, 8, -8, 16, -16, 32, -32},
                rank,
            )
        else:
            ck.check(f"G_{i} spectrum classical", ws.magnitudes() == classical, rank)
    return ck.exit_code()


def _verify_theorem35(args, out) -> int:
    n = args.n if args.n is not None else 4
    if n not in (3, 4):
        print("error: exhaustive criterion check supports n in {3, 4}",
              file=sys.stderr)
        return EXIT_USAGE
    ck = _Checks(out)
    rep = exp_sum_crosscheck(field_for(n))
    ck.check(
        f"criterion <=> APN on {rep.agreements}/{rep.examined} maps",
        rep.agrees,
        f"{rep.criterion_hits} hits, {rep.seconds:.1f}s",
    )
    return ck.exit_code()


def _verify_example_n8(args, out) -> int:
    """The degree-8 coset example; --long adds the two ranks (~1 min each)."""
    ck = _Checks(out)
    spec = field_for(8)
    cube = power_function(spec, 3)
    dec = CosetDecomposition.from_subfield_trace(spec)
    _, w, w2 = spec.cube_roots_of_unity()
    adm = admissible_sums(cube, dec)
    ck.check("admissible sums = {0, 1, g^85, g^170}",
             adm == frozenset({0, 1, w, w2}))
    G = coset_modify(cube, dec, (0, 0, w2, 1))
    target = from_univariate(spec, [(1, 3)])
    closed = tuple(
        v ^ (spec.mul(w, spec.trace_to_subfield(x, 2))
             if spec.trace_absolute(x) else 0)
        for x, v in enumerate(target.table)
    )
    ck.check("modified table equals x^3 + g^85*Tr_1(x)*Tr_2(x)",
             G.table == closed)
    ck.check("modified function is APN", G.is_apn())
    if not args.long:
        return ck.exit_code()
    t0 = time.monotonic()
    rF = gamma_rank(cube)
    ck.check("rank of x^3 incidence matrix = 11818", rF == 11818,
             f"got {rF}, {time.monotonic() - t0:.0f}s")
    t0 = time.monotonic()
    rG = gamma_rank(G)
    ck.check("rank of modified incidence matrix = 13842", rG == 13842,
             f"got {rG}, {time.monotonic() - t0:.0f}s")
    return ck.exit_code()


def _verify_nyberg(args, out) -> int:
    ck = _Checks(out)
    for n in (4, 6):
        spec = field_for(n)
        _, w, w2 = spec.cube_roots_of_unity()
        ok = True
        for a in range(1, spec.size):
            for b in range(spec.size):
                if nyberg_root_count(spec, a, b) != len(nyberg_roots(spec, a, b)):
                    ok = False
        ck.check(f"n={n}: predicted root counts match enumeration", ok)
        a = spec.generator
        roots = set(nyberg_roots(spec, a, spec.inv(a)))
        ck.check(f"n={n}: b=1/a root set is {{0, a, wa, w^2 a}}",
                 roots == {0, a, spec.mul(w, a), spec.mul(w2, a)})
    return ck.exit_code()


_VERIFY_TARGETS = {
    "table1": _verify_table1,
    "theorem35": _verify_theorem35,
    "example-n8": _verify_example_n8,
    "nyberg": _verify_nyberg,
}


def cmd_verify(args, out=None) -> int:
    out = out or sys.stdout
    return _VERIFY_TARGETS[args.target](args, out)


# -- construct -------------------------------------------------------------

def _read_vbf(path: str, spec: Optional[FieldSpec] = None) -> VBF:
    with open(path) as fh:
        return read_vbf1(fh, spec)


def _emit(args, G: VBF, cert: dict, out) -> None:
    with open(args.out, "w") as fh:
        write_vbf1(fh, G)
    text = json.dumps(cert, indent=2)
    if args.cert:
        with open(args.cert, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text, file=out)


def cmd_construct(args, out=None) -> int:
    out = out or sys.stdout
    try:
        return _construct_dispatch(args, out)
    except (OSError, ValueError) as e:  # FormatError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def _construct_dispatch(args, out) -> int:
    if args.kind == "hmod":
        spec = field_for(args.n, args.modulus)
        F = power_function(spec, 3) if args.f is None else _read_vbf(args.f, spec)
        with open(args.map) as fh:
            L = read_lin1(fh, spec)
        G = hyperplane_modify(F, L)
        holds = th31_criterion(F, L)
        hit = None if holds else th31_witness(F, L, checked=True)
        witness = None if hit is None else {
            "a": spec.format_element(hit[0], args.style),
            "x": spec.format_element(hit[1], args.style)}
        cert = {"kind": "hmod",
                "params": {"n": args.n, "map": args.map},
                "criterion": "trace-hyperplane kernel criterion",
                "holds": holds, "witness": witness}
    elif args.kind == "coset":
        spec = field_for(args.n, args.modulus)
        F = power_function(spec, 3) if args.f is None else _read_vbf(args.f, spec)
        consts = tuple(spec.parse_element(t) for t in args.consts.split(","))
        if len(consts) != 4:
            raise ValueError("--consts needs four comma-separated elements")
        dec = CosetDecomposition.from_subfield_trace(spec)
        G = coset_modify(F, dec, consts)
        holds = coset_criterion(F, dec, consts)
        s = consts[0] ^ consts[1] ^ consts[2] ^ consts[3]
        witness = None if holds else {"sum": spec.format_element(s, args.style)}
        cert = {"kind": "coset",
                "params": {"n": args.n,
                           "consts": [spec.format_element(c, args.style)
                                      for c in consts]},
                "criterion": "admissible coset-constant sum",
                "holds": holds, "witness": witness}
    elif args.kind == "switch":
        f = _read_vbf(args.f)
        g = _read_vbf(args.g)
        sw = SwitchSpec(f, g, args.u)
        G, holds = switch(sw)
        cert = {"kind": "switch",
                "params": {"f": args.f, "g": args.g, "u": args.u},
                "criterion": "switching four-sum certificate",
                "holds": holds, "witness": None}
    elif args.kind == "concat":
        f = _read_vbf(args.f)
        g = _read_vbf(args.g)
        G = concatenate(f, g)
        holds, w = concat_is_apn(f, g)
        witness = None if w is None else {"x": w[0], "y": w[1], "a": w[2]}
        cert = {"kind": "concat",
                "params": {"f": args.f, "g": args.g},
                "criterion": "hyperplane concatenation criterion",
                "holds": holds, "witness": witness}
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown construction {args.kind!r}")
    if holds != G.is_apn():
        print(f"error: the {args.kind} certificate (holds={str(holds).lower()}) "
              "disagrees with the direct APN test", file=sys.stderr)
        return EXIT_FAIL
    _emit(args, G, cert, out)
    return EXIT_OK


# -- search ----------------------------------------------------------------

def cmd_search(args, out=None) -> int:
    out = out or sys.stdout
    spec = field_for(args.n, args.modulus)
    try:
        rep = search_tr_l(
            spec,
            mode=args.mode,
            samples=args.samples,
            seed=args.seed,
            workers=args.workers,
            cap=args.cap,
            long_ok=args.long,
        )
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except VerificationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAIL
    d = rep.to_dict()
    if args.out_format == "json":
        print(json.dumps(d, indent=2), file=out)
    else:
        w = csv.writer(out)
        w.writerow(list(d.keys()))
        w.writerow([";".join(map(str, v)) if isinstance(v, list) else v
                    for v in d.values()])
    return EXIT_OK


# -- rank ------------------------------------------------------------------

def cmd_rank(args, out=None) -> int:
    """One path: print the incidence rank.  Two paths: compare invariant
    bundles and print an inequivalence verdict (never equivalence)."""
    out = out or sys.stdout
    if len(args.paths) > 2:
        print("error: rank takes one or two paths", file=sys.stderr)
        return EXIT_USAGE
    funcs = []
    for path in args.paths:
        try:
            funcs.append((path, _read_vbf(path)))
        except FormatError as e:
            print(f"error: {path}: {e}", file=sys.stderr)
            return EXIT_USAGE
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_USAGE
    for path, F in funcs:
        if F.n + F.m > MAX_RANK_SIDE_BITS:
            print(f"error: {path}: matrix side 2^{F.n + F.m} exceeds the "
                  f"2^{MAX_RANK_SIDE_BITS} budget", file=sys.stderr)
            return EXIT_USAGE
        if F.n + F.m > 12 and not args.long:
            print("error: matrices above side 2^12 need --long",
                  file=sys.stderr)
            return EXIT_USAGE
    if len(funcs) == 1:
        _, F = funcs[0]
        print(json.dumps({"n": F.n, "m": F.m, "gamma_rank": gamma_rank(F)}),
              file=out)
        return EXIT_OK
    (pf, F), (pg, G) = funcs
    if (F.n, F.m) != (G.n, G.m):
        print("error: functions have different dimensions", file=sys.stderr)
        return EXIT_USAGE
    bf, bg = invariant_bundle(F), invariant_bundle(G)
    verdict = distinguish(F, G, bf, bg)
    print(json.dumps({
        "functions": [pf, pg],
        "bundles": [
            {"uniformity": b.uniformity, "gamma_rank": b.gamma_rank,
             "degree": b.degree,
             "walsh_values": [list(vc) for vc in b.walsh.values]}
            for b in (bf, bg)
        ],
        "provably_inequivalent": verdict.provably_inequivalent,
        "separating_invariant": verdict.invariant,
    }, indent=2), file=out)
    return EXIT_OK


# -- parser ----------------------------------------------------------------

@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Reuse is safe: no
    action has a mutable default (no `append` action, no list default)."""
    p = argparse.ArgumentParser(
        prog="apnlab",
        description="Construct and analyze APN vectorial Boolean functions.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", help="report properties of a vbf1 table")
    sp.add_argument("path")
    sp.add_argument("--modulus", type=_parse_hex, default=None,
                    help="irreducible modulus as a hex bitmask (e.g. 11d)")
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("verify", help="run reference verification targets")
    sp.add_argument("target", choices=sorted(_VERIFY_TARGETS))
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--long", action="store_true",
                    help="allow the expensive rank steps")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("construct", help="run a certified construction")
    ksub = sp.add_subparsers(dest="kind", required=True)
    kh = ksub.add_parser("hmod", help="x^3 + Tr(x)L(x) on the trace hyperplane")
    kh.add_argument("--n", type=int, required=True)
    kh.add_argument("--map", required=True, help="lin1 file for L")
    kh.add_argument("--f", default=None, help="vbf1 base table (default x^3)")
    kc = ksub.add_parser("coset", help="constants on codimension-2 cosets")
    kc.add_argument("--n", type=int, required=True)
    kc.add_argument("--consts", required=True,
                    help="a1,a2,a3,a4 as hex or g^k")
    kc.add_argument("--f", default=None, help="vbf1 base table (default x^3)")
    ks = ksub.add_parser("switch", help="f + u*g from an APN (f, g) pair")
    ks.add_argument("--f", required=True)
    ks.add_argument("--g", required=True)
    ks.add_argument("--u", type=_parse_hex, required=True)
    kk = ksub.add_parser("concat", help="concatenate f and g on hyperplanes")
    kk.add_argument("--f", required=True)
    kk.add_argument("--g", required=True)
    for k in (kh, kc, ks, kk):
        k.add_argument("--out", required=True, help="output vbf1 path")
        k.add_argument("--cert", default=None,
                       help="certificate JSON path (default: stdout)")
        if k in (kh, kc):
            k.add_argument("--modulus", type=_parse_hex, default=None)
            k.add_argument("--style", choices=["hex", "power"], default="hex")
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("search", help="search linear maps L with L(e_0) = 0")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--mode", choices=["exhaustive", "random"],
                    default="exhaustive")
    sp.add_argument("--samples", type=int, default=0)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--cap", type=int, default=64)
    sp.add_argument("--out", dest="out_format", choices=["json", "csv"],
                    default="json")
    sp.add_argument("--modulus", type=_parse_hex, default=None)
    sp.add_argument("--long", action="store_true")
    sp.set_defaults(func=cmd_search)

    sp = sub.add_parser(
        "rank",
        help="incidence-matrix rank of one function, or an invariant "
             "comparison of two")
    sp.add_argument("paths", nargs="+", metavar="path")
    sp.add_argument("--long", action="store_true")
    sp.set_defaults(func=cmd_rank)

    return p


def _check_settings(args) -> None:
    """Validate the settings shared across subcommands before dispatch."""
    n = getattr(args, "n", None)
    if n is not None and not 2 <= n <= 16:
        raise ValueError(f"field degree {n} out of range [2, 16]")
    if getattr(args, "workers", 1) < 1:
        raise ValueError("worker count must be positive")
    if n is not None:  # checks the modulus against the degree
        field_for(n, getattr(args, "modulus", None))


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_settings(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
