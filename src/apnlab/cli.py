"""Command-line front end: analyze function tables, verify reference
results, run certified constructions, run searches, and compute ranks.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage or parse error.
"""
from __future__ import annotations

import argparse
import csv
import json
import random
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
    decompose_to_4uniform,
    ea_transform,
    exp_sum_condition,
    hyperplane_modify,
    inverse_extension,
    nyberg_root_count,
    nyberg_roots,
    random_ea_triple,
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
from .io import read_lin1, read_vbf1, write_vbf1
from .search import (
    VerificationError,
    exp_sum_crosscheck,
    search_tr_l,
    th31_crosscheck,
)
from .vbf import VBF, LinearMap, from_univariate, power_function

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _parse_hex(s: str) -> int:
    return int(s, 16)


class _Checks:
    """Accumulates pass/fail lines for verify-style reports."""

    def __init__(self):
        self.failed = 0

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        if not ok:
            self.failed += 1
        tail = f"  ({detail})" if detail else ""
        print(f"[{'PASS' if ok else 'FAIL'}] {label}{tail}")


# -- analyze ---------------------------------------------------------------

def cmd_analyze(args) -> int:
    F = _read_vbf(args.path)
    print(f"n: {F.n}")
    print(f"m: {F.m}")
    uniformity = F.uniformity()
    apn = uniformity <= 2
    degree = F.algebraic_degree()
    print(f"uniformity: {uniformity}")
    print(f"APN: {str(apn).lower()}")
    print(f"algebraic degree: {degree}")
    print(f"quadratic: {str(degree <= 2).lower()}")
    ws = F.walsh_spectrum()
    hist = ", ".join(f"{v}:{c}" for v, c in ws.values)
    print(f"walsh histogram: {hist}")
    if F.n == F.m and F.n % 2 == 0 and F.n >= 4 and apn:
        classical = ws.magnitudes() == classical_spectrum(F.n).magnitudes()
        verdict = "classical" if classical else "non-classical"
        print(f"spectrum: {verdict}")
    return EXIT_OK


# -- verify ----------------------------------------------------------------

def _verify_table1(args, ck: _Checks) -> None:
    """The 13 degree-6 functions, their spectra and Gamma-ranks."""
    funcs = table1_functions(field_for(6))
    classical = classical_spectrum(6)
    for i, G in enumerate(funcs, start=1):
        ck.check(f"G_{i} APN and quadratic", G.is_apn() and G.is_quadratic())
    ranks = []
    for i, G in enumerate(funcs, start=1):
        ws = G.walsh_spectrum()
        ranks.append(gamma_rank(G))
        rank = f"Gamma-rank {ranks[-1]}"
        if i == 7:
            ck.check(
                "G_7 non-classical with value set {0, +/-8, +/-16, +/-32}",
                ws.magnitudes() != classical.magnitudes()
                and ws.value_set() == {0, 8, -8, 16, -16, 32, -32},
                rank,
            )
        else:
            ck.check(f"G_{i} spectrum classical", ws == classical, rank)
    seed = 20240817
    rng = random.Random(seed)
    moved = [gamma_rank(ea_transform(funcs[0], *random_ea_triple(6, 6, rng)))
             for _ in range(20)]
    ck.check(f"Gamma-rank of G_1 = x^3 unchanged under 20 EA transforms, "
             f"seed {seed}", moved == ranks[:1] * 20, f"rank {ranks[0]}")


def _verify_theorem31(args, ck: _Checks) -> None:
    """The hit counts 448 and 4608, and the kernel criterion vs APN."""
    for n, count in ((4, 448), (5, 4608)):
        hits = search_tr_l(field_for(n), workers=4).hits
        ck.check(f"n={n}: {hits} maps make x^3 + Tr(x)L(x) APN", hits == count)
    rep = th31_crosscheck(field_for(4))
    ck.check(f"n=4: criterion <=> APN on {rep.agreements}/{rep.examined} maps, "
             f"{rep.criterion_hits} hits",
             rep.agrees and rep.examined == 1 << 12 and rep.criterion_hits == 448)
    seed = 20240817
    rep = th31_crosscheck(field_for(5), samples=10000, seed=seed)
    ck.check(f"n=5: criterion <=> APN on {rep.agreements}/{rep.examined} "
             f"maps, seed {seed}", rep.agrees and rep.examined == 10000)


def _verify_theorem35(args, ck: _Checks) -> None:
    n = args.n if args.n is not None else 4
    if n not in (3, 4):
        raise ValueError("exhaustive criterion check supports n in {3, 4}")
    rep = exp_sum_crosscheck(field_for(n))
    ck.check(
        f"criterion <=> APN on {rep.agreements}/{rep.examined} maps",
        rep.agrees and rep.examined == 1 << (n * n),
        f"{rep.criterion_hits} hits, {rep.seconds:.1f}s",
    )
    for k in (4, 5, 6):
        lhs, holds = exp_sum_condition(LinearMap.zero(k, k), field_for(k))
        ck.check(f"n={k}: zero map gives {lhs} = 2^{k - 1} - 1",
                 holds and lhs == (1 << (k - 1)) - 1)


def _verify_example_n8(args, ck: _Checks) -> None:
    """The degree-8 coset example; --long adds the two ranks (~1 min each)."""
    spec = field_for(8)
    cube = power_function(spec, 3)
    dec = CosetDecomposition.from_subfield_trace(spec)
    _, w, w2 = spec.cube_roots_of_unity()
    ck.check("cube roots of unity are g^85 and g^170",
             w == spec.gpow(85) and w2 == spec.gpow(170))
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
        return
    t0 = time.monotonic()
    rF = gamma_rank(cube)
    ck.check("rank of x^3 incidence matrix = 11818", rF == 11818,
             f"got {rF}, {time.monotonic() - t0:.0f}s")
    t0 = time.monotonic()
    rG = gamma_rank(G)
    ck.check("rank of modified incidence matrix = 13842", rG == 13842,
             f"got {rG}, {time.monotonic() - t0:.0f}s")


def _verify_nyberg(args, ck: _Checks) -> None:
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


def _verify_concat(args, ck: _Checks) -> None:
    """The concatenation criterion vs APN around the (4, 5) inverse."""
    base = inverse_extension(field_for(4)).table
    seed = 20240817
    rng = random.Random(seed)

    def perturbed() -> VBF:
        t = list(base)
        for _ in range(rng.randrange(4)):
            t[rng.randrange(16)] ^= 1 << rng.randrange(5)
        return VBF(4, 5, tuple(t))

    pairs = [(perturbed(), perturbed()) for _ in range(1000)]
    disagreements = sum(concat_is_apn(f, g)[0] != concatenate(f, g).is_apn()
                        for f, g in pairs)
    ck.check(f"concatenation criterion <=> direct APN test on {len(pairs)} "
             f"pairs, seed {seed}", disagreements == 0,
             f"{disagreements} disagreements")


def _verify_switching(args, ck: _Checks) -> None:
    """The extended inverse, and the 4-uniform decomposition of x^3."""
    for n in (4, 6):
        F = inverse_extension(field_for(n))
        ck.check(f"n={n}: extended inverse is an APN ({n}, {F.m})-function",
                 F.m == n + 1 and F.is_apn())
    for n in (4, 5, 6):
        f = power_function(field_for(n), 3)
        d = decompose_to_4uniform(f)
        rebuilt = tuple(
            v ^ (d.u if gb else 0) for v, gb in zip(d.f1.table, d.g.table))
        ck.check(f"n={n}: x^3 = f1 + g*u with f1 4-uniform",
                 d.uniformity == d.f1.uniformity() == 4 and rebuilt == f.table,
                 f"u = {d.u:#x}")


_VERIFY_TARGETS = {
    "table1": _verify_table1,
    "theorem31": _verify_theorem31,
    "theorem35": _verify_theorem35,
    "example-n8": _verify_example_n8,
    "nyberg": _verify_nyberg,
    "concat": _verify_concat,
    "switching": _verify_switching,
}


def cmd_verify(args) -> int:
    ck = _Checks()
    _VERIFY_TARGETS[args.target](args, ck)
    return EXIT_OK if ck.failed == 0 else EXIT_FAIL


# -- construct -------------------------------------------------------------

def _read_vbf(path: str, spec: Optional[FieldSpec] = None) -> VBF:
    """Read a vbf1 table; a parse or decoding error names the path."""
    with open(path) as fh:
        try:
            return read_vbf1(fh, spec)
        except ValueError as e:  # FormatError, UnicodeDecodeError
            raise ValueError(f"{path}: {e}") from None


def _emit(args, G: VBF, cert: dict) -> None:
    with open(args.out, "w") as fh:
        write_vbf1(fh, G)
    text = json.dumps(cert, indent=2)
    if args.cert:
        with open(args.cert, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_construct(args) -> int:
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
        raise VerificationError(
            f"the {args.kind} certificate (holds={str(holds).lower()}) "
            "disagrees with the direct APN test")
    _emit(args, G, cert)
    return EXIT_OK


# -- search ----------------------------------------------------------------

def cmd_search(args) -> int:
    rep = search_tr_l(
        field_for(args.n, args.modulus),
        mode=args.mode,
        samples=args.samples,
        seed=args.seed,
        workers=args.workers,
        cap=args.cap,
        long_ok=args.long,
    )
    d = rep.to_dict()
    if args.out_format == "json":
        print(json.dumps(d, indent=2))
    else:
        w = csv.writer(sys.stdout)
        w.writerow(list(d.keys()))
        w.writerow([";".join(map(str, v)) if isinstance(v, list) else v
                    for v in d.values()])
    return EXIT_OK


# -- rank ------------------------------------------------------------------

def cmd_rank(args) -> int:
    """One path: print the incidence rank.  Two paths: compare invariant
    bundles and print an inequivalence verdict (never equivalence)."""
    if len(args.paths) > 2:
        raise ValueError("rank takes one or two paths")
    funcs = [(path, _read_vbf(path)) for path in args.paths]
    for path, F in funcs:
        if F.n + F.m > MAX_RANK_SIDE_BITS:
            raise ValueError(f"{path}: matrix side 2^{F.n + F.m} exceeds the "
                             f"2^{MAX_RANK_SIDE_BITS} budget")
        if F.n + F.m > 12 and not args.long:
            raise ValueError("matrices above side 2^12 need --long")
    if len(funcs) == 1:
        _, F = funcs[0]
        print(json.dumps({"n": F.n, "m": F.m, "gamma_rank": gamma_rank(F)}))
        return EXIT_OK
    (pf, F), (pg, G) = funcs
    if (F.n, F.m) != (G.n, G.m):
        raise ValueError("functions have different dimensions")
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
    }, indent=2))
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
    if n is None:
        return
    if not 2 <= n <= 16:
        raise ValueError(f"field degree {n} out of range [2, 16]")
    field_for(n, getattr(args, "modulus", None))  # checks the modulus


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command; errors end with a one-line `error: ...` on stderr."""
    args = build_parser().parse_args(argv)
    try:
        _check_settings(args)
        return args.func(args)
    except VerificationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAIL
    except (OSError, ValueError) as e:  # FormatError, UnicodeDecodeError
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
