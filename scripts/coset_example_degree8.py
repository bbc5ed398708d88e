#!/usr/bin/env python3
"""Work the degree-8 coset-modification example end to end: compute the
admissible constant sums for x^3 on the Tr^8_2 coset decomposition,
build the modified function G, confirm the closed form
x^3 + g^85 * Tr_1(x) * Tr_2(x), and (with --rank) compare incidence
ranks to prove G is CCZ-inequivalent to x^3."""
import argparse
import time

from apnlab import (
    CosetDecomposition,
    admissible_sums,
    coset_modify,
    distinguish,
    field_for,
    from_univariate,
    gamma_rank,
    power_function,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rank", action="store_true",
                    help="also compute both incidence ranks (about a "
                         "minute each)")
    args = ap.parse_args()
    spec = field_for(8)
    cube = power_function(spec, 3)
    dec = CosetDecomposition.from_subfield_trace(spec)
    adm = admissible_sums(cube, dec)
    print("admissible sums:",
          sorted(spec.format_element(s, "power") for s in adm))
    _, w, w2 = spec.cube_roots_of_unity()
    G = coset_modify(cube, dec, (0, 0, w2, 1))
    closed = tuple(
        v ^ (spec.mul(w, spec.trace_to_subfield(x, 2))
             if spec.trace_absolute(x) else 0)
        for x, v in enumerate(from_univariate(spec, [(1, 3)]).table))
    print("G APN:", G.is_apn())
    print("G == x^3 + g^85*Tr_1(x)*Tr_2(x):", G.table == closed)
    if args.rank:
        t0 = time.time()
        rf = gamma_rank(cube)
        print(f"rank(x^3) = {rf}  [{time.time() - t0:.0f}s]")
        t0 = time.time()
        rg = gamma_rank(G)
        print(f"rank(G)   = {rg}  [{time.time() - t0:.0f}s]")
        print("provably inequivalent:", rf != rg)


if __name__ == "__main__":
    main()
