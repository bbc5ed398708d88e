#!/usr/bin/env python3
"""Rebuild the thirteen degree-6 representatives G_i = x^3 + Tr(x)L_i(x),
check each is APN and quadratic, classify its Walsh spectrum, and print
its incidence-matrix rank."""
import argparse

from apnlab import (
    classical_spectrum,
    field_for,
    gamma_rank,
    table1_functions,
)


def main(argv=None) -> None:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    spec = field_for(6)
    classical = classical_spectrum(6).magnitudes()
    print(f"{'i':>2}  {'APN':>4}  {'quad':>4}  {'spectrum':>13}  {'rank':>5}")
    for i, G in enumerate(table1_functions(spec), start=1):
        classical_here = G.walsh_spectrum().magnitudes() == classical
        kind = "classical" if classical_here else "non-classical"
        print(f"{i:>2}  {str(G.is_apn()):>4}  {str(G.is_quadratic()):>4}  "
              f"{kind:>13}  {gamma_rank(G):>5}")


if __name__ == "__main__":
    main()
