"""Acceptance suite: each paper claim is re-derived by one `apnlab verify`
target, run here through `cli.main`.  A claim holds when its target exits
0 with no FAIL line and prints the expected number of PASS lines, and when
the claim's own PASS lines carry the pinned numbers and were printed
within the claim's time budget.  Run with --runlong to include the
degree-8 rank ground truth.
"""
import contextlib
import re
import time
from functools import cache

import pytest

from apnlab import cli

# Gamma-ranks of G_1 ... G_13 over F_2^6 with modulus 0x5b
TABLE1_RANKS = [1102, 1170, 1146, 1158, 1166, 1168, 1170, 1172, 1174, 1170,
                1172, 1166, 1170]

# PASS lines each `verify` call prints
PASSES = {("table1",): 27, ("theorem31",): 4, ("theorem35",): 4,
          ("example-n8",): 4, ("example-n8", "--long"): 6, ("nyberg",): 4,
          ("concat",): 1, ("switching",): 5}


class _StampedLines:
    """A stdout stand-in that notes when each line was completed."""

    def __init__(self):
        self.lines, self._tail = [], ""

    def write(self, text):
        *done, self._tail = (self._tail + text).split("\n")
        now = time.monotonic()
        self.lines += [(now, line) for line in done]
        return len(text)

    def flush(self):
        pass


@cache
def _verify(*argv):
    """Run `apnlab verify *argv` once per process; return the exit code and
    the output lines, each with the seconds since the line before it (the
    first since the start)."""
    out = _StampedLines()
    start = time.monotonic()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", *argv])
    stamps = [start] + [t for t, _ in out.lines]
    return code, [(line, t - stamps[i]) for i, (t, line) in enumerate(out.lines)]


def _claim(argv, pattern, count, budget=None):
    """Assert one claim of `apnlab verify *argv`: its `count` PASS lines
    match `pattern`, come one after another, and took under `budget`
    seconds together.  Returns those lines."""
    code, lines = _verify(*argv)
    text = "\n".join(line for line, _ in lines)
    assert code == 0 and "[FAIL]" not in text, text
    assert text.count("[PASS]") == PASSES[argv], text
    picked = [i for i, (line, _) in enumerate(lines)
              if re.match(rf"\[PASS\] (?:{pattern})", line)]
    assert len(picked) == count and picked[-1] - picked[0] == count - 1, text
    seconds = sum(lines[i][1] for i in picked)
    assert budget is None or seconds < budget, f"{seconds:.1f}s >= {budget}s"
    return [lines[i][0] for i in picked]


def test_01_table1_functions_apn_and_quadratic():
    _claim(("table1",), r"G_\d+ APN and quadratic$", 13, budget=5)


def test_02_spectra_classical_except_seventh():
    lines = _claim(("table1",), r"G_\d+ spectrum classical |G_7 non-classical "
                   r"with value set \{0, \+/-8, \+/-16, \+/-32\} ", 13, budget=5)
    assert [int(re.search(r"Gamma-rank (\d+)\)$", line)[1])
            for line in lines] == TABLE1_RANKS
    assert [line.split()[1] for line in lines if "non-classical" in line] \
        == ["G_7"]


def test_03_exhaustive_hit_counts_448_and_4608():
    _claim(("theorem31",), r"n=4: 448 maps |n=5: 4608 maps ", 2, budget=60)


def test_04_kernel_criterion_equals_brute_force():
    _claim(("theorem31",), r"n=4: criterion <=> APN on 4096/4096 maps, 448 hits$"
           r"|n=5: criterion <=> APN on 10000/10000 maps, seed 20240817$", 2)


def test_05_exponential_sum_criterion_equals_brute_force():
    _claim(("theorem35",), r"criterion <=> APN on 65536/65536 maps "
           r"|n=4: zero map gives 7 |n=5: zero map gives 15 "
           r"|n=6: zero map gives 31 ", 4, budget=600)


def test_06_coset_modification_degree8_example():
    _claim(("example-n8",), r"cube roots of unity are g\^85 and g\^170$"
           r"|admissible sums = \{0, 1, g\^85, g\^170\}$"
           r"|modified table equals x\^3 \+ g\^85\*Tr_1\(x\)\*Tr_2\(x\)$"
           r"|modified function is APN$", 4, budget=30)


def test_07_rank_invariance_under_ea_transforms():
    _claim(("table1",), r"Gamma-rank of G_1 = x\^3 unchanged under 20 EA "
           r"transforms, seed 20240817  \(rank 1102\)$", 1, budget=120)


@pytest.mark.long
def test_07_long_rank_ground_truth_degree8():
    _claim(("example-n8", "--long"), r"rank of x\^3 incidence matrix = 11818 "
           r"|rank of modified incidence matrix = 13842 ", 2)


def test_08_inverse_derivative_root_counts():
    _claim(("nyberg",), r"n=[46]: predicted root counts match enumeration$"
           r"|n=[46]: b=1/a root set is \{0, a, wa, w\^2 a\}$", 4)


def test_09_concatenation_criterion_equals_brute_force():
    _claim(("concat",), r"concatenation criterion <=> direct APN test on 1000 "
           r"pairs, seed 20240817  \(0 disagreements\)$", 1)


def test_10_inverse_extension_apn():
    _claim(("switching",), r"n=4: extended inverse is an APN \(4, 5\)-function$"
           r"|n=6: extended inverse is an APN \(6, 7\)-function$", 2, budget=10)


def test_11_decomposition_roundtrip():
    _claim(("switching",), r"n=[456]: x\^3 = f1 \+ g\*u with f1 4-uniform ",
           3)
