"""Acceptance suite: one test per headline requirement, each printing a
single PASS/FAIL line.  Time budgets are asserted where the requirement
pins one.  Run with --runlong to include the expensive degree-8 rank
ground truth.
"""
import random
import time

import pytest

from apnlab.constructions import (
    CosetDecomposition,
    admissible_sums,
    coset_modify,
    concat_is_apn,
    concatenate,
    decompose_to_4uniform,
    ea_transform,
    exp_sum_condition,
    inverse_extension,
    nyberg_root_count,
    nyberg_roots,
    random_ea_triple,
    table1_functions,
)
from apnlab.field import field_for
from apnlab.invariants import classical_spectrum, gamma_rank
from apnlab.search import exp_sum_crosscheck, search_tr_l, th31_crosscheck
from apnlab.vbf import VBF, LinearMap, from_univariate, power_function

from _oracles import oracle_is_apn


def _report(label, ok, detail=""):
    tail = f"  ({detail})" if detail else ""
    print(f"\nACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"{label} failed: {detail}"


def test_01_table1_functions_apn_and_quadratic():
    t0 = time.monotonic()
    funcs = table1_functions(field_for(6))
    ok = len(funcs) == 13 and all(
        G.is_apn() and G.is_quadratic() for G in funcs)
    dt = time.monotonic() - t0
    _report("1 (thirteen modified functions APN+quadratic)",
            ok and dt < 5.0, f"{dt:.2f}s < 5s")


def test_02_spectra_classical_except_seventh():
    t0 = time.monotonic()
    funcs = table1_functions(field_for(6))
    classical = classical_spectrum(6)
    others_ok = all(
        G.walsh_spectrum() == classical
        for i, G in enumerate(funcs, start=1) if i != 7)
    g7 = funcs[6].walsh_spectrum()
    g7_ok = g7 != classical and g7.value_set() == {0, 8, -8, 16, -16, 32, -32}
    dt = time.monotonic() - t0
    _report("2 (spectra: 12 classical, seventh has value set 0,±8,±16,±32)",
            others_ok and g7_ok and dt < 5.0, f"{dt:.2f}s < 5s")


def test_03_exhaustive_hit_counts_448_and_4608():
    t4 = time.monotonic()
    r4 = search_tr_l(field_for(4), workers=4)
    dt4 = time.monotonic() - t4
    t5 = time.monotonic()
    r5 = search_tr_l(field_for(5), workers=4)
    dt5 = time.monotonic() - t5
    ok = r4.hits == 448 and r5.hits == 4608 and dt4 < 60 and dt5 < 60
    _report("3 (exhaustive counts 448 at n=4, 4608 at n=5, 4 in-process ranges)",
            ok, f"{r4.hits}/{r5.hits} hits, {dt4:.1f}s/{dt5:.1f}s < 60s")


def test_04_kernel_criterion_equals_brute_force():
    r4 = th31_crosscheck(field_for(4))
    r5 = th31_crosscheck(field_for(5), samples=10000, seed=20240817)
    ok = r4.agrees and r4.examined == 1 << 12 and r5.agrees \
        and r5.examined >= 10000
    _report("4 (kernel criterion <=> APN: exhaustive n=4, 10^4 sampled n=5)",
            ok, f"{r4.agreements}/{r4.examined} and {r5.agreements}/{r5.examined}")


def test_05_exponential_sum_criterion_equals_brute_force():
    t0 = time.monotonic()
    rep = exp_sum_crosscheck(field_for(4))
    lhs_ok = all(
        exp_sum_condition(LinearMap.zero(n, n), field_for(n))[0]
        == (1 << (n - 1)) - 1
        for n in (4, 5, 6))
    dt = time.monotonic() - t0
    ok = rep.agrees and rep.examined == 1 << 16 and lhs_ok and dt < 600
    _report("5 (exponential-sum criterion <=> APN on all 2^16 maps, "
            "zero-map value 2^(n-1)-1)",
            ok, f"{rep.agreements}/{rep.examined}, {dt:.1f}s < 600s")


def test_06_coset_modification_degree8_example():
    t0 = time.monotonic()
    spec = field_for(8)
    cube = power_function(spec, 3)
    dec = CosetDecomposition.from_subfield_trace(spec)
    _, w, w2 = spec.cube_roots_of_unity()
    adm_ok = admissible_sums(cube, dec) == frozenset({0, 1, w, w2}) \
        and w == spec.gpow(85) and w2 == spec.gpow(170)
    G = coset_modify(cube, dec, (0, 0, w2, 1))
    closed = tuple(
        v ^ (spec.mul(w, spec.trace_to_subfield(x, 2))
             if spec.trace_absolute(x) else 0)
        for x, v in enumerate(from_univariate(spec, [(1, 3)]).table))
    table_ok = G.table == closed and G.is_apn()
    dt = time.monotonic() - t0
    _report("6 (degree-8 coset example: admissible sums and closed form)",
            adm_ok and table_ok and dt < 30, f"{dt:.1f}s < 30s")


def test_07_rank_invariance_under_ea_transforms():
    t0 = time.monotonic()
    F = power_function(field_for(6), 3)
    base = gamma_rank(F)
    rng = random.Random(20240817)
    ranks = []
    for _ in range(20):
        a1, a2, a3 = random_ea_triple(6, 6, rng)
        ranks.append(gamma_rank(ea_transform(F, a1, a2, a3)))
    dt = time.monotonic() - t0
    ok = all(r == base for r in ranks) and dt < 120
    _report("7-fast (rank invariant under 20 EA transforms at n=6)",
            ok, f"rank {base}, {dt:.1f}s < 120s")


@pytest.mark.long
def test_07_long_rank_ground_truth_degree8():
    spec = field_for(8)
    cube = power_function(spec, 3)
    rF = gamma_rank(cube)
    dec = CosetDecomposition.from_subfield_trace(spec)
    _, w, w2 = spec.cube_roots_of_unity()
    G = coset_modify(cube, dec, (0, 0, w2, 1))
    rG = gamma_rank(G)
    _report("7-long (degree-8 incidence ranks 11818 and 13842)",
            rF == 11818 and rG == 13842, f"got {rF} and {rG}")


def test_08_inverse_derivative_root_counts():
    ok = True
    for n in (4, 6):
        spec = field_for(n)
        _, w, w2 = spec.cube_roots_of_unity()
        for a in range(1, spec.size):
            for b in range(spec.size):
                if nyberg_root_count(spec, a, b) != len(nyberg_roots(spec, a, b)):
                    ok = False
        a = spec.generator
        if set(nyberg_roots(spec, a, spec.inv(a))) != {
                0, a, spec.mul(w, a), spec.mul(w2, a)}:
            ok = False
    _report("8 (inverse-derivative root counts at n=4 and n=6)", ok)


def test_09_concatenation_criterion_equals_brute_force():
    base = inverse_extension(field_for(4))
    rng = random.Random(20240817)
    disagreements = 0
    for _ in range(1000):
        t1 = list(base.table)
        t2 = list(base.table)
        for _ in range(rng.randrange(4)):
            t1[rng.randrange(16)] ^= 1 << rng.randrange(5)
        for _ in range(rng.randrange(4)):
            t2[rng.randrange(16)] ^= 1 << rng.randrange(5)
        f = VBF(4, 5, tuple(t1))
        g = VBF(4, 5, tuple(t2))
        ok, _w = concat_is_apn(f, g)
        if ok != concatenate(f, g).is_apn():
            disagreements += 1
    _report("9 (concatenation criterion <=> direct test on 1000 seeded pairs)",
            disagreements == 0, f"{disagreements} disagreements")


def test_10_inverse_extension_apn():
    t0 = time.monotonic()
    ok = True
    for n in (4, 6):
        F = inverse_extension(field_for(n))
        if not (F.m == n + 1 and F.is_apn()
                and oracle_is_apn(F.table, n, n + 1)):
            ok = False
    dt = time.monotonic() - t0
    _report("10 (extended inverse is APN as an (n, n+1)-function)",
            ok and dt < 10, f"{dt:.1f}s < 10s")


def test_11_decomposition_roundtrip():
    ok = True
    for n in (4, 5, 6):
        f = power_function(field_for(n), 3)
        d = decompose_to_4uniform(f)
        rebuilt = tuple(
            v ^ (d.u if gb else 0) for v, gb in zip(d.f1.table, d.g.table))
        if not (d.f1.uniformity() == 4 and rebuilt == f.table):
            ok = False
    _report("11 (4-uniform decomposition of the cube function round-trips)",
            ok)
