import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apnlab.field import field_for
from apnlab.vbf import (
    VBF,
    AffineMap,
    LinearMap,
    from_univariate,
    inverse_function,
    is_apn_batch,
    power_function,
    projection_killing,
)

from _oracles import (
    oracle_anf_coeffs,
    oracle_ddt,
    oracle_degree,
    oracle_flat_counts,
    oracle_is_apn,
    oracle_uniformity,
    oracle_walsh,
)


def _random_function(n, m, seed):
    rng = random.Random(seed)
    return VBF(n, m, tuple(rng.randrange(1 << m) for _ in range(1 << n)))


class TestDifferential:
    @pytest.mark.parametrize("seed", range(5))
    def test_ddt_matches_oracle(self, seed):
        F = _random_function(4, 4, seed)
        assert F.ddt().tolist() == oracle_ddt(F.table, 4, 4)
        assert F.uniformity() == oracle_uniformity(F.table, 4, 4)
        assert F.is_apn() == oracle_is_apn(F.table, 4, 4)

    def test_ddt_row_sums(self):
        F = _random_function(5, 3, 99)
        assert (F.ddt().sum(axis=1) == 1 << 5).all()

    def test_cube_is_apn_inverse_is_4_uniform(self):
        f = field_for(6)
        assert power_function(f, 3).is_apn()
        assert inverse_function(f).uniformity() == 4

    def test_odd_degree_inverse_is_apn(self):
        assert inverse_function(field_for(5)).is_apn()

    @pytest.mark.parametrize("n", [4, 5])
    def test_batch_apn_matches_scalar(self, n):
        rng = random.Random(7)
        tables = []
        fs = field_for(n)
        tables.append(power_function(fs, 3).table)
        for _ in range(40):
            tables.append(tuple(rng.randrange(1 << n) for _ in range(1 << n)))
        arr = np.array(tables, dtype=np.int64)
        mask = is_apn_batch(arr, n)
        for row, got in zip(tables, mask):
            assert bool(got) == VBF(n, n, row).is_apn()


class TestWalsh:
    @pytest.mark.parametrize("seed", range(3))
    def test_spectrum_matches_oracle(self, seed):
        F = _random_function(4, 3, seed)
        from collections import Counter

        expect = Counter(
            oracle_walsh(F.table, 4, 3, a, b)
            for a in range(1 << 4)
            for b in range(1, 1 << 3)
        )
        assert F.walsh_spectrum().counter() == expect

    @pytest.mark.parametrize("seed", range(3))
    def test_parseval(self, seed):
        F = _random_function(5, 5, seed)
        total = sum(c * v * v for v, c in F.walsh_spectrum().values)
        assert total == ((1 << 5) - 1) << (2 * 5)


class TestAlgebraic:
    @pytest.mark.parametrize("seed", range(4))
    def test_anf_and_degree_match_oracle(self, seed):
        F = _random_function(4, 4, seed)
        assert list(F.anf()) == oracle_anf_coeffs(F.table, 4)
        assert F.algebraic_degree() == oracle_degree(F.table, 4)

    def test_power_function_degrees(self):
        f = field_for(6)
        assert power_function(f, 3).algebraic_degree() == 2
        assert power_function(f, 3).is_quadratic()
        assert inverse_function(f).algebraic_degree() == 5
        assert LinearMap.from_linearized(f, [1, 1, 0, 0, 0, 0]).n_in == 6

    def test_constant_and_affine_degrees(self):
        assert VBF(3, 3, (5,) * 8).algebraic_degree() == 0
        f = field_for(3)
        L = from_univariate(f, [(1, 2), (3, 1)])  # x^2 + 3x, linearized
        assert L.algebraic_degree() == 1


class TestFourSums:
    def test_dillon_property_at_small_degrees(self):
        # For an APN function on the whole field the four-sum value set
        # misses exactly 0.
        for n in (4, 5, 6, 7, 8):
            F = power_function(field_for(n), 3)
            assert F.dstar_set() == frozenset(range(1, 1 << n))

    def test_d_set_contains_zero_exactly_for_non_apn(self):
        for n in (4, 6, 8):
            f = field_for(n)
            cube = power_function(f, 3)
            assert 0 not in cube.dstar_set()
            inv = inverse_function(f)
            assert 0 in inv.dstar_set()  # delta = 4 at even degree

    @pytest.mark.parametrize("seed", range(2))
    def test_four_sum_oracle_agreement(self, seed):
        from _oracles import oracle_four_sum_values

        F = _random_function(4, 4, seed)
        assert set(F.dstar_set()) == oracle_four_sum_values(F.table, 4)

    def test_oracle_agreement_on_random_shapes(self):
        from _oracles import oracle_four_sum_values

        rng = random.Random(23)
        shapes = [(0, 1), (1, 3), (2, 2), (3, 5), (5, 1), (5, 4)]
        shapes += [(rng.randint(0, 5), rng.randint(1, 5)) for _ in range(14)]
        for i, (n, m) in enumerate(shapes):
            F = _random_function(n, m, 100 + i)
            assert set(F.dstar_set()) == oracle_four_sum_values(F.table, n), (n, m)

    def test_totals_beyond_int64_rejected_before_ddt_work(self, monkeypatch):
        class NoGather(np.ndarray):
            def __getitem__(self, key):
                raise AssertionError("gather started")

        monkeypatch.setattr(VBF, "as_array",
                            lambda self: np.zeros(len(self.table), np.int64).view(NoGather))
        F = VBF(16, 15, (0,) * (1 << 16))  # 3n + m = 63
        with pytest.raises(ValueError, match="3n \\+ m"):
            F.dstar_set()


class TestFlatCounts:
    """The flat-count kernel under dstar_set and admissible_sums against
    the triple enumeration in _oracles."""

    @staticmethod
    def _cases(n, rng):
        """(left, dirs, right): the whole space with every direction, a
        random set against itself, two random sets, and a single
        direction."""
        xs = np.arange(1 << n)

        def pick():
            return np.array(rng.sample(range(1 << n), rng.randint(1, 1 << n)))

        same = pick()
        return [(xs, xs[1:], xs), (same, pick(), same),
                (pick(), pick(), pick()), (pick(), pick()[:1], pick())]

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (3, 2), (4, 4), (5, 1), (5, 4)])
    @pytest.mark.parametrize("block", [1 << 14, 1 << 6])
    def test_matches_oracle(self, n, m, block, monkeypatch):
        import apnlab.vbf as vbf

        monkeypatch.setattr(vbf, "_BLOCK", block)  # 1 << 6: two directions a block at n = 5
        rng = random.Random(100 * n + m + block)
        F = _random_function(n, m, rng.randrange(1 << 30))
        for left, dirs, right in self._cases(n, rng):
            got = vbf._flat_counts(F.as_array(), m, left, dirs, right)
            want = oracle_flat_counts(F.table, m, left.tolist(), dirs.tolist(), right.tolist())
            assert got.tolist() == [c << m for c in want], (left, dirs, right)

    def test_directions_run_in_blocks(self, monkeypatch):
        import apnlab.vbf as vbf

        calls = []
        wht = vbf._wht_rows
        monkeypatch.setattr(vbf, "_wht_rows", lambda v: calls.append(v.shape) or wht(v))
        monkeypatch.setattr(vbf, "_BLOCK", 1 << 6)
        F = _random_function(5, 4, 7)
        xs = np.arange(32)
        for left, right in ((xs, xs), (xs[:20], xs[5:])):
            calls.clear()
            got = vbf._flat_counts(F.as_array(), 4, left, xs[1:], right)
            want = oracle_flat_counts(F.table, 4, left.tolist(), range(1, 32), right.tolist())
            assert got.tolist() == [c << 4 for c in want]
            # 31 directions, two a block, one or two count rows each
            per = 1 if left is right else 2
            assert [cols for _, cols in calls[:-1]] == [2 * per] * 15 + [per]


class TestLinearMaps:
    def test_from_linearized_agrees_with_univariate(self):
        f = field_for(5)
        L = LinearMap.from_linearized(f, [3, 1, 0, 7, 0])
        P = from_univariate(f, [(3, 1), (1, 2), (7, 8)])
        assert L.table() == P.table

    def test_linearity(self):
        f = field_for(6)
        L = LinearMap.from_linearized(f, [f.gpow(5), 0, 2, 0, 0, 1])
        for x in range(0, 64, 7):
            for y in range(0, 64, 5):
                assert L(x ^ y) == L(x) ^ L(y)

    def test_kernel_rank_injectivity(self):
        L = LinearMap(3, 3, (1, 2, 4))  # identity
        assert L.is_injective() and L.is_surjective()
        Z = LinearMap.zero(3, 3)
        assert set(Z.kernel()) == set(range(8))
        assert Z.image_rank() == 0

    def test_projection_killing(self):
        for k in (0b10010, 0b00001, 0b11111):
            P = projection_killing(5, k)
            assert set(P.kernel()) == {0, k}
            assert P.is_surjective()

    def test_affine_bijection(self):
        A = AffineMap(LinearMap(3, 3, (1, 2, 4)), 5)
        assert A.is_bijection()
        assert A(0) == 5


class TestProjection:
    def test_project_is_apn_matches_direct(self):
        from apnlab.vbf import project_is_apn
        from _oracles import project

        f = field_for(5)
        F = power_function(f, 3)
        for k in (1, 9, 31):
            P = projection_killing(5, k)
            composed = project(F, P)
            assert project_is_apn(F, P) == composed.is_apn()

    def test_project_is_apn_matches_direct_on_non_apn_tables(self):
        from apnlab.vbf import project_is_apn
        from _oracles import project

        # 0 is in every kernel, and in D* exactly when F is not APN, so
        # even the identity projection is decided right
        rng = random.Random(31)
        checked = 0
        for seed in range(40):
            n, m = rng.randint(2, 5), rng.randint(2, 5)
            F = _random_function(n, m, 200 + seed)
            if F.is_apn():
                continue
            checked += 1
            for P in (projection_killing(m, rng.randrange(1, 1 << m)),
                      LinearMap.identity(m)):
                assert project_is_apn(F, P) == project(F, P).is_apn()
        assert checked >= 20


class TestValidation:
    def test_table_length_checked(self):
        with pytest.raises(ValueError):
            VBF(3, 3, (0,) * 7)

    def test_value_range_checked(self):
        with pytest.raises(ValueError):
            VBF(2, 2, (0, 1, 2, 4))


@given(st.integers(0, 63), st.integers(0, 63))
@settings(max_examples=50)
def test_bform_symmetric_and_bilinear_for_quadratics(x, t):
    f = field_for(6)
    F = power_function(f, 3)
    assert F.bform(x, t) == F.bform(t, x)
    assert F.bform(x, 0) == 0


def test_bform_of_cube_is_x2t_plus_xt2():
    f = field_for(4)
    F = power_function(f, 3)
    for x in range(16):
        for t in range(16):
            expect = f.mul(f.sqr(x), t) ^ f.mul(x, f.sqr(t))
            assert F.bform(x, t) == expect


def test_affine_function_profile():
    f = field_for(4)
    L = from_univariate(f, [(3, 2), (1, 1), (9, 0)])  # 3x^2 + x + 9
    assert L.algebraic_degree() <= 1
    assert L.is_quadratic()
    assert L.uniformity() == 16  # constant derivatives concentrate rows


class TestProjectionCriterion:
    def test_agrees_on_all_single_kernel_projections_of_45_apn(self):
        from apnlab.constructions import inverse_extension
        from apnlab.vbf import project_is_apn
        from _oracles import project

        F = inverse_extension(field_for(4))  # (4,5)-APN
        assert F.is_apn()
        for k in range(1, 1 << 5):
            P = projection_killing(5, k)
            predicted = project_is_apn(F, P)
            projected = project(F, P)
            assert predicted == projected.is_apn()
            if not predicted:
                assert projected.uniformity() == 4

    def test_dstar_complement_marks_apn_preserving_projections(self):
        # for a (6,7)-APN lift, a kernel vector k survives projection
        # exactly when k is missing from the four-sum value set
        from apnlab.constructions import pair_lift
        from apnlab.vbf import project_is_apn

        spec = field_for(6)
        cube = power_function(spec, 3)
        g = VBF(6, 1, tuple(spec.trace_absolute(x) for x in range(64)))
        F = pair_lift(cube, g)
        assert F.is_apn()
        missing = set(range(1, 1 << 7)) - set(F.dstar_set())
        for k in range(1, 1 << 7):
            P = projection_killing(7, k)
            assert project_is_apn(F, P) == (k in missing)


def _trace_pairing_spectrum(F):
    """Counter of W(a, b) over all a, b != 0 under <u, v> = Tr(uv), with
    the products and traces tabulated from the field's own arithmetic."""
    from collections import Counter

    spec = F.spec
    tp = [[spec.trace_absolute(spec.mul(u, v)) for v in range(spec.size)]
          for u in range(spec.size)]
    c = Counter()
    for b in range(1, spec.size):
        yb = [tp[b][y] for y in F.table]
        for a in range(spec.size):
            ta = tp[a]
            c[sum(1 - 2 * (ta[x] ^ yb[x]) for x in range(spec.size))] += 1
    return c


def _flat_in_last_direction(n, m):
    """A seeded (n, m) table with a count of 4 in the last direction
    a = 2^n - 1: x^3 with m - n random extra output bits, then F(x1 + a)
    moved so that F sums to 0 on the flat {x1, x1 + a, x2, x2 + a}.
    DDT entries off a = 0 are even, and that flat puts the same 4 in the
    directions d = x1 + x2 and d + a, so no table has its only excess in
    direction a.  Here d = 2^(n-1) + 1, so the excess directions are
    2^(n-1) - 2, 2^(n-1) + 1 and 2^n - 1, none of them the first of a
    block."""
    cube = power_function(field_for(n), 3).table
    a, d = (1 << n) - 1, (1 << (n - 1)) + 1
    for seed in range(500):
        rng = random.Random(seed)
        T = [(v << (m - n)) | rng.randrange(1 << (m - n)) for v in cube]
        x1 = rng.randrange(1 << n)
        x2 = x1 ^ d
        T[x1 ^ a] = T[x1] ^ T[x2] ^ T[x2 ^ a]
        ddt = oracle_ddt(T, n, m)
        excess = {b for b in range(1, 1 << n) if max(ddt[b]) > 2}
        if excess == {a, d, d ^ a}:
            return VBF(n, m, tuple(T))
    raise AssertionError("no seed confined the excess to the planted flat")


class TestWholeTableKernels:
    """The blocked derivative counts and the graph-indicator Walsh
    transform against the definitions in _oracles."""

    CASES = [(1, 1), (1, 3), (2, 2), (2, 5), (3, 3), (3, 1), (4, 6),
             (5, 5), (5, 2), (6, 4), (6, 7), (7, 5), (7, 7)]

    @pytest.mark.parametrize("n,m", CASES)
    def test_ddt_uniformity_apn_match_oracle(self, n, m):
        F = _random_function(n, m, 1000 * n + m)
        assert F.ddt().tolist() == oracle_ddt(F.table, n, m)
        assert F.uniformity() == oracle_uniformity(F.table, n, m)
        assert F.is_apn() == oracle_is_apn(F.table, n, m)

    @pytest.mark.parametrize("n,m", [c for c in CASES if c[0] + c[1] <= 13])
    def test_walsh_spectrum_matches_oracle(self, n, m):
        from collections import Counter

        F = _random_function(n, m, 1000 * n + m)
        expect = Counter(oracle_walsh(F.table, n, m, a, b)
                         for a in range(1 << n) for b in range(1, 1 << m))
        assert F.walsh_spectrum().counter() == expect

    @pytest.mark.parametrize("block", [1, 8, 64])
    @pytest.mark.parametrize("n,m", [(0, 3), (1, 3), (3, 1), (4, 6), (5, 5)])
    def test_walsh_blocks_match_oracle(self, monkeypatch, n, m, block):
        from collections import Counter
        import apnlab.vbf

        monkeypatch.setattr(apnlab.vbf, "_BLOCK", block)
        F = _random_function(n, m, 31 * n + m + block)
        expect = Counter(oracle_walsh(F.table, n, m, a, b)
                         for a in range(1 << n) for b in range(1, 1 << m))
        assert F.walsh_spectrum().counter() == expect

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_bound_field_kernels_match_oracle(self, n):
        spec = field_for(n)
        for F in (_random_function(n, n, 77 + n), inverse_function(spec),
                  power_function(spec, 3)):
            F = VBF(n, n, F.table, spec=spec)
            assert F.ddt().tolist() == oracle_ddt(F.table, n, n)
            assert F.uniformity() == oracle_uniformity(F.table, n, n)
            assert F.is_apn() == oracle_is_apn(F.table, n, n)
            assert F.walsh_spectrum().counter() == _trace_pairing_spectrum(F)

    def test_apn_tables(self):
        from apnlab.constructions import table1_functions

        funcs = [power_function(field_for(n), 3) for n in range(2, 9)]
        funcs += table1_functions(field_for(6))
        for F in funcs:
            assert F.is_apn() and oracle_is_apn(F.table, F.n, F.m)
            assert F.uniformity() == 2
        for F in funcs[-13:]:
            assert F.ddt().tolist() == oracle_ddt(F.table, 6, 6)

    @pytest.mark.parametrize("n,m", [(6, 10), (7, 11)])
    def test_count_of_four_in_last_direction(self, n, m):
        F = _flat_in_last_direction(n, m)
        assert not F.is_apn()
        assert F.uniformity() == 4
        assert F.ddt().tolist() == oracle_ddt(F.table, n, m)

    @pytest.mark.parametrize("n,m", [(1, 2), (5, 5), (6, 10), (7, 7), (8, 3)])
    @pytest.mark.parametrize("first", [1, 3, 1 << 14])
    def test_blocks_cover_every_direction_once(self, n, m, first):
        from apnlab.vbf import _derivative_counts

        F = _random_function(n, m, n * m + first)
        rows = []
        for a0, c in _derivative_counts(F.as_array(), n, m, first):
            assert a0 == 1 + len(rows)
            rows.extend(c.tolist())
        assert rows == oracle_ddt(F.table, n, m)[1:]

    def test_is_apn_matches_batch_at_n6(self):
        from apnlab.constructions import table1_functions

        rng = random.Random(11)
        tables = [G.table for G in table1_functions(field_for(6))]
        tables += [inverse_function(field_for(6)).table,
                   power_function(field_for(6), 5).table]
        tables += [tuple(rng.randrange(64) for _ in range(64)) for _ in range(30)]
        mask = is_apn_batch(np.array(tables, dtype=np.int64), 6)
        assert [VBF(6, 6, t).is_apn() for t in tables] == mask.tolist()
