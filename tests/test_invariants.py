import random

import pytest

from apnlab.constructions import (
    ea_transform,
    random_ea_triple,
    table1_functions,
)
from apnlab.field import field_for
from apnlab.invariants import (
    classical_spectrum,
    distinguish,
    gamma_rank,
    invariant_bundle,
    is_classical,
)
from apnlab.vbf import VBF, gf2_rank, power_function

from _oracles import oracle_gamma_rank, oracle_gf2_rank


class TestGf2Rank:
    def test_matches_dense_oracle_on_random_matrices(self):
        rng = random.Random(3)
        for _ in range(20):
            rows, cols = rng.randrange(1, 12), rng.randrange(1, 12)
            dense = [[rng.randrange(2) for _ in range(cols)]
                     for _ in range(rows)]
            packed = [sum(b << j for j, b in enumerate(r)) for r in dense]
            assert gf2_rank(packed) == oracle_gf2_rank(dense)

    def test_identity_and_zero(self):
        assert gf2_rank([1 << i for i in range(9)]) == 9
        assert gf2_rank([0, 0, 0]) == 0


class TestGammaRank:
    def test_matches_dense_oracle_at_tiny_dimension(self):
        F = power_function(field_for(3), 3)
        side = 1 << 6
        dense = [[0] * side for _ in range(side)]
        for u in range(8):
            for v in range(8):
                for a in range(8):
                    b = F.table[a ^ u] ^ v
                    dense[(u << 3) | v][(a << 3) | b] = 1
        assert gamma_rank(F) == oracle_gf2_rank(dense)

    def test_bounds(self):
        F = power_function(field_for(4), 3)
        r = gamma_rank(F)
        assert (1 << 4) <= r <= (1 << 8)

    def test_over_budget_rejected(self):
        F = VBF(9, 9, tuple(range(512)))
        with pytest.raises(ValueError):
            gamma_rank(F)

    def test_matches_row_elimination_oracle(self):
        rng = random.Random(11)
        for _ in range(24):
            n = rng.randrange(1, 7)
            m = rng.randrange(1, 11 - n)
            F = VBF(n, m, tuple(rng.randrange(1 << m) for _ in range(1 << n)))
            G = ea_transform(F, *random_ea_triple(n, m, rng))
            want = oracle_gamma_rank(F.table, n, m)
            assert gamma_rank(F) == want, (n, m)
            assert gamma_rank(G) == oracle_gamma_rank(G.table, n, m) == want

    def test_cube_n7(self):
        assert gamma_rank(power_function(field_for(7), 3)) == 3610

    def test_ea_invariance_small(self):
        rng = random.Random(17)
        F = power_function(field_for(4), 3)
        base = gamma_rank(F)
        for _ in range(5):
            a1, a2, a3 = random_ea_triple(4, 4, rng)
            assert gamma_rank(ea_transform(F, a1, a2, a3)) == base


class TestClassicalSpectrum:
    @pytest.mark.parametrize("n", [4, 6])
    def test_total_count_and_cube_is_classical(self, n):
        ws = classical_spectrum(n)
        assert ws.total == (1 << n) * ((1 << n) - 1)
        assert is_classical(power_function(field_for(n), 3).walsh_spectrum(), n)

    def test_seventh_modified_function_is_not_classical(self):
        funcs = table1_functions(field_for(6))
        flags = [is_classical(G.walsh_spectrum(), 6) for G in funcs]
        assert flags[6] is False
        assert all(flags[:6]) and all(flags[7:])

    def test_signs_of_walsh_values_ignored(self):
        F = power_function(field_for(6), 3)
        G = VBF(6, 6, tuple(v ^ 1 for v in F.table), spec=F.spec)
        assert G.walsh_spectrum() != F.walsh_spectrum()
        assert is_classical(G.walsh_spectrum(), 6)
        assert distinguish(F, G).invariant is None

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            classical_spectrum(5)

    @pytest.mark.parametrize("n", [0, 2])
    def test_dimension_below_four_rejected(self, n):
        with pytest.raises(ValueError, match="n >= 4"):
            classical_spectrum(n)


class TestDistinguish:
    def test_function_vs_itself_is_undetermined(self):
        F = power_function(field_for(4), 3)
        r = distinguish(F, F)
        assert not r.provably_inequivalent and r.invariant is None

    def test_rank_separates_cube_from_modified_at_n6(self):
        spec = field_for(6)
        F = power_function(spec, 3)
        G = table1_functions(spec)[6]
        r = distinguish(F, G)
        assert r.provably_inequivalent

    def test_walsh_separates_when_ranks_agree(self):
        # engineered bundles exercise the comparison order
        F = power_function(field_for(4), 3)
        b = invariant_bundle(F)
        from dataclasses import replace

        from apnlab.vbf import WalshSpectrum

        other = replace(b, walsh=WalshSpectrum(((0, b.walsh.total),)))
        assert distinguish(F, F, b, other).invariant == "walsh_spectrum"

    def test_degree_used_only_above_linear(self):
        from dataclasses import replace

        F = power_function(field_for(4), 3)
        b = invariant_bundle(F)
        cubic = replace(b, degree=3)
        assert distinguish(F, F, b, cubic).invariant == "algebraic_degree"
        linear = replace(b, degree=1)
        assert distinguish(F, F, b, linear).invariant is None
