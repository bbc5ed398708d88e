import random

import pytest

from apnlab.constructions import (
    CosetDecomposition,
    HyperplaneSpec,
    admissible_sums,
    coset_criterion,
    coset_modify,
    concat_is_apn,
    concatenate,
    decompose_to_4uniform,
    ea_transform,
    exp_sum_condition,
    h_equivalence_witness,
    hyperplane_modify,
    inverse_extension,
    nyberg_root_count,
    nyberg_roots,
    pair_lift,
    quadratic_concat_criterion,
    random_ea_triple,
    switch,
    table1_functions,
    table1_maps,
    th31_criterion,
    th31_witness,
)
from apnlab import vbf
from apnlab.field import field_for
from apnlab.search import enumerate_subspaces
from apnlab.vbf import VBF, LinearMap, inverse_function, power_function

from _oracles import (
    oracle_admissible_sums,
    oracle_concat_witness,
    oracle_coset_minima,
    oracle_exp_sum_lhs,
    oracle_is_apn,
    oracle_quadratic_concat,
    split_pair,
)


class TestSwitching:
    def test_zero_switch_reduces_to_base(self):
        f = power_function(field_for(4), 3)
        g = VBF(4, 1, (0,) * 16)
        G, cert = switch(f, g, u=1)
        assert G.table == f.table
        assert cert == f.is_apn() == True  # noqa: E712

    def test_certificate_iff_direct_apn_all_u(self):
        F = inverse_extension(field_for(4))
        f, g = split_pair(F)
        for u in range(1, 16):
            G, cert = switch(f, g, u)
            assert cert == G.is_apn()
            assert cert == oracle_is_apn(G.table, 4, 4)

    def test_combined_must_be_apn(self):
        f = inverse_function(field_for(4))  # delta = 4
        g = VBF(4, 1, tuple(x & 1 for x in range(16)))
        with pytest.raises(ValueError):
            switch(f, g, 1)

    def test_switching_back_a_decomposition_recovers_the_cube(self):
        f = power_function(field_for(5), 3)
        d = decompose_to_4uniform(f)
        lifted = pair_lift(d.f1, d.g)
        assert lifted.is_apn()  # (f1, g) stays APN as a pair
        G, cert = switch(d.f1, d.g, d.u)
        assert cert and G.table == f.table
        # the chosen direction breaks APN-ness of the original pair:
        # (u, 1) lies in the four-sum set of the lift of (f, g)
        assert ((d.u << 1) | 1) in pair_lift(f, d.g).dstar_set()

    def test_pair_lift_roundtrip(self):
        f = power_function(field_for(4), 3)
        g = VBF(4, 1, tuple((x >> 1) & 1 for x in range(16)))
        F = pair_lift(f, g)
        f2, g2 = split_pair(F)
        assert f2.table == f.table and g2.table == g.table


# A second primitive modulus per degree: the unit tests below check a
# claim there, while its `apnlab verify` target checks the default field.
SECOND_MODULUS = {4: 0x19, 5: 0x29, 6: 0x43}


class TestDecomposition:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_roundtrip_and_uniformity(self, n):
        f = power_function(field_for(n, SECOND_MODULUS[n]), 3)
        d = decompose_to_4uniform(f)
        assert d.uniformity == d.f1.uniformity() == 4
        rebuilt = tuple(
            v ^ (d.u if gb else 0) for v, gb in zip(d.f1.table, d.g.table))
        assert rebuilt == f.table

    def test_direction_is_the_smallest_odd_four_sum(self):
        # brute force over the 2-flats {x, y, z, x+y+z}; every f-sum with odd
        # g-sum is a valid direction, and the smallest one is chosen
        f = power_function(field_for(4), 3)
        d = decompose_to_4uniform(f)
        T, g = f.table, d.g.table
        odd = {T[x] ^ T[y] ^ T[z] ^ T[x ^ y ^ z]
               for x in range(16) for y in range(16) for z in range(16)
               if len({x, y, z, x ^ y ^ z}) == 4
               and g[x] ^ g[y] ^ g[z] ^ g[x ^ y ^ z]}
        assert d.u == min(odd)
        for u in odd:
            f1 = VBF(4, 4, tuple(v ^ (u if gb else 0) for v, gb in zip(T, g)))
            assert f1.uniformity() == 4

    def test_linear_g_is_rejected(self):
        # a linear g has no odd quadruple, so no valid direction u exists
        f = power_function(field_for(4), 3)
        spec = f.spec
        g = VBF(4, 1, tuple(spec.trace_absolute(x) for x in range(16)))
        with pytest.raises(ValueError):
            decompose_to_4uniform(f, g)


class TestNyberg:
    @pytest.mark.parametrize("n", [4, 6])
    def test_prediction_matches_enumeration(self, n):
        spec = field_for(n, SECOND_MODULUS[n])
        for a in range(1, spec.size):
            for b in range(spec.size):
                assert nyberg_root_count(spec, a, b) == len(
                    nyberg_roots(spec, a, b))

    @pytest.mark.parametrize("n", [4, 6])
    def test_four_root_case_is_the_cube_coset(self, n):
        spec = field_for(n)
        _, w, w2 = spec.cube_roots_of_unity()
        for a in (1, spec.generator, spec.gpow(5)):
            roots = set(nyberg_roots(spec, a, spec.inv(a)))
            assert roots == {0, a, spec.mul(w, a), spec.mul(w2, a)}

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError):
            nyberg_root_count(field_for(5), 1, 1)


class TestInverseExtension:
    @pytest.mark.parametrize("n", [4, 6])
    def test_output_is_apn(self, n):
        F = inverse_extension(field_for(n))
        assert (F.n, F.m) == (n, n + 1)
        assert F.is_apn()
        assert oracle_is_apn(F.table, n, n + 1)

    def test_first_component_is_the_inverse(self):
        spec = field_for(4)
        f, _ = split_pair(inverse_extension(spec))
        assert f.table == inverse_function(spec).table

    @pytest.mark.parametrize("n", [4, 6])
    def test_extra_bit_sums_to_one_on_cube_cosets(self, n):
        # g(0) + g(a) + g(wa) + g(w^2 a) = 1 for every nonzero a
        spec = field_for(n)
        _, w, w2 = spec.cube_roots_of_unity()
        _, g = split_pair(inverse_extension(spec))
        for a in range(1, spec.size):
            s = (g.table[0] ^ g.table[a]
                 ^ g.table[spec.mul(w, a)] ^ g.table[spec.mul(w2, a)])
            assert s == 1


class TestConcatenation:
    def test_criterion_agrees_with_direct_on_seeded_pairs(self):
        base = inverse_extension(field_for(4))
        rng = random.Random(2024)
        agree = 0
        for _ in range(200):
            t1 = list(base.table)
            t2 = list(base.table)
            for _ in range(rng.randrange(3)):
                t1[rng.randrange(16)] ^= 1 << rng.randrange(5)
            for _ in range(rng.randrange(3)):
                t2[rng.randrange(16)] ^= 1 << rng.randrange(5)
            f = VBF(4, 5, tuple(t1))
            g = VBF(4, 5, tuple(t2))
            ok, witness = concat_is_apn(f, g)
            F = concatenate(f, g)
            assert ok == F.is_apn()
            if not ok and witness is not None:
                x, y, a = witness
                assert (f.table[x ^ a] ^ f.table[x]
                        ^ g.table[y ^ a] ^ g.table[y]) == 0
            agree += 1
        assert agree == 200

    def test_witness_absent_when_first_condition_fails(self):
        f = VBF(3, 3, tuple(range(8)))  # linear, never APN
        ok, witness = concat_is_apn(f, f)
        assert not ok and witness is None

    @staticmethod
    def _halves(n, rng):
        """An EA copy F of x^3 on F_2^(n+1) and its two halves (f, g):
        F(x) = f(x) and F(x + e_0) = g(x), so concatenate(f, g) = F is APN."""
        spec = field_for(n + 1)
        F = ea_transform(power_function(spec, 3), *random_ea_triple(n + 1, n + 1, rng))
        half = 1 << n
        return F, VBF(n, n + 1, F.table[:half]), VBF(n, n + 1, F.table[half:])

    def _seeded_pairs(self, rng, count):
        """(f, g) pairs at n = 3, 4, 5: the halves of an APN function, EA
        copies of x^3 against EA copies of x^3 or x^5, and perturbed
        (4, 5) inverse extensions."""
        base = inverse_extension(field_for(4)).table
        for k in range(count):
            n = rng.choice((3, 4, 5))
            spec = field_for(n)
            if k % 3 == 0:
                yield self._halves(n, rng)[1:]
            elif k % 3 == 1:
                f = ea_transform(power_function(spec, 3), *random_ea_triple(n, n, rng))
                e = 5 if n % 2 else 3
                yield f, ea_transform(power_function(spec, e), *random_ea_triple(n, n, rng))
            else:
                t1, t2 = list(base), list(base)
                for t in (t1, t2):
                    for _ in range(rng.randrange(3)):
                        t[rng.randrange(16)] ^= 1 << rng.randrange(5)
                yield VBF(4, 5, tuple(t1)), VBF(4, 5, tuple(t2))

    def test_verdict_and_witness_match_oracle_loop(self):
        # the witness is the oracle loop's: smallest a, first y, smallest x
        verdicts = []
        for f, g in self._seeded_pairs(random.Random(315), 150):
            both_apn = (oracle_is_apn(f.table, f.n, f.m)
                        and oracle_is_apn(g.table, g.n, g.m))
            w = oracle_concat_witness(f.table, g.table, f.n) if both_apn else None
            assert concat_is_apn(f, g) == (both_apn and w is None, w)
            verdicts.append((both_apn, w is None))
        # every branch is exercised: a non-APN half, a witness, a hold
        assert {(False, True), (True, False), (True, True)} <= set(verdicts)

    def test_quadratic_criterion_matches_oracle_loop(self):
        # g = f + L + c for the halves of an APN F, where L(x) = B_F(x, e_0)
        # makes the criterion hold, and for a random L, where it mostly fails
        rng = random.Random(316)
        verdicts = []
        for k in range(60):
            n = rng.choice((3, 4, 5))
            F, f, _ = self._halves(n, rng)
            e0 = 1 << n
            images = [F.bform(1 << i, e0) if k % 2 else rng.randrange(1 << (n + 1))
                      for i in range(n)]
            L = LinearMap(n, n + 1, tuple(images))
            holds = quadratic_concat_criterion(f, L, rng.randrange(1 << (n + 1)))
            assert holds == oracle_quadratic_concat(f.table, L.table(), n)
            verdicts.append(holds)
        assert set(verdicts) == {False, True}

    def test_quadratic_criterion_agrees_with_direct(self):
        spec = field_for(4)
        f = power_function(spec, 3)
        for coeffs in ([0, 0, 0, 0], [1, 0, 0, 0], [0, 3, 0, 0],
                       [5, 0, 2, 0], [0, 0, 0, 9]):
            L = LinearMap.from_linearized(spec, coeffs)
            for c in (0, 1, 7):
                g = VBF(4, 4, tuple(
                    fv ^ lv ^ c for fv, lv in zip(f.table, L.table())))
                F = concatenate(f, g)
                assert quadratic_concat_criterion(f, L, c) == F.is_apn()


class TestHyperplaneModification:
    def test_table1_all_pass_criterion_and_are_apn(self):
        spec = field_for(6)
        cube = power_function(spec, 3)
        for L, G in zip(table1_maps(spec), table1_functions(spec)):
            assert th31_criterion(cube, L)
            assert G.is_apn() and G.is_quadratic()

    def test_zero_map_is_identity_and_passes(self):
        spec = field_for(6)
        cube = power_function(spec, 3)
        Z = LinearMap.zero(6, 6)
        assert hyperplane_modify(cube, Z).table == cube.table
        assert th31_criterion(cube, Z)

    def test_modified_function_agrees_on_trace_zero_hyperplane(self):
        spec = field_for(6)
        cube = power_function(spec, 3)
        for L in table1_maps(spec)[:3]:
            G = hyperplane_modify(cube, L)
            for x in range(64):
                if spec.trace_absolute(x) == 0:
                    assert G.table[x] == cube.table[x]

    def test_criterion_matches_direct_for_seeded_maps(self):
        spec = field_for(4)
        cube = power_function(spec, 3)
        rng = random.Random(11)
        seen = {True: 0, False: 0}
        for _ in range(300):
            coeffs = [rng.randrange(16) for _ in range(4)]
            L = LinearMap.from_linearized(spec, coeffs)
            verdict = th31_criterion(cube, L)
            assert verdict == hyperplane_modify(cube, L).is_apn()
            seen[verdict] += 1
        assert seen[True] and seen[False]

    def test_witness_is_the_first_kernel_violation(self):
        spec = field_for(4)
        cube = power_function(spec, 3)
        e0 = spec.trace_one_element()
        t0 = spec.trace_zero_elements()
        rng = random.Random(12)
        for _ in range(60):
            L = LinearMap.from_linearized(spec, [rng.randrange(16) for _ in range(4)])
            found = [(a, x) for a in t0 for x in t0
                     if x and L(x) == cube.bform(x, a ^ e0)]
            assert th31_witness(cube, L) == (found[0] if found else None)
            assert th31_criterion(cube, L) == (not found)

    def test_exp_sum_zero_map_values(self):
        for n in (4, 5, 6):
            spec = field_for(n, SECOND_MODULUS[n])
            lhs, holds = exp_sum_condition(LinearMap.zero(n, n), spec)
            assert lhs == (1 << (n - 1)) - 1
            assert holds

    def test_exp_sum_agrees_for_table1(self):
        spec = field_for(6)
        for L in table1_maps(spec):
            _, holds = exp_sum_condition(L, spec)
            assert holds

    def test_non_apn_map_fails_both_criteria(self):
        spec = field_for(4)
        cube = power_function(spec, 3)
        L = LinearMap.from_linearized(spec, [1, 0, 0, 0])  # G(x)=x^3+Tr(x)x
        direct = hyperplane_modify(cube, L).is_apn()
        assert th31_criterion(cube, L) == direct
        assert exp_sum_condition(L, spec)[1] == direct

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_exp_sum_matches_scalar_oracle_on_seeded_maps(self, n):
        spec = field_for(n)
        rng = random.Random(40 + n)
        target = (1 << (n - 1)) - 1
        for _ in range(40):
            L = LinearMap(n, n, tuple(rng.randrange(spec.size) for _ in range(n)))
            want = oracle_exp_sum_lhs(L, spec)
            assert exp_sum_condition(L, spec) == (want, want == target)

    def test_exp_sum_matches_scalar_oracle_on_table1(self):
        spec = field_for(6)
        for L in table1_maps(spec):
            assert exp_sum_condition(L, spec) == (oracle_exp_sum_lhs(L, spec), True)


class TestHEquivalence:
    def test_witness_found_for_planted_affine_difference(self):
        spec = field_for(5)
        F = power_function(spec, 3)
        h = HyperplaneSpec.trace_zero(spec)
        L = LinearMap.from_linearized(spec, [3, 1, 0, 0, 0])
        c = 9
        table = tuple(
            fv ^ ((L(x) ^ c) if not h.contains(x) else 0)
            for x, fv in enumerate(F.table))
        G = VBF(5, 5, table)
        A = h_equivalence_witness(F, G, h)
        assert A is not None
        for x in range(32):
            expect = F.table[x] ^ (A(x) if not h.contains(x) else 0)
            assert G.table[x] == expect

    def test_identical_functions_yield_zero_witness(self):
        spec = field_for(4)
        F = power_function(spec, 3)
        h = HyperplaneSpec.trace_zero(spec)
        A = h_equivalence_witness(F, F, h)
        assert A is not None
        assert all(A(x) == 0 for x in range(16))

    def test_witness_always_exists_for_hyperplane_modification(self):
        spec = field_for(6)
        cube = power_function(spec, 3)
        h = HyperplaneSpec.trace_zero(spec)
        for L in table1_maps(spec):
            G = hyperplane_modify(cube, L)
            A = h_equivalence_witness(cube, G, h)
            assert A is not None
            for x in range(64):
                if spec.trace_absolute(x):
                    assert A(x) == L(x)

    def test_no_witness_for_cubic_perturbation(self):
        spec = field_for(5)
        F = power_function(spec, 3)
        h = HyperplaneSpec.trace_zero(spec)
        G7 = power_function(spec, 7)  # degree 3, not affine
        table = tuple(
            fv ^ (G7.table[x] if not h.contains(x) else 0)
            for x, fv in enumerate(F.table))
        assert h_equivalence_witness(F, VBF(5, 5, table), h) is None

    def test_no_witness_when_functions_differ_on_h(self):
        spec = field_for(4)
        F = power_function(spec, 3)
        h = HyperplaneSpec.trace_zero(spec)
        t = list(F.table)
        x0 = next(x for x in range(16) if h.contains(x))
        t[x0] ^= 1
        assert h_equivalence_witness(F, VBF(4, 4, tuple(t)), h) is None


class TestCosetModification:
    def test_admissible_sums_n8(self):
        spec = field_for(8)
        F = power_function(spec, 3)
        dec = CosetDecomposition.from_subfield_trace(spec)
        _, w, w2 = spec.cube_roots_of_unity()
        assert admissible_sums(F, dec) == frozenset({0, 1, w, w2})

    def test_criterion_iff_direct_exhaustive_small(self):
        spec = field_for(4)
        F = power_function(spec, 3)
        dec = CosetDecomposition.from_basis(4, (1, 2))
        for s in range(16):
            consts = (0, 0, 0, s)
            assert coset_criterion(F, dec, consts) == coset_modify(
                F, dec, consts).is_apn()

    def test_zero_constants_are_identity(self):
        spec = field_for(6)
        F = power_function(spec, 3)
        dec = CosetDecomposition.from_basis(6, (1, 2, 4, 8))
        assert coset_modify(F, dec, (0, 0, 0, 0)).table == F.table

    def test_only_the_sum_matters(self):
        spec = field_for(6)
        F = power_function(spec, 3)
        dec = CosetDecomposition.from_basis(6, (1, 2, 12, 16))
        adm = admissible_sums(F, dec)
        assert adm - {0}
        s = min(adm - {0})
        for consts in ((0, 0, 0, s), (s, 0, 0, 0), (1, 1, s, 0)):
            assert coset_criterion(F, dec, consts)
            assert coset_modify(F, dec, consts).is_apn()

    def test_partition_is_validated(self):
        with pytest.raises(ValueError):
            CosetDecomposition(4, (1, 2), (0, 1, 2, 2))

    def test_overlapping_cosets_rejected(self):
        # 5 lies in the coset of 4, so the four cosets miss 8 + U
        with pytest.raises(ValueError, match="cosets do not partition the space"):
            CosetDecomposition(4, (1, 2), (0, 4, 8, 5))

    @pytest.mark.parametrize("basis", [(1, 1), (3, 0), (3, 5, 6)])
    def test_dependent_basis_rejected(self, basis):
        n = len(basis) + 2
        with pytest.raises(ValueError, match="basis vectors are dependent"):
            CosetDecomposition(n, basis, (0, 1 << (n - 2), 2 << (n - 2), 3 << (n - 2)))
        with pytest.raises(ValueError, match="basis vectors are dependent"):
            CosetDecomposition.from_basis(n, basis)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_from_basis_reps_are_coset_minima(self, n):
        rng = random.Random(70 + n)
        for _ in range(6):
            basis = tuple(rng.randrange(1, 1 << n) for _ in range(n - 2))
            if len(oracle_coset_minima(n, basis)) != 4:
                continue  # dependent draw
            dec = CosetDecomposition.from_basis(n, basis)
            assert list(dec.reps) == oracle_coset_minima(n, basis)
            assert dec.coset_of == tuple(
                next(i for i in range(4) if x in dec.coset(i)) for x in range(1 << n))

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_subfield_trace_decomposition_matches_definition(self, n):
        """U is the kernel of Tr^n_2 with its greedy increasing basis, and
        the representatives are the minima of the fibers over 1, w, w^2."""
        spec = field_for(n)
        fibers = {}
        for x in range(spec.size):
            fibers.setdefault(spec.trace_to_subfield(x, 2), []).append(x)
        basis, span = [], {0}
        for x in fibers[0]:
            if x not in span:
                basis.append(x)
                span |= {y ^ x for y in span}
        _, w, w2 = spec.cube_roots_of_unity()
        dec = CosetDecomposition.from_subfield_trace(spec)
        assert dec.basis == tuple(basis)
        assert dec.reps == (0, fibers[1][0], fibers[w][0], fibers[w2][0])
        assert dec.subspace == tuple(fibers[0])


def _oracle_sums(F, dec):
    return oracle_admissible_sums(F.table, F.m, [dec.coset(i) for i in range(4)])


def _decompositions(n, seed):
    decs = enumerate_subspaces(n, 2, 2, seed=seed)
    decs.append(CosetDecomposition.from_basis(n, tuple(1 << i for i in range(2, n))))
    if n % 2 == 0:
        decs.append(CosetDecomposition.from_subfield_trace(field_for(n)))
    return decs


class TestAdmissibleSums:
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_ea_copies_of_cube_match_oracle(self, n):
        rng = random.Random(100 + n)
        cube = power_function(field_for(n), 3)
        for _ in range(2):
            F = ea_transform(cube, *random_ea_triple(n, n, rng))
            for dec in _decompositions(n, seed=rng.randrange(1 << 30)):
                assert admissible_sums(F, dec) == _oracle_sums(F, dec)

    def test_table1_functions_match_oracle(self):
        spec = field_for(6)
        decs = _decompositions(6, seed=18)
        for F in table1_functions(spec):
            for dec in decs:
                assert admissible_sums(F, dec) == _oracle_sums(F, dec)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_trace_decomposition_matches_oracle(self, n):
        spec = field_for(n)
        F = power_function(spec, 3)
        dec = CosetDecomposition.from_subfield_trace(spec)
        assert admissible_sums(F, dec) == _oracle_sums(F, dec)

    def test_non_apn_and_dimension_mismatch_raise(self):
        dec = CosetDecomposition.from_basis(4, (1, 2))
        with pytest.raises(ValueError, match="F must be APN"):
            admissible_sums(power_function(field_for(4), 5), dec)
        with pytest.raises(ValueError, match="dimension does not match"):
            admissible_sums(power_function(field_for(5), 3), dec)

    def test_totals_beyond_int64_rejected_before_apn_test(self, monkeypatch):
        def no_apn_test(self):
            raise AssertionError("APN test started")

        monkeypatch.setattr(VBF, "is_apn", no_apn_test)
        F = VBF(16, 21, (0,) * (1 << 16))  # 3n + m = 69
        dec = CosetDecomposition.from_basis(16, tuple(1 << i for i in range(2, 16)))
        with pytest.raises(ValueError, match="3n \\+ m"):
            admissible_sums(F, dec)

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_iff_direct_apn_test(self, n, monkeypatch):
        """s is admissible iff adding s on the fourth coset keeps x^3 APN;
        at n = 10 the directions run in more than one block."""
        spec = field_for(n)
        F = power_function(spec, 3)
        calls = []
        wht = vbf._wht_rows
        monkeypatch.setattr(vbf, "_wht_rows",
                            lambda v: calls.append(v.shape) or wht(v))
        trace_dec = CosetDecomposition.from_subfield_trace(spec)
        decs = [trace_dec, enumerate_subspaces(n, 2, 1, seed=n)[0]]
        if n == 6:
            decs += enumerate_subspaces(6, 2, 5, seed=4)
        for dec in decs:
            adm = admissible_sums(F, dec)
            for s in range(1 << n):
                assert (s in adm) == coset_modify(F, dec, (0, 0, 0, s)).is_apn()
        if n == 10:
            calls.clear()
            assert admissible_sums(F, trace_dec) == {0}
            # one transform per block of directions t, then the inverse;
            # a block holds an L and an R row per direction
            blocks = [cols for _, cols in calls[:-1]]
            assert len(blocks) > 1 and sum(blocks) == 2 * (1 << (n - 2))


class TestEaTransforms:
    def test_identity_transform_is_noop(self):
        from apnlab.vbf import AffineMap

        F = power_function(field_for(5), 3)
        ident_in = AffineMap(LinearMap.identity(5), 0)
        zero = AffineMap(LinearMap.zero(5, 5), 0)
        assert ea_transform(F, ident_in, ident_in, zero).table == F.table

    def test_apn_preserved(self):
        rng = random.Random(5)
        F = power_function(field_for(5), 3)
        for _ in range(10):
            a1, a2, a3 = random_ea_triple(5, 5, rng)
            assert ea_transform(F, a1, a2, a3).is_apn()

    def test_walsh_value_multiset_preserved_under_inner_translation(self):
        from apnlab.vbf import AffineMap

        F = power_function(field_for(4), 3)
        ident = AffineMap(LinearMap.identity(4), 3)
        G = ea_transform(F, AffineMap(LinearMap.identity(4), 0), ident,
                         AffineMap(LinearMap.zero(4, 4), 0))
        fv = sorted(abs(v) for v, c in F.walsh_spectrum().values for _ in range(c))
        gv = sorted(abs(v) for v, c in G.walsh_spectrum().values for _ in range(c))
        assert fv == gv
