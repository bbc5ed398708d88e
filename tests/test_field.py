import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from apnlab.field import (
    PRESET_MODULI,
    FieldSpec,
    field_for,
    is_irreducible,
    smallest_primitive_modulus,
)

from _oracles import poly_mul_mod


@pytest.fixture(scope="module")
def f8():
    return field_for(8)


class TestAxiomsExhaustive:
    """Field axioms verified over every pair/triple for degrees 3 and 4."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_associativity_and_distributivity(self, n):
        f = field_for(n)
        for x in range(f.size):
            for y in range(f.size):
                for z in range(f.size):
                    assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
                    assert f.mul(x, y ^ z) == f.mul(x, y) ^ f.mul(x, z)

    @pytest.mark.parametrize("n", [3, 4])
    def test_commutativity_identity_inverse(self, n):
        f = field_for(n)
        for x in range(f.size):
            for y in range(f.size):
                assert f.mul(x, y) == f.mul(y, x)
            assert f.mul(x, 1) == x
            if x:
                assert f.mul(x, f.inv(x)) == 1


class TestSampledLaws:
    @given(x=st.integers(0, 255), y=st.integers(0, 255))
    def test_log_tables_agree_with_polynomial_multiplication(self, f8, x, y):
        assert f8.mul(x, y) == poly_mul_mod(x, y, f8.modulus, f8.n)

    @given(x=st.integers(0, 255), y=st.integers(0, 255), z=st.integers(0, 255))
    def test_distributivity_sampled(self, f8, x, y, z):
        assert f8.mul(x, y ^ z) == f8.mul(x, y) ^ f8.mul(x, z)

    @given(x=st.integers(1, 255))
    def test_inverse_and_power(self, f8, x):
        assert f8.mul(x, f8.inv(x)) == 1
        assert f8.pow(x, f8.order) == 1
        assert f8.sqr(x) == f8.mul(x, x)

    @given(x=st.integers(0, 255), y=st.integers(0, 255))
    def test_trace_is_additive(self, f8, x, y):
        assert f8.trace_absolute(x ^ y) == (
            f8.trace_absolute(x) ^ f8.trace_absolute(y))

    @given(x=st.integers(0, 255))
    def test_trace_frobenius_invariant(self, f8, x):
        assert f8.trace_absolute(f8.sqr(x)) == f8.trace_absolute(x)


class TestTraceStructure:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
    def test_trace_balanced(self, n):
        f = field_for(n)
        ones = sum(f.trace_absolute(x) for x in range(f.size))
        assert ones == f.size // 2
        assert len(f.trace_zero_elements()) == f.size // 2
        assert f.trace_absolute(f.trace_one_element()) == 1

    @pytest.mark.parametrize("n,m", [(4, 2), (6, 2), (6, 3), (8, 2), (8, 4)])
    def test_subfield_trace_lands_in_subfield_and_is_transitive(self, n, m):
        f = field_for(n)
        sub = {x for x in range(f.size) if f.pow(x, 1 << m) == x}
        for x in range(f.size):
            t = f.trace_to_subfield(x, m)
            assert t in sub
            # transitivity: the subfield's own absolute trace of t recovers
            # the absolute trace of x
            sub_trace = 0
            for i in range(m):
                sub_trace ^= f.pow(t, 1 << i)
            assert sub_trace in (0, 1)
            assert sub_trace == f.trace_absolute(x)


class TestIdentities:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_frobenius_additive_exhaustive(self, n):
        f = field_for(n)
        for x in range(f.size):
            for y in range(f.size):
                assert f.sqr(x ^ y) == f.sqr(x) ^ f.sqr(y)

    def test_inverse_of_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            field_for(4).inv(0)

    def test_full_degree_subfield_trace_is_identity(self):
        f = field_for(6)
        for x in range(f.size):
            assert f.trace_to_subfield(x, 6) == x

    def test_n8_absolute_trace_composes_through_f4(self):
        f = field_for(8)
        for x in range(256):
            t = f.trace_to_subfield(x, 2)
            assert f.trace_absolute(x) == t ^ f.sqr(t)

    def test_subfield_trace_requires_divisor(self):
        with pytest.raises(ValueError):
            field_for(8).trace_to_subfield(1, 3)

    def test_n8_trace2_fibers_have_size_64(self):
        from collections import Counter

        f = field_for(8)
        fibers = Counter(f.trace_to_subfield(x, 2) for x in range(256))
        _, w, w2 = f.cube_roots_of_unity()
        assert fibers == {0: 64, 1: 64, w: 64, w2: 64}


class TestCubeRoots:
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_cube_roots_of_unity(self, n):
        f = field_for(n)
        one, w, w2 = f.cube_roots_of_unity()
        assert one == 1 and w != 1 and w2 == f.sqr(w)
        assert f.pow(w, 3) == 1

    def test_odd_degree_has_no_nontrivial_cube_roots(self):
        f = field_for(5)
        with pytest.raises(ValueError):
            f.cube_roots_of_unity()


class TestModuli:
    def test_presets_are_irreducible(self):
        for n, mod in PRESET_MODULI.items():
            assert mod.bit_length() - 1 == n
            assert is_irreducible(mod)

    def test_smallest_primitive_modulus_matches_known_values(self):
        assert smallest_primitive_modulus(3) == 0b1011
        assert smallest_primitive_modulus(4) == 0b10011

    @pytest.mark.parametrize("n", [1, 40])
    def test_degree_checked_before_any_modulus_search(self, n, monkeypatch):
        from apnlab import field

        def no_search(n):
            raise AssertionError(f"searched for a modulus of degree {n}")

        monkeypatch.setattr(field, "smallest_primitive_modulus", no_search)
        with pytest.raises(ValueError, match=rf"^degree must be in \[2, 16\], got {n}$"):
            field_for(n)

    def test_reducible_modulus_rejected(self):
        with pytest.raises(ValueError):
            FieldSpec(4, 0b10101)  # (x^2+x+1)^2

    def test_default_and_explicit_arguments_share_one_field(self):
        assert field_for(8) is field_for(8, None) is field_for(8, 0x11D)
        assert field_for(5) is field_for(5, 0x25)

    # x^4+x^3+x^2+x+1 and x^6+x^3+1 are irreducible, but x has order 5 and 9
    @pytest.mark.parametrize("n, modulus", [
        (3, None), (4, None), (5, None), (6, None), (8, None),
        (4, 0b11111), (6, 0b1001001)],
        ids=["n3", "n4", "n5", "n6", "n8", "n4-0x1f", "n6-0x49"])
    def test_generator_has_full_order(self, n, modulus):
        f = field_for(n, modulus)
        assert sorted(f.antilog) == list(range(1, f.size))
        assert (f.generator == 2) == (modulus is None)

    def test_modulus_alone_fixes_the_field(self):
        assert [f.name for f in dataclasses.fields(FieldSpec)] == ["n", "modulus"]
        assert FieldSpec(4, 0b11111).generator == 3


class TestFormatting:
    def test_roundtrip_both_styles(self):
        f = field_for(6)
        for x in range(f.size):
            assert f.parse_element(f.format_element(x, "hex")) == x
            assert f.parse_element(f.format_element(x, "power")) == x

    def test_power_style(self):
        f = field_for(8)
        assert f.format_element(f.gpow(85), "power") == "g^85"
        assert f.parse_element("g^85") == f.gpow(85)
        assert f.parse_element("0x1d") == 0x1D

    def test_bad_element_rejected(self):
        f = field_for(4)
        with pytest.raises(ValueError, match=r"^bad element 'g\^x'$"):
            f.parse_element("g^x")
        with pytest.raises(ValueError, match="^bad element 'zz'$"):
            f.parse_element("zz")
