import io

import pytest

from apnlab.field import field_for
from apnlab.io import FormatError, read_lin1, read_vbf1, write_lin1, write_vbf1
from apnlab.vbf import LinearMap, power_function


class TestVbf1:
    def test_roundtrip(self):
        F = power_function(field_for(5), 3)
        buf = io.StringIO()
        write_vbf1(buf, F)
        G = read_vbf1(io.StringIO(buf.getvalue()))
        assert G.table == F.table and (G.n, G.m) == (5, 5)

    def test_multiline_values_accepted(self):
        text = "2 2\n0 1\n2 3\n"
        F = read_vbf1(io.StringIO(text))
        assert F.table == (0, 1, 2, 3)

    def test_empty_file(self):
        with pytest.raises(FormatError) as e:
            read_vbf1(io.StringIO(""))
        assert e.value.line == 1

    def test_bad_header(self):
        with pytest.raises(FormatError) as e:
            read_vbf1(io.StringIO("4\n0 1 2 3"))
        assert e.value.line == 1

    def test_bad_hex_reports_line(self):
        with pytest.raises(FormatError) as e:
            read_vbf1(io.StringIO("2 2\n0 1\nzz 3\n"))
        assert e.value.line == 3

    def test_negative_dimension(self):
        with pytest.raises(FormatError) as e:
            read_vbf1(io.StringIO("-1 1\n0\n"))
        assert e.value.line == 1

    def test_wrong_count(self):
        with pytest.raises(FormatError):
            read_vbf1(io.StringIO("2 2\n0 1 2\n"))

    def test_value_out_of_range(self):
        with pytest.raises(FormatError):
            read_vbf1(io.StringIO("2 1\n0 1 2 1\n"))

    def test_spec_attached_when_dimensions_match(self):
        spec = field_for(3)
        F = read_vbf1(io.StringIO("3 3\n0 1 2 3 4 5 6 7\n"), spec)
        assert F.spec is spec


class TestLin1:
    def test_roundtrip_hex_and_power(self):
        spec = field_for(6)
        L = LinearMap.from_linearized(spec, [spec.gpow(42), 0, 5, 0, 1, 0])
        for style in ("hex", "power"):
            buf = io.StringIO()
            write_lin1(buf, L, style)
            M = read_lin1(io.StringIO(buf.getvalue()), spec)
            assert M.table() == L.table()

    def test_degree_mismatch(self):
        spec = field_for(4)
        with pytest.raises(FormatError) as e:
            read_lin1(io.StringIO("6\n0 1\n"), spec)
        assert e.value.line == 1

    def test_bad_exponent_index(self):
        spec = field_for(4)
        with pytest.raises(FormatError) as e:
            read_lin1(io.StringIO("4\n9 1\n"), spec)
        assert e.value.line == 2

    def test_bad_coefficient(self):
        spec = field_for(4)
        with pytest.raises(FormatError) as e:
            read_lin1(io.StringIO("4\n0 1\n1 qq\n"), spec)
        assert e.value.line == 3

    def test_blank_lines_ignored(self):
        spec = field_for(4)
        L = read_lin1(io.StringIO("4\n\n0 1\n\n"), spec)
        assert L.table() == tuple(range(16))

    def test_write_requires_linearized_form(self):
        L = LinearMap(3, 3, (1, 2, 4))
        with pytest.raises(ValueError):
            write_lin1(io.StringIO(), L)
