import json

import jsonschema
import pytest

from apnlab.cli import main
from apnlab.field import field_for
from apnlab.io import write_lin1, write_vbf1
from apnlab.vbf import VBF, inverse_function, power_function
from apnlab.constructions import inverse_extension, table1_maps

from _oracles import split_pair

SCHEMA_PATH = "docs/certificate.schema.json"


@pytest.fixture(scope="module")
def schema():
    with open(SCHEMA_PATH) as fh:
        return json.load(fh)


def _write_vbf(tmp_path, name, F):
    p = tmp_path / name
    with open(p, "w") as fh:
        write_vbf1(fh, F)
    return str(p)


def _run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def _plus_one(F):
    return VBF(F.n, F.m, tuple(v ^ 1 for v in F.table), spec=F.spec)


class TestAnalyze:
    def test_spectrum_verdict_ignores_walsh_signs(self, tmp_path, capsys):
        # x^3 + 1 flips the sign of half the Walsh values of x^3
        p = _write_vbf(tmp_path, "c1.vbf1", _plus_one(power_function(field_for(8), 3)))
        code, out, _ = _run(capsys, "analyze", p)
        assert code == 0
        assert "spectrum: classical" in out

    def test_cube_n6(self, tmp_path, capsys):
        p = _write_vbf(tmp_path, "c.vbf1", power_function(field_for(6), 3))
        code, out, _ = _run(capsys, "analyze", p)
        assert code == 0
        assert "APN: true" in out
        assert "quadratic: true" in out
        assert "spectrum: classical" in out

    def test_inverse_n6(self, tmp_path, capsys):
        p = _write_vbf(tmp_path, "i.vbf1", inverse_function(field_for(6)))
        code, out, _ = _run(capsys, "analyze", p)
        assert code == 0
        assert "uniformity: 4" in out

    def test_empty_file_exits_2(self, tmp_path, capsys):
        p = tmp_path / "e.vbf1"
        p.write_text("")
        code, _, err = _run(capsys, "analyze", str(p))
        assert code == 2
        assert "expected header" in err

    def test_negative_dimension_exits_2(self, tmp_path, capsys):
        p = tmp_path / "neg.vbf1"
        p.write_text("-1 1\n0\n")
        code, out, err = _run(capsys, "analyze", str(p))
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1 and "non-negative" in err

    @pytest.mark.parametrize("text", ["2 2\n0 1 1 1\n", "0 0\n0\n"],
                             ids=["cube-n2", "zero-inputs"])
    def test_small_apn_tables_have_no_spectrum_line(self, tmp_path, capsys, text):
        # x^3 over F_4 and the 0-input table are APN, below the n >= 4 of
        # the classical closed form
        p = tmp_path / "s.vbf1"
        p.write_text(text)
        code, out, err = _run(capsys, "analyze", str(p))
        assert code == 0 and err == ""
        assert "APN: true" in out and "spectrum:" not in out

    def test_missing_file_exits_2(self, capsys):
        code, _, err = _run(capsys, "analyze", "/nonexistent/x.vbf1")
        assert code == 2


@pytest.mark.parametrize("command", [
    ["analyze", "{bad}"], ["rank", "{bad}"],
    ["construct", "switch", "--f", "{bad}", "--g", "{bad}", "--u", "1",
     "--out", "{out}"],
    ["construct", "hmod", "--n", "4", "--map", "{bad}", "--out", "{out}"]],
    ids=["analyze", "rank", "construct-switch", "construct-hmod-map"])
def test_non_utf8_input_exits_2_with_one_line(tmp_path, capsys, command):
    bad = tmp_path / "bad.vbf1"
    bad.write_bytes(b"2 2\n\xff\xfe 0 1 1\n")
    argv = [a.format(bad=bad, out=tmp_path / "o.vbf1") for a in command]
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: {bad}: ")


def test_bad_lin1_element_names_path_and_line(tmp_path, capsys):
    lp = tmp_path / "L.lin1"
    lp.write_text("4\n0 zz\n")
    code, out, err = _run(capsys, "construct", "hmod", "--n", "4", "--map",
                          str(lp), "--out", str(tmp_path / "o.vbf1"))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: {lp}: line 2:")
    assert "'zz'" in err and "invalid literal" not in err


@pytest.mark.parametrize("kind, n, table_n, extra", [
    ("hmod", 8, 6, ["--map", "{lin}"]),
    ("coset", 6, 8, ["--consts", "0,0,0,0"])], ids=["hmod", "coset"])
def test_base_table_of_wrong_degree_exits_2_with_one_line(tmp_path, capsys, kind,
                                                          n, table_n, extra):
    lp = tmp_path / "L.lin1"
    lp.write_text(f"{n}\n")
    fp = _write_vbf(tmp_path, "F.vbf1", power_function(field_for(table_n), 3))
    code, out, err = _run(capsys, "construct", kind, "--n", str(n), "--f", fp,
                          *[a.format(lin=lp) for a in extra],
                          "--out", str(tmp_path / "o.vbf1"))
    assert code == 2 and out == ""
    assert err == (f"error: {fp}: line 1: table degree {table_n} does not "
                   f"match field degree {n}\n")


class TestConstruct:
    def test_hmod_roundtrip(self, tmp_path, capsys, schema):
        spec = field_for(6)
        lp = tmp_path / "L.lin1"
        with open(lp, "w") as fh:
            write_lin1(fh, table1_maps(spec)[1])
        out_path = tmp_path / "g.vbf1"
        code, out, _ = _run(capsys, "construct", "hmod", "--n", "6",
                            "--map", str(lp), "--out", str(out_path))
        assert code == 0
        cert = json.loads(out)
        jsonschema.validate(cert, schema)
        assert cert["kind"] == "hmod" and cert["holds"] is True
        code, out, _ = _run(capsys, "analyze", str(out_path))
        assert code == 0 and "APN: true" in out

    def test_hmod_failure_emits_witness_and_table(self, tmp_path, capsys,
                                                  schema):
        spec = field_for(6)
        from apnlab.vbf import LinearMap

        lp = tmp_path / "L.lin1"
        with open(lp, "w") as fh:
            write_lin1(fh, LinearMap.from_linearized(spec, [1, 0, 0, 0, 0, 0]))
        out_path = tmp_path / "g.vbf1"
        code, out, _ = _run(capsys, "construct", "hmod", "--n", "6",
                            "--map", str(lp), "--out", str(out_path))
        assert code == 0  # criterion failure is not an error
        cert = json.loads(out)
        jsonschema.validate(cert, schema)
        assert cert["holds"] is False and cert["witness"] is not None
        code, out, _ = _run(capsys, "analyze", str(out_path))
        assert "APN: false" in out

    def test_coset_paper_parameters(self, tmp_path, capsys, schema):
        out_path = tmp_path / "G.vbf1"
        cert_path = tmp_path / "G.cert.json"
        code, out, _ = _run(capsys, "construct", "coset", "--n", "8",
                            "--consts", "0,0,g^170,1",
                            "--out", str(out_path), "--cert", str(cert_path))
        assert code == 0
        cert = json.loads(cert_path.read_text())
        jsonschema.validate(cert, schema)
        assert cert["holds"] is True
        # the emitted table equals x^3 + g^85 * Tr_1(x) * Tr_2(x)
        spec = field_for(8)
        cube = power_function(spec, 3)
        w = spec.gpow(85)
        expect = tuple(
            v ^ (spec.mul(w, spec.trace_to_subfield(x, 2))
                 if spec.trace_absolute(x) else 0)
            for x, v in enumerate(cube.table))
        from apnlab.io import read_vbf1

        with open(out_path) as fh:
            assert read_vbf1(fh).table == expect

    def test_switch_and_concat(self, tmp_path, capsys, schema):
        F = inverse_extension(field_for(4))
        f, g = split_pair(F)
        fp = _write_vbf(tmp_path, "f.vbf1", f)
        gp = _write_vbf(tmp_path, "g.vbf1",
                        VBF(4, 1, g.table))
        out_path = tmp_path / "s.vbf1"
        code, out, _ = _run(capsys, "construct", "switch", "--f", fp,
                            "--g", gp, "--u", "1", "--out", str(out_path))
        assert code == 0
        cert = json.loads(out)
        jsonschema.validate(cert, schema)
        f45 = _write_vbf(tmp_path, "f45.vbf1", F)
        out2 = tmp_path / "c.vbf1"
        code, out, _ = _run(capsys, "construct", "concat", "--f", f45,
                            "--g", f45, "--out", str(out2))
        assert code == 0
        cert = json.loads(out)
        jsonschema.validate(cert, schema)
        assert cert["kind"] == "concat"

    def test_certificate_disagreement_exits_1(self, tmp_path, capsys,
                                              monkeypatch):
        import apnlab.cli as cli

        real = cli.th31_criterion
        monkeypatch.setattr(cli, "th31_criterion", lambda F, L: not real(F, L))
        lp = tmp_path / "L.lin1"
        with open(lp, "w") as fh:
            write_lin1(fh, table1_maps(field_for(6))[1])
        out_path = tmp_path / "g.vbf1"
        code, out, err = _run(capsys, "construct", "hmod", "--n", "6",
                              "--map", str(lp), "--out", str(out_path))
        assert code == 1
        assert len(err.strip().splitlines()) == 1 and "disagrees" in err
        assert not out_path.exists()

    def test_bad_consts_exit_2(self, tmp_path, capsys):
        code, _, err = _run(capsys, "construct", "coset", "--n", "8",
                            "--consts", "0,0,1",
                            "--out", str(tmp_path / "x.vbf1"))
        assert code == 2


class TestSearch:
    def test_json_output(self, capsys):
        code, out, _ = _run(capsys, "search", "--n", "4", "--cap", "8")
        assert code == 0
        d = json.loads(out)
        assert d["hits"] == 448 and len(d["hit_list"]) == 8

    def test_stdout_depends_only_on_inputs(self, capsys):
        _, first, _ = _run(capsys, "search", "--n", "4")
        _, second, _ = _run(capsys, "search", "--n", "4")
        assert first == second and "seconds" not in first

    def test_exhaustive_report_has_no_seed(self, capsys):
        # the seed plays no part in an exhaustive scan
        code, out, _ = _run(capsys, "search", "--n", "4", "--seed", "3")
        assert code == 0 and json.loads(out)["seed"] is None

    @pytest.mark.parametrize("mode", [
        [], ["--mode", "random", "--samples", "20000", "--seed", "5"]])
    def test_worker_count_leaves_stdout_unchanged(self, capsys, mode):
        outs = []
        for workers in ("1", "2"):
            code, out, _ = _run(capsys, "search", "--n", "5", "--workers",
                                workers, *mode)
            assert code == 0 and "workers" not in json.loads(out)
            outs.append(out)
        assert outs[0] == outs[1]

    def test_small_search_runs_without_a_pool(self, capsys, monkeypatch):
        import apnlab.search

        def no_pool(*args, **kwargs):
            raise AssertionError("process pool started for a degree-5 scan")

        scans = []
        real_scan = apnlab.search._CubeKernel.scan
        monkeypatch.setattr(apnlab.search, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(apnlab.search._CubeKernel, "scan",
                            lambda self, *a: scans.append(a) or real_scan(self, *a))
        outs = []
        for workers in ("1", "2"):
            code, out, _ = _run(capsys, "search", "--n", "5", "--workers", workers)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        # one scan of the whole range per search, whatever the worker count
        assert scans == [(0, 32, 64)] * 2

    @pytest.mark.parametrize("bad", [
        ["--mode", "random", "--seed", "1", "--samples", "-5"],
        ["--cap", "-1"],
        ["--mode", "random", "--seed", "1", "--samples", "10", "--cap", "-1"]])
    def test_negative_counts_exit_2(self, capsys, bad):
        code, out, err = _run(capsys, "search", "--n", "4", *bad)
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1 and "non-negative" in err

    def test_random_needs_seed(self, capsys):
        code, _, err = _run(capsys, "search", "--n", "4", "--mode", "random",
                            "--samples", "10")
        assert code == 2

    def test_n7_exhaustive_needs_long(self, capsys):
        code, out, err = _run(capsys, "search", "--n", "7")
        assert code == 2 and out == ""
        assert err == "error: exhaustive space 2^42 needs --long\n"

    def test_n6_exhaustive_runs_without_long(self, capsys):
        code, out, _ = _run(capsys, "search", "--n", "6")
        assert code == 0 and json.loads(out)["hits"] == 35648

    @pytest.mark.parametrize("long", [[], ["--long"]])
    def test_exhaustive_n9_rejected_by_the_index_width(self, capsys, long):
        code, out, err = _run(capsys, "search", "--n", "9", *long)
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1 and "63" in err

    def test_index_wider_than_63_bits_exits_2(self, capsys):
        code, out, err = _run(capsys, "search", "--n", "9", "--mode", "random",
                              "--samples", "10", "--seed", "1")
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1 and "63" in err

    def test_failed_hit_verification_exits_1(self, capsys, monkeypatch):
        import apnlab.search as search

        monkeypatch.setattr(search, "hyperplane_modify",
                            lambda F, L: power_function(field_for(4), 7))
        code, out, err = _run(capsys, "search", "--n", "4", "--cap", "4")
        assert code == 1 and out == ""
        assert len(err.strip().splitlines()) == 1 and "direct APN test" in err


class TestRank:
    def test_rank_report(self, tmp_path, capsys):
        p = _write_vbf(tmp_path, "c.vbf1", power_function(field_for(4), 3))
        code, out, _ = _run(capsys, "rank", p)
        assert code == 0
        d = json.loads(out)
        assert d["n"] == 4 and d["gamma_rank"] == 100

    def test_report_has_no_timing(self, tmp_path, capsys):
        p = _write_vbf(tmp_path, "c.vbf1", power_function(field_for(4), 3))
        _, out, _ = _run(capsys, "rank", p)
        assert json.loads(out) == {"n": 4, "m": 4, "gamma_rank": 100}

    def test_over_budget_exits_2(self, tmp_path, capsys):
        p = _write_vbf(tmp_path, "big.vbf1", VBF(9, 9, tuple(range(512))))
        code, out, err = _run(capsys, "rank", "--long", p)
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1 and "2^16" in err

    def test_large_rank_needs_long(self, tmp_path, capsys):
        p = _write_vbf(tmp_path, "c.vbf1", power_function(field_for(8), 3))
        code, _, err = _run(capsys, "rank", p)
        assert code == 2

    def test_two_path_comparison_verdict(self, tmp_path, capsys):
        from apnlab.constructions import table1_functions

        spec = field_for(6)
        p1 = _write_vbf(tmp_path, "a.vbf1", power_function(spec, 3))
        p2 = _write_vbf(tmp_path, "b.vbf1", table1_functions(spec)[6])
        code, out, _ = _run(capsys, "rank", p1, p2)
        assert code == 0
        d = json.loads(out)
        assert d["provably_inequivalent"] is True
        assert d["separating_invariant"] in ("gamma_rank", "walsh_spectrum")

    def test_constant_shift_not_declared_inequivalent(self, tmp_path, capsys):
        F = power_function(field_for(6), 3)
        p1 = _write_vbf(tmp_path, "a.vbf1", F)
        p2 = _write_vbf(tmp_path, "b.vbf1", _plus_one(F))
        code, out, _ = _run(capsys, "rank", p1, p2)
        assert code == 0
        d = json.loads(out)
        assert d["provably_inequivalent"] is False
        assert d["separating_invariant"] is None

    def test_dimension_mismatch_exits_2(self, tmp_path, capsys):
        p1 = _write_vbf(tmp_path, "a.vbf1", power_function(field_for(4), 3))
        p2 = _write_vbf(tmp_path, "b.vbf1", power_function(field_for(5), 3))
        code, _, err = _run(capsys, "rank", p1, p2)
        assert code == 2


class TestUsage:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 2

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["analyze", "x", "--bogus"])
        assert e.value.code == 2

    def test_verify_takes_no_degree(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["verify", "theorem35", "--n", "4"])
        assert e.value.code == 2

    def test_degree_out_of_range_exits_2(self, capsys):
        code, out, err = _run(capsys, "search", "--n", "40")
        assert code == 2 and out == ""
        assert err == "error: degree must be in [2, 16], got 40\n"

    def test_reducible_modulus_exits_2(self, capsys):
        # x^4 + x^2 + 1 = (x^2 + x + 1)^2 is not irreducible
        code = main(["search", "--n", "4", "--modulus", "15"])
        assert code == 2


class TestFieldMemo:
    def test_field_for_returns_one_instance(self):
        assert field_for(8) is field_for(8)

    def test_two_coset_calls_build_the_log_tables_once(self, tmp_path, capsys,
                                                       monkeypatch):
        from apnlab import field
        from apnlab.field import FieldSpec

        builds = []
        tables = FieldSpec.__dict__["_tables"]
        real = tables.func
        monkeypatch.setattr(tables, "func",
                            lambda spec: builds.append(spec.n) or real(spec))
        field_for.cache_clear()
        field._field.cache_clear()
        for k in range(2):
            code, _, _ = _run(capsys, "construct", "coset", "--n", "8",
                              "--consts", "0,0,g^170,1",
                              "--out", str(tmp_path / f"G{k}.vbf1"))
            assert code == 0
        assert builds == [8]


class TestParserReuse:
    def test_cached_parser_repeats_fresh_parser_results(self, tmp_path, capsys):
        from apnlab.cli import build_parser

        spec = field_for(6)
        f = _write_vbf(tmp_path, "c.vbf1", power_function(spec, 3))
        lp = tmp_path / "L.lin1"
        with open(lp, "w") as fh:
            write_lin1(fh, table1_maps(spec)[3])
        calls = [
            ["analyze", f],
            ["search", "--n", "3"],
            ["construct", "hmod", "--n", "6", "--map", str(lp),
             "--out", str(tmp_path / "g.vbf1")],
            ["search", "--n", "3", "--bogus"],
            ["rank", f],
            ["analyze", f],
        ]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
            return code, capsys.readouterr().out

        fresh = []
        for argv in calls:
            build_parser.cache_clear()
            fresh.append(run(argv))
        assert fresh[3][0] == 2 and fresh[0] == fresh[5]
        build_parser.cache_clear()
        assert [run(argv) for argv in calls] == fresh
        assert build_parser() is build_parser()
