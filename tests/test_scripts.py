import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_modified_cube_family_only_g7_non_classical(capsys):
    _load("reproduce_modified_cube_family").main([])
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 13
    non_classical = [int(r.split()[0]) for r in rows if "non-classical" in r]
    assert non_classical == [7]
    assert all(r.split()[1:3] == ["True", "True"] for r in rows)
