"""Static checks on the sources.  No module imports a name it never
uses: package `__init__` files re-export by importing, and a test line
marked `# noqa` is exempt.  The library's modules carry no `# noqa`, so
every import there is checked, and no `assert` statement, because
`python -O` strips them; its runtime checks raise explicitly."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(path):
    lines = path.read_text().splitlines()
    tree = ast.parse("\n".join(lines))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used and "# noqa" not in lines[alias.lineno - 1]:
                    yield f"{path.relative_to(ROOT)}:{alias.lineno}: {name}"


def test_no_unused_imports():
    paths = [p for pattern in ("src/apnlab/*.py", "tests/*.py")
             for p in sorted(ROOT.glob(pattern)) if p.name != "__init__.py"]
    assert [u for p in paths for u in _unused_imports(p)] == []


def test_no_noqa_in_library():
    found = [f"{p.relative_to(ROOT)}:{i}"
             for p in sorted(ROOT.glob("src/apnlab/*.py")) if p.name != "__init__.py"
             for i, line in enumerate(p.read_text().splitlines(), start=1)
             if "# noqa" in line]
    assert found == []


def test_no_assert_in_library():
    found = [f"{p.relative_to(ROOT)}:{node.lineno}"
             for p in sorted(ROOT.glob("src/apnlab/*.py"))
             for node in ast.walk(ast.parse(p.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
