"""No module imports a name it never uses.  Package `__init__` files
re-export by importing, and a line marked `# noqa` is exempt."""
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
