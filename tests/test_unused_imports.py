"""Every name a module under ``src/`` or ``jobs/`` imports is used in it.

No linter ships with the project, so the check walks each module's syntax
tree with the standard library's ``ast``. ``__init__.py`` files are skipped,
since their imports are re-exports, and so is an import statement that
carries a ``# noqa`` comment, which is how a module keeps a name that only
outside code reads (such as one a tracer wraps).
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(path: Path) -> list[str]:
    """``"<line>: <name>"`` for each name ``path`` imports and never uses."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{line}: {name}" for name, line in sorted(imported.items(), key=lambda x: x[1])
            if name not in used]


def test_no_unused_imports():
    modules = sorted(p for d in ("src", "jobs") for p in (ROOT / d).rglob("*.py")
                     if p.name != "__init__.py")
    assert modules
    found = {str(p.relative_to(ROOT)): u for p in modules if (u := unused_imports(p))}
    assert found == {}


def test_finds_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os\n"
        "import sys  # noqa: F401\n"
        "from typing import Iterable, Iterator\n"
        "import os.path as osp\n"
        "def f(x: Iterator) -> str:\n"
        "    return osp.join(x)\n"
    )
    assert unused_imports(module) == ["1: os", "3: Iterable"]
