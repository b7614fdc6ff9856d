"""No module of the package imports a name it does not use.

A stand-in for a linter's unused-import rule, on the standard library's
`ast`: a name bound by `import` or `from ... import` in a module of
`src/polarf` (other than `__init__.py`, which re-exports) must be read
somewhere in that module.  A leftover import after a refactor fails here.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "polarf"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_the_check_sees_a_leftover():
    source = "from .errors import require, TypeCheckError\nrequire(True, 'x')\n"
    assert unused_imports(source) == ["TypeCheckError"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
