"""No module of the package imports a name it does not use, the package
re-exports no name that nothing reads, and no module names
`RecursionError`.

A stand-in for a linter's unused-import rule, on the standard library's
`ast`: a name bound by `import` or `from ... import` in a module of
`src/polarf` (other than `__init__.py`, which re-exports) must be read
somewhere in that module.  A leftover import after a refactor fails here.
A name `__init__.py` re-exports must be read by a module of the package, by
`bench/` or `tools/`, or be named in README's `## Library` example.
"Nested too deeply" is decided by the input against the stated bounds
(`parser.MAX_TYPE_HEIGHT`, `parser.MAX_TERM_DEPTH`), never by catching the
interpreter running out of stack.
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


# -- no module catches running out of stack ---------------------------------------

def names_recursion_error(source: str) -> bool:
    tree = ast.parse(source)
    return any(isinstance(node, ast.Name) and node.id == "RecursionError"
               or isinstance(node, ast.Attribute) and node.attr == "RecursionError"
               for node in ast.walk(tree))


def test_the_check_sees_a_recursion_catch():
    source = "try:\n    f()\nexcept (ValueError, RecursionError):\n    pass\n"
    assert names_recursion_error(source)
    assert not names_recursion_error("f()  # RecursionError\n")


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_recursion_error(path):
    assert not names_recursion_error(path.read_text(encoding="utf-8"))


# -- every re-export has a reader ------------------------------------------------

ROOT = PACKAGE.parents[1]


def read_names(source: str) -> set:
    """Names a module reads, bare or as an attribute (`pf.syntax.extends`)."""
    tree = ast.parse(source)
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def library_block_names() -> set:
    """Names imported or read in the first code block of README's `## Library`."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    tree = ast.parse(block)
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    return imported | read_names(block)


def test_every_export_is_read_or_documented():
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    read = library_block_names()
    for path in [*MODULES, *(ROOT / "bench").glob("*.py"), *(ROOT / "tools").glob("*.py")]:
        read |= read_names(path.read_text(encoding="utf-8"))
    assert "extends" in exported
    assert sorted(exported - read) == []
