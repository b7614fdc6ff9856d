"""No module of the package imports a name it does not use, the package
re-exports no name that nothing reads, and no module names
`RecursionError`.  And README's `## Library` example runs and prints what
its comments say.

A stand-in for a linter's unused-import rule, on the standard library's
`ast`: a name bound by `import` or `from ... import` in a module of
`src/polarf` (other than `__init__.py`, which re-exports) must be read
somewhere in that module.  A leftover import after a refactor fails here.
A name `__init__.py` re-exports, imported or loaded when first read (the
oracle's names, `_ORACLE`), must be read by a module of the package, by
`bench/` or `tools/`, or be named in README's `## Library` example.  No
module imports `dataclasses`, and a fresh `import polarf.cli` loads neither
`dataclasses`, `inspect` nor `typing`, nor the oracle, which `check` never
runs.
"Nested too deeply" is decided by the input against the stated bounds
(`parser.MAX_TYPE_HEIGHT`, `parser.MAX_TERM_DEPTH`), never by catching the
interpreter running out of stack.
"""

import ast
import os
import subprocess
import sys
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


def library_block() -> str:
    """The first code block of README's `## Library`."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def library_block_names() -> set:
    """Names imported or read in the first code block of README's `## Library`."""
    block = library_block()
    tree = ast.parse(block)
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    return imported | read_names(block)


def lazy_exports(init) -> set:
    """The names of `_ORACLE`, which `__init__.py`'s `__getattr__` loads."""
    return {name.value for node in init.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "_ORACLE" for t in node.targets)
            for name in node.value.elts}


def test_every_export_is_read_or_documented():
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    lazy = lazy_exports(init)
    read = library_block_names()
    for path in [*MODULES, *(ROOT / "bench").glob("*.py"), *(ROOT / "tools").glob("*.py")]:
        read |= read_names(path.read_text(encoding="utf-8"))
    assert "extends" in exported and "decl_subtype" in lazy
    assert sorted((exported | lazy) - read) == []


def test_lazy_exports_are_the_oracles():
    import polarf
    from polarf import decl_subtype, oracle

    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    for name in lazy_exports(init):
        assert getattr(polarf, name) is getattr(oracle, name)
    assert decl_subtype is oracle.decl_subtype
    with pytest.raises(AttributeError, match="no attribute 'decl_nothing'"):
        polarf.decl_nothing


# -- a cold import loads what `check` runs -----------------------------------------

def imports_dataclasses(source: str) -> bool:
    tree = ast.parse(source)
    return any(isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
               or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
               for node in ast.walk(tree))


def test_the_check_sees_a_dataclass_import():
    assert imports_dataclasses("from dataclasses import dataclass, field\n")
    assert imports_dataclasses("import os, dataclasses\n")
    assert not imports_dataclasses("from .errors import Record  # not a dataclass\n")


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_dataclasses(path):
    assert not imports_dataclasses(path.read_text(encoding="utf-8"))


def modules_after(code: str) -> set:
    """The modules loaded in a fresh `python -S` (no `site`, so no `.pth`
    start-up) after running `code`, with `src` on the path."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-S", "-c", f"{code}\nimport sys\n"
                          "print('\\n'.join(sys.modules))"],
                         env=env, capture_output=True, text=True, check=True).stdout
    return set(out.split())


def test_a_cold_check_import_loads_no_oracle_or_dataclasses():
    added = modules_after("import polarf.cli") - modules_after("pass")
    assert "polarf.cli" in added and "polarf.syntax" in added
    assert sorted(added & {"dataclasses", "inspect", "typing", "polarf.oracle"}) == []


# -- README's library example says what it does ------------------------------------

def test_library_example_runs_as_commented(capsys):
    """README's `## Library` block runs, and the values its comments give
    for `check_program(prog).type` and `num_prenex(a)` are the real ones."""
    block = library_block()
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    printed = capsys.readouterr().out
    comments = dict(line.split("  # ", 1) for line in block.splitlines() if "  # " in line)
    comments = {code.strip(): note.strip() for code, note in comments.items()}
    assert printed == f"{eval('check_program(prog).type', namespace)}\n"
    assert comments["print(check_program(prog).type)"] == printed.strip()
    assert comments["num_prenex(a)"].startswith(f"{eval('num_prenex(a)', namespace)}:")
