#!/usr/bin/env python3
"""Plant known regressions in a revision and see which tests catch them.

    python3 tools/mutants.py REV [NAME ...]

REV is a git revision of this repository.  Its tree is exported with `git
archive` (`bench_pairs.export`) into a temporary directory, which is
removed at the end.  Then each planted mutation below (or only those
named) is applied in turn to a fresh copy of that tree, and the tier-1
suite runs on the copy:

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors

For each mutation it prints the failed and passed counts and the test
files that failed.  A mutation survives when no test fails.  A mutation
no longer applies when its text is not found exactly once in its file.
Exits 2 if a mutation no longer applies, else 1 if one survives, else 0.
A run of all of them takes about as long as nine tier-1 runs.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, export  # noqa: E402

# name -> (what it breaks, file under src/polarf, text, replacement)
MUTATIONS = {
    "M1": ("_combine drops a child's evars unless one set holds the other",
           "syntax.py",
           "evars = e if evars <= e else evars if e <= evars else evars | e",
           "evars = e if evars <= e else evars"),
    "M2": ("_combine adds shift to a quantifier's height",
           "syntax.py",
           "node.height, node._hash = height, None",
           "node.height, node._hash = height + shift, None"),
    "M3": ("_combine's dangling test reads > shift",
           "syntax.py",
           "dangling - shift if dangling >= shift else -1",
           "dangling - shift if dangling > shift else -1"),
    "M4": ("Forall._view keeps the hint as binder even when captured",
           "syntax.py",
           "binder = fresh_name(self.hint, self.scope.uvars)",
           "binder = self.hint"),
    "M5": ("oracle.positive_subterms reads only a Data's first argument",
           "oracle.py",
           "elif cls is Data:\n                stack += reversed(t.args)",
           "elif cls is Data:\n                stack += t.args[:1]"),
    "M6": ("_combine counts only the first child's size",
           "syntax.py",
           "total += c.size",
           "total += c.size if total == size else 0"),
    "M7": ("_map maps only a constructor's first argument",
           "syntax.py",
           "args = tuple([_map(a, leaf, skip, k) for a in t.args])",
           "args = tuple([_map(a, leaf, skip, k) for a in t.args[:1]]) + t.args[1:]"),
    "M8": ("Forall._view opens the body with UVar(self.hint)",
           "syntax.py",
           "self.open(UVar(binder))",
           "self.open(UVar(self.hint))"),
    "M9": ("a memo hit does not advance the counters",
           "subtype.py",
           "self._counts[base] = self._counts.get(base, 0) + advance",
           "pass"),
}

TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "--tb=no", "-rfE"]


def mutate(tree: Path, file: str, text: str, replacement: str) -> bool:
    """Apply one mutation to `tree`'s src/polarf; False if `text` is not
    found exactly once."""
    path = tree / "src" / "polarf" / file
    source = path.read_text(encoding="utf-8")
    if source.count(text) != 1:
        return False
    path.write_text(source.replace(text, replacement), encoding="utf-8")
    return True


def tier1(tree: Path) -> tuple:
    """Run tier-1 in `tree`: (failed, passed, the files of the failed tests)."""
    out = subprocess.run(TIER1, cwd=tree, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": "src"}).stdout
    summary = out.strip().splitlines()[-1] if out.strip() else ""
    counts = {kind.rstrip("s"): int(n)
              for n, kind in re.findall(r"(\d+) (failed|passed|errors?)\b", summary)}
    files = sorted({line.split()[1].split("::")[0] for line in out.splitlines()
                    if line.startswith(("FAILED ", "ERROR "))})
    return counts.get("failed", 0) + counts.get("error", 0), counts.get("passed", 0), files


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or any(name not in MUTATIONS for name in argv[1:]):
        print(__doc__, file=sys.stderr)
        return 2
    names = argv[1:] or list(MUTATIONS)
    survived, stale = [], []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = Path(tmp) / "base"
        print(f"{argv[0]} = {export(ROOT, argv[0], base)}")
        for name in names:
            what, *change = MUTATIONS[name]
            tree = Path(tmp) / name
            shutil.copytree(base, tree)
            if not mutate(tree, *change):
                stale.append(name)
                print(f"{name} ({what}): does not apply")
                continue
            failed, passed, files = tier1(tree)
            if not failed:
                survived.append(name)
            print(f"{name} ({what}): {failed} failed, {passed} passed"
                  + (f"; {', '.join(files)}" if files else "; SURVIVED"), flush=True)
            shutil.rmtree(tree)
    return 2 if stale else 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
