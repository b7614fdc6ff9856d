#!/usr/bin/env python3
"""Time a cold `import polarf.cli`, and the builds of a few nodes.

    python3 tools/import_time.py [--runs 15] [--root DIR]

Runs `python -S -X importtime -c "import polarf.cli"` in `--runs` fresh
processes, with `DIR/src` (default: this checkout) on `PYTHONPATH`, twice:

- *bytecode*: the bytecode of every module is written under a temporary
  `PYTHONPYCACHEPREFIX` by one run that is not counted, and read by the
  others, so nothing is written in the checkout;
- *no bytecode*: with `PYTHONDONTWRITEBYTECODE=1`, so each process compiles
  polarf's modules from source (unless the checkout holds their bytecode,
  which it reports), while the standard library reads its installed bytecode.

`-S` leaves the environment's `.pth` start-up out.  For each `polarf`
module and for `dataclasses`, `inspect` and `typing` it prints the median
self and cumulative microseconds; `-` for a module the import never loaded.
Then it times, in this process, the builds of `Arrow(Int, Up(Int))`,
`Data("Int", ())`, `Var("x", span)` and `SourceSpan("f", 1, 4)`: the best
of 7 repeats, in ns per build.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WATCHED = ("dataclasses", "inspect", "typing")


def import_times(src: Path, env: dict) -> dict:
    """`-X importtime`'s self and cumulative µs of each module one fresh
    `import polarf.cli` loads, by name."""
    err = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-c", "import polarf.cli"],
        env={**env, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        check=True).stderr
    times = {}
    for line in err.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cumulative, name = line[len("import time:"):].split("|")
        times[name.strip()] = int(self_us), int(cumulative)
    return times


def medians(runs: list) -> dict:
    """The median self and cumulative µs of each polarf or watched module,
    over the runs that loaded it."""
    names = sorted({n for r in runs for n in r if n.startswith("polarf") or n in WATCHED})
    return {n: tuple(statistics.median(r[n][i] for r in runs if n in r) for i in (0, 1))
            for n in names}


def report(title: str, table: dict, runs: int):
    print(f"{title} ({runs} runs; median µs)")
    print(f"  {'module':<20} {'self':>8} {'cumulative':>11}")
    for name in ("polarf", *sorted(n for n in table if n.startswith("polarf.")), *WATCHED):
        self_us, cumulative = table.get(name, ("-", "-"))
        print(f"  {name:<20} {self_us!s:>8} {cumulative!s:>11}")


def build_times(src: Path) -> dict:
    """ns per build of a few type nodes, a term and a span, best of 7."""
    sys.path.insert(0, str(src))
    from polarf.errors import SourceSpan
    from polarf.syntax import Arrow, Data, Up, Var

    names = {"Arrow": Arrow, "Data": Data, "Up": Up, "Var": Var, "SourceSpan": SourceSpan,
             "Int": Data("Int", ()), "span": SourceSpan("f", 1, 4)}
    times = {}
    for stmt in ("Arrow(Int, Up(Int))", 'Data("Int", ())', 'Var("x", span)',
                 'SourceSpan("f", 1, 4)'):
        timer = timeit.Timer(stmt, globals=names)
        number, _ = timer.autorange()
        times[stmt] = min(timer.repeat(7, number)) / number * 1e9
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=15)
    ap.add_argument("--root", type=Path, default=ROOT,
                    help="the checkout whose src/ is timed (default: this one)")
    args = ap.parse_args(argv)
    src = args.root.resolve() / "src"
    base = {k: v for k, v in os.environ.items()
            if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX", "PYTHONPATH")}

    with tempfile.TemporaryDirectory() as prefix:
        env = {**base, "PYTHONPYCACHEPREFIX": prefix}
        import_times(src, env)  # writes the bytecode
        report("bytecode", medians([import_times(src, env) for _ in range(args.runs)]),
               args.runs)
    if (src / "polarf" / "__pycache__").exists():
        print("  note: src/polarf/__pycache__ exists; the next runs may read it")
    env = {**base, "PYTHONDONTWRITEBYTECODE": "1"}
    report("no bytecode", medians([import_times(src, env) for _ in range(args.runs)]),
           args.runs)

    print("builds (ns, best of 7)")
    for stmt, ns in build_times(src).items():
        print(f"  {stmt:<24} {ns:8.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
