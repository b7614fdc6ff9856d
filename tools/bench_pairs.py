#!/usr/bin/env python3
"""Compare two revisions on one benchmark workload, in alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W
                                 [--pairs 10] [--seconds S] [--seed0 N]

PARENT and CHANGE are git revisions of this repository (a commit, a branch,
a tag: anything `git archive` takes), so commit a change before measuring
it.  Each is exported with `git archive` into its own directory under one
temporary directory, which is removed at the end, so the two sides are
made the same way and hold only committed files.  Pair i runs
`bench/run.py --workload W --seed N+i --seconds S --trace 0` once in each
export, one run at a time; the parent goes first in the even pairs and the
change in the odd ones, so that a drift of the machine does not favour one
side.  `--seconds` defaults to `run_seconds` of `BENCHMARK.json`.

For each end-to-end metric of `BENCHMARK.json` it prints both medians, the
parent's quartiles, the pairs the change won (strictly better, in the
metric's direction) and whether the change's median is within the metric's
bound: worse than the parent's median by at most that fraction of it.  It
also prints each side's share of failed operations and every pair's
`jobs_per_s`.  Exits 1 if a median is out of bound or the change fails a
larger share of operations, else 0.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(repo: Path, rev: str, dest: Path) -> str:
    """Write the tree of `rev` in the repository at `repo` into the new
    directory `dest` with `git archive`; return the commit it names."""
    def git(*args) -> bytes:
        return subprocess.run(["git", *args], cwd=repo, capture_output=True,
                              check=True).stdout
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    dest.mkdir()
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        tar.extractall(dest, **safe)
    return commit


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `--trace 0` run of the checkout's benchmark: its last line of
    output, parsed (`correct`, `attempted`, `failed`, `metrics`)."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def quartiles(xs) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def summarize(specs, parent: list, change: list) -> list:
    """One row per metric of `specs` (BENCHMARK.json's `end_to_end`), from
    the runs' results in pair order: `parent[i]` and `change[i]` are pair
    i.  `worse` is the change's median against the parent's, as a
    fraction of the parent's, positive when it is worse."""
    rows = []
    for spec in specs:
        name, lower = spec["name"], spec["better"] == "lower"
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        pm, cm = statistics.median(p), statistics.median(c)
        worse = ((cm - pm) if lower else (pm - cm)) / pm if pm else 0.0
        won = sum(y < x if lower else y > x for x, y in zip(p, c))
        rows.append({"name": name, "unit": spec["unit"], "parent": pm, "change": cm,
                     "quartiles": quartiles(p), "won": won, "pairs": len(p),
                     "worse": worse, "bound": spec["bound"],
                     "within": worse <= spec["bound"]})
    return rows


def failed_share(runs: list) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def table(workload: str, rows: list) -> list:
    """The rows as the lines of a Markdown table."""
    lines = [f"| {workload} | parent | change | parent Q1–Q3 | won | worse | bound | ok |",
             "|---|---|---|---|---|---|---|---|"]
    for r in rows:
        q1, q3 = r["quartiles"]
        lines.append(
            f"| {r['name']} ({r['unit']}) | {r['parent']:.4g} | {r['change']:.4g} "
            f"| {q1:.4g}–{q3:.4g} | {r['won']}/{r['pairs']} | {r['worse']:+.1%} "
            f"| {r['bound']:.0%} | {'yes' if r['within'] else 'NO'} |")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]

    parent, change = [], []
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        checkouts = (Path(tmp) / "parent", Path(tmp) / "change")
        for rev, dest in zip((args.parent, args.change), checkouts):
            print(f"{dest.name}: {rev} = {export(ROOT, rev, dest)}")
        for i in range(args.pairs):
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                result = run_once(checkouts[side], args.workload, args.seed0 + i, seconds)
                (parent, change)[side].append(result)

    rows = summarize(bench["end_to_end"], parent, change)
    print("\n".join(table(args.workload, rows)))
    shares = failed_share(parent), failed_share(change)
    print(f"failed share: parent {shares[0]:.4f}, change {shares[1]:.4f}")
    print("jobs_per_s by pair (parent/change): " + " ".join(
        f"{p['metrics']['jobs_per_s']['value']:.0f}/{c['metrics']['jobs_per_s']['value']:.0f}"
        for p, c in zip(parent, change)))
    return 0 if all(r["within"] for r in rows) and shares[1] <= shares[0] else 1


if __name__ == "__main__":
    sys.exit(main())
