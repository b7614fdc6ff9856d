#!/usr/bin/env python3
"""Record the benchmark's figures in one JSON file.

    python3 tools/bench_record.py LABEL

Runs `bench/run.py` on each of the four workloads at a fixed seed, once with
`--trace 0` and once with `--trace 1`, and writes `BENCH_<LABEL>.json` at the
root of the checkout.  The file holds, per workload:

- `end_to_end`: the metrics of the `--trace 0` run (`setup_s`,
  `job_ms_p50`, `job_ms_tail`, `jobs_per_s`, `ok_ratio`, `peak_rss_mb`);
- `per_layer`: from the `--trace 1` run, the `parser.*` and `cli.*`
  figures (parsing, printing and the plain and traced record jobs), the
  self times of the subtyping engine, typing, the well-formedness checks
  and the oracle (`*.self_ms`), context application (`syntax.apply_*`),
  the times of the `prenex` and `spine` rungs, the growth ratios of the
  size ladders and `trace.absent_names`;
- `runs`: each run's `correct`, `attempted` and `failed`;

and the provenance: the commit, whether `src/` or `bench/` differ from it,
the digest of `src/` that `bench/run.py` prints, Python's version and
`nproc`.  Takes about four minutes; one run at a time, one core busy.
"""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("corpus", "deep-types", "long-programs", "agreement")
SEED = 1
SECONDS = 30  # as BENCHMARK.json's run_seconds


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def bench(workload: str, trace: int) -> dict:
    """One run of bench/run.py; its last line of output, parsed."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout.splitlines()
    source = json.loads(next(line for line in out if line.startswith("provenance: "))
                        .removeprefix("provenance: "))["source_sha256"]
    return {**json.loads(out[-1]), "source_sha256": source}


LAYERS = ("subtype", "typecheck", "wellformed", "oracle")


def per_layer(metrics: dict) -> dict:
    return {name: m for name, m in metrics.items()
            if name.startswith(("parser.", "cli.", "syntax.apply_"))
            or name in {f"{layer}.self_ms" for layer in LAYERS}
            or re.fullmatch(r"(prenex|spine)\.k\d+_ms", name)
            or name.endswith("growth") or name == "trace.absent_names"}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or not re.fullmatch(r"[A-Za-z0-9_.-]+", argv[0]):
        print("usage: python3 tools/bench_record.py LABEL "
              "(letters, digits, '_', '.', '-')", file=sys.stderr)
        return 2
    label = argv[0]
    record = {
        "label": label,
        "provenance": {
            "commit": git("rev-parse", "HEAD"),
            "uncommitted_changes": bool(git("status", "--porcelain", "src", "bench")),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "seed": SEED,
            "seconds": SECONDS,
        },
        "workloads": {},
    }
    sources = set()
    for workload in WORKLOADS:
        plain, traced = bench(workload, 0), bench(workload, 1)
        sources |= {plain["source_sha256"], traced["source_sha256"]}
        record["workloads"][workload] = {
            "end_to_end": plain["metrics"],
            "per_layer": per_layer(traced["metrics"]),
            "runs": {f"trace{t}": {k: run[k] for k in ("correct", "attempted", "failed")}
                     for t, run in ((0, plain), (1, traced))},
        }
        print(f"{workload}: jobs_per_s {plain['metrics']['jobs_per_s']['value']:.1f}, "
              f"parse_ms {traced['metrics']['parser.parse_ms']['value']:.1f}",
              file=sys.stderr)
    if len(sources) != 1:
        raise RuntimeError("src/ changed while the benchmark ran")
    record["provenance"]["source_sha256"] = sources.pop()
    path = ROOT / f"BENCH_{label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
