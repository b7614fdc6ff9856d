#!/usr/bin/env python3
"""polarf benchmark: time to a verdict, end to end and layer by layer.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the checker is imported from `src/`.  Each
workload (see BENCHMARK.json and bench/README.md) is a closed loop with one
client in one thread: the next job starts when the previous verdict returns.
Every verdict is checked against an answer known in advance.

`--trace 0` repeats the workload's jobs for about `--seconds` and prints the
end-to-end metrics.  `--trace 1` repeats them untraced for half that long,
also running the scale rungs of the size ladders, then makes one traced pass
with spans around each layer's public functions, and prints the per-layer
metrics; the spans are written to `.bench_out/`.  The last line of standard
output is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
POLARF_MODULES = ("errors", "syntax", "parser", "wellformed", "subtype",
                  "typecheck", "oracle", "corpus", "cli")
SETUP_REPS = 11
MIN_PASSES = 3

# The tail percentile of per-job times is fixed per workload, so that a
# faster program is compared at the same rank: the second-slowest job on
# corpus and the ladders, and on agreement p90: how many instances of a
# seed's pool are heavy varies with the seed, and moves p99 by a fifth and
# p95 by a tenth between seeds.  The output states how many runs lie beyond it.
TAIL_PERCENTILE = {"corpus": 98, "deep-types": 95, "long-programs": 80,
                   "agreement": 90}

# Probes past Python's recursion limit, run once per run and kept out of
# every end-to-end number; see `run_probes`.
PROBES = {"deep-types": "parens", "long-programs": "lets"}
PROBE_PARENS = 3000
PROBE_LETS = 1024

RUNG_KEYS = ([f"dnup.d{d}" for d in workloads.DNUP_DEPTHS]
             + [f"list.d{d}" for d in workloads.LIST_DEPTHS]
             + [f"prenex.k{k}" for k in workloads.PRENEX_WIDTHS]
             + [f"letchain.n{n}" for n in workloads.LETCHAIN_LENGTHS]
             + [f"spine.k{k}" for k in workloads.SPINE_WIDTHS])
# ladder -> (growth per level or per doubling, its top two rungs, levels
# between them); growth is measured between the two largest rungs
LADDERS = {
    "dnup": ("level", [f"dnup.d{d}" for d in workloads.DNUP_DEPTHS[-2:]], 1),
    "list": ("level", [f"list.d{d}" for d in workloads.LIST_DEPTHS[-2:]], 2),
    "prenex": ("doubling", [f"prenex.k{k}" for k in workloads.PRENEX_WIDTHS[-2:]], 1),
    "letchain": ("doubling", [f"letchain.n{n}" for n in workloads.LETCHAIN_LENGTHS[-2:]], 1),
    "spine": ("doubling", [f"spine.k{k}" for k in workloads.SPINE_WIDTHS[-2:]], 1),
}
ERROR_KINDS = ("parse", "unbound-variable", "subtype-failure", "ambiguous-let",
               "arity", "shape", "budget", "internal")


def load_polarf():
    """Import polarf afresh from this checkout's `src/`."""
    for name in [m for m in sys.modules if m == "polarf" or m.startswith("polarf.")]:
        del sys.modules[name]
    pkg = importlib.import_module("polarf")
    if SRC.resolve() not in Path(pkg.__file__).resolve().parents:
        raise ImportError(f"polarf was imported from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"polarf.{m}")
                              for m in POLARF_MODULES})


def set_up(workload, seed):
    """Import polarf and build the workload's inputs; returns both and the
    time taken."""
    started = perf_counter()
    pf = load_polarf()
    jobs = workloads.WORKLOADS[workload](pf, random.Random(seed))
    return pf, jobs, perf_counter() - started


def time_set_up(workload, seed):
    """Time one more set-up, then put the modules the jobs use back."""
    live = {m: sys.modules[m] for m in list(sys.modules)
            if m == "polarf" or m.startswith("polarf.")}
    elapsed = set_up(workload, seed)[2]
    for m in [m for m in sys.modules if m == "polarf" or m.startswith("polarf.")]:
        del sys.modules[m]
    sys.modules.update(live)
    gc.collect()
    return elapsed


def run_job(job, api):
    """One job: the time to its verdict, and whether the verdict is right."""
    started = perf_counter()
    try:
        raw = job.call(api)
    except Exception as e:  # any escaping exception is a failed job
        raw = e
    elapsed = perf_counter() - started
    ok, kind = job.check(raw)
    return elapsed, ok, kind


def closed_loop(jobs, api, seconds, between=None):
    """Whole passes over the jobs, in order, until `seconds` have passed and
    at least MIN_PASSES are done, so every job runs equally often.
    `between(k)` is called with k = 1, 2, ... as each SETUP_REPS-th of
    `seconds` passes.

    Successive passes run on successive CPUs this process may use: on a
    shared machine one core can be slowed by other work for half a minute,
    and a run pinned to it would read slow throughout.

    Returns each job's times, the wrong verdicts and the wall time."""
    times = [[] for _ in jobs]
    wrong = []
    mark, step = 1, seconds / SETUP_REPS
    cpus = sorted(os.sched_getaffinity(0))
    started = perf_counter()
    passes = 0
    while passes < MIN_PASSES or perf_counter() - started < seconds:
        os.sched_setaffinity(0, {cpus[passes % len(cpus)]})
        for job, own in zip(jobs, times):
            elapsed, ok, kind = run_job(job, api)
            own.append(elapsed)
            if not ok:
                wrong.append((job, kind))
            if between and mark < SETUP_REPS \
                    and perf_counter() - started >= mark * step:
                between(mark)
                mark += 1
        passes += 1
    os.sched_setaffinity(0, cpus)
    while between and mark < SETUP_REPS:
        between(mark)
        mark += 1
    return times, wrong, perf_counter() - started


def rank_of(n, pct):
    """1-based nearest rank of percentile `pct` in a sample of `n`."""
    return max(1, math.ceil(n * pct / 100))


def nearest_rank(sorted_values, pct):
    return sorted_values[rank_of(len(sorted_values), pct) - 1]


def run_probes(pf, workload):
    """Inputs past the recursion limit.  A probe passes with the right
    verdict, or with a documented error kind (a JSON record, for `lets`);
    an escaping exception fails it.  Their times are reported apart."""
    documented = pf.errors.ERROR_KINDS
    which = PROBES.get(workload)
    if which == "parens":
        src = "(" * PROBE_PARENS + "Int" + ")" * PROBE_PARENS
        started = perf_counter()
        try:
            t = pf.parser.parse_type(src, filename="probe")
            outcome = "ok" if t == pf.syntax.Data("Int", ()) else "wrong type"
        except pf.errors.TypeCheckError as e:
            outcome = e.kind if e.kind in documented else f"undocumented {e.kind}"
        except Exception as e:  # the crash this probe exists to count
            outcome = type(e).__name__
    elif which == "lets":
        src = workloads.letchain_probe_source(PROBE_LETS)
        started = perf_counter()
        try:
            record = json.loads(pf.cli.check_source_json(src, "probe.ipf"))
            outcome = "ok" if record["type"] == "up Int" else \
                record["error"]["kind"] if record["error"] else "wrong type"
        except Exception as e:
            outcome = type(e).__name__
    else:
        return None
    elapsed = perf_counter() - started
    passed = outcome == "ok" or outcome in documented
    return {"name": which, "ms": elapsed * 1000, "outcome": outcome, "passed": passed}


def provenance(args):
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "source_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine()}


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics

def end_to_end(args, pf, jobs, first_setup_s):
    api = workloads.entry_points(pf)
    # set-up is timed SETUP_REPS times, spread over the timed phase, so that
    # its median is not taken from one moment of a machine whose speed drifts
    setups = [first_setup_s]
    times, wrong, elapsed = closed_loop(
        jobs, api, args.seconds,
        lambda _: setups.append(time_set_up(args.workload, args.seed)))
    setup_s = statistics.median(setups)
    # A job's time to verdict is its fastest repeat: on a shared machine
    # other work only ever adds time, and it comes and goes within seconds.
    best = sorted(min(own) for own in times)
    passes = len(times[0])
    n = len(jobs) * passes
    pct = TAIL_PERCENTILE[args.workload]
    beyond = len(jobs) - rank_of(len(jobs), pct)
    raw = sorted(t for own in times for t in own)
    print(f"timed phase: {len(jobs)} jobs, {n} runs ({passes} per job) in "
          f"{elapsed:.3f} s; job_ms_tail is p{pct} of the {len(jobs)} per-job "
          f"times, {beyond} jobs ({beyond * passes} runs) beyond it")
    print(f"raw runs: p50 {statistics.median(raw) * 1000:.4f} ms, "
          f"p{pct} {nearest_rank(raw, pct) * 1000:.4f} ms, {n / elapsed:.4f} jobs/s")
    for job, kind in wrong[:10]:
        print(f"WRONG VERDICT: {job.rung} ({job.variant}): {kind}")
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "job_ms_p50": metric(statistics.median(best) * 1000, "ms"),
        "job_ms_tail": metric(nearest_rank(best, pct) * 1000, "ms"),
        "jobs_per_s": metric(len(jobs) / sum(best), "1/s"),
        "ok_ratio": metric((n - len(wrong)) / n, "ratio"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, n, len(wrong)


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics

def per_layer(args, pf, jobs):
    api = workloads.entry_points(pf)
    times, wrong, elapsed = closed_loop(jobs, api, args.seconds / 2)
    best = [min(own) for own in times]
    untraced_pass = sum(map(statistics.median, times))

    tracer = spans.Tracer(pf)
    tracer.install(api)
    outcomes = []
    started = perf_counter()
    try:
        for index, job in enumerate(jobs):
            outcomes.append(tracer.run_job(index, run_job, job, api))
    finally:
        traced_wall = perf_counter() - started
        tracer.uninstall()
    attempted = sum(map(len, times)) + len(outcomes)
    failed = len(wrong) + sum(not ok for _, ok, _ in outcomes)

    layers, job_rules, self_sum, root_sum = tracer.fold()
    m = {}

    def ms(layer):
        return layers[layer]["self"] * 1000

    def calls(layer):
        return layers[layer]["calls"]

    parse_s = layers["parser.parse"]["self"]
    m["parser.parse_ms"] = metric(ms("parser.parse"), "ms")
    m["parser.parse_calls"] = metric(calls("parser.parse"), "count")
    m["parser.bytes_per_s"] = metric(tracer.bytes_parsed / parse_s if parse_s else 0.0,
                                     "B/s")
    m["parser.pretty_ms"] = metric(ms("parser.pretty"), "ms")
    m["parser.pretty_calls"] = metric(calls("parser.pretty"), "count")
    for variant in ("plain", "trace"):
        own = [t for job, t in zip(jobs, best) if job.variant == variant]
        m[f"cli.{variant}_job_ms_p50"] = metric(
            statistics.median(own) * 1000 if own else 0.0, "ms")
    m["cli.record_ms"] = metric(ms("cli.record"), "ms")
    m["subtype.self_ms"] = metric(ms("subtype"), "ms")
    m["subtype.calls"] = metric(calls("subtype"), "count")
    m["subtype.rules"] = metric(layers["subtype"]["rules"], "count")
    m["wellformed.self_ms"] = metric(ms("wellformed"), "ms")
    m["wellformed.calls"] = metric(calls("wellformed"), "count")
    m["syntax.extends_ms"] = metric(ms("syntax.extends"), "ms")
    m["syntax.extends_calls"] = metric(calls("syntax.extends"), "count")
    m["syntax.apply_ms"] = metric(ms("syntax.apply"), "ms")
    m["syntax.apply_calls"] = metric(calls("syntax.apply"), "count")
    m["typecheck.self_ms"] = metric(ms("typecheck"), "ms")
    m["typecheck.rules"] = metric(layers["typecheck"]["rules"], "count")
    m["oracle.self_ms"] = metric(ms("oracle"), "ms")
    m["oracle.calls"] = metric(calls("oracle"), "count")
    m["oracle.alpha_key_ms"] = metric(ms("oracle.alpha_key"), "ms")
    m["oracle.alpha_key_calls"] = metric(calls("oracle.alpha_key"), "count")
    m["oracle.budget_exceeded"] = metric(tracer.budget_exceeded, "count")
    m["bench.self_ms"] = metric(ms("bench.job"), "ms")
    m["trace.wall_ms"] = metric(traced_wall * 1000, "ms")
    m["trace.self_sum_ms"] = metric(self_sum * 1000, "ms")
    m["trace.untraced_wall_ms"] = metric(untraced_pass * 1000, "ms")
    m["trace.overhead"] = metric(traced_wall / untraced_pass - 1, "ratio")
    m["trace.spans"] = metric(len(tracer.start), "count")
    m["trace.absent_names"] = metric(len(tracer.absent), "count")

    kinds = dict.fromkeys(ERROR_KINDS, 0)
    for _, _, kind in outcomes:
        if kind in kinds:
            kinds[kind] += 1
    for kind, count in kinds.items():
        m[f"errors.{kind}"] = metric(count, "count")

    # per-rung times (untraced, accepting queries) and rule counts (traced)
    rung_ms, rung_rules = dict.fromkeys(RUNG_KEYS, 0.0), {}
    for index, (job, t) in enumerate(zip(jobs, best)):
        if job.rung in rung_ms and job.variant != "reject":
            rung_ms[job.rung] = t * 1000
            rung_rules[job.rung] = job_rules.get(index, 0)
    for key in RUNG_KEYS:
        m[f"{key}_ms"] = metric(rung_ms[key], "ms")
    for ladder, (per, (low, high), steps) in LADDERS.items():
        unit = f"x/{per}"
        for name, values in (("growth", rung_ms), ("rules_growth", rung_rules)):
            a, b = values.get(low, 0), values.get(high, 0)
            m[f"{ladder}.{name}"] = metric((b / a) ** (1 / steps) if a else 0.0, unit)

    print(f"untraced: {sum(map(len, times))} runs of {len(jobs)} jobs in {elapsed:.3f} s; "
          f"traced: one pass of {len(outcomes)} jobs in {traced_wall:.3f} s, "
          f"{len(tracer.start)} spans")
    print(f"self times sum to {self_sum * 1000:.3f} ms; root spans cover "
          f"{root_sum * 1000:.3f} ms of {traced_wall * 1000:.3f} ms traced wall time")
    if tracer.absent:
        print("absent layers (0 calls): " + ", ".join(tracer.absent))
    for job, kind in wrong[:10]:
        print(f"WRONG VERDICT: {job.rung} ({job.variant}): {kind}")

    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write(path, {**provenance(args), "absent": tracer.absent})
    print(f"spans written to {path.relative_to(ROOT)}")
    return m, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "polarf" / "__init__.py").is_file():
        print(f"error: no polarf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    info = provenance(args)
    print("provenance: " + json.dumps(info))

    pf, jobs, setup_s = set_up(args.workload, args.seed)
    # the inputs live for the whole run: keep them out of the collector's
    # full passes, so garbage collection costs what the checker allocates
    gc.collect()
    gc.freeze()
    probe = run_probes(pf, args.workload)
    if probe is not None:
        print(f"probe {probe['name']}: {'passed' if probe['passed'] else 'FAILED'} "
              f"({probe['outcome']}) in {probe['ms']:.3f} ms; counted apart, "
              f"not in attempted, failed or any end-to-end metric")

    if args.trace:
        metrics, attempted, failed = per_layer(args, pf, jobs)
        for name in ("parens", "lets"):
            ran = probe is not None and probe["name"] == name
            metrics[f"probe.{name}_ms"] = metric(probe["ms"] if ran else 0.0, "ms")
            metrics[f"probe.{name}_failed"] = metric(
                int(ran and not probe["passed"]), "count")
    else:
        metrics, attempted, failed = end_to_end(
            args, pf, [job for job in jobs if not job.scale], setup_s)
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
