"""Span tracing from outside the program, for the per-layer numbers.

The tracer wraps public names by rebinding them in the module that looks
them up, records one span per call (name, start, end, parent, job) in
flat arrays, and folds the spans into per-layer self times and counts when
the run ends.  A layer's self time is its spans' durations minus the time
of the wrapped calls made inside them, so self times add up to the time of
the root spans with nothing counted twice.

A wrapped name that no longer exists is recorded as absent, which reports
its layer as 0 calls instead of failing the run.
"""

from __future__ import annotations

import gzip
import json
from array import array
from time import perf_counter

# (module, name or prefix*, layer).  The module is where the name is looked
# up at call time, so rebinding it there sees every call made from that
# module.  "bench" is the benchmark's own table of entry points.
TARGETS = (
    ("cli", "parse_program", "parser.parse"),
    ("cli", "check_program", "typecheck"),
    ("cli", "pretty", "cli.record"),
    ("subtype", "subtype_pos", "subtype"),
    ("subtype", "wf_*", "wellformed"),
    ("subtype", "extends", "syntax.extends"),
    ("subtype", "apply_context", "syntax.apply"),
    ("subtype", "pretty", "parser.pretty"),
    ("typecheck", "subtype_pos", "subtype"),
    ("typecheck", "wf_*", "wellformed"),
    ("typecheck", "extends", "syntax.extends"),
    ("typecheck", "weak_extends", "syntax.extends"),
    ("typecheck", "apply_context", "syntax.apply"),
    ("typecheck", "pretty", "parser.pretty"),
    ("oracle", "alpha_key", "oracle.alpha_key"),
    ("bench", "check_source_json", "cli.record"),
    ("bench", "parse_type", "parser.parse"),
    ("bench", "subtype_pos", "subtype"),
    ("bench", "subtype_neg", "subtype"),
    ("bench", "synth_computation", "typecheck"),
    ("bench", "decl_subtype", "oracle"),
    ("bench", "decl_synth", "oracle"),
    ("bench", "decl_iso", "oracle"),
    ("bench", "wf_context", "wellformed"),
    ("bench", "extends", "syntax.extends"),
    ("bench", "apply_context", "syntax.apply"),
)

JOB = "bench.job"
LAYERS = ("bench.job", "cli.record", "parser.parse", "parser.pretty", "typecheck",
          "subtype", "wellformed", "syntax.extends", "syntax.apply", "oracle",
          "oracle.alpha_key")


class Tracer:
    """Records spans of wrapped calls; one instance per traced pass."""

    def __init__(self, pf):
        self.pf = pf
        self.names = []          # span name id -> "module.name"
        self.layer_of = []       # span name id -> layer
        self.name_ids = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.stack = [-1]
        self.current_job = -1
        self.rules = {}          # span index -> derivation steps it returned
        self.bytes_parsed = 0
        self.budget_exceeded = 0
        self.absent = []
        self._installed = []     # (namespace, name, original)
        self._job_id = self._name_id(JOB, JOB)

    def _name_id(self, name, layer):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return self.name_ids[name]

    # -- recording --------------------------------------------------------------

    def _open(self, name_id):
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.job.append(self.current_job)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i):
        self.end[i] = perf_counter()
        self.stack.pop()

    def run_job(self, job_index, fn, *args):
        """Run `fn(*args)` as the root span of job `job_index`."""
        self.current_job = job_index
        i = self._open(self._job_id)
        try:
            return fn(*args)
        finally:
            self._close(i)

    def _wrap(self, fn, name_id, on_exit):
        open_, close = self._open, self._close
        if on_exit is None:
            def wrapped(*args, **kwargs):
                i = open_(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(i)
        else:
            def wrapped(*args, **kwargs):
                i = open_(name_id)
                result = error = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                except BaseException as e:
                    error = e
                    raise
                finally:
                    close(i)
                    on_exit(i, args, result, error)
        wrapped.__wrapped__ = fn
        return wrapped

    def _hooks(self):
        TypeCheckError = self.pf.errors.TypeCheckError
        Budget = self.pf.errors.OracleBudgetExceeded

        def count_rules(i, args, result, error):
            trace = result.trace if result is not None else \
                error.trace if isinstance(error, TypeCheckError) else ()
            self.rules[i] = len(trace)

        def count_bytes(i, args, result, error):
            self.bytes_parsed += len(args[0].encode("utf-8"))

        def count_budget(i, args, result, error):
            self.budget_exceeded += isinstance(error, Budget)

        return {"subtype": count_rules, "typecheck": count_rules,
                "parser.parse": count_bytes, "oracle": count_budget}

    # -- installing -------------------------------------------------------------

    def install(self, api):
        """Rebind every target name; names that no longer exist are absent."""
        spaces, hooks = {"bench": api}, self._hooks()
        for module, pattern, layer in TARGETS:
            space = spaces.get(module) or getattr(self.pf, module)
            if pattern.endswith("*"):
                found = sorted(n for n in vars(space) if n.startswith(pattern[:-1])
                               and callable(getattr(space, n)))
            else:
                found = [pattern] if callable(getattr(space, pattern, None)) else []
            if not found:
                self.absent.append(f"{module}.{pattern}")
            for n in found:
                original = getattr(space, n)
                name_id = self._name_id(f"{module}.{n}", layer)
                self._installed.append((space, n, original))
                setattr(space, n, self._wrap(original, name_id, hooks.get(layer)))

    def uninstall(self):
        for space, n, original in reversed(self._installed):
            setattr(space, n, original)
        self._installed.clear()

    # -- folding ----------------------------------------------------------------

    def fold(self):
        """Per-layer self time (s), call counts and derivation steps.

        Returns (layers, job_rules, self_sum, root_sum): `job_rules[j]` is
        the number of rules job j fired, counting a subtyping run inside a
        typing run once."""
        n = len(self.start)
        child = [0.0] * n
        under_typing = [False] * n
        typing_ids = {k for k, layer in enumerate(self.layer_of) if layer == "typecheck"}
        layers = {layer: {"self": 0.0, "calls": 0, "rules": 0} for layer in LAYERS}
        sub_rules_in_typing = 0
        job_rules = {}
        root_sum = 0.0
        name, start, end, parent, job = self.name, self.start, self.end, \
            self.parent, self.job
        layer_of = self.layer_of
        for i in range(n):
            p = parent[i]
            dur = end[i] - start[i]
            if p >= 0:
                child[p] += dur
                under_typing[i] = under_typing[p] or name[p] in typing_ids
            else:
                root_sum += dur
        self_sum = 0.0
        for i in range(n):
            own = end[i] - start[i] - child[i]
            self_sum += own
            entry = layers[layer_of[name[i]]]
            entry["self"] += own
            entry["calls"] += 1
            steps = self.rules.get(i)
            if steps is None:
                continue
            entry["rules"] += steps
            if under_typing[i]:
                sub_rules_in_typing += steps
            else:
                job_rules[job[i]] = job_rules.get(job[i], 0) + steps
        layers["typecheck"]["rules"] -= sub_rules_in_typing
        return layers, job_rules, self_sum, root_sum

    def write(self, path, header):
        """Write every span as a tab-separated line under a JSON header."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as f:
            f.write("# " + json.dumps(header) + "\n")
            f.write("# index\tname\tstart_s\tend_s\tparent\tjob\n")
            names, t0 = self.names, (self.start[0] if self.start else 0.0)
            for i in range(len(self.start)):
                f.write(f"{i}\t{names[self.name[i]]}\t{self.start[i] - t0:.9f}\t"
                        f"{self.end[i] - t0:.9f}\t{self.parent[i]}\t{self.job[i]}\n")
