"""The benchmark's use of the library: every workload builds and its
timed jobs pass.

`bench/workloads.py` builds and takes types apart through the named API
(`Forall(binder, body)`, `.binder`, `.body`, `subst_type`, two-argument
`extends`); a break there would otherwise only show as a drop in the
benchmark's `ok_ratio`.  The workloads are built from the `polarf`
modules already imported here, not through the benchmark's own loader,
which purges `sys.modules`.
"""

import importlib.util
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from polarf import (
    cli, corpus, errors, oracle, parser, subtype, syntax, typecheck, wellformed,
)

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _workloads()
PF = SimpleNamespace(cli=cli, corpus=corpus, errors=errors, oracle=oracle,
                     parser=parser, subtype=subtype, syntax=syntax,
                     typecheck=typecheck, wellformed=wellformed)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_timed_jobs_pass(name):
    jobs = workloads.WORKLOADS[name](PF, random.Random(1))
    api = workloads.entry_points(PF)
    timed = [job for job in jobs if not job.scale]
    assert timed
    for job in timed:
        try:
            raw = job.call(api)
        except Exception as e:  # as the benchmark does: the check classifies it
            raw = e
        ok, kind = job.check(raw)
        assert ok, (job.rung, job.variant, kind)
