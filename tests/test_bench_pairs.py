"""`tools/bench_pairs.py`'s summary of alternating benchmark pairs, on fixed
numbers."""

import importlib.util
from pathlib import Path

import pytest

BENCH_PAIRS_PY = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS_PY)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

SPECS = [{"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
         {"name": "job_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1}]


def runs(jobs_per_s, p50, failed=0):
    return [{"attempted": 100, "failed": failed,
             "metrics": {"jobs_per_s": {"value": j, "unit": "1/s"},
                         "job_ms_p50": {"value": p, "unit": "ms"}}}
            for j, p in zip(jobs_per_s, p50)]


def test_summary_of_fixed_pairs():
    parent = runs([100, 110, 120, 130, 140], [1.0, 1.0, 1.0, 1.0, 1.0])
    change = runs([90, 120, 110, 140, 150], [1.2, 1.15, 1.0, 0.9, 1.12])
    speed, p50 = bench_pairs.summarize(SPECS, parent, change)
    assert (speed["parent"], speed["change"], speed["won"], speed["pairs"]) == (120, 120, 3, 5)
    assert speed["quartiles"] == (105, 135)
    assert speed["worse"] == 0 and speed["within"]
    # p50: median 1.12 against 1.0 is 12% worse, past the bound; pair 3 is won
    assert p50["won"] == 1 and p50["worse"] == pytest.approx(0.12)
    assert not p50["within"]


def test_out_of_bound_and_direction():
    parent = runs([200, 200, 200], [1.0, 1.0, 1.0])
    change = runs([140, 150, 160], [0.5, 0.5, 0.5])
    speed, p50 = bench_pairs.summarize(SPECS, parent, change)
    assert speed["worse"] == pytest.approx(0.25) and speed["won"] == 0
    # lower is better: a halved p50 is 50% better, won in every pair
    assert p50["worse"] == pytest.approx(-0.5) and p50["won"] == 3 and p50["within"]
    change = runs([100, 100, 100], [1.0, 1.0, 1.0])
    assert not bench_pairs.summarize(SPECS, parent, change)[0]["within"]


def test_table_and_failed_share():
    rows = bench_pairs.summarize(SPECS, runs([100, 100], [2.0, 2.0]),
                                 runs([100, 50], [2.0, 2.0], failed=5))
    lines = bench_pairs.table("corpus", rows)
    assert lines[0].startswith("| corpus | parent | change |")
    assert lines[2] == "| jobs_per_s (1/s) | 100 | 75 | 100–100 | 0/2 | +25.0% | 25% | yes |"
    assert lines[3].endswith("| 0/2 | +0.0% | 10% | yes |")
    assert bench_pairs.failed_share(runs([1, 1], [1, 1], failed=5)) == 0.05
