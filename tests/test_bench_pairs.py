"""Smoke test of ``tools/bench_pairs.py``'s summary step on canned result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _stdout(**values):
    """What ``perfbench/run.py`` prints: two detail lines, then the result line."""
    metrics = {k: {"value": v, "unit": "x"} for k, v in values.items()}
    return "\n".join([json.dumps({"environment": {}}), json.dumps({"workload": "w"}),
                      json.dumps({"correct": True, "attempted": 1, "failed": 0,
                                  "metrics": metrics})]) + "\n"


def test_summary_of_canned_pairs():
    base_rate, new_rate = (100.0, 110.0, 90.0, 105.0), (130.0, 120.0, 125.0, 100.0)
    pairs = [(bench_pairs.parse_result(_stdout(rate=b, step_ms=1000 / b, acc=0.5)),
              bench_pairs.parse_result(_stdout(rate=n, step_ms=1000 / n, acc=0.5)))
             for b, n in zip(base_rate, new_rate)]
    better = {"rate": "higher", "step_ms": "lower", "acc": "higher", "absent": "lower"}
    rows = {r["metric"]: r for r in bench_pairs.summarize(pairs, better)}
    assert set(rows) == {"rate", "step_ms", "acc"}  # a metric no run printed is skipped
    rate = rows["rate"]
    assert (rate["base"], rate["new"], rate["pairs"]) == (102.5, 122.5, 4)
    assert rate["ratio"] == pytest.approx(122.5 / 102.5)
    # statistics.quantiles' default (exclusive) quartiles of 90, 100, 105, 110
    assert rate["base_iqr"] == pytest.approx((108.75 - 92.5) / 102.5)
    assert rate["wins"] == 3 and rows["step_ms"]["wins"] == 3  # lower is better there
    assert rows["acc"]["wins"] == 0  # a tie is no win
    table = bench_pairs.format_table(list(rows.values()))
    assert table.splitlines()[2].startswith("| rate | 102.5 | 122.5 | 1.195 |")
    assert table.splitlines()[2].endswith("| 3/4 |")
