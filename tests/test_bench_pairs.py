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


def test_per_pair_ratio_range():
    pairs = [({"rate": b}, {"rate": n}) for b, n in ((100.0, 130.0), (110.0, 99.0),
                                                     (90.0, 99.0))]
    (row,) = bench_pairs.summarize(pairs, {"rate": "higher"})
    assert (row["ratio_min"], row["ratio_max"]) == (0.9, 1.3)
    assert "| 0.900–1.300 |" in bench_pairs.format_table([row])


def test_one_table_per_workload(monkeypatch, capsys, tmp_path):
    # Without --workload every workload of BENCHMARK.json runs, each with its table.
    ran = []

    def fake_run_pairs(base, workload, pairs, seconds):
        ran.append((base, workload, pairs, seconds))
        return [(bench_pairs.parse_result(_stdout(setup_s=2.0)),
                 bench_pairs.parse_result(_stdout(setup_s=1.0)))] * pairs

    monkeypatch.setattr(bench_pairs, "run_pairs", fake_run_pairs)
    names = [w["name"] for w in json.loads(
        (bench_pairs.ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert bench_pairs.main(["--base-dir", str(tmp_path), "--pairs", "3"]) == 0
    assert [w for _, w, _, _ in ran] == names
    assert {(b, p) for b, _, p, _ in ran} == {(tmp_path.resolve(), 3)}
    out = capsys.readouterr().out
    for name in names:
        assert f"{name}: 3 pairs of 55 s runs, seeds 1-3" in out
    assert out.count("| setup_s | 2 | 1 | 0.500 | 0.500–0.500 | 0.000 | 3/3 |") == len(names)

    ran.clear()
    assert bench_pairs.main(["--base-dir", str(tmp_path), "--workload", "b", "a",
                             "--pairs", "1", "--seconds", "2"]) == 0
    assert [(w, s) for _, w, _, s in ran] == [("b", 2.0), ("a", 2.0)]
