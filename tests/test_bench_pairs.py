"""Smoke test of ``tools/bench_pairs.py``'s summary step on canned result lines."""

import importlib.util
import json
import subprocess
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
    assert table.splitlines()[2].endswith("| 3/4 |  |")  # no bounds given, no verdict


def test_per_pair_ratio_range():
    pairs = [({"rate": b}, {"rate": n}) for b, n in ((100.0, 130.0), (110.0, 99.0),
                                                     (90.0, 99.0))]
    (row,) = bench_pairs.summarize(pairs, {"rate": "higher"})
    assert (row["ratio_min"], row["ratio_max"]) == (0.9, 1.3)
    assert "| 0.900–1.300 |" in bench_pairs.format_table([row])


def _ten_pairs(base, new):
    return [({"m": b}, {"m": n}) for b, n in zip(base, new)]


_BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]  # IQR 0.8


@pytest.mark.parametrize("base, new, want", [
    # 10/10 wins and a median 10 better, beyond the base's IQR of 0.8
    (_BASE, [v * 0.9 for v in _BASE], "gain"),
    # 9/10 wins is enough
    (_BASE, [v * 0.9 for v in _BASE[:9]] + [200.0], "gain"),
    # 8/10 wins is not, but the median is better, so within the bound
    (_BASE, [v * 0.9 for v in _BASE[:8]] + [200.0, 200.0], "within bound"),
    # 10/10 wins by less than the base's IQR: no gain, and no worse
    (_BASE, [v - 0.01 for v in _BASE], "within bound"),
    # 5% worse under a 10% bound
    (_BASE, [v * 1.05 for v in _BASE], "within bound"),
    # 20% worse under a 10% bound, with a tight base
    (_BASE, [v * 1.2 for v in _BASE], "worse"),
    # the base spreads wider than the bound: no verdict on the median
    ([60.0, 140.0, 70.0, 130.0, 100.0, 90.0, 110.0, 65.0, 135.0, 100.0], [100.0] * 10,
     "unresolved"),
    # ... unless every new run beats every base run (here by less than the IQR of 67.5)
    ([60.0, 140.0, 70.0, 130.0, 100.0, 90.0, 110.0, 65.0, 135.0, 100.0], [59.0] * 10,
     "within bound"),
], ids=["gain", "gain_9_of_10", "wins_8_of_10", "inside_iqr", "worse_in_bound", "worse",
        "unresolved", "all_better"])
def test_verdicts(base, new, want):
    (row,) = bench_pairs.summarize(_ten_pairs(base, new), {"m": "lower"}, {"m": 0.1})
    assert row["verdict"] == want
    assert bench_pairs.format_table([row]).endswith(f"| {want} |")


def test_verdict_for_higher_is_better():
    base = [1000.0 / v for v in _BASE]
    (row,) = bench_pairs.summarize(_ten_pairs(base, [v * 1.2 for v in base]), {"m": "higher"},
                                   {"m": 0.1})
    assert row["verdict"] == "gain"
    (row,) = bench_pairs.summarize(_ten_pairs(base, [v * 0.8 for v in base]), {"m": "higher"},
                                   {"m": 0.1})
    assert row["verdict"] == "worse"


def test_one_table_per_workload(monkeypatch, capsys, tmp_path):
    # Without --workload every workload of BENCHMARK.json runs, each with its table.
    ran = []

    def fake_run_pairs(base, workload, pairs, seconds, trace=0):
        assert trace == 0
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
    assert out.count("| setup_s | 2 | 1 | 0.500 | 0.500–0.500 | 0.000 | 3/3 | gain |") \
        == len(names)

    ran.clear()
    assert bench_pairs.main(["--base-dir", str(tmp_path), "--workload", "b", "a",
                             "--pairs", "1", "--seconds", "2"]) == 0
    assert [(w, s) for _, w, _, s in ran] == [("b", 2.0), ("a", 2.0)]


def test_trace_runs_traced_pairs_and_prints_per_layer_tables(monkeypatch, capsys, tmp_path):
    # With --trace each run is a ``--trace 1`` one, and the table holds the per-layer
    # metrics those runs print, with no verdict: a per-layer metric has no bound.
    commands = []

    def fake_subprocess_run(cmd, **kwargs):
        commands.append(cmd)
        new = Path(kwargs["cwd"]) == bench_pairs.ROOT
        stdout = _stdout(**{"replay.record_batched.ms": 1.0 if new else 2.0,
                            "replay.store_size": 40, "trace.overhead_pct": 3.0})
        return subprocess.CompletedProcess(cmd, 0, stdout, "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_subprocess_run)
    assert bench_pairs.main(["--base-dir", str(tmp_path), "--workload", "w",
                             "--pairs", "2", "--trace"]) == 0
    assert len(commands) == 4
    assert all(cmd[cmd.index("--trace") + 1] == "1" for cmd in commands)
    out = capsys.readouterr().out
    assert "w: 2 pairs of 55 s runs, seeds 1-2, per-layer" in out
    rows = [line for line in out.splitlines() if line.startswith("| ") and "---" not in line]
    assert [row.split(" | ")[0] for row in rows[1:]] == [
        "| replay.record_batched.ms", "| replay.store_size", "| trace.overhead_pct"]
    assert rows[1] == "| replay.record_batched.ms | 2 | 1 | 0.500 | 0.500–0.500 | 0.000 | 2/2 |  |"
    assert rows[2].endswith("| 0/2 |  |") and "setup_s" not in out
