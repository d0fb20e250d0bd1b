"""Smoke tests of the stream benchmark at a tiny size."""

from __future__ import annotations

import importlib.util
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for _path in (str(BENCH_DIR), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import ovstream.protocols  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)


def tiny(name: str) -> workloads.Workload:
    w = workloads.WORKLOADS[name]
    return replace(w, num_classes=6, trained_classes=3 if w.trained_classes < w.num_classes else 6,
                   train_per_class=2, heldout_per_class=2, stages=2)


@pytest.fixture
def bench(monkeypatch, tmp_path):
    """``run.py`` loaded as a module, on tiny workloads, writing spans to a temp dir."""
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH_DIR / "run.py")
    module = importlib.util.module_from_spec(spec)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "BENCH_DIR", tmp_path)
    for name in NAMES:
        monkeypatch.setitem(workloads.WORKLOADS, name, tiny(name))
    return module


def test_benchmark_json_names_the_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert SPEC["paths"] == [BENCH_DIR.name]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_printed_with_its_unit(bench, capsys, name, trace):
    code = bench.main(["--workload", name, "--seed", "3", "--seconds", "0",
                       "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert "weighting.fallback_inexact" in json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])


@pytest.mark.parametrize("name", NAMES)
def test_trace_spans_nest(name):
    result = workloads.run(tiny(name), seed=5, seconds=0, trace=True)
    assert result.traced
    for _, recorder in result.traced:
        assert recorder.spans
        child_ns = [0] * len(recorder.spans)
        for span, self_ns in zip(recorder.spans, recorder.self_ns()):
            _, start, end, parent, op = span
            assert self_ns >= 0
            if parent >= 0:
                _, p_start, p_end, _, p_op = recorder.spans[parent]
                assert p_start <= start <= end <= p_end
                assert op == p_op
                child_ns[parent] += end - start
        for (_, start, end, _, _), children in zip(recorder.spans, child_ns):
            assert children <= end - start
        # The benchmark's own output checks record nothing.
        roots = {span[0] for span in recorder.spans if span[3] < 0}
        assert roots == {"protocols.process", "protocols.evaluate_suite", "data.generate"}


def test_wrappers_are_removed_after_a_traced_run():
    workloads.run(tiny("train-linear-raw"), seed=5, seconds=0, trace=True)
    assert not hasattr(ovstream.protocols.Engine.process, "__wrapped__")
    assert not hasattr(ovstream.protocols.online_update, "__wrapped__")
    assert ovstream.protocols.online_update is ovstream.decoder.online_update


def test_a_wrapper_that_never_fires_fails_the_run(monkeypatch):
    monkeypatch.setattr(workloads, "expected_spans",
                        lambda w: {"protocols.process", "never.called"})
    with pytest.raises(RuntimeError, match="never.called"):
        workloads.run(tiny("train-linear-raw"), seed=5, seconds=0, trace=True)


def test_fallback_that_is_not_the_frozen_scorer_fails_the_check(monkeypatch):
    original = ovstream.protocols.combined_prediction

    def nudged(*args, **kwargs):
        return {y: p * (1 + 1e-15) for y, p in original(*args, **kwargs).items()}

    monkeypatch.setattr(ovstream.protocols, "combined_prediction", nudged)
    result = workloads.run(tiny("train-linear-raw"), seed=5, seconds=0, trace=False)
    assert result.failed > 0 and result.problems


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
