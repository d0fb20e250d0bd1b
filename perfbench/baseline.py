"""Record the benchmark's baseline: two sets of seeded runs and a traced run.

Usage, from the root of a source checkout:

    python3 perfbench/baseline.py

Runs every workload of ``BENCHMARK.json`` on seeds 1-10, twice over (two
sets), each run a separate ``perfbench/run.py`` process with the run length
of ``BENCHMARK.json``. For every end-to-end metric and set it reports the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median, next to
the metric's bound; and by what share the second set's median is worse than
the first's. One traced run per workload (seed 1) adds the per-layer
metrics (self times, counts, each layer's share of ``stream_s``): the traffic
that later changes are checked against. Everything is written to
``perfbench/baseline.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = list(range(1, 11))
SETS = 2
TRACE_SEED = 1


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(result line, environment line) of one benchmark process."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{' '.join(cmd)} reported incorrect output:\n{proc.stdout}")
    env = next(json.loads(line)["environment"] for line in lines if '"environment"' in line)
    return result, env


def summarise(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "values": values}


def worse_by(first: float, second: float, better: str) -> float:
    """By what share of ``first`` the ``second`` median is worse (negative: better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    values = [{n: {} for n in names} for _ in range(SETS)]
    env = None
    # Seed-major order, so drift in the machine's load touches every workload.
    for k in range(SETS):
        for seed in SEEDS:
            for name in names:
                result, env = run_once(spec, name, seed, 0)
                for metric, entry in result["metrics"].items():
                    values[k][name].setdefault(metric, []).append(entry["value"])
                print(f"set {k + 1} {name} seed {seed}: "
                      + " ".join(f"{m}={v['value']:.5g}" for m, v in result["metrics"].items()),
                      flush=True)

    report = {"environment": env, "run_seconds": spec["run_seconds"], "seeds": SEEDS,
              "workloads": {}}
    worst_spread = worst_drift = 0.0
    for name in names:
        sets = [{} for _ in range(SETS)]
        drift = {}
        for m in spec["end_to_end"]:
            for k in range(SETS):
                sets[k][m["name"]] = s = summarise(values[k][name][m["name"]], m["bound"])
                if m["name"] != "setup_s":
                    worst_spread = max(worst_spread, s["spread"] / m["bound"])
                print(f"set {k + 1} {name:24s} {m['name']:24s} median {s['median']:12.6g} "
                      f"spread {s['spread']:7.4f} bound {m['bound']}")
            drift[m["name"]] = d = worse_by(sets[0][m["name"]]["median"],
                                            sets[-1][m["name"]]["median"], m["better"])
            worst_drift = max(worst_drift, d / m["bound"])
            print(f"      {name:24s} {m['name']:24s} second set worse by {d:7.4f}")
        traced, _ = run_once(spec, name, TRACE_SEED, 1)
        report["workloads"][name] = {
            "end_to_end": sets,
            "second_set_worse_by": drift,
            "per_layer": {"seed": TRACE_SEED,
                          "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}}
    print(f"largest spread as a share of its bound (setup_s excluded): {worst_spread:.3f}")
    print(f"largest second-set worsening as a share of its bound: {worst_drift:.3f}")
    (BENCH_DIR / "baseline.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
