"""Stream benchmark for ovstream.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.WORKLOADS`` and ``BENCHMARK.json``) as a
closed loop for about ``S`` seconds on inputs generated from ``N``, checks
every output, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1`` they are the
per-layer ones, from episodes traced by wrapping ovstream's public functions
(spans are written to ``perfbench/out/<workload>.spans.csv``). The lines
before it record the environment and per-run details.

Exit codes: 0 when every check passed, 1 when an output check or an
operation failed, 2 when the program sources are not found.
"""

import os

# BLAS and OpenMP pools start at import time, so pin them before numpy loads:
# the benchmark measures a single-threaded caller on a shared machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def git_commit(root: Path) -> str:
    """Commit of a git checkout; "unknown" elsewhere."""
    # The ceiling keeps git from reporting an enclosing repository's commit.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "commit": git_commit(ROOT),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ovstream" / "__init__.py").is_file():
        print(f"error: ovstream sources not found under {src}", file=sys.stderr)
        return 2
    for path in (str(src), str(BENCH_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    result = workloads.run(workloads.WORKLOADS[args.workload], args.seed,
                           args.seconds, bool(args.trace))
    metrics = {}
    for m in wanted:
        value = result.metrics[m["name"]]
        metrics[m["name"]] = {"value": value if math.isfinite(value) else None,
                              "unit": m["unit"]}

    if args.trace:
        out = BENCH_DIR / "out"
        out.mkdir(exist_ok=True)
        with open(out / f"{args.workload}.spans.csv", "w") as fh:
            fh.write(spans.CSV_HEADER)
            for episode, (_, recorder) in enumerate(result.traced):
                recorder.write_csv(fh, episode)
    correct = result.failed == 0 and not result.problems
    print(json.dumps({"environment": environment()}))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "episodes": len(result.episodes), "traced_episodes": len(result.traced),
                      "stream_s": [round(e.stream_s, 4) for e in result.episodes],
                      # Standing nn-loo defect: fallback predictions that are
                      # not bit-exact (see workloads.FALLBACK_ROUNDING).
                      "weighting.fallback_inexact": [e.fallback_inexact
                                                     for e in result.all_episodes],
                      "unlisted_metrics": {k: v for k, v in result.metrics.items()
                                           if k not in metrics},
                      "problems": result.problems[:10]}))
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
