"""Paired benchmark runs: a base commit against the working tree, interleaved.

Usage, from the root of a source checkout:

    python3 tools/bench_pairs.py [--workload NAME ...] [--pairs N] [--seconds S]
                                 [--base REF | --base-dir DIR] [--trace]

For each named workload (default: every workload of ``BENCHMARK.json``), runs
``perfbench/run.py --trace 0`` on seeds 1..N, once in a checkout of the
base (``--base``, default ``HEAD``, checked out into a temporary ``git
worktree`` that is removed afterwards; or ``--base-dir``, an existing
checkout) and once in the working tree. The two runs of a seed form a pair;
the base runs first on odd seeds and second on even ones, so a drift in the
machine's speed falls on both sides alike. It then prints one table per
workload: for every end-to-end metric of ``BENCHMARK.json``, the base and
working-tree medians, their ratio, the smallest and largest new / base ratio of
a single pair, the base's interquartile range over its median, in how many
pairs the working tree was better, and a verdict against the metric's bound
(see ``verdict``). With ``--trace`` the runs are ``--trace 1`` ones instead, and
the tables hold the per-layer metrics of ``BENCHMARK.json`` with no verdict, as
per-layer metrics have no bound. It gates nothing: the exit code is 1 only when
a run failed to produce a result. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_result(stdout: str) -> dict[str, float]:
    """``{metric: value}`` from the last line ``perfbench/run.py`` prints."""
    last = json.loads(stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in last["metrics"].items()}


def _iqr(values: list[float]) -> float:
    """The distance between the quartiles of ``values`` (0 for a single value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(base: list[float], new: list[float], wins: int, lower: bool, bound: float) -> str:
    """How the new runs of one metric compare with its base runs. ``wins`` counts the
    pairs new won, and ``bound`` is the worsening the metric allows, as a fraction of
    the base median. The first that holds of:

    * ``gain``: new wins at least 9/10 of the pairs, and its median is better than the
      base's by more than the base's interquartile range;
    * ``unresolved``: the base's interquartile range is wider than the bound, so the runs
      cannot show that the bound held, unless every new run is better than every base
      run;
    * ``within bound``: new's median is no worse than the base's by more than the bound;
    * ``worse``: anything else.
    """
    sign = 1.0 if lower else -1.0
    base_med = statistics.median(base)
    gained = sign * (base_med - statistics.median(new))  # > 0 when new's median is better
    spread = _iqr(base)
    if 10 * wins >= 9 * len(base) and gained > spread:
        return "gain"
    all_better = max(new) < min(base) if lower else min(new) > max(base)
    if spread > bound * abs(base_med) and not all_better:
        return "unresolved"
    return "within bound" if gained >= -bound * abs(base_med) else "worse"


def summarize(pairs, better: dict[str, str],
              bounds: dict[str, float] | None = None) -> list[dict]:
    """One row per metric of ``better`` (its ``"lower"`` or ``"higher"``) from a list of
    ``(base, new)`` metric dicts: both medians, new over base, the range of the per-pair
    new over base, the base's IQR over its median, the pairs in which new is strictly
    better, and, for a metric with a bound in ``bounds``, its ``verdict``."""
    rows = []
    for name, direction in better.items():
        got = [(b[name], n[name]) for b, n in pairs
               if b.get(name) is not None and n.get(name) is not None]
        if not got:
            continue
        base, new = [b for b, _ in got], [n for _, n in got]
        base_med, new_med = statistics.median(base), statistics.median(new)
        wins = sum((n < b) if direction == "lower" else (n > b) for b, n in got)
        ratios = [n / b if b else float("nan") for b, n in got]
        bound = (bounds or {}).get(name)
        rows.append({"metric": name, "base": base_med, "new": new_med,
                     "ratio": new_med / base_med if base_med else float("nan"),
                     "ratio_min": min(ratios), "ratio_max": max(ratios),
                     "base_iqr": _iqr(base) / base_med if base_med else float("nan"),
                     "wins": wins, "pairs": len(got),
                     "verdict": "" if bound is None
                     else verdict(base, new, wins, direction == "lower", bound)})
    return rows


def format_table(rows: list[dict]) -> str:
    lines = ["| metric | base median | new median | new / base | per-pair new / base "
             "| base IQR / median | wins | verdict |",
             "| --- | --- | --- | --- | --- | --- | --- | --- |"]
    for r in rows:
        lines.append(f"| {r['metric']} | {r['base']:.6g} | {r['new']:.6g} | {r['ratio']:.3f} "
                     f"| {r['ratio_min']:.3f}–{r['ratio_max']:.3f} "
                     f"| {r['base_iqr']:.3f} | {r['wins']}/{r['pairs']} | {r['verdict']} |")
    return "\n".join(lines)


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict[str, float]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=checkout, capture_output=True, text=True)
    if not proc.stdout.strip():
        raise RuntimeError(f"no result from {checkout} seed {seed}: {proc.stderr[-500:]}")
    if proc.returncode:
        print(f"warning: {checkout} seed {seed} failed an output check", file=sys.stderr)
    return parse_result(proc.stdout)


def run_pairs(base: Path, workload: str, pairs: int, seconds: float,
              trace: int = 0) -> list[tuple]:
    results = []
    for seed in range(1, pairs + 1):
        order = [base, ROOT] if seed % 2 else [ROOT, base]
        got = {checkout: run_once(checkout, workload, seed, seconds, trace)
               for checkout in order}
        results.append((got[base], got[ROOT]))
        print(f"seed {seed}: base {json.dumps(got[base])}", file=sys.stderr)
        print(f"seed {seed}: new  {json.dumps(got[ROOT])}", file=sys.stderr)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+",
                        help="workloads to run (default: every one of BENCHMARK.json)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=55.0)
    where = parser.add_mutually_exclusive_group()
    where.add_argument("--base", default="HEAD", help="git ref to compare against")
    where.add_argument("--base-dir", type=Path, help="an existing checkout of the base")
    parser.add_argument("--trace", action="store_true",
                        help="compare the per-layer metrics of traced runs instead")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    better = {m["name"]: m["better"] for m in metrics}
    bounds = {m["name"]: m["bound"] for m in metrics if "bound" in m}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    def run_all(base: Path) -> None:
        for workload in workloads:
            results = run_pairs(base, workload, args.pairs, args.seconds, int(args.trace))
            print(f"{workload}: {args.pairs} pairs of {args.seconds:g} s runs, "
                  f"seeds 1-{args.pairs}" + (", per-layer" if args.trace else ""))
            print(format_table(summarize(results, better, bounds)), flush=True)

    try:
        if args.base_dir is not None:
            run_all(args.base_dir.resolve())
        else:
            with tempfile.TemporaryDirectory() as tmp:
                base = Path(tmp) / "base"
                subprocess.run(["git", "worktree", "add", "--detach", str(base), args.base],
                               cwd=ROOT, check=True, capture_output=True)
                try:
                    run_all(base)
                finally:
                    subprocess.run(["git", "worktree", "remove", "--force", str(base)],
                                   cwd=ROOT, capture_output=True)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
