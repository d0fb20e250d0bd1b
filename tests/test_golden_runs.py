"""``ovstream run`` outputs pinned to recorded bytes.

``tests/data/golden_runs.json`` holds the ``metrics.csv`` and ``summary.json`` that
``ovstream run`` wrote for each config below and seed. A change meant to keep every
bit keeps these files; a change that moves bits on purpose rewrites the fixture with

    python tests/test_golden_runs.py

and says why.
"""

import contextlib
import json
import sys
from pathlib import Path

import pytest

from ovstream.cli import main

FIXTURE = Path(__file__).resolve().parent / "data" / "golden_runs.json"

# The README's example config, then five variations of it that reach the block
# decoder, compressed storage, FWS replay, the other weightings, class-incremental
# stages, a second suite and a dataset file written by ``ovstream gen``.
README_CONFIG = {
    "synthetic": {"num_classes": 10, "samples_per_class": 20, "dim": 64,
                  "tokens": 10, "noise": 0.25, "seed": 0},
    "protocol": "data_incremental",
    "fractions": [2, 4, 8, 16, 32, 64, 100],
    "weighting": "ocw",
    "compression": "none",
    "sampler": {"strategy": "class_balanced", "batch_size": 32},
    "lr": 9.375e-6,
    "seed": 0,
}
CONFIGS = {
    "readme": README_CONFIG,
    "block-pcaq-fws": {**README_CONFIG, "decoder": "block", "compression": "pca-cls-quant",
                       "sampler": {"strategy": "fws", "batch_size": 16}, "lr": 1e-3},
    "nn-loo": {**README_CONFIG, "weighting": "nn-loo",
               "sampler": {"strategy": "class_balanced", "batch_size": 8}, "lr": 1e-2},
    "aim-class": {**README_CONFIG, "weighting": "aim", "protocol": "class_incremental",
                  "lr": 1e-2},
    "ocw-binary-two-suites": {**README_CONFIG, "weighting": "ocw-binary", "lr": 1e-2,
                              "suites": [{"name": "all"},
                                         {"name": "low", "candidates": [0, 1, 2, 3, 4]}]},
    # Reads the README's synthetic dataset back from the file ``ovstream gen`` wrote.
    "nn-loo-dataset-file": {**{k: v for k, v in README_CONFIG.items() if k != "synthetic"},
                            "dataset": "gen.ovds", "weighting": "nn-loo",
                            "sampler": {"strategy": "class_balanced", "batch_size": 8},
                            "lr": 1e-2,
                            "suites": [{"name": "all"},
                                       {"name": "odd", "samples": list(range(1, 200, 7)),
                                        "candidates": [1, 3, 5, 7, 9]}]},
}
RUNS = [("readme", 0), ("readme", 1), ("readme", 2),
        ("block-pcaq-fws", 0), ("nn-loo", 0), ("aim-class", 0), ("ocw-binary-two-suites", 0),
        ("nn-loo-dataset-file", 0)]
OUTPUTS = ("metrics.csv", "summary.json")


def run_outputs(name: str, seed: int, workdir: Path) -> dict[str, str]:
    """The text of each file ``ovstream run`` writes for config ``name`` at ``seed``. A
    config's ``dataset`` file is first written by ``ovstream gen`` from the README's
    synthetic spec; the run reads it by a path relative to ``workdir``, so the config
    hash in the outputs does not depend on where ``workdir`` is."""
    workdir.mkdir(parents=True, exist_ok=True)
    config = workdir / "run.json"
    config.write_text(json.dumps(CONFIGS[name]))
    out = workdir / "out"
    with contextlib.chdir(workdir):
        if "dataset" in CONFIGS[name]:
            spec = workdir / "spec.json"
            spec.write_text(json.dumps(README_CONFIG["synthetic"]))
            assert main(["gen", "--spec", str(spec), "--out", CONFIGS[name]["dataset"]]) == 0
        assert main(["run", "--config", str(config), "--out", str(out),
                     "--seed", str(seed)]) == 0
    return {file: (out / file).read_text() for file in OUTPUTS}


@pytest.mark.parametrize("name, seed", RUNS, ids=[f"{n}-seed{s}" for n, s in RUNS])
def test_run_writes_the_recorded_bytes(tmp_path, name, seed):
    recorded = json.loads(FIXTURE.read_text())[f"{name}/{seed}"]
    assert run_outputs(name, seed, tmp_path) == recorded


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        golden = {f"{name}/{seed}": run_outputs(name, seed, Path(tmp) / f"{name}-{seed}")
                  for name, seed in RUNS}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}: {len(golden)} runs", file=sys.stderr)
