"""Engine outputs and state pinned to recorded sha256 digests.

``tests/data/bit_digests.json`` holds one digest per (config, weighting, seed), taken
over a whole stream: every ``evaluate_suite``'s ``probs`` bytes, winners and accuracy,
then the final decoder parameters and both optimizer moments, then every stored
payload record. It also holds one digest of a label table's rows. A change meant to
keep every bit keeps these digests; a change that moves bits on purpose rewrites the
fixture with

    python tests/test_bits.py

and says why. ``tests/test_golden_runs.py`` pins command outputs, whose accuracies are
text; this file pins the float64 bytes under them.
"""

import hashlib
import json
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from ovstream.compression import payload_to_bytes
from ovstream.core import LabelEmbeddingTable
from ovstream.data import SyntheticSpec, generate, load, save
from ovstream.protocols import WEIGHTINGS, Engine, EngineConfig, EvalSuite, build_stream
from ovstream.replay import SamplerConfig

FIXTURE = Path(__file__).resolve().parent / "data" / "bit_digests.json"

SMALL = {"num_classes": 4, "samples_per_class": 8, "dim": 16, "tokens": 6, "noise": 0.3,
         "label_alignment": 0.6}
# name -> (synthetic spec, engine config, protocol, fractions). The class-incremental
# configs leave candidates untrained in early stages and score a second suite over
# half the labels.
CONFIGS = {
    "linear-none": (SMALL, {"compression": "none", "lr": 1e-2}, "data_incremental", [25, 50, 100]),
    "linear-pcaq": (SMALL, {"compression": "pca-cls-quant", "pca_components": 2, "lr": 1e-2},
                    "class_incremental", [100]),
    "block-none": (SMALL, {"decoder_variant": "block", "compression": "none", "lr": 1e-3,
                           "sampler": {"strategy": "fws", "batch_size": 8}},
                   "class_incremental", [100]),
    "block-pcaq": (SMALL, {"decoder_variant": "block", "compression": "pca-cls-quant",
                           "pca_components": 2, "lr": 1e-3,
                           "sampler": {"strategy": "fws", "batch_size": 8}},
                   "data_incremental", [25, 50, 100]),
    # One label observed more than 99 times, so the tracker's EMA branch runs.
    "cold-start": ({"num_classes": 2, "samples_per_class": 105, "dim": 8, "tokens": 3,
                    "noise": 0.3, "label_alignment": 0.6}, {"lr": 1e-2}, "data_incremental",
                   [50, 100]),
    # More classes than batch slots, so a class-balanced batch can give every chosen
    # class one pick; early batches draw with replacement, middle ones Floyd's picks.
    "many-classes": ({"num_classes": 12, "samples_per_class": 4, "dim": 16, "tokens": 6,
                      "noise": 0.3, "label_alignment": 0.6}, {"compression": "none", "lr": 1e-2},
                     "data_incremental", [25, 50, 100]),
    # Run on its dataset after ``data.save`` and ``data.load``.
    "reloaded": (SMALL, {"compression": "none", "lr": 1e-2}, "class_incremental", [100]),
}
RUNS = ([(name, w, seed) for name in CONFIGS
          if name not in ("cold-start", "many-classes", "reloaded")
          for w in WEIGHTINGS for seed in (0, 1)] + [("cold-start", "ocw", 0)]
        + [("many-classes", w, seed) for w in ("ocw", "nn-loo") for seed in (0, 1)]
        + [("reloaded", "nn-loo", 1)])


def run_engine(name: str, weighting: str, seed: int) -> tuple[Engine, str]:
    """The engine after its whole stream, and the stream's sha256."""
    spec, config, protocol, fractions = CONFIGS[name]
    dataset = generate(SyntheticSpec(**spec, seed=seed))
    if name == "reloaded":
        with tempfile.TemporaryDirectory() as tmp:
            save(dataset, Path(tmp) / "data.bin")
            dataset = load(Path(tmp) / "data.bin")
    config = dict(config, weighting=weighting, seed=seed,
                  sampler=SamplerConfig(**config.get("sampler", {"batch_size": 8})))
    engine = Engine(dataset, EngineConfig(**config))
    labels = dataset.labels()
    suites = [EvalSuite("all", list(range(len(dataset.samples))), set(labels))]
    if protocol == "class_incremental":
        half = set(labels[::2])
        suites.append(EvalSuite("even", [i for i, (_, y) in enumerate(dataset.samples)
                                         if y in half], half))
    stream = build_stream(dataset, protocol, seed=seed, fractions=fractions,
                          class_groups=2, suites=suites)
    h = hashlib.sha256()
    for stage in [None, *stream]:
        for idx in stage.sample_ids if stage else ():
            engine.process(idx)
        for suite in stage.suites if stage else suites:
            acc, result = engine.evaluate_suite(suite)
            h.update(result.probs.tobytes())
            h.update(result.winners.tobytes())
            h.update(struct.pack("<d", acc))
    for vector in (engine.params.flat, engine.opt.m, engine.opt.v):
        h.update(vector.tobytes())
    for sid in range(len(engine.store)):
        h.update(payload_to_bytes(engine.store.sample(sid).payload))
    return engine, h.hexdigest()


def table_digest() -> str:
    """The sha256 of a label table's float64 rows and float32 embeddings, over entries
    that are not unit, exactly unit, and within 1e-6 of unit (those pass through)."""
    gen = np.random.default_rng(7)
    raw = gen.standard_normal((6, 16)).astype(np.float32)
    unit = raw / np.linalg.norm(raw.astype(np.float64), axis=1, keepdims=True)
    entries = {**{i: v for i, v in enumerate(raw)},                # not unit
               **{10 + i: v for i, v in enumerate(np.eye(3, 16))},  # exactly unit
               20: np.array([0.6, 0.8] + [0.0] * 14),              # unit up to rounding
               **{30 + i: v for i, v in enumerate(unit.astype(np.float32))},
               # 9e-7 and 1.1e-6 off unit norm: one passes through, one is scaled
               40: raw[0] / np.float32(np.linalg.norm(raw[0]) * (1 - 9e-7)),
               41: raw[0] / np.float32(np.linalg.norm(raw[0]) * (1 - 1.1e-6))}
    table = LabelEmbeddingTable(entries)
    h = hashlib.sha256(table.matrix(table.labels()).tobytes())
    for label in table.labels():
        h.update(table.embedding(label).tobytes())
    return h.hexdigest()


def test_label_table_keeps_the_recorded_bits():
    assert table_digest() == json.loads(FIXTURE.read_text())["label-table"]


@pytest.mark.parametrize("name, weighting, seed", RUNS,
                         ids=[f"{n}-{w}-seed{s}" for n, w, s in RUNS])
def test_stream_keeps_the_recorded_bits(name, weighting, seed):
    engine, digest = run_engine(name, weighting, seed)
    assert digest == json.loads(FIXTURE.read_text())[f"{name}/{weighting}/{seed}"]
    if name == "cold-start":
        assert engine.tracker.n_seen.max() > 99


if __name__ == "__main__":
    digests = {f"{n}/{w}/{s}": run_engine(n, w, s)[1] for n, w, s in RUNS}
    digests["label-table"] = table_digest()
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}: {len(digests)} digests", file=sys.stderr)
