"""Release gate: one test per acceptance criterion.

Each test exercises the end-to-end behavior its criterion describes;
the terminal summary (see conftest) prints one pass/fail line per
criterion after the run.
"""

import json

import numpy as np
import pytest

from ovstream.cli import main as cli_main
from ovstream.compression import (
    dequantize,
    per_instance_pca,
    quantize,
    quantize_feature,
    reconstruct,
    storage_bytes,
)
from ovstream.core import LabelEmbeddingTable
from ovstream.data import SyntheticSpec, generate
from ovstream.decoder import (
    TrainingBatch,
    block_params,
    combined_loss,
    linear_params,
    loss_gradients,
)
from ovstream.protocols import (
    Engine,
    EngineConfig,
    EvalSuite,
    StreamStage,
    build_stream,
    mtil_metrics,
    run_stream,
)
from ovstream.replay import ReplayStore, SamplerConfig


# ---------------------------------------------------------------------------
# 1. Storage accounting


def test_criterion_1_storage_accounting(rng):
    tokens = rng.standard_normal((50, 768)).astype(np.float32)
    assert storage_bytes(tokens) == 153_600

    cf = per_instance_pca(tokens, 5)
    assert storage_bytes(cf) == 19_432

    quantized = quantize_feature(cf)
    size = storage_bytes(quantized)
    assert abs(size - 5300) / 5300 <= 0.10


# ---------------------------------------------------------------------------
# 2. Incremental-metric replication on the published 11-task accuracy matrix


# Accuracy (%) after training each of 11 tasks in sequence (rows) evaluated
# on every task (columns), from the online variant of the reference system.
TASK_MATRIX = [
    [44.85, 87.90, 68.22, 45.32, 54.61, 71.43, 88.86, 59.45, 89.07, 64.61, 64.05],
    [50.50, 96.60, 68.22, 45.32, 54.61, 71.43, 88.86, 59.45, 89.07, 64.61, 64.05],
    [52.45, 96.89, 82.23, 45.32, 54.61, 71.43, 88.86, 59.45, 89.07, 64.61, 64.05],
    [52.42, 96.66, 83.03, 69.63, 54.61, 71.43, 88.86, 59.45, 89.07, 64.61, 64.05],
    [52.78, 96.77, 83.57, 75.64, 94.46, 71.43, 88.86, 59.45, 89.07, 64.61, 64.05],
    [53.59, 96.83, 83.52, 74.95, 95.59, 87.84, 88.86, 59.45, 89.07, 64.61, 64.05],
    [54.04, 96.77, 83.60, 75.11, 96.63, 92.83, 91.36, 59.45, 89.07, 64.61, 64.05],
    [54.40, 96.49, 83.77, 75.32, 96.19, 93.23, 91.60, 98.51, 89.07, 64.61, 64.05],
    [55.12, 96.43, 83.54, 75.37, 96.83, 92.97, 92.22, 98.76, 91.63, 64.61, 64.05],
    [53.44, 96.60, 83.68, 74.73, 96.63, 92.94, 92.10, 98.58, 92.75, 83.48, 64.05],
    [53.11, 96.37, 83.27, 73.51, 95.93, 92.88, 92.04, 98.36, 93.16, 85.77, 79.67],
]


def test_criterion_2_mtil_metric_replication():
    transfer, avg, last = mtil_metrics(TASK_MATRIX)
    assert transfer == pytest.approx(69.4, abs=0.05)
    assert avg == pytest.approx(77.0, abs=0.05)
    assert last == pytest.approx(85.8, abs=0.05)


# ---------------------------------------------------------------------------
# 3. Zero forgetting on never-trained labels


def test_criterion_3_zero_forgetting_on_unseen_labels():
    ds = generate(SyntheticSpec(num_classes=6, samples_per_class=8, dim=32,
                                tokens=5, noise=0.3, separation=0.4, seed=20))
    # Tasks cover classes 0-3; classes 4 and 5 are never trained.
    trained_ids = [i for i, (_, y) in enumerate(ds.samples) if y < 4]
    held_ids = [i for i, (_, y) in enumerate(ds.samples) if y >= 4]
    held_candidates = {4, 5}
    ds.task_map = {t: [i for i in trained_ids if ds.samples[i][1] // 2 == t]
                   for t in (0, 1)}
    stream = build_stream(ds, "task_incremental")

    engine = Engine(ds, EngineConfig(weighting="ocw", lr=0.01,
                                     sampler=SamplerConfig(batch_size=8),
                                     seed=20))
    frozen = np.array([list(engine.frozen_probabilities(ds.tokens(i), held_candidates).values())
                       for i in held_ids])
    for stage in stream:
        for idx in stage.sample_ids:
            engine.process(idx)
        combined = np.array([engine.predict(ds.tokens(i), held_candidates)
                             for i in held_ids])
        # bit-identical, not approximately equal
        assert combined.shape == frozen.shape and combined.tobytes() == frozen.tobytes()


# ---------------------------------------------------------------------------
# 4. Analytic gradients match finite differences


def test_criterion_4_gradient_suite():
    checked = 0
    for seed in range(10):
        for variant in ("linear", "block"):
            gen = np.random.default_rng(seed)
            dim, n_classes = 6, 4
            table = LabelEmbeddingTable(
                {i: gen.standard_normal(dim) for i in range(n_classes)})
            params = (linear_params(dim, identity=False, rng=gen)
                      if variant == "linear"
                      else block_params(dim, rng=gen, scale=0.05))
            samples = [(gen.standard_normal((4, dim)).astype(np.float32),
                        int(gen.integers(0, n_classes))) for _ in range(2)]
            matrices, labels = zip(*samples)
            batch = TrainingBatch(np.stack(matrices), list(labels), set(range(n_classes)))
            grads = loss_gradients(batch, params, table, 0.1)
            picker = np.random.default_rng(seed + 500)
            for name, tensor in params.tensors.items():
                flat = tensor.reshape(-1)
                gflat = grads.tensors[name].reshape(-1)
                for i in picker.choice(flat.size, size=min(2, flat.size),
                                       replace=False):
                    orig = flat[i]

                    def central(h):
                        flat[i] = orig + h
                        up = combined_loss(batch, params, table, 0.1)
                        flat[i] = orig - h
                        down = combined_loss(batch, params, table, 0.1)
                        flat[i] = orig
                        return (up - down) / (2 * h)

                    fd = (4 * central(5e-5) - central(1e-4)) / 3
                    scale = max(abs(fd), abs(gflat[i]), 1e-6)
                    assert abs(fd - gflat[i]) / scale <= 1e-4, (variant, name)
            checked += 1
    assert checked >= 20


# ---------------------------------------------------------------------------
# 5. Training on compressed features tracks full-feature training


def test_criterion_5_compression_fidelity():
    ds = generate(SyntheticSpec(num_classes=10, samples_per_class=20, dim=64,
                                tokens=10, noise=0.25, separation=0.4,
                                label_alignment=0.7, seed=11))
    stream = build_stream(ds, "data_incremental", seed=11)
    finals = {}
    for mode in ("none", "pca-cls-quant"):
        config = EngineConfig(weighting="ocw", lr=0.01,
                              sampler=SamplerConfig(batch_size=16),
                              compression=mode, pca_components=5, seed=11)
        record = run_stream(ds, stream, config)
        finals[mode] = record.accuracy(stream[-1].index, "all")
    assert abs(finals["none"] - finals["pca-cls-quant"]) <= 0.02


# ---------------------------------------------------------------------------
# 6. Low-rank and quantization error bounds


def test_criterion_6_approximation_bounds():
    gen = np.random.default_rng(60)
    for _ in range(100):
        t = int(gen.integers(4, 12))
        d = int(gen.integers(8, 24))
        x = gen.standard_normal((t, d))
        n = int(gen.integers(1, min(t, d)))

        # Reconstruction error equals the discarded singular-value energy.
        mu = x.mean(axis=0)
        s = np.linalg.svd(x - mu, compute_uv=False)
        cf = per_instance_pca(x, n)
        err = float(np.sum((reconstruct(cf).astype(np.float64) - x) ** 2))
        tail = float(np.sum(s[n:] ** 2))
        assert err == pytest.approx(tail, rel=1e-3, abs=1e-6)

        # 8-bit round trip stays within half a quantization step per row.
        back = dequantize(quantize(x, 8, per_row=True))
        for r in range(t):
            half_step = (x[r].max() - x[r].min()) / (2 * 255)
            assert np.max(np.abs(back[r] - x[r])) <= half_step + 1e-7


# ---------------------------------------------------------------------------
# 7. Sampler statistics


def test_criterion_7_sampler_statistics():
    gen = np.random.default_rng(70)

    # FWS draw frequency matches the weight ratio: weights (1, 0.01, 0.01),
    # one companion slot -> heavy sample drawn with probability 1/1.02.
    store = ReplayStore()
    for label in (0, 1, 2, 9):
        store.insert(label, gen.standard_normal((3, 4)).astype(np.float32))
    for sid, w in ((0, 1.0), (1, 0.01), (2, 0.01)):
        store.sample(sid).fws_weight = w
    config = SamplerConfig(strategy="fws", batch_size=2)
    rng = np.random.default_rng(71)
    trials = 100_000
    hits = sum(store.compose_batch(3, config, rng)[1] == 0
               for _ in range(trials))
    assert hits / trials == pytest.approx(1 / 1.02, abs=0.01)

    # Class-balanced per-class selection frequency: 5 classes, 3 slots.
    store = ReplayStore()
    for label in (0, 0, 1, 1, 2, 2, 3, 3, 4, 4):
        store.insert(label, gen.standard_normal((3, 4)).astype(np.float32))
    config = SamplerConfig(strategy="class_balanced", batch_size=4)
    rng = np.random.default_rng(72)
    trials = 100_000
    hits = 0
    for _ in range(trials):
        batch = store.compose_batch(0, config, rng)
        if any(store.label(i) == 2 for i in batch[1:]):
            hits += 1
    assert hits / trials == pytest.approx(3 / 5, abs=0.01)

    # FWS weight after k inclusions is exactly max(decay**k, floor).
    store = ReplayStore()
    store.insert(0, gen.standard_normal((3, 4)).astype(np.float32))
    config = SamplerConfig(strategy="fws", decay=0.99, weight_floor=0.01)
    for k in range(1, 600):
        store.record_batched([0], config)
        assert store.sample(0).fws_weight == max(0.99 ** k, 0.01)


# ---------------------------------------------------------------------------
# 8. Adaptive weighting beats both single-model baselines


def test_criterion_8_weighting_beats_baselines():
    for seed in range(5):
        ds = generate(SyntheticSpec(num_classes=10, samples_per_class=20,
                                    dim=32, tokens=6, noise=0.25,
                                    separation=0.4, label_alignment=0.7,
                                    seed=seed))
        # Four stages of two classes each; classes 8 and 9 stay unseen, so
        # the evaluation suite mixes trained and never-trained labels.
        suite = EvalSuite("mixed", list(range(len(ds.samples))),
                          set(ds.labels()))
        stages = []
        for g in range(4):
            ids = [i for i, (_, y) in enumerate(ds.samples) if y // 2 == g]
            stages.append(StreamStage(g + 1, ids, [suite]))

        finals = {}
        for weighting in ("ocw", "frozen-only", "tuned-only"):
            config = EngineConfig(weighting=weighting, lr=0.01,
                                  sampler=SamplerConfig(batch_size=16),
                                  seed=seed)
            record = run_stream(ds, stages, config)
            finals[weighting] = record.accuracy(4, "mixed")
        assert finals["ocw"] >= finals["frozen-only"], (seed, finals)
        assert finals["ocw"] >= finals["tuned-only"], (seed, finals)


# ---------------------------------------------------------------------------
# 9. CLI determinism


def test_criterion_9_cli_determinism(tmp_path):
    spec = {"num_classes": 3, "samples_per_class": 4, "dim": 12, "tokens": 4,
            "noise": 0.2, "seed": 9}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    run_config = {"synthetic": spec, "protocol": "data_incremental",
                  "fractions": [50, 100], "lr": 0.01,
                  "sampler": {"batch_size": 4}, "seed": 9}
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(run_config))

    outputs = {}
    for attempt in ("first", "second"):
        base = tmp_path / attempt
        data_path = base / "data.bin"
        base.mkdir()
        assert cli_main(["gen", "--spec", str(spec_path),
                         "--out", str(data_path)]) == 0
        assert cli_main(["run", "--config", str(config_path),
                         "--out", str(base / "run")]) == 0
        assert cli_main(["compress", "--dataset", str(data_path),
                         "--mode", "pca-cls-quant", "--components", "3",
                         "--repetitions", "1", "--out", str(base / "comp")]) == 0
        assert cli_main(["report", "--metrics-dir", str(base / "run"),
                         "--out", str(base / "report")]) == 0
        outputs[attempt] = {
            str(p.relative_to(base)): p.read_bytes()
            for p in sorted(base.rglob("*")) if p.is_file()
            and p.name != "timing.json"  # wall-clock timings are exempt
        }
    assert outputs["first"].keys() == outputs["second"].keys()
    for name in outputs["first"]:
        assert outputs["first"][name] == outputs["second"][name], name
