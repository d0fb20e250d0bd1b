"""Workloads, the closed-loop stream runner and its output checks.

One caller feeds ``Engine.process`` the next training sample only after the
previous call returns, and calls ``Engine.evaluate_suite`` at every stage
boundary (and once before any training). The paper fixes no arrival rate,
so the benchmark reports work done per second at the stated sizes.

An episode is one set-up (data generation, train/held-out split, stream
and suite construction, ``Engine`` construction) followed by one full
stream. A run repeats episodes on the same seed-derived inputs until its
time is spent and reports medians over them.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from ovstream import compression, data
from ovstream.core import argmax_label
from ovstream.protocols import Engine, EngineConfig, EvalSuite, StreamStage
from ovstream.replay import SamplerConfig

import spans

# Sums of predicted distributions must be 1 within this.
SUM_TOLERANCE = 1e-9
# nn-loo renormalises the mixed distribution even when every alpha is 0, so
# its frozen fallback can differ from the frozen scorer in the last bits.
# Such predictions are counted; a larger difference fails the check.
FALLBACK_ROUNDING = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    num_classes: int
    trained_classes: int
    train_per_class: int
    heldout_per_class: int
    stages: int
    protocol: str  # "data_incremental" | "class_incremental"
    decoder: str
    compression: str
    sampler: str
    weighting: str


WORKLOADS = {w.name: w for w in (
    Workload("train-linear-raw", num_classes=50, trained_classes=50,
             train_per_class=12, heldout_per_class=5, stages=5,
             protocol="data_incremental", decoder="linear", compression="none",
             sampler="class_balanced", weighting="ocw"),
    Workload("train-block-pcaq-fws", num_classes=30, trained_classes=30,
             train_per_class=7, heldout_per_class=5, stages=5,
             protocol="class_incremental", decoder="block",
             compression="pca-cls-quant", sampler="fws", weighting="ocw"),
    Workload("eval-openvocab-nnloo", num_classes=100, trained_classes=40,
             train_per_class=4, heldout_per_class=4, stages=5,
             protocol="data_incremental", decoder="linear", compression="none",
             sampler="class_balanced", weighting="nn-loo"),
)}


def expected_spans(w: Workload) -> set[str]:
    """Spans this workload's traffic must fire; a silent one is a missed binding."""
    names = {name for name, *_ in spans.TARGETS}
    names -= {"compression.compress", "compression.reconstruct",
              "weighting.combined_prediction", "weighting.nn_loo_confidence"}
    if w.compression != "none":
        names |= {"compression.compress", "compression.reconstruct"}
    names.add("weighting.nn_loo_confidence" if w.weighting == "nn-loo"
              else "weighting.combined_prediction")
    return names


# ---------------------------------------------------------------------------
# Set-up


@dataclass
class Setup:
    dataset: object
    stages: list  # of StreamStage; suites evaluated after the stage
    initial_suites: list  # evaluated before any training
    config: EngineConfig


def _suites(w: Workload, dataset, heldout: list[int], trained: set[int]) -> list[EvalSuite]:
    """The all-label suite plus, while any exist, the never-trained-label suite."""
    labels = set(range(w.num_classes))
    suites = [EvalSuite("all", heldout, labels)]
    unseen = labels - trained
    if trained and unseen:
        ids = [i for i in heldout if dataset.samples[i][1] in unseen]
        suites.append(EvalSuite("unseen", ids, unseen))
    return suites


def build(w: Workload, seed: int) -> Setup:
    """Generate the data, split it and build the stream; all from ``seed``."""
    # Called through the module so that a traced run sees it.
    dataset = data.generate(data.SyntheticSpec(
        num_classes=w.num_classes,
        samples_per_class=w.train_per_class + w.heldout_per_class,
        dim=64, tokens=10, noise=0.25, separation=0.3, seed=seed,
        label_alignment=0.8))
    rng = np.random.default_rng([seed, 0xBE4C])
    trained_classes = sorted(int(c) for c in
                             rng.permutation(w.num_classes)[:w.trained_classes])
    by_class: dict[int, list[int]] = {}
    for i, (_, label) in enumerate(dataset.samples):
        by_class.setdefault(label, []).append(i)
    heldout, train = [], {}
    for label in range(w.num_classes):
        ids = [int(i) for i in rng.permutation(by_class[label])]
        heldout += ids[:w.heldout_per_class]
        if label in trained_classes:
            train[label] = ids[w.heldout_per_class:]

    if w.protocol == "data_incremental":
        pool = [i for label in trained_classes for i in train[label]]
        chunks = np.array_split(rng.permutation(pool), w.stages)
    elif w.protocol == "class_incremental":
        groups = np.array_split(rng.permutation(trained_classes), w.stages)
        chunks = [rng.permutation([i for label in g for i in train[int(label)]])
                  for g in groups]
    else:
        raise ValueError(f"unknown protocol {w.protocol!r}")

    stages, seen = [], set()
    for k, chunk in enumerate(chunks, start=1):
        ids = [int(i) for i in chunk]
        seen |= {dataset.samples[i][1] for i in ids}
        stages.append(StreamStage(k, ids, _suites(w, dataset, heldout, seen)))
    config = EngineConfig(decoder_variant=w.decoder, weighting=w.weighting,
                          compression=w.compression,
                          sampler=SamplerConfig(strategy=w.sampler), seed=seed)
    return Setup(dataset, stages, _suites(w, dataset, heldout, set()), config)


# ---------------------------------------------------------------------------
# One episode


@dataclass
class Episode:
    setup_s: float = 0.0
    stream_s: float = 0.0
    eval_s: float = 0.0
    step_ms: list = field(default_factory=list)
    predictions: int = 0
    attempted: int = 0
    failed: int = 0
    final_acc: float = float("nan")
    store_size: int = 0
    stored_bytes: int = 0
    fallback_inexact: int = 0
    problems: list = field(default_factory=list)


def _check_suite(engine: Engine, suite: EvalSuite, accuracy: float, predictions: dict,
                 never_trained: bool, episode: Episode) -> int:
    """Failed predictions in one evaluated suite.

    Every distribution covers exactly the suite's candidates, is finite and
    sums to 1; the accuracy matches the argmax of the returned distributions.
    On never-trained candidates the prediction is the frozen scorer's.
    """
    failed = 0
    hits = 0
    candidates = sorted(suite.candidates)
    if sorted(predictions) != sorted(suite.sample_ids):
        episode.problems.append(f"suite {suite.name}: predictions do not match samples")
        return len(suite.sample_ids)
    for idx, dist in predictions.items():
        label = engine.dataset.samples[idx][1]
        values = list(dist.values())
        ok = (sorted(dist) == candidates
              and all(math.isfinite(v) for v in values)
              and abs(math.fsum(values) - 1.0) <= SUM_TOLERANCE)
        if ok and never_trained:
            frozen = engine.frozen_probabilities(engine.dataset.tokens(idx), suite.candidates)
            if dist != frozen:
                worst = max(abs(dist[y] - frozen[y]) for y in candidates)
                inexact_allowed = engine.config.weighting == "nn-loo"
                if inexact_allowed and worst <= FALLBACK_ROUNDING:
                    episode.fallback_inexact += 1
                else:
                    ok = False
        if not ok:
            failed += 1
            if len(episode.problems) < 5:
                episode.problems.append(f"suite {suite.name}: bad prediction for sample {idx}")
        elif argmax_label(dist) == label:
            hits += 1
    if not failed and hits != round(accuracy * len(suite.sample_ids)):
        episode.problems.append(f"suite {suite.name}: accuracy {accuracy} != argmax hits {hits}")
        failed = len(suite.sample_ids)
    return failed


def _evaluate(engine: Engine, suites, trained: set[int], episode: Episode) -> float:
    """Evaluate and check each suite; returns the all-label suite's accuracy."""
    accuracy_all = float("nan")
    for suite in suites:
        episode.attempted += len(suite.sample_ids)
        start = time.perf_counter()
        try:
            accuracy, predictions = engine.evaluate_suite(suite)
        except Exception as exc:  # a failed operation is counted, not fatal
            episode.stream_s += time.perf_counter() - start
            episode.failed += len(suite.sample_ids)
            episode.problems.append(f"suite {suite.name}: {exc!r}")
            continue
        elapsed = time.perf_counter() - start
        episode.stream_s += elapsed
        episode.eval_s += elapsed
        episode.predictions += len(suite.sample_ids)
        never_trained = not (suite.candidates & trained)
        with spans.paused():  # the checks are not the program's traffic
            episode.failed += _check_suite(engine, suite, accuracy, predictions,
                                           never_trained, episode)
        if suite.name == "all":
            accuracy_all = accuracy
    return accuracy_all


def run_episode(w: Workload, seed: int) -> Episode:
    episode = Episode()
    start = time.perf_counter()
    setup = build(w, seed)
    engine = Engine(setup.dataset, setup.config)
    episode.setup_s = time.perf_counter() - start

    trained: set[int] = set()
    _evaluate(engine, setup.initial_suites, trained, episode)
    for stage in setup.stages:
        steps_failed = 0
        for idx in stage.sample_ids:
            t0 = time.perf_counter()
            try:
                engine.process(idx)
            except Exception as exc:  # a failed operation is counted, not fatal
                steps_failed += 1
                episode.problems.append(f"process({idx}): {exc!r}")
            dt = time.perf_counter() - t0
            episode.stream_s += dt
            episode.step_ms.append(dt * 1e3)
            trained.add(setup.dataset.samples[idx][1])
        try:
            engine.params.validate()
        except ValueError as exc:
            steps_failed = len(stage.sample_ids)
            episode.problems.append(f"stage {stage.index}: {exc}")
        episode.attempted += len(stage.sample_ids)
        episode.failed += steps_failed
        episode.final_acc = _evaluate(engine, stage.suites, trained, episode)

    episode.store_size = len(engine.store)
    episode.stored_bytes = sum(compression.storage_bytes(engine.store.sample(i).payload)
                               for i in range(len(engine.store)))
    return episode


# ---------------------------------------------------------------------------
# A run


def end_to_end(episodes: list[Episode]) -> dict[str, float]:
    steps = [ms for e in episodes for ms in e.step_ms]
    train_s = sum(e.stream_s - e.eval_s for e in episodes)
    attempted = sum(e.attempted for e in episodes)
    return {
        "setup_s": statistics.median([e.setup_s for e in episodes]),
        "stream_s": statistics.median([e.stream_s for e in episodes]),
        "train_samples_per_s": len(steps) / train_s,
        "train_step_ms_p50": float(np.percentile(steps, 50)),
        "train_step_ms_p90": float(np.percentile(steps, 90)),
        "eval_preds_per_s": sum(e.predictions for e in episodes) / sum(e.eval_s for e in episodes),
        "stored_bytes_per_sample": episodes[-1].stored_bytes / episodes[-1].store_size,
        "final_acc": episodes[-1].final_acc,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_success_rate": (attempted - sum(e.failed for e in episodes)) / attempted,
    }


def per_layer(traced: list[tuple[Episode, spans.SpanRecorder]],
              untraced: list[Episode]) -> dict[str, float]:
    """Per-episode layer metrics, as medians over the traced episodes."""
    per_episode = []
    for episode, recorder in traced:
        m: dict[str, float] = {}
        for name, *_ in spans.TARGETS:
            m[f"{name}.calls"] = 0
            m[f"{name}.ms"] = 0.0
        layer_ns = dict.fromkeys(spans.LAYERS, 0)
        for (name, *_), self_ns in zip(recorder.spans, recorder.self_ns()):
            m[f"{name}.calls"] += 1
            m[f"{name}.ms"] += self_ns / 1e6
            if name != "data.generate":
                layer_ns[name.split(".")[0]] += self_ns
        for layer, ns in layer_ns.items():
            m[f"{layer}.self_pct"] = 100.0 * ns / 1e9 / episode.stream_s
        counts = recorder.counts
        m["core.label_matrix.rows"] = counts["core.label_matrix.rows"]
        m["weighting.nn_loo_confidence.pairs"] = counts["weighting.nn_loo_confidence.pairs"]
        m["replay.store_size"] = episode.store_size
        m["replay.batch_unique_ratio"] = (counts["replay.batch_unique_ids"]
                                          / counts["replay.batch_ids"])
        m["compression.stored_bytes"] = episode.stored_bytes
        m["weighting.fallback_inexact"] = episode.fallback_inexact
        per_episode.append(m)
    metrics = {k: statistics.median([m[k] for m in per_episode]) for k in per_episode[0]}
    traced_s = statistics.median([e.stream_s for e, _ in traced])
    untraced_s = statistics.median([e.stream_s for e in untraced])
    metrics["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    return metrics


@dataclass
class RunResult:
    episodes: list
    traced: list  # of (Episode, SpanRecorder)
    metrics: dict

    @property
    def all_episodes(self) -> list:
        return self.episodes + [e for e, _ in self.traced]

    @property
    def attempted(self) -> int:
        return sum(e.attempted for e in self.all_episodes)

    @property
    def failed(self) -> int:
        return sum(e.failed for e in self.all_episodes)

    @property
    def problems(self) -> list:
        return [p for e in self.all_episodes for p in e.problems]


def run(w: Workload, seed: int, seconds: float, trace: bool) -> RunResult:
    """Repeat episodes until the next one would overrun ``seconds``.

    With ``trace``, episodes alternate between untraced and traced, and at
    least one of each runs; the end-to-end metrics come from untraced ones.
    """
    episodes: list[Episode] = []
    traced: list[tuple[Episode, spans.SpanRecorder]] = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        if trace and len(episodes) > len(traced):
            recorder = spans.SpanRecorder()
            with spans.instrument(recorder):
                traced.append((run_episode(w, seed), recorder))
        else:
            episodes.append(run_episode(w, seed))
        longest = max(longest, time.perf_counter() - t0)
        if (time.perf_counter() - start + longest > seconds
                and (not trace or traced)):
            break

    if trace:
        fired = {name for _, recorder in traced for name, *_ in recorder.spans}
        missing = expected_spans(w) - fired
        if missing:
            raise RuntimeError(f"traced wrappers never fired: {sorted(missing)}")
        metrics = per_layer(traced, episodes)
    else:
        metrics = end_to_end(episodes)
    return RunResult(episodes, traced, metrics)
