"""Per-class accuracy tracking and model-vote weighting.

The two models' (B, C) candidate distributions are mixed per label by one
rule, ``alpha = c_t / (c_t + c_o + EPS)`` (:func:`alpha`). Weightings differ only
in the source of the ``(c_t, c_o)`` pairs: the tracker's EMA accuracies
(OCW, updated once per training sample before the parameter update),
leave-one-out nearest-neighbour accuracy (:func:`nn_loo_confidence`), or
none (binary). The zero-shot seen-mass baseline (:func:`aim_alpha`) is one
alpha per sample. A sum across labels is one ``ndarray.sum`` over a row, so a
row's sum does not depend on the batch it sits in.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .core import as_embedding, label_cosines, unit_rows

# Keeps alpha finite for a label whose two accuracies are both 0.
EPS = 1e-8


@dataclass
class LabelStats:
    tuned_acc: float = 0.0
    frozen_acc: float = 0.0
    n_seen: int = 0


@dataclass
class ClassAccuracyTracker:
    """EMA accuracy estimates c_t / c_o per label, with a running-mean cold start."""

    decay: float = 0.99
    stats: dict[int, LabelStats] = field(default_factory=dict)

    def _cold_start_steps(self) -> int:
        return int(math.floor(1.0 / (1.0 - self.decay))) if self.decay < 1.0 else 0

    def accuracies(self, label: int) -> tuple[float, float]:
        s = self.stats.get(label)
        return (s.tuned_acc, s.frozen_acc) if s else (0.0, 0.0)

    def ema_update(self, label: int, tuned_correct: bool, frozen_correct: bool) -> None:
        """Fold one correctness observation into both per-label estimates.

        The first floor(1/(1-decay)) observations of a label use the running
        arithmetic mean; afterwards the standard EMA recursion applies.
        """
        s = self.stats.setdefault(label, LabelStats())
        for attr, correct in (("tuned_acc", tuned_correct), ("frozen_acc", frozen_correct)):
            prev = getattr(s, attr)
            ind = 1.0 if correct else 0.0
            if s.n_seen < self._cold_start_steps():
                value = (prev * s.n_seen + ind) / (s.n_seen + 1)
            else:
                value = self.decay * prev + (1.0 - self.decay) * ind
            setattr(s, attr, value)
        s.n_seen += 1


def alpha(confidence: dict[int, tuple[float, float]], labels,
          all_candidates_seen: bool = False) -> np.ndarray:
    """Tuned-model weight of each of the sorted ``labels``, a (C,) array: 1 when every
    candidate has been trained, 0 without a ``(c_t, c_o)`` pair in ``confidence``, else
    ``c_t / (c_t + c_o + EPS)``."""
    if all_candidates_seen:
        return np.ones(len(labels))
    # A label without a pair scores (0, 1), whose weight is exactly 0.
    c_t, c_o = np.array([confidence.get(y, (0.0, 1.0)) for y in labels], float).reshape(-1, 2).T
    return c_t / (c_t + c_o + EPS)


def combined_prediction(p_tuned: np.ndarray, p_frozen: np.ndarray,
                        confidence: dict[int, tuple[float, float]], labels,
                        all_candidates_seen: bool = False) -> dict:
    """Mix of two (B, C) distributions over the sorted ``labels`` by :func:`alpha`,
    renormalized, as ``{label: (B,) column}`` views of the one (B, C) result."""
    alphas = alpha(confidence, labels, all_candidates_seen)
    return dict(zip(labels, mix_predictions(p_tuned, p_frozen, alphas).T))


def mix_predictions(p_tuned: np.ndarray, p_frozen: np.ndarray, alphas) -> np.ndarray:
    """``a * p_tuned + (1 - a) * p_frozen`` of (B, C) distributions, renormalized per row.

    ``alphas`` is a (C,) per-label, (B, 1) per-sample or (B, C) array. A row
    whose every ``a`` is 0 (or every one is 1) gets its frozen (tuned) row back
    unchanged, so the untouched model's output is kept bit for bit.
    """
    if p_tuned.shape != p_frozen.shape:
        raise ValueError("distributions must cover exactly the candidate set")
    a = np.broadcast_to(alphas, p_tuned.shape)
    frozen = ~a.any(axis=-1)
    tuned = (a == 1.0).all(axis=-1)
    if frozen.all():
        return p_frozen
    if tuned.all():
        return p_tuned
    mixed = a * p_tuned + (1.0 - a) * p_frozen
    # A corner row's mix is its input (0 * p + 1 * q == q), so it is divided by 1.
    total = np.where((frozen | tuned)[..., None], 1.0, mixed.sum(axis=-1, keepdims=True))
    if not total.all():
        raise ZeroDivisionError("mixed distribution has zero mass")
    return mixed / total


def aim_alpha(p_frozen: np.ndarray, labels, seen_set) -> np.ndarray:
    """Zero-shot probability mass on already-trained labels, one alpha per sample:
    (B, 1) for (B, C) distributions over the sorted ``labels``."""
    return np.where([y in seen_set for y in labels], p_frozen, 0.0).sum(axis=-1, keepdims=True)


def nn_loo_confidence(exemplars) -> dict[int, float]:
    """Leave-one-out nearest-neighbor accuracy per class.

    ``exemplars`` is a list of (embedding, label). For each class with at
    least two exemplars: the fraction of its exemplars whose cosine-nearest
    other exemplar (searched over the whole set; the first one on ties)
    carries the same label. Classes with fewer than two exemplars are omitted.
    """
    items = list(exemplars)
    labels = [label for _, label in items]
    counts = Counter(labels)
    queries = [i for i, label in enumerate(labels) if counts[label] >= 2]
    if not queries:
        return {}
    try:  # validated once, on the stack; a bad exemplar raises as_embedding's error
        embs = np.array([e for e, _ in items], np.float32)
    except ValueError:  # ragged
        embs = None
    if embs is None or embs.ndim != 2 or not embs.shape[1] or not np.isfinite(embs).all():
        embs = np.stack([as_embedding(e) for e, _ in items])
    sims, _, _ = label_cosines(embs[queries], unit_rows(embs)[0])
    sims[np.arange(len(queries)), queries] = -np.inf
    hits = Counter(labels[i] for i, j in zip(queries, sims.argmax(axis=1))
                   if labels[j] == labels[i])
    return {label: hits[label] / counts[label]
            for label in sorted(counts) if counts[label] >= 2}
