"""Per-class accuracy tracking and model-vote weighting.

The two models' (B, C) candidate distributions are mixed per label by one
rule, ``alpha = c_t / (c_t + c_o + EPS)`` (:func:`alpha`), over a (C, 2) array of
the candidates' ``(c_t, c_o)`` pairs. Weightings differ only in the source of
those pairs: the tracker's EMA accuracies (OCW, updated once per training sample
before the parameter update), leave-one-out nearest-neighbour accuracy
(:func:`nn_loo_confidence`, kept for the frozen rows by :class:`FrozenNeighbours`),
or none (binary). Per-label arrays are indexed by the label table's rows
(``LabelEmbeddingTable.rows``), and a label without an estimate holds (0, 0). The
zero-shot seen-mass baseline (:func:`aim_alpha`) is one alpha per sample. A sum
across labels is one ``ndarray.sum`` over a row, so a row's sum does not depend on
the batch it sits in.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .core import LabelEmbeddingTable, as_embedding, label_cosines, unit_rows

# Keeps alpha finite for a label whose two accuracies are both 0.
EPS = 1e-8


class ClassAccuracyTracker:
    """EMA accuracy estimates per label of ``table``, with a running-mean cold start:
    ``acc`` is the (L, 2) array of each table row's (c_t, c_o), (0, 0) until its label
    is observed, and ``n_seen`` the (L,) count of its observations."""

    def __init__(self, table: LabelEmbeddingTable, decay: float = 0.99):
        self.table, self.decay = table, decay
        self.acc = np.zeros((len(table), 2))
        self.n_seen = np.zeros(len(table), np.int64)

    def ema_update(self, label: int, tuned_correct: bool, frozen_correct: bool) -> None:
        """Fold one correctness observation into both estimates of ``label``.

        The first floor(1/(1-decay)) observations of a label use the running
        arithmetic mean; afterwards the standard EMA recursion applies. In float64,
        1/(1-0.99) is 99.99999999999991, so at decay 0.99 that is 99 observations.
        """
        cold_start = int(math.floor(1.0 / (1.0 - self.decay))) if self.decay < 1.0 else 0
        row = self.table.row(label)
        n, decay = int(self.n_seen[row]), self.decay
        # Python floats: the IEEE operations numpy's would do, without its call overhead.
        hits = (float(tuned_correct), float(frozen_correct))
        self.acc[row] = [(c * n + hit) / (n + 1) if n < cold_start
                         else decay * c + (1.0 - decay) * hit
                         for c, hit in zip(self.acc[row].tolist(), hits)]
        self.n_seen[row] = n + 1


def alpha(confidence, all_candidates_seen: bool = False) -> np.ndarray:
    """Tuned-model weight of each candidate, a (C,) array from the (C, 2) array of their
    ``(c_t, c_o)`` pairs: 1 when every candidate has been trained, else
    ``c_t / (c_t + c_o + EPS)``, exactly 0 for a (0, 0) pair."""
    c_t, c_o = np.asarray(confidence, float).T
    return np.ones(len(c_t)) if all_candidates_seen else c_t / (c_t + c_o + EPS)


def combined_prediction(p_tuned: np.ndarray, p_frozen: np.ndarray, alphas: np.ndarray,
                        labels) -> dict:
    """Mix of two (B, C) distributions over the sorted ``labels`` by their (C,)
    ``alphas`` (:func:`alpha`), renormalized, as ``{label: (B,) column}`` views of the
    one (B, C) result."""
    return dict(zip(labels, mix_predictions(p_tuned, p_frozen, alphas).T))


def mix_predictions(p_tuned: np.ndarray, p_frozen: np.ndarray, alphas) -> np.ndarray:
    """``a * p_tuned + (1 - a) * p_frozen`` of (B, C) distributions, renormalized per row.

    ``alphas`` is a (C,) per-label, (B, 1) per-sample or (B, C) array. A row
    whose every ``a`` is 0 (or every one is 1) gets its frozen (tuned) row back
    unchanged, so the untouched model's output is kept bit for bit. (C,) alphas are
    one alpha set for every row, so that corner is decided once for all of them.
    """
    a = np.asarray(alphas)
    # np.broadcast_shapes raises ValueError on alphas that do not broadcast at all.
    if p_tuned.shape != p_frozen.shape or np.broadcast_shapes(a.shape, p_tuned.shape) != (
            p_tuned.shape):
        raise ValueError("distributions must cover exactly the candidate set")
    sets = a if a.ndim > 1 else a[None]  # the alpha set of each row, or the one of all
    frozen = ~sets.any(axis=-1)
    tuned = (sets == 1.0).all(axis=-1)
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
    The search is one :class:`FrozenNeighbours` extended by every exemplar.
    """
    items = list(exemplars)
    labels = [label for _, label in items]
    if max(Counter(labels).values(), default=0) < 2:
        return {}
    try:  # validated once, on the stack; a bad exemplar raises as_embedding's error
        embs = np.array([e for e, _ in items], np.float32)
    except ValueError:  # ragged
        embs = None
    if embs is None or embs.ndim != 2 or not embs.shape[1] or not np.isfinite(embs).all():
        embs = np.stack([as_embedding(e) for e, _ in items])
    neighbours = FrozenNeighbours(embs.shape[1])
    neighbours.extend(embs)
    return neighbours.confidence(labels)


class FrozenNeighbours:
    """Each exemplar's cosine-nearest other exemplar, kept as exemplars are appended:
    the one nearest-neighbour search, which :func:`nn_loo_confidence` runs over all its
    exemplars at once.

    Each pair is scored once: ``extend`` scores the new rows against every row, and
    each old row against the new rows only, taking a new neighbour only when it is
    strictly nearer (the first one wins ties). A cosine is one einsum output, the same
    bits in any batch and in either order of its pair, so ``confidence`` after any
    sequence of extends equals it after one extend by every row, bit for bit.
    """

    def __init__(self, dim: int):
        self.units = np.empty((0, dim))         # (N, D) unit rows
        self.nearest = np.empty(0, np.int64)    # (N,) index of each row's neighbour
        self.cosines = np.empty(0)              # (N,) and its cosine, -inf for none

    def __len__(self) -> int:
        return len(self.nearest)

    def extend(self, embeddings) -> None:
        """Append a (K, D) array of exemplar embeddings."""
        embs = np.asarray(embeddings, np.float32)
        n, k = len(self), len(embs)
        if not k:
            return
        self.units = np.concatenate([self.units, unit_rows(embs)[0]])
        sims, _, _ = label_cosines(embs, self.units, stable=True)  # (K, N + K)
        sims[np.arange(k), n + np.arange(k)] = -np.inf
        old = sims[:, :n].T  # the old rows against the new ones
        best = old.argmax(axis=1)
        cos = old[np.arange(n), best]
        nearer = cos > self.cosines
        self.nearest[nearer], self.cosines[nearer] = n + best[nearer], cos[nearer]
        best = sims.argmax(axis=1)
        self.nearest = np.concatenate([self.nearest, best])
        self.cosines = np.concatenate([self.cosines, sims[np.arange(k), best]])

    def confidence(self, labels) -> dict[int, float]:
        """:func:`nn_loo_confidence` of the exemplars with these ``labels``, in order."""
        labels = np.asarray(labels)
        counts = Counter(labels.tolist())
        hits = Counter(labels[labels[self.nearest] == labels].tolist())
        return {label: hits[label] / counts[label]
                for label in sorted(counts) if counts[label] >= 2}
