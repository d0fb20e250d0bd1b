"""Per-class accuracy tracking and model-vote weighting.

The tracker keeps exponential-moving-average accuracy estimates for the
tuned and frozen model per label, updated once per training sample before
the parameter update. The per-label alpha mixes the two models' candidate
distributions; three alternate weightings (zero-shot seen-mass, leave-one-out
nearest-neighbor confidence, and "other"-probability modulation) are kept
for ablations.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

from .core import cosine_similarity, softmax
from .decoder import OTHER_LABEL


@dataclass
class _LabelStats:
    tuned_acc: float = 0.0
    frozen_acc: float = 0.0
    n_seen: int = 0


@dataclass
class ClassAccuracyTracker:
    """EMA accuracy estimates c_t / c_o per label, with a running-mean cold start."""

    decay: float = 0.99
    eps: float = 1e-8
    stats: dict[int, _LabelStats] = field(default_factory=dict)

    def _cold_start_steps(self) -> int:
        return int(math.floor(1.0 / (1.0 - self.decay))) if self.decay < 1.0 else 0

    def seen(self, label: int) -> bool:
        return label in self.stats and self.stats[label].n_seen > 0

    def seen_labels(self) -> set[int]:
        return {label for label, s in self.stats.items() if s.n_seen > 0}

    def accuracies(self, label: int) -> tuple[float, float]:
        s = self.stats.get(label)
        return (s.tuned_acc, s.frozen_acc) if s else (0.0, 0.0)

    def ema_update(self, label: int, tuned_correct: bool, frozen_correct: bool) -> None:
        """Fold one correctness observation into both per-label estimates.

        The first floor(1/(1-decay)) observations of a label use the running
        arithmetic mean; afterwards the standard EMA recursion applies.
        """
        s = self.stats.setdefault(label, _LabelStats())
        for attr, correct in (("tuned_acc", tuned_correct), ("frozen_acc", frozen_correct)):
            prev = getattr(s, attr)
            ind = 1.0 if correct else 0.0
            if s.n_seen < self._cold_start_steps():
                value = (prev * s.n_seen + ind) / (s.n_seen + 1)
            else:
                value = self.decay * prev + (1.0 - self.decay) * ind
            setattr(s, attr, value)
        s.n_seen += 1

    # -- persistence --------------------------------------------------------

    def save_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["label", "tuned_acc", "frozen_acc", "n_seen"])
            for label in sorted(self.stats):
                s = self.stats[label]
                writer.writerow([label, repr(s.tuned_acc), repr(s.frozen_acc), s.n_seen])

    @classmethod
    def load_csv(cls, path, decay: float = 0.99, eps: float = 1e-8) -> "ClassAccuracyTracker":
        tracker = cls(decay=decay, eps=eps)
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                tracker.stats[int(row["label"])] = _LabelStats(
                    float(row["tuned_acc"]), float(row["frozen_acc"]), int(row["n_seen"]))
        return tracker


def alpha(tracker: ClassAccuracyTracker, label: int, seen_set,
          all_candidates_seen: bool = False,
          p_other_value: float | None = None) -> tuple[float, float]:
    """Weight pair (alpha_t, alpha_o) for one label; the two always sum to 1.

    Unseen labels fall back entirely to the frozen model; when every
    candidate is a training label, the tuned model takes over entirely.
    ``p_other_value`` optionally discounts the tuned accuracy by the
    estimated out-of-domain probability.
    """
    if label not in seen_set or not tracker.seen(label):
        return 0.0, 1.0
    if all_candidates_seen:
        return 1.0, 0.0
    c_t, c_o = tracker.accuracies(label)
    if p_other_value is not None:
        c_t = (1.0 - p_other_value) * c_t
    a_t = c_t / (c_t + c_o + tracker.eps)
    return a_t, 1.0 - a_t


def combined_prediction(p_tuned: dict[int, float], p_frozen: dict[int, float],
                        tracker: ClassAccuracyTracker, candidates,
                        all_candidates_seen: bool = False,
                        p_other_value: float | None = None) -> dict[int, float]:
    """Per-label OCW mix of the two distributions, renormalized over the candidates."""
    seen = tracker.seen_labels()
    alphas = {
        label: alpha(tracker, label, seen, all_candidates_seen, p_other_value)[0]
        for label in sorted(candidates)
    }
    return mix_predictions(p_tuned, p_frozen, alphas)


def mix_predictions(p_tuned: dict[int, float], p_frozen: dict[int, float],
                    alphas: dict[int, float]) -> dict[int, float]:
    """``a * p_tuned + (1 - a) * p_frozen`` per label (``alphas[label] = a``), renormalized.

    When every ``a`` is 0 (or every one is 1) the frozen (tuned) input is
    returned unchanged, so the untouched model's output is kept bit for bit.
    """
    labels = sorted(alphas)
    if sorted(p_tuned) != labels or sorted(p_frozen) != labels:
        raise ValueError("distributions must cover exactly the candidate set")
    if all(a == 0.0 for a in alphas.values()):
        return dict(p_frozen)
    if all(a == 1.0 for a in alphas.values()):
        return dict(p_tuned)
    mixed = {
        label: alphas[label] * p_tuned[label] + (1.0 - alphas[label]) * p_frozen[label]
        for label in labels
    }
    total = sum(mixed.values())
    if total <= 0.0:
        return {label: 1.0 / len(labels) for label in labels}
    return {label: value / total for label, value in mixed.items()}


def aim_alpha(p_frozen: dict[int, float], seen_set) -> float:
    """Zero-shot probability mass on already-trained labels, as a global alpha."""
    return float(sum(p for label, p in p_frozen.items() if label in seen_set))


def nn_loo_confidence(exemplars) -> dict[int, float]:
    """Leave-one-out nearest-neighbor accuracy per class.

    ``exemplars`` is a list of (embedding, label). For each class with at
    least two exemplars: the fraction of its exemplars whose cosine-nearest
    other exemplar (searched over the whole set) carries the same label.
    Classes with fewer than two exemplars are omitted.
    """
    items = list(exemplars)
    if len(items) < 2:
        return {}
    counts: dict[int, int] = {}
    hits: dict[int, int] = {}
    for label in (label for _, label in items):
        counts[label] = counts.get(label, 0) + 1
    for i, (emb_i, label_i) in enumerate(items):
        if counts[label_i] < 2:
            continue
        best_j = -1
        best_cos = -2.0
        for j, (emb_j, _) in enumerate(items):
            if j == i:
                continue
            c = cosine_similarity(emb_i, emb_j)
            if c > best_cos:
                best_cos = c
                best_j = j
        if items[best_j][1] == label_i:
            hits[label_i] = hits.get(label_i, 0) + 1
    return {
        label: hits.get(label, 0) / counts[label]
        for label in sorted(counts) if counts[label] >= 2
    }


def p_other(logits: dict[int, float]) -> float:
    """Softmax mass of the none-of-the-above option in an augmented logit map."""
    if OTHER_LABEL not in logits:
        raise ValueError("logit map has no OTHER entry")
    probs = softmax(list(logits.values()))
    return float(probs[list(logits).index(OTHER_LABEL)])
