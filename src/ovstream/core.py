"""Core numeric types and the frozen open-vocabulary scorer.

Labels are integer ids. Embeddings and token matrices are numpy arrays:
an embedding is a 1-D float vector, a token matrix is T x D with the CLS
token in row 0 and patch tokens below it. B samples are scored as (B, C)
probability arrays, one column per candidate in sorted label order.

Inputs are stored as float32; all scoring arithmetic runs in float64. The
label table is one (L, D) float64 matrix of float32-valued unit rows and one
label -> row map; a label's embedding is its row cast to float32.
Every cosine in the package comes from one kernel, ``label_cosines``:
embeddings scaled to unit rows by ``unit_rows`` against unit label rows.
The scorers and the loss use it with the label table, and
``weighting.FrozenNeighbours`` with the unit exemplars themselves. A row
scores the same bits in any batch, and equal label rows get equal cosines.
"""

from __future__ import annotations

import numpy as np

# Softmax temperature applied to cosine logits by both the frozen and the
# tuned scorer (they share one label table, so one temperature).
TEMPERATURE = 100.0


class FormatError(Exception):
    """Raised when an on-disk artifact is malformed or truncated."""


class NumericError(FloatingPointError, ValueError):
    """Non-finite numbers met at run time, e.g. a diverged decoder's output (exit 3)."""


def as_embedding(values) -> np.ndarray:
    """Validate and return a 1-D float32 embedding."""
    v = np.asarray(values, dtype=np.float32)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"embedding must be a non-empty 1-D vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("embedding contains non-finite entries")
    return v


def as_token_matrix(values) -> np.ndarray:
    """Validate and return a T x D float32 token matrix (T >= 2)."""
    m = np.asarray(values, dtype=np.float32)
    if m.ndim != 2 or m.shape[0] < 2:
        raise ValueError(f"token matrix must be 2-D with T >= 2, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("token matrix contains non-finite entries")
    return m


class LabelEmbeddingTable:
    """Immutable map from label id to a unit-norm embedding.

    The table is one (L, D) float64 matrix of float32-valued unit rows, in entry
    order, and one label -> row map, both built once. A vector within 1e-6 of unit
    norm passes through untouched, so a reloaded table is bit-identical to what was
    saved; every other vector is scaled to unit norm, then rounded to float32.
    """

    def __init__(self, entries: dict[int, np.ndarray] | None = None):
        self._rows: dict[int, int] = {}
        vectors = []
        for label, emb in (entries or {}).items():
            label = int(label)
            if label in self._rows:
                raise ValueError(f"duplicate label id {label}")
            try:
                v = as_embedding(emb)
            except ValueError as exc:
                raise ValueError(f"label {label}: {exc}") from None
            if vectors and v.size != vectors[0].size:
                raise ValueError(f"label {label}: dimension {v.size} != table dimension "
                                 f"{vectors[0].size}")
            self._rows[label] = len(vectors)
            vectors.append(v)
        m = np.array(vectors, np.float64) if vectors else np.zeros((0, 0))
        if (zero := np.flatnonzero(~m.any(axis=1))).size:
            raise ValueError(f"label {list(self._rows)[zero[0]]}: zero-norm embedding")
        unit, norms = unit_rows(m)
        self._matrix = np.where(abs(norms - 1.0) < 1e-6, m, unit).astype(np.float32).astype(
            np.float64)

    @property
    def dim(self) -> int:
        if not self._rows:
            raise ValueError("empty label table has no dimension")
        return self._matrix.shape[1]

    def labels(self) -> list[int]:
        return sorted(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, label: int) -> bool:
        return label in self._rows

    def embedding(self, label: int) -> np.ndarray:
        """The label's unit embedding, float32 (its row holds float32 values exactly)."""
        return self._matrix[self.row(label)].astype(np.float32)

    def row(self, label: int) -> int:
        """The table row of one label."""
        try:
            return self._rows[label]
        except KeyError:
            raise KeyError(f"unknown label id {label}") from None

    def rows(self, labels) -> np.ndarray:
        """The table row of each of the given labels, in order, as an int array; every
        per-label array (the tracker's, the nn-loo confidences) is indexed by it."""
        return np.array([self.row(y) for y in labels], np.int64)

    def matrix(self, candidates) -> np.ndarray:
        """Stacked unit embeddings for the given labels, one per row, float64."""
        labels = list(candidates)
        if not labels:
            raise ValueError("empty candidate set")
        return self._matrix[self.rows(labels)]


class CandidateSet:
    """One candidate label set of a label table, as every scorer reads it: the sorted
    ``labels``, their (C, D) float64 unit rows ``matrix`` (``table.matrix``, worked out
    once here) and each label's ``column`` in both. Iterates, sizes and tests membership
    as its labels do, so it stands wherever a candidate collection does."""

    def __init__(self, table: LabelEmbeddingTable, candidates):
        self.table = table
        self.labels = sorted(candidates)
        self.matrix = table.matrix(self.labels)
        self.column = {label: j for j, label in enumerate(self.labels)}

    @classmethod
    def of(cls, table: LabelEmbeddingTable, candidates) -> "CandidateSet":
        """``candidates`` as a candidate set of ``table``: itself when it is one already."""
        if isinstance(candidates, cls) and candidates.table is table:
            return candidates
        return cls(table, candidates)

    def __iter__(self):
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label) -> bool:
        return label in self.column


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis, in float64."""
    z = np.asarray(logits, dtype=np.float64)
    e = z - z.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def unit_rows(embeddings):
    """A D vector or B x D matrix scaled to unit rows, in float64, plus the norms.

    Norms are per-row dot products, so a single vector's norm equals
    np.linalg.norm's. Raises ``ValueError`` on a zero-norm row.
    """
    e = np.asarray(embeddings, dtype=np.float64)
    norms = np.sqrt(e[..., None, :] @ e[..., :, None])[..., 0]
    if (norms == 0.0).any():
        raise ValueError("zero-norm embedding")
    return e / norms, norms


def label_cosines(embeddings, label_matrix: np.ndarray):
    """Cosines of a D vector or B x D matrix against C x D unit rows, in [-1, 1].

    The one cosine kernel: frozen and tuned scorers, loss, nn-loo confidence.
    Returns the (C,) or (B, C) cosines, the unit embeddings and their norms.
    einsum's own loop, unlike BLAS, sums each row in one order in any batch.
    """
    e = np.asarray(embeddings, dtype=np.float64)
    if e.shape[-1] != label_matrix.shape[1]:
        raise ValueError(f"dimension mismatch: {e.shape[-1]} vs table {label_matrix.shape[1]}")
    unit, norms = unit_rows(e)
    cos = np.einsum("...d,cd->...c", unit, label_matrix)
    # np.clip's values, in place, without its Python-level argument handling.
    return np.minimum(np.maximum(cos, -1.0, out=cos), 1.0, out=cos), unit, norms


def candidate_probabilities(embeddings, label_matrix: np.ndarray):
    """Softmax over temperature-scaled cosines with the rows of ``label_matrix``: a (C,)
    array for a D vector, (B, C) for a B x D matrix."""
    e = np.asarray(embeddings, dtype=np.float32)
    if e.ndim != 2:
        e = as_embedding(e)
    elif not np.isfinite(e).all():
        raise NumericError("embeddings contain non-finite entries")
    cos, _, _ = label_cosines(e, label_matrix)
    cos *= TEMPERATURE
    return softmax(cos)


def zero_shot_probabilities(e_x, table: LabelEmbeddingTable, candidates):
    """Softmax over temperature-scaled cosine similarities for each candidate:
    ``{label: float}`` for a D vector, the (B, C) array over the sorted candidates for
    a B x D matrix."""
    candidates = CandidateSet.of(table, candidates)
    probs = candidate_probabilities(e_x, candidates.matrix)
    return dict(zip(candidates.labels, probs.tolist())) if probs.ndim == 1 else probs


def argmax_label(dist: dict[int, float]) -> int:
    """Label with the highest probability; ties go to the lowest label id."""
    if not dist:
        raise ValueError("empty distribution")
    return min(dist, key=lambda label: (-dist[label], label))
