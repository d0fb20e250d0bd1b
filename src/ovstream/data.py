"""Synthetic labeled embedding datasets and the dataset file format.

Generation uses numpy's PCG64 with one SeedSequence-spawned stream per
purpose (class centers, label embeddings, sample noise, shuffling), so
datasets are bit-reproducible per seed across platforms.

Each sample is a T x D token matrix whose CLS row sits near its class
center; the patch rows are the CLS plus a low-rank perturbation, so the
matrix compresses well under per-instance PCA. A dataset, in memory and on
disk, holds raw token matrices only: compression is a storage mode of the
engine's replay store, not of the data it reads. In memory it is one
(N, T, D) float32 array of token rows and one (N,) array of labels, given to
its one constructor by ``generate`` and ``load`` alike.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import FormatError, LabelEmbeddingTable, unit_rows
from . import compression


@dataclass
class SyntheticSpec:
    num_classes: int = 10
    samples_per_class: int = 100
    dim: int = 64
    tokens: int = 10
    noise: float = 0.1          # intra-class CLS noise sigma
    separation: float = 0.5     # pairwise center cosine must stay <= 1 - separation
    seed: int = 0
    # How closely label embeddings track the class centers. 1.0 means the
    # embeddings are exactly the centers (a perfect zero-shot scorer at
    # noise 0); lower values blend in a fixed random direction per class,
    # leaving headroom for the tuned decoder to learn the true mapping.
    label_alignment: float = 1.0

    def validate(self) -> None:
        if self.num_classes < 1 or self.samples_per_class < 1:
            raise ValueError("num_classes and samples_per_class must be >= 1")
        if self.dim < 1 or self.tokens < 2:
            raise ValueError("dim must be >= 1 and tokens >= 2")
        if self.noise < 0:
            raise ValueError("noise must be non-negative")
        if not 0.0 < self.separation <= 2.0:
            raise ValueError("separation must be in (0, 2]")
        if not 0.0 <= self.label_alignment <= 1.0:
            raise ValueError("label_alignment must be in [0, 1]")


@dataclass
class Dataset:
    """Labeled raw token matrices of one ``shape`` (T, D), D the label table's dim (None
    if empty): ``token_rows``, one (N, T, D) float32 array, and ``label_ids``, the (N,)
    int64 array of their labels. Construction rejects rows of another dtype or width, a
    label outside the table, non-finite rows, which no file can store, and a CLS row of
    zero norm, which no scorer can score, naming the first bad sample."""

    label_table: LabelEmbeddingTable
    token_rows: np.ndarray
    label_ids: np.ndarray
    task_map: dict[int, list[int]] = field(default_factory=dict)  # task -> sample ids

    def __post_init__(self) -> None:
        rows, labels = self.token_rows, np.asarray(self.label_ids)
        if labels.ndim != 1 or labels.size and labels.dtype.kind not in "iu":
            raise ValueError(f"label ids must be one 1-D integer array, not {labels.dtype} "
                             f"{labels.shape}")
        self.label_ids = labels.astype(np.int64)
        if (not isinstance(rows, np.ndarray) or rows.dtype != np.float32 or rows.ndim != 3
                or len(rows) != len(labels)):
            raise ValueError(f"token rows of {getattr(rows, 'dtype', type(rows).__name__)} "
                             f"{getattr(rows, 'shape', '')} are not {len(labels)} float32 "
                             "(T, D) samples")
        if (bad := np.flatnonzero(~np.isin(labels, self.label_table.labels()))).size:
            raise ValueError(f"sample {bad[0]}: label {labels[bad[0]]} is not in the label "
                             "table")
        if len(labels) and (rows.shape[1] < 2 or rows.shape[2] != self.label_table.dim):
            raise ValueError(f"token shape {rows.shape[1:]} is not (T >= 2, "
                             f"{self.label_table.dim})")
        # A float64 sum of float32 entries is finite exactly when they all are, and
        # it holds one value per sample where np.isfinite(rows) would hold a bool each.
        if (bad := np.flatnonzero(~np.isfinite(rows.sum(axis=(1, 2), dtype=np.float64)))).size:
            raise ValueError(f"sample {bad[0]}: token matrix contains non-finite entries")
        if (zero := np.flatnonzero(~rows[:, :1].any(axis=(1, 2)))).size:
            raise ValueError(f"sample {zero[0]}: CLS row has zero norm")

    @property
    def shape(self) -> tuple[int, int] | None:
        return self.token_rows.shape[1:] if len(self) else None

    @cached_property
    def samples(self) -> list:
        """(token matrix, label id) of each sample, views of the arrays, built on first
        read."""
        return list(zip(self.token_rows, self.label_ids.tolist()))

    def __len__(self) -> int:
        return len(self.label_ids)

    def labels(self) -> list[int]:
        return self.label_table.labels()

    def tokens(self, ids) -> np.ndarray:
        """The (T, D) token matrix of sample ``ids``, an int, or the (B, T, D) array of a
        sequence of ids, in order."""
        return self.token_rows[ids]

    def check_task_map(self) -> None:
        """Raise ``ValueError`` unless ``task_map`` partitions sample ids: each id in [0, N)
        and named once, by one task. ``save`` and the task-incremental stream check it."""
        named = set()
        for task in sorted(self.task_map):
            for i in self.task_map[task]:
                if not 0 <= i < len(self) or i in named:
                    why = "named before" if i in named else f"of {len(self)}"
                    raise ValueError(f"task {task} names sample {i} {why}")
                named.add(i)


# ``generate`` draws at most this many bytes of float64 noise per call, in whole
# samples and at least one.
GENERATE_CHUNK_BYTES = 1 << 18


def _draw_centers(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    bound = 1.0 - spec.separation
    for _ in range(1000):
        centers = rng.standard_normal((spec.num_classes, spec.dim))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        gram = centers @ centers.T
        np.fill_diagonal(gram, -1.0)
        if gram.max() <= bound:
            return centers
    raise ValueError(
        f"cannot place {spec.num_classes} centers in {spec.dim} dims with "
        f"pairwise cosine <= {bound}")


def generate(spec: SyntheticSpec) -> Dataset:
    """Draw a dataset with well-separated class centers and low-rank tokens."""
    spec.validate()
    ss = np.random.SeedSequence(spec.seed)
    rng_centers, rng_labels, rng_noise, _rng_shuffle = (
        np.random.default_rng(child) for child in ss.spawn(4))

    centers = _draw_centers(spec, rng_centers)

    emb = centers
    if spec.label_alignment < 1.0:  # one drift draw per class, in class order
        drift = unit_rows(rng_labels.standard_normal((spec.num_classes, spec.dim)))[0]
        emb = unit_rows(spec.label_alignment * centers
                        + (1.0 - spec.label_alignment) * drift)[0]
    table = LabelEmbeddingTable(dict(enumerate(emb.astype(np.float32))))

    labels = np.repeat(np.arange(spec.num_classes), spec.samples_per_class)
    n, t, d, r = len(labels), spec.tokens, spec.dim, min(3, spec.dim)
    rows = np.empty((n, t, d), np.float32)
    # A sample's draws, in order: CLS noise, patch basis, coefficients, patch noise.
    # One standard_normal call per chunk fills them as one call per sample would.
    widths = (d, r * d, (t - 1) * r, (t - 1) * d)
    step = max(1, GENERATE_CHUNK_BYTES // (8 * sum(widths)))
    for start in range(0, n, step):
        draws = rng_noise.standard_normal((min(step, n - start), sum(widths)))
        v, basis, coeffs, noise = np.split(draws, np.cumsum(widths[:-1]), axis=1)
        v = centers[labels[start:start + len(v)]] + spec.noise * v
        cls = unit_rows(v)[0]  # norms by np.linalg.norm's ddot, row by row
        basis = basis.reshape(-1, r, d)
        basis /= np.linalg.norm(basis, axis=-1, keepdims=True)
        patches = cls[:, None] + (0.05 * coeffs.reshape(-1, t - 1, r)) @ basis
        patches += 1e-3 * noise.reshape(patches.shape)
        out = rows[start:start + len(v)]
        out[:, 0], out[:, 1:] = cls, patches  # rounded to float32 on assignment
    return Dataset(table, rows, labels)


# ---------------------------------------------------------------------------
# Dataset file: magic "OVDS", u32 version, u32 D, u32 T, u32 label count,
# u32 sample count, u32 task count; label block (u32 id + D float32 each);
# task block (u32 task id, u32 size, u32 sample indices; no task id or sample index
# twice in the block, as the task map partitions the samples); sample records
# (u32 label id + payload record per ovstream.compression), each a raw record of
# token shape (T, D), with a label of the label block and a nonzero CLS row; ``load``
# rejects a compressed record. Little-endian.

_MAGIC = b"OVDS"
_VERSION = 1


def save(dataset: Dataset, path) -> None:
    dataset.check_task_map()
    labels = dataset.label_table.labels()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIIIII", _VERSION, dataset.label_table.dim,
                             (dataset.shape or (0,))[0], len(labels),
                             len(dataset), len(dataset.task_map)))
        for label in labels:
            fh.write(struct.pack("<I", label))
            fh.write(np.ascontiguousarray(
                dataset.label_table.embedding(label), dtype="<f4").tobytes())
        for task in sorted(dataset.task_map):
            ids = dataset.task_map[task]
            fh.write(struct.pack(f"<II{len(ids)}I", task, len(ids), *ids))
        for tokens, label in zip(dataset.token_rows, dataset.label_ids.tolist()):
            fh.write(struct.pack("<I", label))
            fh.write(compression.payload_to_bytes(tokens))


def _mismatch(payload, label: int, labels, shape: tuple) -> str:
    """Why a record does not fit a dataset of ``labels`` and token ``shape``, or ''."""
    if isinstance(payload, compression.CompressedFeature):
        return "a compressed record; a dataset holds raw token matrices"
    if label not in labels:
        return f"label {label} is not in the label table"
    if tuple(payload.shape) != shape:
        return f"token shape {tuple(payload.shape)} != the dataset's {shape}"
    if not payload[0].any():
        return "CLS row has zero norm"
    return ""


def load(path) -> Dataset:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _MAGIC:
        raise FormatError("bad dataset magic at offset 0")
    off = 4
    try:
        version, dim, tokens, n_labels, n_samples, n_tasks = struct.unpack_from(
            "<IIIIII", data, 4)
        if version != _VERSION:
            raise FormatError(f"unsupported dataset version {version}")
        off = 28
        entries = {}
        for _ in range(n_labels):
            (label,) = struct.unpack_from("<I", data, off)
            if label in entries:
                raise FormatError(f"duplicate label id {label} at offset {off}")
            off += 4
            emb = np.frombuffer(data, dtype="<f4", count=dim, offset=off)
            off += 4 * dim
            entries[label] = emb.copy()
        task_map, named = {}, set()
        for _ in range(n_tasks):
            task, size = struct.unpack_from("<II", data, off)
            if task in task_map:
                raise FormatError(f"task {task} listed twice, at offset {off}")
            off += 8
            ids = struct.unpack_from(f"<{size}I", data, off)
            for i in ids:
                if i >= n_samples or i in named:
                    why = "named before" if i in named else f"of {n_samples}"
                    raise FormatError(f"task {task} names sample {i} {why} at offset {off}")
                named.add(i)
                off += 4
            task_map[task] = list(ids)
        # Grown record by record, so the header's counts size nothing. A row is a validated
        # read-only view of ``data``: the file's bytes and the token rows are the only
        # copies held, and np.array makes no per-row temporaries as np.stack does.
        rows, labels = [], []
        for i in range(n_samples):
            (label,) = struct.unpack_from("<I", data, off)
            payload, end = compression.payload_from_bytes(data, off + 4)
            if problem := _mismatch(payload, label, entries, (tokens, dim)):
                raise FormatError(f"bad dataset record {i} at offset {off}: {problem}")
            rows.append(payload)
            labels.append(label)
            off = end
        return Dataset(LabelEmbeddingTable(entries),
                       np.array(rows, np.float32) if rows
                       else np.empty((0, tokens, dim), np.float32),
                       np.array(labels, np.int64), task_map)
    except (struct.error, ValueError) as exc:
        raise FormatError(f"bad dataset file at offset {off}: {exc}") from exc
