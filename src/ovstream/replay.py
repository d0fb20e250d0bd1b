"""Replay store: holds training samples and composes batches for online updates.

Payloads are whatever :func:`ovstream.compression.encode` stored (raw token
matrices or compressed records), kept columnar: the arrays
:func:`ovstream.compression.split` gives are stacked on a leading sample axis,
and a sample's id is its row. ``split`` is the one definition of a storable
record: float32 blocks and envelopes, uint8 codes at 8 bits or uint16 at 16,
one envelope per row or one for the matrix, in the shapes its ``n`` and token
shape give; anything else raises. Labels, batch counts and FWS weights stay in
Python lists, with one id list per class and the stored labels kept sorted.
The first insert fixes the token shape (T, D) and the payload layout key (raw,
or the record's component count and block kinds), as an engine's storage mode
does; an insert of another shape or layout raises.
``tokens(ids)`` gathers the rows with one index array and reads them back
with one :func:`ovstream.compression.to_tokens` (one ``reconstruct``), so a
training step decodes its batch at once. Decoded matrices are never cached.

Four sampling strategies are supported: FIFO, Uniform, ClassBalanced, and
frequency-weighted sampling (FWS), whose per-sample weight decays by a multiplier
per batch the sample lands in: ``SamplerConfig.fws_weight`` of its batch count,
computed per update with no table sized by a count. A ClassBalanced batch makes
two Generator calls with the same draws as one ``rng.choice`` per chosen class,
so its ids and the generator's state after it match those calls.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import compression

STRATEGIES = ("fifo", "uniform", "class_balanced", "fws")


@dataclass
class SamplerConfig:
    strategy: str = "class_balanced"
    batch_size: int = 32
    decay: float = 0.99       # FWS weight multiplier per batch inclusion
    weight_floor: float = 0.01

    def validate(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown sampling strategy {self.strategy!r}")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if not 0.0 <= self.decay <= 1.0:
            raise ValueError("decay multiplier must be in [0, 1]")
        if not 0.0 < self.weight_floor <= 1.0:
            raise ValueError("weight floor must be in (0, 1]")

    def fws_weight(self, batch_count: int) -> float:
        """A sample's FWS weight after ``batch_count`` batch inclusions."""
        return max(self.decay ** batch_count, self.weight_floor)


class _Column:
    """A growing array with a leading sample axis; ``values`` is the filled part."""

    def __init__(self, row):
        row = np.asarray(row)
        self._data = np.empty((8,) + row.shape, row.dtype)
        self.size = 0

    def append(self, row) -> None:
        if self.size == len(self._data):
            self._data = np.concatenate([self._data, np.empty_like(self._data)])
        self._data[self.size] = row
        self.size += 1

    @property
    def values(self) -> np.ndarray:
        return self._data[:self.size]


def _entry(column: str) -> property:
    """A property reading and writing one sample's entry of a store list."""
    def get(self):
        return getattr(self._store, column)[self.id]

    def set_(self, value):
        getattr(self._store, column)[self.id] = value

    return property(get, set_)


class StoredSample:
    """A view of one stored sample: batch count and FWS weight write through to
    the store's lists, and the payload's arrays are views of the store's."""

    batch_count = _entry("_counts")
    fws_weight = _entry("_weights")

    def __init__(self, store: "ReplayStore", sid: int):
        self._store = store
        self.id = sid
        self.label = store.label(sid)

    @property
    def payload(self):
        return self._store._payloads(self.id)


# ``Generator.choice(n, size=count, replace=n < count)`` without the call:
# numpy takes every bounded integer (Lemire's method, as ``integers`` does) from
# one stream of 32-bit words however the draws are grouped, and a bound of 1
# consumes nothing. So one ``integers`` call over the bounds ``choice`` would
# draw, for every class of a batch, followed by a replay of its algorithms,
# gives the same positions and leaves the generator in the same state. For one
# pick, or with replacement, ``choice`` draws once per pick with bound n and the
# position is the draw; the two functions below replay the other case, 2 <= count
# <= n.

def _choice_bounds(n: int, count: int) -> list[int]:
    """Bounds of the integers ``choice`` draws for ``2 <= count <= n``, in its order."""
    if n <= 10000 or count <= n // 50:         # Floyd's picks, then their shuffle
        return [*range(n - count + 1, n + 1), *range(count, 1, -1)]
    return list(range(n, max(n - count, 1), -1))  # a tail shuffle of range(n)


def _choice_positions(n: int, count: int, draws) -> list[int]:
    """The positions ``choice`` returns for ``2 <= count <= n``, from an iterator over
    the integers drawn with ``_choice_bounds(n, count)``; consumes exactly those."""
    if n <= 10000 or count <= n // 50:
        # Floyd (Bentley & Floyd 1987): for j from n - count to n - 1, pick the
        # draw (bound j + 1), or j when the draw is picked already.
        picks, seen = [], set()
        for j, val in zip(range(n - count, n), draws):
            if val in seen:
                val = j
            seen.add(val)
            picks.append(val)
        return _shuffle(picks, 1, draws)
    return _shuffle(list(range(n)), max(n - count, 1), draws)[n - count:]


def _shuffle(seq: list, first: int, draws) -> list:
    """numpy's ``_shuffle_int`` in place: for i from the last index down to
    ``first``, swap items i and j, j the next draw (bound i + 1)."""
    for i, j in zip(range(len(seq) - 1, first - 1, -1), draws):
        seq[i], seq[j] = seq[j], seq[i]
    return seq


class ReplayStore:
    """Append-only sample store with columnar payloads, class index and FWS weights."""

    def __init__(self):
        self._shape = None                     # (T, D), fixed by the first insert
        self._labels: list[int] = []
        self._counts: list[int] = []
        self._weights: list[float] = []
        self._classes: list[int] = []          # the stored labels, ascending
        self._by_class: dict[int, list[int]] = {}
        self._layout = None                    # payload layout key, fixed by the first insert
        self._columns: list[_Column] = []      # payload arrays, row = sample id
        self._checked = (None, None)           # (the id list last checked, its array)

    def __len__(self) -> int:
        return len(self._labels)

    def insert(self, label: int, payload) -> int:
        # Every check runs before the first append: a rejected insert leaves the
        # store as it was.
        label = int(label)
        key, shape, arrays = compression.split(payload)
        if self._shape is not None and shape != self._shape:
            raise ValueError(f"token shape {shape} != the store's {self._shape}")
        if self._layout is None:
            self._shape, self._layout = shape, key
            self._columns = [_Column(a) for a in arrays]
        elif key != self._layout:
            raise ValueError(f"payload layout {key} != the store's {self._layout}")
        for column, a in zip(self._columns, arrays):
            column.append(a)
        sid = len(self)
        self._labels.append(label)
        self._counts.append(0)
        self._weights.append(1.0)
        if label not in self._by_class:
            insort(self._classes, label)
        self._by_class.setdefault(label, []).append(sid)
        return sid

    def _check(self, sid: int) -> int:
        if not 0 <= sid < len(self):
            raise ValueError(f"unknown sample id {sid}")
        return sid

    def _ids(self, ids) -> np.ndarray:
        # The store only grows, so an id list once checked stays valid: the last is kept.
        if isinstance(ids, list) and ids == self._checked[0]:
            return self._checked[1]
        checked = np.asarray(ids, dtype=np.int64)
        # Read as unsigned, a negative id exceeds every valid one: one bound checks both ends.
        if checked.size and checked.view(np.uint64).max() >= len(self):
            raise ValueError(f"unknown sample id in {checked.tolist()}")
        if isinstance(ids, list):
            self._checked = (list(ids), checked)
        return checked

    def label(self, sid: int) -> int:
        return self._labels[self._check(sid)]

    def labels(self, ids) -> list[int]:
        return [self._labels[sid] for sid in self._ids(ids).tolist()]

    def sample(self, sid: int) -> StoredSample:
        return StoredSample(self, self._check(sid))

    def _payloads(self, rows):
        """The payload of one sample id, or the stacked payloads of an id array."""
        return compression.join(self._layout, self._shape,
                                [column.values[rows] for column in self._columns])

    def tokens(self, ids) -> np.ndarray:
        """(B, T, D) float32 token matrices of ``ids``, in order: one gather and one
        ``to_tokens`` (one ``reconstruct`` for compressed records)."""
        ids = self._ids(ids)
        if self._layout is None:  # an empty store, so ``ids`` is empty too
            return np.empty((0, 0, 0), np.float32)
        return compression.to_tokens(self._payloads(ids))

    def seen_labels(self) -> list[int]:
        return list(self._classes)

    # -- batching -----------------------------------------------------------

    def compose_batch(self, new_id: int, config: SamplerConfig,
                      rng: np.random.Generator) -> list[int]:
        """Batch of ids containing ``new_id`` exactly once plus replay companions.

        Companions come from the other ids in insertion order without listing
        them: FIFO and Uniform map positions among the others to ids, FWS draws
        from the weights less ``new_id``, ClassBalanced from the class lists.
        ClassBalanced takes its picks with the same draws as one
        ``rng.choice(pool, size=count, replace=len(pool) < count)`` per chosen
        class, but in two Generator calls per batch: the ``choice`` of classes
        and one ``integers`` over the bounds of every class's draws.
        """
        config.validate()
        self._check(new_id)
        n_others = len(self) - 1
        want = config.batch_size - 1
        if want == 0 or not n_others:
            return [new_id]
        n = min(want, n_others)

        if config.strategy == "fifo":
            recent = range(len(self) - 1, -1, -1)[:n + 1]
            companions = [i for i in recent if i != new_id][:n]
        elif config.strategy == "uniform":
            picks = rng.integers(0, n_others, size=n)
            companions = (picks + (picks >= new_id)).tolist()
        elif config.strategy == "fws":
            others = np.delete(np.arange(len(self)), new_id)
            weights = np.delete(np.array(self._weights, dtype=np.float64), new_id)
            probs = weights / weights.sum()
            companions = rng.choice(others, size=n, replace=False, p=probs).tolist()
        else:  # class_balanced
            companions = self._class_balanced(new_id, want, rng)
        return [new_id] + companions

    def _class_balanced(self, new_id: int, want: int, rng) -> list[int]:
        classes = self._classes
        k = min(want, len(classes))
        # Choosing k class positions draws as choosing k of the labels, without the array.
        chosen = [classes[c] for c in rng.choice(len(classes), size=k, replace=False).tolist()]
        base, extra = divmod(want, k)
        new_label = self._labels[new_id]
        plans, bounds = [], []
        for pos, label in enumerate(chosen):
            count = base + (pos < extra)
            members = self._by_class[label]
            # The class's pool is ``members`` less ``new_id``; ids ascend, so
            # bisect finds the slot that positions skip.
            n = skip = len(members)
            if label == new_label:
                skip = bisect_left(members, new_id)
                n -= 1
            if n:
                replay = 1 < count <= n  # else each position is its draw, bound n
                bounds += _choice_bounds(n, count) if replay else [n] * count
                plans.append((members, skip, n, count, replay))
        draws = iter(rng.integers(0, np.array(bounds, dtype=np.int64)).tolist())
        return [members[p + (p >= skip)] for members, skip, n, count, replay in plans
                for p in (_choice_positions(n, count, draws) if replay
                          else islice(draws, count))]

    def record_batched(self, ids, config: SamplerConfig) -> None:
        """Bump batch counts (twice for an id batched twice) and set each FWS weight to
        ``config.fws_weight`` of its count, free of accumulation error. Every id is
        checked before the first write, so a rejected batch leaves the store as it was."""
        counts, weights = self._counts, self._weights
        for sid in self._ids(ids).tolist():
            counts[sid] += 1
            weights[sid] = config.fws_weight(counts[sid])
