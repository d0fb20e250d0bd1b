"""Replay store: holds training samples and composes batches for online updates.

Payloads are whatever :func:`ovstream.compression.encode` stored: raw token
matrices or compressed records; ``tokens()`` reads them back through
:func:`ovstream.compression.to_tokens`.
Four sampling strategies are supported: FIFO, Uniform, ClassBalanced, and
frequency-weighted sampling (FWS) whose per-sample weight decays by a
multiplier each time the sample lands in a batch.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import compression
from .core import FormatError

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


@dataclass
class StoredSample:
    id: int
    label: int
    payload: object  # np.ndarray token matrix or compression.CompressedFeature
    batch_count: int = 0
    fws_weight: float = 1.0


class ReplayStore:
    """Append-only sample store with class index and FWS weights."""

    def __init__(self):
        self._samples: list[StoredSample] = []
        self._by_class: dict[int, list[int]] = {}

    def __len__(self) -> int:
        return len(self._samples)

    def insert(self, label: int, payload) -> int:
        payload = compression.checked_payload(payload)
        sid = len(self._samples)
        self._samples.append(StoredSample(sid, int(label), payload))
        self._by_class.setdefault(int(label), []).append(sid)
        return sid

    def _get(self, sid: int) -> StoredSample:
        if not 0 <= sid < len(self._samples):
            raise ValueError(f"unknown sample id {sid}")
        return self._samples[sid]

    def label(self, sid: int) -> int:
        return self._get(sid).label

    def sample(self, sid: int) -> StoredSample:
        return self._get(sid)

    def tokens(self, sid: int) -> np.ndarray:
        """Sample payload as a token matrix, reconstructing compressed records."""
        return compression.to_tokens(self._get(sid).payload)

    def seen_labels(self) -> list[int]:
        return sorted(self._by_class)

    # -- batching -----------------------------------------------------------

    def compose_batch(self, new_id: int, config: SamplerConfig,
                      rng: np.random.Generator) -> list[int]:
        """Batch of ids containing ``new_id`` exactly once plus replay companions."""
        config.validate()
        self._get(new_id)
        others = [s.id for s in self._samples if s.id != new_id]
        want = config.batch_size - 1
        if want == 0 or not others:
            return [new_id]

        if config.strategy == "fifo":
            companions = others[-min(want, len(others)):][::-1]
        elif config.strategy == "uniform":
            n = min(want, len(others))
            companions = [others[i] for i in rng.integers(0, len(others), size=n)]
        elif config.strategy == "fws":
            n = min(want, len(others))
            weights = np.array([self._samples[i].fws_weight for i in others])
            probs = weights / weights.sum()
            companions = list(rng.choice(others, size=n, replace=False, p=probs))
        else:  # class_balanced
            companions = self._class_balanced(new_id, want, rng)
        return [new_id] + [int(c) for c in companions]

    def _class_balanced(self, new_id: int, want: int, rng) -> list[int]:
        classes = self.seen_labels()
        k = min(want, len(classes))
        chosen = list(rng.choice(classes, size=k, replace=False))
        base, extra = divmod(want, k)
        companions = []
        for pos, label in enumerate(chosen):
            count = base + (1 if pos < extra else 0)
            pool = [i for i in self._by_class[label] if i != new_id]
            if not pool or count == 0:
                continue
            if len(pool) >= count:
                picks = rng.choice(pool, size=count, replace=False)
            else:
                picks = rng.choice(pool, size=count, replace=True)
            companions.extend(int(p) for p in picks)
        return companions

    def record_batched(self, ids, config: SamplerConfig) -> None:
        """Bump batch counts and decay FWS weights for every batched sample."""
        for sid in ids:
            s = self._get(sid)
            s.batch_count += 1
            # Recomputed from the count so the weight is exactly
            # max(decay**batch_count, floor), free of accumulation error.
            s.fws_weight = max(config.decay ** s.batch_count, config.weight_floor)

    # -- persistence --------------------------------------------------------

    def save(self, payload_path, metadata_path) -> None:
        """Snapshot payloads to the binary container plus a CSV metadata sidecar."""
        with open(payload_path, "wb") as fh:
            fh.write(b"OVRS")
            fh.write(len(self._samples).to_bytes(4, "little"))
            for s in self._samples:
                fh.write(compression.payload_to_bytes(s.payload))
        with open(metadata_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "label", "batch_count", "fws_weight"])
            for s in self._samples:
                writer.writerow([s.id, s.label, s.batch_count, repr(s.fws_weight)])

    @classmethod
    def load(cls, payload_path, metadata_path) -> "ReplayStore":
        store = cls()
        with open(payload_path, "rb") as fh:
            data = fh.read()
        if data[:4] != b"OVRS":
            raise FormatError("bad store magic at offset 0")
        count = int.from_bytes(data[4:8], "little")
        payloads = []
        off = 8
        for _ in range(count):
            payload, off = compression.payload_from_bytes(data, off)
            payloads.append(payload)
        try:
            with open(metadata_path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            if len(rows) != count:
                raise FormatError("metadata row count does not match payload count")
            for row, payload in zip(rows, payloads):
                sid = store.insert(int(row["label"]), payload)
                s = store._samples[sid]
                s.batch_count = int(row["batch_count"])
                s.fws_weight = float(row["fws_weight"])
        except (KeyError, TypeError, ValueError, csv.Error) as exc:
            raise FormatError(f"bad metadata row {len(store)}: {exc}") from exc
        return store
