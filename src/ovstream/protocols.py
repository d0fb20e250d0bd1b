"""Incremental streams, the online learning loop, and evaluation metrics.

A stream is an ordered list of stages; each stage trains on its samples one
by one and is followed by an evaluation of every configured suite. A suite
is a named set of evaluation samples plus the candidate label set scored
over. Metrics follow the multi-task incremental convention: Transfer
averages accuracy on tasks not yet trained, Last averages the final row,
Avg averages per-task column means. ``Engine.snapshot`` writes an engine's
whole state to one file and ``Engine.restore`` reads it back exactly, so a
stream can stop and go on.
"""

from __future__ import annotations

import json
import math
import struct
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, is_dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import compression
from .core import CandidateSet, FormatError, candidate_probabilities, zero_shot_probabilities
from .data import Dataset
from .decoder import (
    OptimizerState,
    block_params,
    decode,
    linear_params,
    online_update,
)
from .replay import ReplayStore, SamplerConfig
from .weighting import (
    ClassAccuracyTracker,
    FrozenNeighbours,
    aim_alpha,
    alpha,
    combined_prediction,
    mix_predictions,
    nn_loo_confidence,
)

DEFAULT_FRACTIONS = (2, 4, 8, 16, 32, 64, 100)

WEIGHTINGS = ("ocw", "ocw-binary", "aim", "nn-loo", "frozen-only", "tuned-only")

PROTOCOLS = ("data_incremental", "class_incremental", "task_incremental")

# ``evaluate_suite`` hands ``predict`` slices of at most this many bytes of gathered
# float32 tokens, in whole ``batch_size`` batches and at least one batch.
EVAL_SLICE_BYTES = 1 << 18


@dataclass
class EvalSuite:
    name: str
    sample_ids: list[int]
    candidates: set[int]


@dataclass
class StreamStage:
    index: int
    sample_ids: list[int]
    suites: list[EvalSuite]


@dataclass
class MetricsRecord:
    rows: list = field(default_factory=list)  # (stage, suite, accuracy)

    def add(self, stage: int, suite: str, accuracy: float) -> None:
        self.rows.append((stage, suite, accuracy))

    def accuracy(self, stage: int, suite: str) -> float:
        for s, name, acc in self.rows:
            if s == stage and name == suite:
                return acc
        raise KeyError(f"no accuracy recorded for stage {stage} suite {suite!r}")


# ---------------------------------------------------------------------------
# Stream construction


def build_stream(dataset: Dataset, protocol: str, seed: int = 0,
                 fractions=DEFAULT_FRACTIONS, class_groups: int = 5,
                 suites: list[EvalSuite] | None = None) -> list[StreamStage]:
    """Partition the dataset into ordered training stages.

    ``data_incremental`` shuffles once and cuts at cumulative fractions;
    ``class_incremental`` sorts classes by id into ``class_groups`` groups;
    ``task_incremental`` follows the dataset's task partition in task-id
    order.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    labels = dataset.label_ids.tolist()
    if not labels:
        raise ValueError("dataset has no samples")
    if type(class_groups) is not int or class_groups < 1:
        raise ValueError(f"class_groups must be an int >= 1, not {class_groups!r}")
    if any(type(f) is not int for f in fractions):
        raise ValueError(f"fractions must be ints, not {list(fractions)!r}")
    if suites is None:
        suites = [EvalSuite("all", list(range(len(labels))), set(dataset.labels()))]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))

    if protocol == "data_incremental":
        fr = list(fractions)
        if fr != sorted(set(fr)) or fr[-1:] != [100] or fr[0] <= 0:
            raise ValueError(f"fractions must be strictly increasing and end at 100: {fr}")
        order = rng.permutation(len(labels)).tolist()
        cuts = [0] + [int(round(f / 100 * len(order))) for f in fr]
        return [StreamStage(i + 1, order[a:b], suites)
                for i, (a, b) in enumerate(zip(cuts, cuts[1:]))]

    if protocol == "class_incremental":
        stages = []
        for group in np.array_split(sorted(set(labels)), class_groups):
            if members := set(group.tolist()):
                ids = [j for j, label in enumerate(labels) if label in members]
                stages.append(StreamStage(len(stages) + 1, rng.permutation(ids).tolist(), suites))
        return stages

    # task_incremental
    if not dataset.task_map:
        raise ValueError("task_incremental requires a dataset task partition")
    dataset.check_task_map()
    return [StreamStage(i + 1, list(dataset.task_map[task]), suites)
            for i, task in enumerate(sorted(dataset.task_map))]


# ---------------------------------------------------------------------------
# Engine


@dataclass
class EngineConfig:
    decoder_variant: str = "linear"    # "linear" | "block"
    weighting: str = "ocw"
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    beta: float = 0.1
    ema_decay: float = 0.99
    lr: float = 9.375e-6
    weight_decay: float = 0.05
    compression: str = "none"          # a storage mode from compression.MODES
    pca_components: int = 5
    seed: int = 0

    def validate(self) -> None:
        for name in ("beta", "lr", "weight_decay"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"hyperparameter {name} must be finite, got {getattr(self, name)}")
        if self.weighting not in WEIGHTINGS:
            raise ValueError(f"unknown weighting strategy {self.weighting!r}")
        if self.compression == "dataset-pca":
            raise ValueError("compression 'dataset-pca' fits its codec on the whole "
                             "dataset before the stream starts, so it is no stream "
                             "storage mode; run it offline with "
                             "`ovstream compress --mode dataset-pca`")
        if self.compression not in compression.MODES:
            raise ValueError(f"unknown compression mode {self.compression!r}")
        if self.decoder_variant not in ("linear", "block"):
            raise ValueError(f"unknown decoder variant {self.decoder_variant!r}")
        if (self.beta < 0 or not 0 < self.ema_decay <= 1 or self.lr <= 0
                or self.weight_decay < 0 or self.pca_components < 1):
            raise ValueError("hyperparameters out of range")
        self.sampler.validate()


# Snapshot file: magic "OVSN", u32 version, u32 header length, a UTF-8 JSON
# header {"config": EngineConfig fields, "rng": the engine RNG's bit-generator
# state}; u32 n, n float64 parameters (DecoderParams.flat), u64 optimizer step,
# n float64 m, n float64 v; u32 sample count, per stored sample (i64 label, i64
# batch count) then its payload record per ovstream.compression; per stored
# label in ascending order, the tracker's (f64 c_t, f64 c_o). Little-endian.
# The store implies the rest: each FWS weight is SamplerConfig.fws_weight of its
# batch count, and each label's n_seen is its number of stored samples. A step
# batches at most batch_size ids, so batch counts sum to at most step x batch_size.

_SNAPSHOT_MAGIC = b"OVSN"
_SNAPSHOT_VERSION = 3
_SAMPLE = struct.Struct("<qq")


def _reject_unknown(raw: dict, known, what: str) -> None:
    unknown = set(raw) - set(known)
    if unknown:
        raise ValueError(f"unknown {what} field(s): {sorted(unknown)}")


def _typed(cls, raw: dict):
    """The validated ``cls(**raw)`` of a dataclass whose fields all have defaults.
    ``raw`` names only fields of ``cls`` (else ``ValueError``), each value of its
    default's type (else ``TypeError``): an int given for a float field becomes that
    float, and a dataclass-typed field is read from its own dict by the same rule."""
    if type(raw) is not dict:
        raise TypeError(f"{cls.__name__} must be an object, not {raw!r}")
    _reject_unknown(raw, cls.__dataclass_fields__, cls.__name__)
    defaults = cls()
    values = {}
    for name, value in raw.items():
        default = getattr(defaults, name)
        if is_dataclass(default) and type(value) is dict:
            value = _typed(type(default), value)
        elif type(default) is float and type(value) is int:
            value = float(value)
        if type(value) is not type(default):
            raise TypeError(f"{cls.__name__}.{name} must be {type(default).__name__}, "
                            f"not {value!r}")
        values[name] = value
    obj = cls(**values)
    obj.validate()
    return obj


class Engine:
    """Online learner combining the frozen scorer and the tuned decoder."""

    def __init__(self, dataset: Dataset, config: EngineConfig):
        config.validate()
        self.dataset = dataset
        self.config = config
        self.table = dataset.label_table
        ss = np.random.SeedSequence([config.seed, 0xE4914E])
        init_rng, self.rng = (np.random.default_rng(c) for c in ss.spawn(2))
        dim = self.table.dim
        if config.decoder_variant == "linear":
            self.params = linear_params(dim)
        else:
            self.params = block_params(dim, rng=init_rng)
        self.opt = OptimizerState(lr=config.lr, weight_decay=config.weight_decay)
        self.tracker = ClassAccuracyTracker(self.table, decay=config.ema_decay)
        self.store = ReplayStore()
        self._stored = None  # CandidateSet of the stored labels, as of the last insert
        self._nn_cache = (None, None)  # (store size, optimizer step), nn-loo maps
        self._neighbours = FrozenNeighbours(dim)  # of the stored CLS rows, for nn-loo
        self._mix = (None, None)  # (sorted candidates, store size, optimizer step), set-up
        self._frozen = {}  # suite name -> ((sample ids, sorted candidates), (N, C) rows)

    # -- training -----------------------------------------------------------

    def _payload(self, tokens: np.ndarray):
        t = self.params.tensors  # without LN1 (linear), CLS weighting uses gain 1, bias 0
        return compression.encode(tokens, self.config.compression, self.config.pca_components,
                                  t.get("ln1_gain"), t.get("ln1_bias"))

    def frozen_probabilities(self, tokens, candidates) -> dict[int, float]:
        return zero_shot_probabilities(np.asarray(tokens)[0], self.table, candidates)

    def _candidates(self, label: int) -> CandidateSet:
        """The labels stored once a sample of ``label`` is: the set ``process`` scores it
        over, and the loss's candidates after its insert. The last insert's set is kept
        while it holds ``label`` and every stored label, so it is worked out again only
        for a label new to the store. Derived, so no snapshot holds it."""
        stored = self._stored
        if stored is None or label not in stored or len(stored) != len(self.store.seen_labels()):
            stored = CandidateSet(self.table, {label, *self.store.seen_labels()})
        return stored

    def process(self, sample_index: int) -> None:
        """Score one incoming sample, store it, update accuracy estimates, train one step.
        The sample is encoded and scored before it is stored, so a sample that raises
        there (a zero-norm CLS row, say) leaves the engine as it was."""
        tokens = self.dataset.tokens(sample_index)
        label = int(self.dataset.label_ids[sample_index])
        payload = self._payload(tokens)
        candidates = self._candidates(label)
        # The decoded embedding and the CLS row, scored as one two-row batch. argmax takes
        # the first maximum: ties go to the lowest label id.
        tuned, frozen = zero_shot_probabilities(np.array([decode(tokens, self.params), tokens[0]]),
                                                self.table, candidates).argmax(axis=1)
        sid = self.store.insert(label, payload)
        self._stored = candidates
        labels = candidates.labels
        self.tracker.ema_update(label, labels[tuned] == label, labels[frozen] == label)
        online_update(sid, self.store, self.params, self.opt, candidates,
                      self.config.sampler, self.rng, beta=self.config.beta)

    # -- evaluation ---------------------------------------------------------

    def _decode(self, x: np.ndarray) -> np.ndarray:
        """The (B, D) decodings of a B x T x D array, decoded in ``batch_size`` row groups
        as a training step decodes its batch (an empty array is one empty group)."""
        size = self.config.sampler.batch_size
        return np.concatenate([decode(x[i:i + size], self.params)
                               for i in range(0, max(len(x), 1), size)])

    def _nn_loo_maps(self) -> np.ndarray:
        """The nn-loo (c_t, c_o) confidences of the stored samples, an (L, 2) array over
        the label table's rows, built once per store and decoder state: every ``process``
        inserts a sample and steps. Both columns are set for the labels stored at least
        twice, every other row is (0, 0). The tuned column is ``nn_loo_confidence`` over
        every stored sample's decoding. The frozen scorer never trains and the store only
        grows, so each stored CLS row's nearest neighbour is kept in ``_neighbours``,
        extended here by the samples stored since the last build: at evaluation, so that
        a training step costs what it did."""
        key = (len(self.store), self.opt.step)
        if self._nn_cache[0] != key:
            ids = range(len(self.store))
            tokens, labels = self.store.tokens(ids), self.store.labels(ids)
            self._neighbours.extend(tokens[len(self._neighbours):, 0])
            confidence = np.zeros((len(self.table), 2))
            for col, pairs in enumerate((nn_loo_confidence(list(zip(self._decode(tokens), labels))),
                                         self._neighbours.confidence(labels))):
                confidence[self.table.rows(pairs), col] = list(pairs.values())
            self._nn_cache = (key, confidence)
        return self._nn_cache[1]

    def _mix_setup(self, candidates) -> tuple[CandidateSet, set[int], bool, np.ndarray]:
        """The whole mix set-up of ``candidates``, built once per sorted candidate set and
        store and decoder state (the state ``_nn_loo_maps`` is keyed by: the tracker
        changes only where the store does) and never written after: their
        ``CandidateSet``; the stored labels, those the decoder has trained on; whether
        none of the candidates is stored; and the (C,) alphas of the ``ocw``,
        ``ocw-binary`` and ``nn-loo`` weightings, which the others do not read."""
        key = (tuple(sorted(candidates)), len(self.store), self.opt.step)
        if self._mix[0] != key:
            labels, seen, strategy = key[0], set(self.store.seen_labels()), self.config.weighting
            rows, untrained = self.table.rows(labels), seen.isdisjoint(labels)
            # Only a stored label has a tracker or nn-loo row other than (0, 0).
            if strategy == "ocw":
                confidence = self.tracker.acc[rows]
            elif strategy == "nn-loo" and not untrained:
                confidence = self._nn_loo_maps()[rows]
            else:  # ocw-binary (the tuned model once every candidate is trained), or untrained
                confidence = np.zeros((len(rows), 2))
            alphas = alpha(confidence, all_candidates_seen=seen.issuperset(labels))
            self._mix = (key, (CandidateSet(self.table, labels), seen, untrained, alphas))
        return self._mix[1]

    def predict(self, tokens, candidates, frozen=None) -> np.ndarray:
        """Combined distribution of a T x D token matrix under the configured weighting:
        a (C,) float64 array over ``sorted(candidates)``, or (B, C) for a B x T x D array.
        ``frozen``, when given, is the frozen scorer's output for ``tokens`` (same shape
        as the result), used in place of computing it; ``tuned-only`` never reads it.
        ``_decode`` runs over ``batch_size`` row groups, as a training step does; the frozen
        and tuned cosine products and the mix run once for the whole array. The frozen
        product (``stable=True``) and the mix work one row or one label at a time, so a
        row's frozen scores and mix get the same bits in any array; the tuned product is
        one BLAS product (``stable=False``), a row's own up to rounding, as its decoding
        already is. ``predict`` only reads the mix set-up
        (``_mix_setup``) that every array scored over one candidate set in one state
        shares. When the decoder has trained on no candidate, every alpha is 0 and the mix
        returns the frozen rows bit for bit, so (except under ``tuned-only``) nothing is
        decoded and the frozen rows stand in for the tuned ones."""
        x = np.asarray(tokens)
        if x.ndim == 2:
            return self.predict(x[None], candidates,
                                None if frozen is None else np.asarray(frozen)[None])[0]
        cands, seen, untrained, alphas = self._mix_setup(candidates)
        strategy = self.config.weighting
        if strategy == "tuned-only":
            return candidate_probabilities(self._decode(x), cands.matrix, stable=False)
        p_o = (candidate_probabilities(x[:, 0], cands.matrix, stable=True) if frozen is None
               else frozen)
        if strategy == "frozen-only":
            return p_o
        # Untrained, every alpha is 0, so the mix returns p_o whatever p_t is.
        p_t = p_o if untrained else candidate_probabilities(self._decode(x), cands.matrix,
                                                            stable=False)
        if strategy == "aim":
            return mix_predictions(p_t, p_o, aim_alpha(p_o, cands.labels, seen))
        mixed = combined_prediction(p_t, p_o, alphas, cands.labels)
        return np.array(list(mixed.values())).T

    def evaluate_suite(self, suite: EvalSuite) -> tuple[float, SuitePredictions]:
        """Accuracy and the suite's distributions, one ``predict`` per slice of the suite.
        A slice is as many whole ``batch_size`` batches as fit ``EVAL_SLICE_BYTES`` of
        float32 tokens, at least one, so its rows score the bits they would in
        ``batch_size`` chunks; its tokens are one ``Dataset.tokens`` gather. The frozen
        scorer never trains, so a suite's frozen rows are computed on its first
        evaluation, all its CLS rows in one call, and kept, one entry per suite name,
        keyed by the sample ids and candidates: each slice reads its part of them, and a
        suite of that name with other ids or candidates replaces them (``tuned-only``
        reads none, so computes none). A suite without samples has no accuracy, so it
        raises ``ValueError``."""
        if not suite.sample_ids:
            raise ValueError(f"suite {suite.name!r} has no samples")
        key = (tuple(suite.sample_ids), tuple(sorted(suite.candidates)))
        frozen = None
        if self.config.weighting != "tuned-only":
            cached_key, frozen = self._frozen.get(suite.name, (None, None))
            if cached_key != key:
                frozen = candidate_probabilities(self.dataset.token_rows[suite.sample_ids, 0],
                                                 self._mix_setup(key[1])[0].matrix, stable=True)
                self._frozen[suite.name] = (key, frozen)
        batch_bytes = 4 * math.prod(self.dataset.shape) * self.config.sampler.batch_size
        size = max(1, EVAL_SLICE_BYTES // batch_bytes) * self.config.sampler.batch_size
        slices = [self.predict(self.dataset.tokens(suite.sample_ids[i:i + size]),
                               suite.candidates, None if frozen is None else frozen[i:i + size])
                  for i in range(0, len(suite.sample_ids), size)]
        result = SuitePredictions(key[0], list(key[1]), np.concatenate(slices))
        truth = self.dataset.label_ids[suite.sample_ids]
        return float(np.mean(result.winners == truth)), result

    def run(self, stream: list[StreamStage]) -> MetricsRecord:
        """Evaluate every suite once before training, then train each stage and evaluate
        its suites. A metrics row names its suite, so before any work this raises
        ``ValueError`` when one name denotes two unequal suites or a stage lists a suite
        twice."""
        suites: dict[str, EvalSuite] = {}
        for stage in stream:
            for suite in stage.suites:
                if suites.setdefault(suite.name, suite) != suite:
                    raise ValueError(f"two different suites are named {suite.name!r}")
            names = [suite.name for suite in stage.suites]
            if len(set(names)) < len(names):
                raise ValueError(f"stage {stage.index} lists a suite twice: {names}")
        record = MetricsRecord()
        for suite in suites.values():
            acc, _ = self.evaluate_suite(suite)
            record.add(0, suite.name, acc)
        for stage in stream:
            for idx in stage.sample_ids:
                self.process(idx)
            for suite in stage.suites:
                acc, _ = self.evaluate_suite(suite)
                record.add(stage.index, suite.name, acc)
        return record

    # -- snapshot -----------------------------------------------------------

    def snapshot(self, path) -> None:
        """Write the engine's whole state to one file, which ``restore`` reads back exactly."""
        header = json.dumps({"config": asdict(self.config),
                             "rng": self.rng.bit_generator.state}, sort_keys=True).encode()
        theta = self.params.flat
        m, v = (np.zeros_like(theta) if a is None else a for a in (self.opt.m, self.opt.v))
        parts = [_SNAPSHOT_MAGIC, struct.pack("<II", _SNAPSHOT_VERSION, len(header)), header,
                 struct.pack("<I", theta.size), theta.astype("<f8").tobytes(),
                 struct.pack("<Q", self.opt.step), m.astype("<f8").tobytes(),
                 v.astype("<f8").tobytes(), struct.pack("<I", len(self.store))]
        for s in map(self.store.sample, range(len(self.store))):
            parts += [_SAMPLE.pack(s.label, s.batch_count), compression.payload_to_bytes(s.payload)]
        parts.append(self.tracker.acc[self.table.rows(self.store.seen_labels())]
                     .astype("<f8").tobytes())
        Path(path).write_bytes(b"".join(parts))

    @classmethod
    def restore(cls, path, dataset: Dataset) -> "Engine":
        """The engine a ``snapshot`` file holds, on ``dataset``. Raises only
        ``FormatError``: for malformed bytes, and for a state no engine on ``dataset``
        holds (a config ``validate`` rejects, non-finite parameters or moments,
        ``v < 0``, labels outside the table, batch counts < 0 or summing past step x
        ``batch_size``, tracker accuracies outside [0, 1], another token shape, a record
        that the config's compression and component count do not store). Stored samples
        go back in through ``ReplayStore.insert`` and its checks; FWS weights and
        ``n_seen`` are derived from them, as a stream derives them."""
        data = Path(path).read_bytes()
        if data[:4] != _SNAPSHOT_MAGIC:
            raise FormatError("bad snapshot magic at offset 0")
        off = 4
        try:
            version, size = struct.unpack_from("<II", data, off)
            if version != _SNAPSHOT_VERSION:
                raise FormatError(f"unsupported snapshot version {version}")
            off = 12
            header = json.loads(data[off:off + size])
            engine = cls(dataset, _typed(EngineConfig, header["config"]))
            engine.rng.bit_generator.state = header["rng"]
            off += size
            theta = engine.params.flat
            (n,) = struct.unpack_from("<I", data, off)
            if n != theta.size:
                raise FormatError(f"{n} parameters at offset {off}, the decoder has {theta.size}")
            theta[:] = np.frombuffer(data, "<f8", n, off + 4)
            (engine.opt.step,) = struct.unpack_from("<Q", data, off + 4 + 8 * n)
            mv = np.frombuffer(data, "<f8", 2 * n, off + 12 + 8 * n).reshape(2, n)  # m and v
            if not (np.isfinite(theta).all() and np.isfinite(mv).all() and mv[1].min() >= 0):
                raise FormatError(f"non-finite parameters or moments, or v < 0, at offset {off}")
            engine.opt.m, engine.opt.v = mv.astype(float)  # writable copies
            off += 12 + 24 * n
            (count,) = struct.unpack_from("<I", data, off)
            off += 4
        except (struct.error, ValueError, TypeError, KeyError, OverflowError) as exc:
            raise FormatError(f"bad snapshot at offset {off}: {exc}") from exc
        sampler = engine.config.sampler
        budget = engine.opt.step * sampler.batch_size  # a step batches at most batch_size ids
        for sid in range(count):
            start = off
            try:
                label, batch_count = _SAMPLE.unpack_from(data, off)
                payload, off = compression.payload_from_bytes(data, off + _SAMPLE.size)
                if label not in engine.table or batch_count < 0:
                    raise ValueError(f"label {label}, batch count {batch_count}")
                budget -= batch_count
                if budget < 0:
                    raise ValueError(f"batch counts sum past step {engine.opt.step} x batch_size")
                if tuple(payload.shape) != dataset.shape:
                    raise ValueError(f"token shape {tuple(payload.shape)} != the dataset's "
                                     f"{dataset.shape}")
                mode, components = engine.config.compression, engine.config.pca_components
                if not compression.fits_mode(payload, mode, components):
                    raise ValueError(f"compression {mode!r} with {components} components "
                                     "stores no record of this layout")
                engine.store.insert(label, payload)
            except (FormatError, struct.error, ValueError) as exc:
                raise FormatError(f"bad snapshot record {sid} at offset {start}: {exc}") from exc
            sample = engine.store.sample(sid)
            sample.batch_count, sample.fws_weight = batch_count, sampler.fws_weight(batch_count)
        labels, n_seen = np.unique(engine.store.labels(range(count)), return_counts=True)
        try:
            acc = np.frombuffer(data, "<f8", 2 * len(labels), off).reshape(-1, 2)
        except ValueError as exc:
            raise FormatError(f"bad snapshot at offset {off}: {exc}") from exc
        bad = np.flatnonzero(~((acc >= 0) & (acc <= 1)).all(axis=1))  # NaN is bad too
        if bad.size:
            raise FormatError(f"bad tracker entry for label {labels[bad[0]]} at offset "
                              f"{off + acc[:bad[0]].nbytes}")
        rows = engine.table.rows(labels)
        engine.tracker.acc[rows], engine.tracker.n_seen[rows] = acc, n_seen
        off += acc.nbytes
        if off != len(data):
            raise FormatError(f"{len(data) - off} bytes after the last record at offset {off}")
        return engine


class SuitePredictions(Mapping):
    """A suite's ``probs`` (N, C) over the sorted ``labels`` in suite order, and each row's
    ``winners`` label; maps a sample id to its last row's ``{label: prob}``, built on access."""

    def __init__(self, sample_ids, labels: list[int], probs: np.ndarray):
        self.labels, self.probs, self._ids = labels, probs, sample_ids
        # argmax keeps the first maximum in sorted-label order: ties go to the lowest label id.
        self.winners = np.array(labels, np.int64)[probs.argmax(axis=1)]

    @cached_property
    def _rows(self) -> dict:
        return dict(zip(self._ids, range(len(self.probs))))

    def __getitem__(self, idx) -> dict[int, float]:
        return dict(zip(self.labels, self.probs[self._rows[idx]].tolist()))

    def __iter__(self):
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


def run_stream(dataset: Dataset, stream: list[StreamStage],
               config: EngineConfig) -> MetricsRecord:
    """Drive the online loop over a stream and collect stage accuracies."""
    return Engine(dataset, config).run(stream)


# ---------------------------------------------------------------------------
# Metrics


def mtil_metrics(accuracy_matrix) -> tuple[float, float, float]:
    """(Transfer, Avg, Last) from a stages x tasks accuracy matrix.

    Row i holds per-task accuracy after training task i; task order matches
    stage order. Transfer averages, over each task, the accuracy before that
    task was trained; Avg averages per-task column means; Last averages the
    final row.
    """
    m = np.asarray(accuracy_matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
        raise ValueError(f"expected a square stages x tasks matrix, got {m.shape}")
    n = m.shape[0]
    transfer = float(np.mean([m[:j, j].mean() for j in range(1, n)]))
    avg = float(m.mean(axis=0).mean())
    last = float(m[-1].mean())
    return transfer, avg, last
