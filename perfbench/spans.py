"""Span recorder and the wrappers that trace ovstream's public functions.

Tracing patches the program from outside: each target function or method
is replaced, for the duration of an ``instrument`` block, by a wrapper that
opens a span on entry and closes it on exit. Functions are patched in every
loaded ``ovstream`` module that binds them, because callers use their own
imported names (``protocols`` calls its own ``online_update``, which calls
``decoder``'s ``loss_gradients``). Methods are patched on their class.

A span holds its name, start and end (``perf_counter_ns``), the index of its
parent span (-1 for a root) and the id of the operation it belongs to: each
root span -- one ``Engine.process`` or ``Engine.evaluate_suite`` call, or one
``data.generate`` during set-up -- starts a new operation. Calls made
inside a ``paused`` block (the benchmark's own output checks) record nothing.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


CSV_HEADER = "episode,name,start_ns,end_ns,parent,op,self_ns\n"

_paused = False


@contextmanager
def paused():
    """Let traced functions run untraced inside the block."""
    global _paused
    previous, _paused = _paused, True
    try:
        yield
    finally:
        _paused = previous


class SpanRecorder:
    """In-memory spans plus counters, recorded at the traced boundaries."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, op]
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._ops = 0

    def begin(self, name: str) -> int:
        index = len(self.spans)
        if self._stack:
            parent = self._stack[-1]
            op = self.spans[parent][4]
        else:
            parent = -1
            self._ops += 1
            op = self._ops
        span = [name, 0, 0, parent, op]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter_ns()
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")

    def self_ns(self) -> list[int]:
        """Per span: its duration minus the durations of its direct children."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, _, _) in enumerate(self.spans)]

    def write_csv(self, fh, episode: int) -> None:
        """Append every span, with its self time, as rows of ``CSV_HEADER``."""
        for span, self_time in zip(self.spans, self.self_ns()):
            fh.write(f"{episode}," + ",".join(str(v) for v in span) + f",{self_time}\n")


# -- counters, called with the wrapped call's arguments and result -----------

def _label_rows(counts, args, result):
    counts["core.label_matrix.rows"] += len(result)


def _batch_mix(counts, args, result):
    counts["replay.batch_ids"] += len(result)
    counts["replay.batch_unique_ids"] += len(set(result))


def _nn_pairs(counts, args, result):
    labels = Counter(label for _, label in args[0])
    n = sum(labels.values())
    queries = sum(c for c in labels.values() if c >= 2)
    counts["weighting.nn_loo_confidence.pairs"] += queries * (n - 1)


# (span name, defining module, attribute path, counter)
TARGETS = (
    ("protocols.process", "ovstream.protocols", "Engine.process", None),
    ("protocols.evaluate_suite", "ovstream.protocols", "Engine.evaluate_suite", None),
    ("protocols.predict", "ovstream.protocols", "Engine.predict", None),
    ("decoder.online_update", "ovstream.decoder", "online_update", None),
    ("decoder.loss_gradients", "ovstream.decoder", "loss_gradients", None),
    ("decoder.optimizer_step", "ovstream.decoder", "optimizer_step", None),
    ("decoder.decode", "ovstream.decoder", "decode", None),
    ("core.label_matrix", "ovstream.core", "LabelEmbeddingTable.matrix", _label_rows),
    ("core.zero_shot_probabilities", "ovstream.core", "zero_shot_probabilities", None),
    ("replay.insert", "ovstream.replay", "ReplayStore.insert", None),
    ("replay.compose_batch", "ovstream.replay", "ReplayStore.compose_batch", _batch_mix),
    ("replay.record_batched", "ovstream.replay", "ReplayStore.record_batched", None),
    ("replay.tokens", "ovstream.replay", "ReplayStore.tokens", None),
    ("compression.compress", "ovstream.compression", "compress", None),
    ("compression.reconstruct", "ovstream.compression", "reconstruct", None),
    ("weighting.ema_update", "ovstream.weighting", "ClassAccuracyTracker.ema_update", None),
    ("weighting.combined_prediction", "ovstream.weighting", "combined_prediction", None),
    ("weighting.nn_loo_confidence", "ovstream.weighting", "nn_loo_confidence", _nn_pairs),
    ("data.generate", "ovstream.data", "generate", None),
    ("data.tokens", "ovstream.data", "Dataset.tokens", None),
)

LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name, *_ in TARGETS))


def _wrap(fn, name, recorder, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if _paused:
            return fn(*args, **kwargs)
        index = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(index)
        if counter is not None:
            counter(recorder.counts, args, result)
        return result

    return traced


def _bindings(module_name: str, path: str):
    """Every (owner, attribute) through which callers reach the target."""
    module = sys.modules[module_name]
    if "." in path:
        cls_name, attr = path.split(".")
        owner = getattr(module, cls_name)
        return owner.__dict__[attr], [(owner, attr)]
    original = getattr(module, path)
    owners = [(mod, key)
              for mod_name, mod in list(sys.modules.items())
              if mod is not None and (mod_name == "ovstream" or mod_name.startswith("ovstream."))
              for key, value in list(vars(mod).items()) if value is original]
    return original, owners


@contextmanager
def instrument(recorder: SpanRecorder):
    """Trace every target into ``recorder``; restore the original bindings on exit."""
    patched = []
    try:
        for name, module_name, path, counter in TARGETS:
            original, owners = _bindings(module_name, path)
            wrapper = _wrap(original, name, recorder, counter)
            for owner, attr in owners:
                setattr(owner, attr, wrapper)
                patched.append((owner, attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
