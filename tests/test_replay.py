"""Replay store: batching strategies, FWS weight updates, columnar layout, persistence."""

import tracemalloc

import numpy as np
import pytest

from ovstream.compression import (
    CompressedFeature,
    QuantizedBlock,
    compress,
    encode,
    payload_from_bytes,
    payload_to_bytes,
    per_instance_pca,
    split,
    storage_bytes,
    to_tokens,
)
from ovstream.replay import STRATEGIES, ReplayStore, SamplerConfig, StoredSample


def _store_with(labels, dim=4, tokens=3, seed=0):
    gen = np.random.default_rng(seed)
    store = ReplayStore()
    for label in labels:
        store.insert(label, gen.standard_normal((tokens, dim)).astype(np.float32))
    return store


class TestInsertAndLookup:
    def test_ids_are_sequential(self):
        store = _store_with([5, 5, 7])
        assert [store.label(i) for i in range(3)] == [5, 5, 7]
        assert len(store) == 3

    def test_seen_labels_sorted(self):
        store = _store_with([9, 2, 9, 4])
        assert store.seen_labels() == [2, 4, 9]

    def test_tokens_round_trip(self):
        tokens = np.arange(12, dtype=np.float32).reshape(3, 4)
        store = ReplayStore()
        sid = store.insert(0, tokens)
        np.testing.assert_array_equal(store.tokens([sid]), [tokens])

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            _store_with([0]).label(5)


class TestComposeBatch:
    def test_batch_contains_new_id_first_exactly_once(self):
        store = _store_with([0, 1, 2, 3, 4, 0, 1, 2, 3, 4])
        rng = np.random.default_rng(7)
        for strategy in ("fifo", "uniform", "class_balanced", "fws"):
            batch = store.compose_batch(
                2, SamplerConfig(strategy=strategy, batch_size=4), rng)
            assert batch[0] == 2
            assert batch.count(2) == 1
            assert len(batch) == 4

    def test_batch_size_one(self):
        store = _store_with([0, 1])
        batch = store.compose_batch(
            1, SamplerConfig(strategy="uniform", batch_size=1),
            np.random.default_rng(0))
        assert batch == [1]

    def test_single_sample_store(self):
        store = _store_with([3])
        batch = store.compose_batch(
            0, SamplerConfig(strategy="fifo", batch_size=8),
            np.random.default_rng(0))
        assert batch == [0]

    def test_fifo_takes_most_recent_others(self):
        # ids 0..9, new id 9 -> companions are 8, 7, 6 (most recent first).
        store = _store_with(list(range(10)))
        batch = store.compose_batch(
            9, SamplerConfig(strategy="fifo", batch_size=4),
            np.random.default_rng(0))
        assert batch == [9, 8, 7, 6]

    def test_fifo_skips_new_id_in_middle(self):
        store = _store_with(list(range(6)))
        batch = store.compose_batch(
            4, SamplerConfig(strategy="fifo", batch_size=4),
            np.random.default_rng(0))
        assert batch == [4, 5, 3, 2]

    def test_uniform_allows_repeats(self):
        store = _store_with([0, 1])
        config = SamplerConfig(strategy="uniform", batch_size=8)
        batch = store.compose_batch(0, config, np.random.default_rng(1))
        # Only one companion exists but sampling is with replacement,
        # so it may appear up to min(B-1, n-1) = 1 time per draw slot.
        assert batch[0] == 0
        assert set(batch[1:]) == {1}

    def test_companion_count_capped_by_store(self):
        store = _store_with([0, 1, 2])
        config = SamplerConfig(strategy="uniform", batch_size=32)
        batch = store.compose_batch(0, config, np.random.default_rng(1))
        assert len(batch) == 1 + min(31, 2)

    def test_invalid_config(self):
        store = _store_with([0, 1])
        with pytest.raises(ValueError):
            store.compose_batch(0, SamplerConfig(strategy="nope"),
                                np.random.default_rng(0))
        with pytest.raises(ValueError):
            store.compose_batch(0, SamplerConfig(batch_size=0),
                                np.random.default_rng(0))

    def test_deterministic_given_seed(self):
        store = _store_with([0, 1, 2, 0, 1, 2, 0, 1])
        config = SamplerConfig(strategy="fws", batch_size=5)
        b1 = store.compose_batch(3, config, np.random.default_rng(42))
        b2 = store.compose_batch(3, config, np.random.default_rng(42))
        assert b1 == b2


class TestClassBalanced:
    def test_distinct_classes_when_enough(self):
        store = _store_with([0, 0, 1, 1, 2, 2, 3, 3, 4, 4])
        config = SamplerConfig(strategy="class_balanced", batch_size=4)
        batch = store.compose_batch(0, config, np.random.default_rng(3))
        labels = [store.label(i) for i in batch[1:]]
        assert len(set(labels)) == 3

    def test_remainder_spreads_over_classes(self):
        # Two classes, batch size 6 -> 5 companions over k=2 classes:
        # floor(5/2)=2 each plus 1 extra, i.e. counts {3, 2}.
        store = _store_with([0] * 5 + [1] * 5)
        config = SamplerConfig(strategy="class_balanced", batch_size=6)
        batch = store.compose_batch(0, config, np.random.default_rng(5))
        labels = [store.label(i) for i in batch[1:]]
        counts = sorted((labels.count(0), labels.count(1)))
        assert counts == [2, 3]

    def test_class_marginal_uniform(self):
        # 5 classes, 3 companion slots: each class selected w.p. 3/5.
        store = _store_with([0, 0, 1, 1, 2, 2, 3, 3, 4, 4])
        config = SamplerConfig(strategy="class_balanced", batch_size=4)
        rng = np.random.default_rng(2024)
        trials = 20_000
        hits = 0
        for _ in range(trials):
            batch = store.compose_batch(0, config, rng)
            if any(store.label(i) == 3 for i in batch[1:]):
                hits += 1
        assert hits / trials == pytest.approx(3 / 5, abs=0.01)

    def test_small_class_reuses_samples(self):
        # One class with a single sample but 4 slots requested from it.
        store = _store_with([0, 1])
        config = SamplerConfig(strategy="class_balanced", batch_size=6)
        batch = store.compose_batch(0, config, np.random.default_rng(9))
        # Companions can only come from ids {1}; with-replacement fills slots.
        assert set(batch[1:]) == {1}


class TestFws:
    def test_record_batched_exact_weights(self):
        store = _store_with([0, 1, 2])
        config = SamplerConfig(strategy="fws", batch_size=2,
                               decay=0.99, weight_floor=0.01)
        for _ in range(7):
            store.record_batched([1], config)
        assert store.sample(1).batch_count == 7
        assert store.sample(1).fws_weight == 0.99 ** 7
        assert store.sample(0).fws_weight == 1.0
        # Every weight is ``fws_weight`` of its count, bit for bit, however large.
        for decay in (0.0, 0.5, 0.99, 1.0):
            for floor in (0.01, 1.0):
                store = _store_with([0, 1])
                config = SamplerConfig(strategy="fws", decay=decay, weight_floor=floor)
                assert store.sample(1).fws_weight == config.fws_weight(0)
                for count in range(1, 601):
                    store.record_batched([1], config)
                    assert store.sample(1).fws_weight == config.fws_weight(count)
                for count in (2**20, 2**40):
                    # A huge count sizes nothing: the weight comes from its closed form.
                    store.sample(1).batch_count = count - 1
                    tracemalloc.start()
                    try:
                        store.record_batched([1], config)
                        peak = tracemalloc.get_traced_memory()[1]
                    finally:
                        tracemalloc.stop()
                    assert peak < 64 * 1024
                    assert store.sample(1).batch_count == count
                    assert store.sample(1).fws_weight == config.fws_weight(count)

    def test_rejected_batch_leaves_the_store_as_it_was(self):
        # Every id is checked before the first count or weight is written.
        store = _store_with([0, 1, 2])
        config = SamplerConfig(strategy="fws", decay=0.99)
        for bad in ([0, 1, 99], [2, -1], [3]):
            with pytest.raises(ValueError, match="unknown sample id"):
                store.record_batched(bad, config)
        assert [store.sample(i).batch_count for i in range(3)] == [0, 0, 0]
        assert [store.sample(i).fws_weight for i in range(3)] == [1.0, 1.0, 1.0]

    def test_an_id_list_changed_after_its_check_is_checked_again(self):
        # The store keeps the last id list it checked; a list edited in place is new.
        store = _store_with([0, 1, 2])
        config = SamplerConfig(strategy="fws", decay=0.99)
        ids = [0, 1]
        store.record_batched(ids, config)
        assert store.labels(ids) == [0, 1] and store.tokens(ids).shape[0] == 2
        ids[1] = -1
        for read in (store.labels, store.tokens, lambda i: store.record_batched(i, config)):
            with pytest.raises(ValueError, match="unknown sample id"):
                read(ids)
        assert [store.sample(i).batch_count for i in range(3)] == [1, 1, 0]

    def test_weight_floor_applies(self):
        store = _store_with([0])
        config = SamplerConfig(strategy="fws", decay=0.5, weight_floor=0.01)
        for _ in range(20):
            store.record_batched([0], config)
        assert store.sample(0).fws_weight == 0.01

    def test_decay_one_keeps_weight(self):
        store = _store_with([0])
        config = SamplerConfig(strategy="fws", decay=1.0)
        for _ in range(50):
            store.record_batched([0], config)
        assert store.sample(0).fws_weight == 1.0

    def test_low_weight_samples_rarely_drawn(self):
        # Weights (1, 0.01, 0.01): one companion slot, so sample 0 is drawn
        # with probability 1/1.02.
        store = _store_with([0, 1, 2, 9])
        for sid, w in ((0, 1.0), (1, 0.01), (2, 0.01)):
            store.sample(sid).fws_weight = w
        config = SamplerConfig(strategy="fws", batch_size=2)
        rng = np.random.default_rng(77)
        trials = 100_000
        hits = sum(store.compose_batch(3, config, rng)[1] == 0
                   for _ in range(trials))
        assert hits / trials == pytest.approx(1 / 1.02, abs=0.01)

    def test_draws_without_replacement(self):
        store = _store_with([0, 1, 2, 3])
        config = SamplerConfig(strategy="fws", batch_size=4)
        rng = np.random.default_rng(5)
        for _ in range(100):
            batch = store.compose_batch(0, config, rng)
            assert len(set(batch)) == len(batch)


class _ListStore:
    """Reference sampler: the store's former ``compose_batch`` and
    ``record_batched``, which listed every other id for each batch."""

    def __init__(self):
        self.samples = []   # [label, batch_count, fws_weight] per id
        self.by_class = {}

    def insert(self, label):
        self.by_class.setdefault(label, []).append(len(self.samples))
        self.samples.append([label, 0, 1.0])

    def compose_batch(self, new_id, config, rng):
        others = [i for i in range(len(self.samples)) if i != new_id]
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
            weights = np.array([self.samples[i][2] for i in others])
            probs = weights / weights.sum()
            companions = list(rng.choice(others, size=n, replace=False, p=probs))
        else:
            classes = sorted(self.by_class)
            k = min(want, len(classes))
            chosen = list(rng.choice(classes, size=k, replace=False))
            base, extra = divmod(want, k)
            companions = []
            for pos, label in enumerate(chosen):
                count = base + (1 if pos < extra else 0)
                pool = [i for i in self.by_class[label] if i != new_id]
                if not pool or count == 0:
                    continue
                if len(pool) >= count:
                    picks = rng.choice(pool, size=count, replace=False)
                else:
                    picks = rng.choice(pool, size=count, replace=True)
                companions.extend(int(p) for p in picks)
        return [new_id] + [int(c) for c in companions]

    def record_batched(self, ids, config):
        for sid in ids:
            s = self.samples[sid]
            s[1] += 1
            s[2] = max(config.decay ** s[1], config.weight_floor)


class TestListReference:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_same_ids_and_bit_equal_weights(self, strategy):
        duplicates = 0
        for seed in range(50):
            gen = np.random.default_rng(seed)
            n_classes = int(gen.integers(1, 6))
            labels = gen.integers(0, n_classes, size=int(gen.integers(2, 30))).tolist()
            labels.insert(int(gen.integers(0, len(labels))), n_classes)  # a one-sample class
            config = SamplerConfig(strategy=strategy, batch_size=int(gen.integers(1, 13)),
                                   decay=float(gen.uniform(0.5, 1.0)), weight_floor=0.05)
            store, ref = ReplayStore(), _ListStore()
            rng, ref_rng = np.random.default_rng(seed + 100), np.random.default_rng(seed + 100)
            steps = []
            for label in labels:
                store.insert(label, gen.standard_normal((3, 4)).astype(np.float32))
                ref.insert(label)
                steps.append(len(store) - 1)
            steps += gen.integers(0, len(store), size=20).tolist()  # older ids too
            for new_id in steps:
                ids = store.compose_batch(new_id, config, rng)
                assert ids == ref.compose_batch(new_id, config, ref_rng)
                assert all(type(i) is int for i in ids)
                duplicates += len(set(ids)) < len(ids)
                store.record_batched(ids, config)
                ref.record_batched(ids, config)
            for sid, (_, count, weight) in enumerate(ref.samples):
                assert store.sample(sid).batch_count == count
                assert store.sample(sid).fws_weight == weight  # weights are > 0: bit-equal
        if strategy in ("uniform", "class_balanced"):
            assert duplicates > 0  # draws with replacement were covered


def _same_as_reference(labels, new_ids, batch_sizes, seeds=range(4)):
    """Class-balanced batches equal the reference's, and so does the generator
    state after them."""
    store, ref = ReplayStore(), _ListStore()
    for label in labels:
        store.insert(label, np.zeros((2, 1), np.float32))
        ref.insert(label)
    for batch_size in batch_sizes:
        config = SamplerConfig(strategy="class_balanced", batch_size=batch_size)
        for new_id in new_ids:
            for seed in seeds:
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                ids = store.compose_batch(new_id, config, rng)
                assert ids == ref.compose_batch(new_id, config, ref_rng)
                assert rng.random() == ref_rng.random()


class _CountingGenerator:
    """A Generator proxy that counts the calls made through it."""

    def __init__(self, rng):
        self._rng, self.calls = rng, 0

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)
        return counted


class TestClassBalancedDraws:
    """Every branch of the per-class ``rng.choice`` the draws reproduce."""

    def test_large_class_tail_shuffle(self):
        # Class 0 has 10001 members: its pool has n = 10000 (Floyd's picks
        # for any count) when new_id is in it, n = 10001 otherwise. Then
        # n // 50 = 200, and counts 99-100 and 200 take Floyd's picks while
        # 201 and 299-300 take numpy's tail shuffle. The 5-member class takes
        # its picks with replacement.
        labels = [0] * 10001 + [1] * 5
        _same_as_reference(labels, [0, 10000, 10001], [200, 402, 600], seeds=range(3))

    def test_count_equal_to_pool_and_larger(self):
        # One class, new_id 2: the pool has 4 ids. Batch 5 draws all 4 (the
        # first Floyd bound is 1, which consumes nothing), batch 8 draws 7 of
        # 4 with replacement.
        _same_as_reference([0] * 5, [2], [5, 8])

    def test_new_id_alone_in_its_class(self):
        # Class 1 holds only new_id, so its pool is empty when it is chosen
        # and the batch comes out short of its slots.
        _same_as_reference([0, 1, 0, 2, 2, 0], [1], [2, 3, 4, 6], seeds=range(20))

    def test_new_id_first_middle_and_last_in_its_class(self):
        # Class 0 is ids 0, 3, ..., 15: new_id 0 is first, 9 in the middle
        # and 15 last; new_id 4 is second in class 1.
        labels = [0, 1, 2] * 6
        _same_as_reference(labels, [0, 9, 15, 4], [2, 4, 7, 12], seeds=range(10))

    def test_batch_size_one(self):
        _same_as_reference([0, 0, 1, 2], [0, 3], [1])

    def test_more_slots_than_classes(self):
        # 3 classes, up to 63 slots: 21 picks per class, with replacement
        # from the small classes and without from the large one.
        labels = [0] * 40 + [1] * 7 + [2] * 2
        _same_as_reference(labels, [0, 39, 45, 48], [5, 11, 30, 64])

    @pytest.mark.parametrize("batch_size,k", [(4, 3), (41, 40)])
    def test_two_generator_calls_per_batch(self, batch_size, k):
        store = _store_with([label for _ in range(3) for label in range(40)])
        config = SamplerConfig(strategy="class_balanced", batch_size=batch_size)
        rng, plain = _CountingGenerator(np.random.default_rng(8)), np.random.default_rng(8)
        for new_id in range(0, len(store), 7):
            before = rng.calls
            ids = store.compose_batch(new_id, config, rng)
            assert rng.calls - before <= 2
            assert ids == store.compose_batch(new_id, config, plain)
            assert len({store.label(i) for i in ids[1:]}) == k


class TestColumnarLayout:
    def _payloads(self, t=10, d=64, seed=0):
        tokens = np.random.default_rng(seed).standard_normal((t, d)).astype(np.float32)
        return [tokens, per_instance_pca(tokens, 5), compress(tokens, 5, quantized=True)]

    def test_second_token_shape_rejected(self):
        store = ReplayStore()
        store.insert(0, self._payloads()[2])
        for payload in self._payloads(t=11) + self._payloads(d=32):
            with pytest.raises(ValueError, match="token shape"):
                store.insert(1, payload)
        assert len(store) == 1 and store.seen_labels() == [0]

    def test_record_whose_blocks_do_not_fit_rejected(self):
        _, pca, quant = self._payloads()
        wrong_n = CompressedFeature(pca.shape, 4, pca.mean, pca.coefficients, pca.components)
        one_envelope = self._payloads()[2]
        one_envelope.components.mins = one_envelope.components.mins[:1]  # per-row, one envelope
        blocks = ("mean", "coefficients", "components")
        float64 = [CompressedFeature(pca.shape, pca.n, **{
            name: getattr(pca, name).astype(np.float64) if name == wide else getattr(pca, name)
            for name in blocks}) for wide in blocks]
        int64 = CompressedFeature(quant.shape, quant.n, *(
            QuantizedBlock(b.codes.astype(np.int64), b.mins, b.maxs, b.bit_width, b.per_row)
            for b in (quant.mean, quant.coefficients, quant.components)))
        c = quant.coefficients  # uint16 codes, but at 12 bits
        twelve_bit = CompressedFeature(quant.shape, quant.n, quant.mean,
                                       QuantizedBlock(c.codes >> 4, c.mins, c.maxs, 12, False),
                                       quant.components)
        raw = self._payloads()[0]
        non_finite, one_token = raw.copy(), raw[:1]
        non_finite[3, 7] = np.nan
        unfit = [(bad, "does not fit") for bad in (wrong_n, one_envelope, *float64, int64,
                                                   twelve_bit)]
        for bad, match in unfit + [(non_finite, "non-finite"), (one_token, "T >= 2")]:
            store = ReplayStore()
            with pytest.raises(ValueError, match=match):
                store.insert(0, bad)
            assert len(store) == 0
            with pytest.raises(ValueError, match=match):
                storage_bytes(bad)
            with pytest.raises(ValueError, match=match):
                payload_to_bytes(bad)

    def test_rejected_insert_leaves_the_store_as_it_was(self):
        raw, pca, _ = self._payloads()
        wrong_n = CompressedFeature(pca.shape, 4, pca.mean, pca.coefficients, pca.components)
        store = ReplayStore()
        with pytest.raises(ValueError):
            store.insert(0, wrong_n)
        assert len(store) == 0
        store.insert(0, self._payloads(t=11)[0])  # the failed insert fixed no shape
        before = store.tokens([0])
        for label, bad in ((1, raw), (1, wrong_n), (1, self._payloads(t=11)[1]),
                           ("x", self._payloads(t=11)[1])):
            with pytest.raises(ValueError):
                store.insert(label, bad)
        assert len(store) == 1 and store.seen_labels() == [0]
        assert store.tokens([0]).tobytes() == before.tobytes()
        sid = store.insert(2**63, self._payloads(t=11, seed=1)[0])  # any int label
        assert store.label(sid) == 2**63 and store.labels([sid, 0]) == [2**63, 0]
        assert store.tokens([sid]).tobytes() == self._payloads(t=11, seed=1)[0].tobytes()

    @pytest.mark.parametrize("first", [0, 1, 2])
    def test_second_layout_rejected(self, first):
        # Raw, float PCA and quantized records of one (T, D), and a float PCA
        # record of another component count: each is a layout of its own.
        layouts = self._payloads() + [per_instance_pca(self._payloads()[0], 4)]
        store = ReplayStore()
        store.insert(0, layouts[first])
        before = store.tokens([0])
        for other in layouts[:first] + layouts[first + 1:]:
            with pytest.raises(ValueError, match="payload layout"):
                store.insert(1, other)
        assert len(store) == 1 and store.seen_labels() == [0]
        assert store.tokens([0]).tobytes() == before.tobytes()
        store.insert(1, self._payloads(seed=1)[first])
        assert store.labels([0, 1]) == [0, 1]

    # The file adds a fixed descriptor to the stored bytes: kind and (T, D) for raw
    # tokens, then n and three block headers, each quantized one with a per-row flag
    # and an envelope count.
    @pytest.mark.parametrize("mode, size, descriptor", [
        ("none", 2560, 9), ("pca", 1736, 40), ("pca-cls", 1736, 40),
        ("pca-cls-quant", 540, 55), ("quantized", 540, 55)])
    def test_stored_bytes_are_the_inserted_records(self, mode, size, descriptor):
        store = ReplayStore()
        tokens = [self._payloads(seed=s)[0] for s in range(3)]
        payloads = [compress(t, 5, quantized=True) if mode == "quantized"
                    else encode(t, mode, 5) for t in tokens]
        for i, payload in enumerate(payloads):
            store.insert(i % 2, payload)
        for sid, payload in enumerate(payloads):
            stored = store.sample(sid).payload
            assert storage_bytes(stored) == storage_bytes(payload) == size
            assert len(payload_to_bytes(payload)) - storage_bytes(payload) == descriptor
            assert payload_to_bytes(stored) == payload_to_bytes(payload)
            back = payload_from_bytes(payload_to_bytes(payload))[0]
            assert [(a.dtype, a.shape, a.tobytes()) for a in split(back)[2]] == [
                (a.dtype, a.shape, a.tobytes()) for a in split(payload)[2]]

    @pytest.mark.parametrize("layout", [0, 1, 2])
    def test_tokens_gather_in_order_with_repeats(self, layout):
        store = ReplayStore()
        assert store.tokens([]).shape == (0, 0, 0)
        payloads = [self._payloads(seed=s)[layout] for s in range(9)]
        for i, payload in enumerate(payloads):
            store.insert(i, payload)
        ids = [4, 0, 8, 4, 1, 3]
        got = store.tokens(ids)
        want = np.stack([to_tokens(payloads[i]) for i in ids])
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()
        assert store.tokens([]).shape == (0, 10, 64)
        with pytest.raises(ValueError):
            store.tokens([0, 9])

    def test_sample_view_writes_through(self):
        store = _store_with([0, 1, 2])
        view = store.sample(1)
        assert isinstance(view, StoredSample) and (view.id, view.label) == (1, 1)
        view.fws_weight = 0.25
        view.batch_count = 3
        assert store.sample(1).fws_weight == 0.25 and store.sample(1).batch_count == 3
