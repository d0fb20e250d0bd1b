"""Stream construction, the online engine loop, and the incremental metrics."""

import sys

import numpy as np
import pytest

from ovstream import compression, core, protocols
from ovstream.core import (
    TEMPERATURE,
    LabelEmbeddingTable,
    argmax_label,
    candidate_probabilities,
    zero_shot_probabilities,
)
from ovstream.data import Dataset, SyntheticSpec, generate
from ovstream.decoder import decode
from ovstream.protocols import (
    Engine,
    EngineConfig,
    EvalSuite,
    MetricsRecord,
    StreamStage,
    build_stream,
    mtil_metrics,
    run_stream,
)
from ovstream.replay import ReplayStore, SamplerConfig
from ovstream.weighting import EPS, nn_loo_confidence


def _dataset(num_classes=5, samples_per_class=4, dim=16, tokens=4, seed=0,
             **kw):
    return generate(SyntheticSpec(num_classes=num_classes,
                                  samples_per_class=samples_per_class,
                                  dim=dim, tokens=tokens, seed=seed, **kw))


def _tied_dataset(seed=0):
    """Six classes whose label pairs (0, 1) and (2, 3) share one embedding, so their
    scores tie exactly, with the samples in shuffled order."""
    ds = _dataset(num_classes=6, samples_per_class=4, seed=seed, noise=0.3)
    rows = {y: ds.label_table.embedding(y) for y in ds.labels()}
    rows[1], rows[3] = rows[0], rows[2]
    order = np.random.default_rng(seed).permutation(len(ds))
    return Dataset(LabelEmbeddingTable(rows), ds.token_rows[order], ds.label_ids[order])


def _fast_config(**kw):
    kw.setdefault("sampler", SamplerConfig(batch_size=4))
    kw.setdefault("lr", 0.01)
    return EngineConfig(**kw)


class TestBuildStream:
    def test_data_incremental_cut_sizes(self):
        ds = _dataset(num_classes=10, samples_per_class=10)  # 100 samples
        stream = build_stream(ds, "data_incremental", seed=3)
        sizes = [len(s.sample_ids) for s in stream]
        assert sizes == [2, 2, 4, 8, 16, 32, 36]
        assert [s.index for s in stream] == list(range(1, 8))
        all_ids = [i for s in stream for i in s.sample_ids]
        assert sorted(all_ids) == list(range(100))

    def test_class_incremental_groups(self):
        ds = _dataset(num_classes=10, samples_per_class=3)
        stream = build_stream(ds, "class_incremental", seed=1, class_groups=5)
        assert len(stream) == 5
        for g, stage in enumerate(stream):
            labels = {ds.samples[i][1] for i in stage.sample_ids}
            assert labels == {2 * g, 2 * g + 1}
            assert len(stage.sample_ids) == 6

    def test_class_incremental_stages_unchanged_on_shuffled_labels(self):
        # Labels interleaved through the dataset, groups of unequal size: each
        # stage holds exactly its group's samples, in the seeded order.
        ds = _tied_dataset(seed=3)
        stream = build_stream(ds, "class_incremental", seed=4, class_groups=4)
        labels = [label for _, label in ds.samples]
        rng = np.random.default_rng(np.random.SeedSequence([4, 0x5EED]))
        expect = []
        for group in np.array_split(sorted(set(labels)), 4):
            ids = [j for j, label in enumerate(labels) if label in {int(g) for g in group}]
            expect.append([int(j) for j in rng.permutation(ids)])
        assert [s.sample_ids for s in stream] == expect
        assert [len(ids) for ids in expect] == [8, 8, 4, 4]

    def test_task_incremental_follows_partition(self):
        ds = _dataset(num_classes=4, samples_per_class=2)
        ds.task_map = {1: [4, 5, 6, 7], 0: [0, 1, 2, 3]}
        stream = build_stream(ds, "task_incremental")
        assert [s.sample_ids for s in stream] == [[0, 1, 2, 3], [4, 5, 6, 7]]

    @pytest.mark.parametrize("task_map, match", [
        ({0: [0, 1, 2, 3], 1: [4, 5, 6, 9]}, "task 1 names sample 9 of 8"),
        ({0: [0, 1, 2, 3], 1: [3, 4, 5]}, "task 1 names sample 3 named before"),
        ({0: [0, 1, 1]}, "task 0 names sample 1 named before"),
    ], ids=["out-of-range", "in-two-tasks", "twice-in-a-task"])
    def test_task_incremental_rejects_a_task_map_that_is_no_partition(self, task_map, match):
        ds = _dataset(num_classes=4, samples_per_class=2)
        ds.task_map = task_map
        with pytest.raises(ValueError, match=match):
            build_stream(ds, "task_incremental")

    def test_task_incremental_requires_partition(self):
        with pytest.raises(ValueError):
            build_stream(_dataset(), "task_incremental")

    def test_deterministic_per_seed(self):
        ds = _dataset()
        a = build_stream(ds, "data_incremental", seed=5)
        b = build_stream(ds, "data_incremental", seed=5)
        c = build_stream(ds, "data_incremental", seed=6)
        assert [s.sample_ids for s in a] == [s.sample_ids for s in b]
        assert [s.sample_ids for s in a] != [s.sample_ids for s in c]

    def test_bad_fractions(self):
        ds = _dataset()
        for fr in ((2, 4, 50), (10, 10, 100), (0, 100), (100, 50), ()):
            with pytest.raises(ValueError):
                build_stream(ds, "data_incremental", fractions=fr)

    def test_unknown_protocol(self):
        for protocol in ("magic", "union_data_incremental"):
            with pytest.raises(ValueError, match="unknown protocol"):
                build_stream(_dataset(), protocol)

    def test_default_suite_covers_everything(self):
        ds = _dataset(num_classes=3, samples_per_class=2)
        stream = build_stream(ds, "data_incremental")
        suite = stream[0].suites[0]
        assert sorted(suite.sample_ids) == list(range(6))
        assert suite.candidates == {0, 1, 2}


class TestEngineRun:
    def test_metrics_shape(self):
        ds = _dataset(num_classes=4, samples_per_class=3, seed=2)
        stream = build_stream(ds, "data_incremental", seed=2,
                              fractions=(25, 50, 100))
        record = run_stream(ds, stream, _fast_config(seed=2))
        stages = sorted({s for s, _, _ in record.rows})
        assert stages == [0, 1, 2, 3]  # stage 0 is the pre-training baseline
        for s in stages:
            assert 0.0 <= record.accuracy(s, "all") <= 1.0

    def test_suite_names_must_denote_one_suite(self, monkeypatch):
        # A metrics row names its suite: one name for two suites, or one suite twice
        # in a stage, is rejected before any sample is trained or scored.
        ds = _dataset(num_classes=3, samples_per_class=2)
        a0, a12 = EvalSuite("a", [0], {0, 1, 2}), EvalSuite("a", [1, 2], {0, 1, 2})
        engine = Engine(ds, _fast_config())
        monkeypatch.setattr(engine, "process", lambda idx: pytest.fail("trained"))
        monkeypatch.setattr(engine, "evaluate_suite", lambda suite: pytest.fail("scored"))
        for stages, message in (
                ([StreamStage(1, [0], [a0]), StreamStage(2, [1], [a0, a12])], "two different"),
                ([StreamStage(1, [0], [a0]), StreamStage(2, [1], [a12])], "two different"),
                ([StreamStage(1, [0], [a0, a0])], "stage 1 lists a suite twice")):
            with pytest.raises(ValueError, match=message):
                engine.run(stages)
        # Equal suites under one name, one per stage, are one suite.
        stages = [StreamStage(k, [k], [EvalSuite("a", [0, 3], {0, 1, 2})]) for k in (1, 2)]
        record = Engine(ds, _fast_config()).run(stages)
        assert [(stage, name) for stage, name, _ in record.rows] == [(0, "a"), (1, "a"), (2, "a")]

    def test_frozen_only_constant_across_stages(self):
        # Training never touches the frozen path, so every stage scores the
        # same with frozen-only weighting.
        ds = _dataset(num_classes=4, samples_per_class=4, seed=6, noise=0.3)
        stream = build_stream(ds, "data_incremental", seed=6,
                              fractions=(25, 50, 100))
        record = run_stream(ds, stream, _fast_config(weighting="frozen-only"))
        accs = {acc for _, _, acc in record.rows}
        assert len(accs) == 1

    def test_run_deterministic_per_seed(self):
        ds = _dataset(num_classes=3, samples_per_class=4, seed=8)
        stream = build_stream(ds, "data_incremental", seed=8,
                              fractions=(50, 100))
        r1 = run_stream(ds, stream, _fast_config(seed=8))
        r2 = run_stream(ds, stream, _fast_config(seed=8))
        assert r1.rows == r2.rows

    def test_all_weightings_produce_valid_distributions(self):
        ds = _dataset(num_classes=3, samples_per_class=3, seed=4)
        for weighting in ("ocw", "ocw-binary", "aim", "nn-loo",
                          "frozen-only", "tuned-only"):
            engine = Engine(ds, _fast_config(weighting=weighting, seed=4))
            for idx in range(4):
                engine.process(idx)
            probs = engine.predict(ds.tokens(0), {0, 1, 2})
            assert probs.shape == (3,) and probs.dtype == np.float64
            assert sum(probs.tolist()) == pytest.approx(1.0, abs=1e-9)

    def test_unseen_candidates_fall_back_to_frozen_bit_exact(self):
        # With no training on labels 3 and 4, predictions over those
        # candidates equal the frozen output exactly.
        ds = _dataset(num_classes=5, samples_per_class=3, seed=10)
        engine = Engine(ds, _fast_config(seed=10))
        trained = [i for i, (_, label) in enumerate(ds.samples) if label < 3]
        for idx in trained:
            engine.process(idx)
        tokens = ds.tokens(0)
        got = engine.predict(tokens, {3, 4})
        frozen = engine.frozen_probabilities(tokens, {3, 4})
        assert np.array_equal(got, list(frozen.values()))

    def test_all_seen_candidates_use_tuned_bit_exact(self):
        ds = _dataset(num_classes=3, samples_per_class=4, seed=12)
        engine = Engine(ds, _fast_config(seed=12))
        for idx in range(len(ds.samples)):
            engine.process(idx)
        assert engine.store.seen_labels() == [0, 1, 2]
        tokens = ds.tokens(1)
        got = engine.predict(tokens, {0, 1, 2})
        tuned = candidate_probabilities(decode(tokens, engine.params),
                                        engine.table.matrix([0, 1, 2]), stable=False)
        assert np.array_equal(got, tuned)

    def test_ocw_mix_matches_reference(self, monkeypatch):
        # Trained labels 1 and 2 mix by c_t / (c_t + c_o + eps); untrained 3 and 4 take 0.
        ds = _dataset(num_classes=6, samples_per_class=4, seed=16)
        engine = Engine(ds, _fast_config(seed=16))
        for idx, (_, label) in enumerate(ds.samples):
            if label < 3:
                engine.process(idx)
        labels = [1, 2, 3, 4]
        mat = np.stack([ds.label_table.embedding(y).astype(np.float64) for y in labels])
        for idx in range(len(ds.samples)):
            tokens = ds.tokens(idx)
            probs = []
            for x in (tokens[0], decode(tokens, engine.params)):
                x = x.astype(np.float64)
                q = np.exp(TEMPERATURE * np.clip(mat @ x / np.linalg.norm(x), -1, 1))
                probs.append(q / q.sum())
            p_o, p_t = probs
            a = np.zeros(len(labels))
            for j, y in enumerate(labels[:2]):
                c_t, c_o = engine.tracker.acc[engine.table.rows([y])[0]]
                a[j] = c_t / (c_t + c_o + EPS)
            mixed = a * p_t + (1.0 - a) * p_o
            got = engine.predict(tokens, set(labels))
            assert got == pytest.approx(mixed / mixed.sum(), rel=1e-12)
        assert 0 < a[0] < 1 and 0 < a[1] < 1

        calls = []
        monkeypatch.setattr(protocols, "decode", lambda *a: calls.append(1) or decode(*a))
        engine.predict(ds.tokens(0), set(labels))
        assert len(calls) == 1

    @pytest.mark.parametrize("weighting", ["nn-loo", "aim"])
    def test_never_trained_candidates_give_frozen_bit_exact(self, weighting):
        ds = _dataset(num_classes=6, samples_per_class=4, seed=10)
        engine = Engine(ds, _fast_config(weighting=weighting, seed=10))
        for idx, (_, label) in enumerate(ds.samples):
            if label < 3:
                engine.process(idx)
        unseen = {3, 4, 5}
        for idx in range(len(ds.samples)):
            tokens = ds.tokens(idx)
            frozen = engine.frozen_probabilities(tokens, unseen)
            assert np.array_equal(engine.predict(tokens, unseen), list(frozen.values()))

    def test_nn_loo_all_seen_candidates_use_tuned_bit_exact(self):
        ds = _dataset(num_classes=3, samples_per_class=4, seed=12)
        engine = Engine(ds, _fast_config(weighting="nn-loo", seed=12))
        for idx in range(len(ds.samples)):
            engine.process(idx)
        for idx in range(len(ds.samples)):
            tokens = ds.tokens(idx)
            tuned = candidate_probabilities(decode(tokens, engine.params),
                                            engine.table.matrix([0, 1, 2]), stable=False)
            assert np.array_equal(engine.predict(tokens, {0, 1, 2}), tuned)

    @pytest.mark.parametrize("weighting", protocols.WEIGHTINGS)
    def test_suite_scores_as_per_sample_predict(self, weighting):
        ds = _dataset(num_classes=6, samples_per_class=5, seed=18)
        engine = Engine(ds, _fast_config(weighting=weighting, seed=18))
        for idx, (_, label) in enumerate(ds.samples):
            if label < 3 and idx % 5:
                engine.process(idx)
        unseen = [i for i, (_, label) in enumerate(ds.samples) if label >= 3]
        suites = [EvalSuite("all", list(range(len(ds.samples))), set(range(6))),  # 30 = 7 * 4 + 2
                  EvalSuite("one", [7], {1, 2, 4}),
                  EvalSuite("unseen", unseen, {3, 4, 5})]
        for suite in suites:
            accuracy, predictions = engine.evaluate_suite(suite)
            labels = sorted(suite.candidates)
            assert predictions.labels == labels
            hits = 0
            for row, idx in enumerate(suite.sample_ids):
                tokens = ds.tokens(idx)
                got, alone = predictions.probs[row], engine.predict(tokens, suite.candidates)
                assert got.shape == alone.shape == (len(labels),)
                assert np.abs(got - alone).max() <= 1e-12
                winner = argmax_label(dict(zip(labels, alone.tolist())))
                assert predictions.winners[row] == argmax_label(predictions[idx]) == winner
                if suite.name == "unseen" and weighting != "tuned-only":
                    frozen = engine.frozen_probabilities(tokens, suite.candidates)
                    assert np.array_equal(got, list(frozen.values()))
                hits += winner == ds.samples[idx][1]
            assert accuracy == hits / len(suite.sample_ids)

    @pytest.mark.parametrize("slice_bytes, predicts", [
        (protocols.EVAL_SLICE_BYTES, [25]),
        (2 * 4 * 256, [8, 8, 8, 1]),  # two batches of four 256-byte rows
        (1, [4, 4, 4, 4, 4, 4, 1]),  # never less than one batch
    ], ids=["one-slice", "two-batch-slices", "one-batch-floor"])
    def test_suite_scored_one_predict_per_slice(self, monkeypatch, slice_bytes, predicts):
        ds = _dataset(num_classes=5, samples_per_class=5, seed=19)  # T=4, D=16: 256 bytes a row
        engine = Engine(ds, _fast_config(weighting="nn-loo", seed=19))  # batch_size 4
        for idx in range(10):
            engine.process(idx)
        monkeypatch.setattr(protocols, "EVAL_SLICE_BYTES", slice_bytes)
        calls, decoded = [], []
        monkeypatch.setattr(protocols, "decode",
                            lambda tokens, params: decoded.append(tokens)
                            or decode(tokens, params))
        original = Engine.predict
        monkeypatch.setattr(Engine, "predict",
                            lambda self, tokens, *a, **kw: calls.append(len(tokens))
                            or original(self, tokens, *a, **kw))
        suite = EvalSuite("all", list(range(24, -1, -1)), set(range(5)))
        engine.evaluate_suite(suite)
        assert calls == predicts
        # The ten stored samples are decoded first, for the nn-loo maps of the mix set-up;
        # every later decode is one batch of the suite, in suite order.
        stored = decoded[:3]
        groups = decoded[3:]
        assert [len(t) for t in stored] == [4, 4, 2]
        assert np.array_equal(np.concatenate(stored), engine.store.tokens(range(10)))
        assert [len(t) for t in groups] == [4, 4, 4, 4, 4, 4, 1]
        assert np.array_equal(np.concatenate(groups),
                              np.stack([ds.tokens(idx) for idx in suite.sample_ids]))

    @pytest.mark.parametrize("weighting", protocols.WEIGHTINGS)
    def test_empty_array_predicts_no_rows(self, weighting):
        ds = _dataset(num_classes=3, samples_per_class=2, seed=27)
        engine = Engine(ds, _fast_config(weighting=weighting, seed=27))
        for tokens in (np.zeros((0, 4, 16), np.float32), ds.tokens(0)[None]):
            assert engine.predict(tokens, {0, 2}).shape == (len(tokens), 2)

    @pytest.mark.parametrize("weighting", protocols.WEIGHTINGS)
    @pytest.mark.parametrize("engine_kw", [
        dict(),
        dict(decoder_variant="block", compression="pca-cls-quant", pca_components=2),
    ], ids=["linear-raw", "block-pcaq"])
    def test_slices_score_the_bits_of_batch_size_chunks(self, monkeypatch, weighting,
                                                        engine_kw):
        ds = _dataset(num_classes=6, samples_per_class=5, seed=26)  # T=4, D=16
        engine = Engine(ds, _fast_config(weighting=weighting, seed=26, **engine_kw))
        for idx, (_, label) in enumerate(ds.samples):
            if label < 4 and idx % 3:
                engine.process(idx)
        ids = [int(i) for i in np.random.default_rng(26).permutation(30)] + [5]
        for candidates in (set(range(6)), {1, 3, 4, 5}, {4, 5}):  # 4 and 5 never trained
            batches = [engine.predict(np.stack([ds.tokens(idx) for idx in ids[i:i + 4]]),
                                      candidates) for i in range(0, len(ids), 4)]
            expected = np.concatenate(batches).tobytes()
            # One slice; 12, 12 and 7 rows (a budget of 14.4 rows); eight of one batch or less.
            # The second and third evaluations slice the frozen rows kept from the first.
            for slice_bytes in (protocols.EVAL_SLICE_BYTES, 3 * 4 * 256 + 700, 1):
                monkeypatch.setattr(protocols, "EVAL_SLICE_BYTES", slice_bytes)
                _, result = engine.evaluate_suite(EvalSuite("s", ids, candidates))
                assert result.probs.tobytes() == expected

    @pytest.mark.parametrize("weighting", ["ocw", "nn-loo"])
    def test_mix_setup_built_once_per_candidate_set_and_state(self, monkeypatch, weighting):
        # A suite scored in four slices shares one set-up: one alpha array and (nn-loo)
        # one nn-loo map. Other candidates in the same state take new alphas over the
        # same map; a training step makes both anew.
        ds = _dataset(num_classes=5, samples_per_class=5, seed=19)  # T=4, D=16: 256 bytes a row
        engine = Engine(ds, _fast_config(weighting=weighting, seed=19))  # batch_size 4
        for idx in range(10):  # labels 0 and 1
            engine.process(idx)
        monkeypatch.setattr(protocols, "EVAL_SLICE_BYTES", 2 * 4 * 256)  # 8, 8, 8 and 1 rows
        calls = {"alpha": 0, "nn_loo_confidence": 0}

        def count(name):
            original = getattr(protocols, name)
            monkeypatch.setattr(protocols, name, lambda *a, **kw: calls.update(
                {name: calls[name] + 1}) or original(*a, **kw))

        count("alpha")
        count("nn_loo_confidence")
        nn = int(weighting == "nn-loo")
        everything = EvalSuite("all", list(range(25)), set(range(5)))
        engine.evaluate_suite(everything)
        assert calls == {"alpha": 1, "nn_loo_confidence": nn}
        engine.evaluate_suite(EvalSuite("some", list(range(25)), {0, 1, 3}))
        assert calls == {"alpha": 2, "nn_loo_confidence": nn}
        engine.process(10)
        engine.evaluate_suite(everything)
        assert calls == {"alpha": 3, "nn_loo_confidence": 2 * nn}

    def test_nn_loo_maps_rebuilt_when_store_or_decoder_changes(self):
        ds = _dataset(num_classes=5, samples_per_class=4, seed=20)
        engine = Engine(ds, _fast_config(weighting="nn-loo", seed=20))
        suite = EvalSuite("all", list(range(len(ds.samples))), set(range(5)))
        for stage in build_stream(ds, "data_incremental", seed=20, fractions=(25, 50, 100)):
            for idx in stage.sample_ids:
                engine.process(idx)
            cached = engine._nn_loo_maps()
            engine._nn_cache = (None, None)
            assert cached.tobytes() == engine._nn_loo_maps().tobytes()
            engine.evaluate_suite(suite)

    def test_kept_frozen_neighbours_give_the_reference_map(self, tmp_path):
        # Copies of three token matrices under another label, and two plain repeats,
        # make ties in the frozen search. After one and after several inserts, after a
        # reset with none, and on a restored engine, the frozen map is nn_loo_confidence
        # over the stored CLS rows.
        base = _dataset(num_classes=4, samples_per_class=4, seed=21)
        picks = [*range(len(base)), 0, 5, 9, 2, 7]
        labels = base.label_ids[picks]
        labels[-5:-2] = (labels[-5:-2] + 1) % 4
        ds = Dataset(base.label_table, base.token_rows[picks], labels)
        order = [int(i) for i in np.random.default_rng(21).permutation(len(ds))]

        def check(engine):
            ids = range(len(engine.store))
            tokens, labels = engine.store.tokens(ids), engine.store.labels(ids)
            reference = nn_loo_confidence([(t[0], y) for t, y in zip(tokens, labels)])
            want = np.zeros(len(engine.table))  # a label stored less than twice holds 0
            want[engine.table.rows(reference)] = list(reference.values())
            maps = engine._nn_loo_maps()
            assert maps.shape == (len(engine.table), 2)
            assert maps[:, 1].tolist() == want.tolist()
            return maps.tolist()

        engine = Engine(ds, _fast_config(weighting="nn-loo", seed=21))
        done = 0
        for step in (1, 1, 3, 1, 5, 2):
            for idx in order[done:done + step]:
                engine.process(idx)
            done += step
            maps = check(engine)
            engine._nn_cache = (None, None)
            assert check(engine) == maps
        engine.snapshot(tmp_path / "engine.snap")
        restored = Engine.restore(tmp_path / "engine.snap", ds)
        for step in (1, 4, len(order)):
            for idx in order[done:done + step]:
                engine.process(idx)
                restored.process(idx)
            done += step
            assert check(restored) == check(engine)

    def test_second_suite_at_a_stage_decodes_no_stored_sample(self, monkeypatch):
        ds = _dataset(num_classes=5, samples_per_class=5, seed=19)
        engine = Engine(ds, _fast_config(weighting="nn-loo", seed=19))  # batch_size 4
        for idx in range(10):
            engine.process(idx)
        suite = EvalSuite("all", list(range(25)), set(range(5)))
        first = engine.evaluate_suite(suite)
        decodes, reads = [], []
        monkeypatch.setattr(protocols, "decode",
                            lambda tokens, params: decodes.append(len(tokens))
                            or decode(tokens, params))
        original = ReplayStore.tokens
        monkeypatch.setattr(ReplayStore, "tokens",
                            lambda self, ids: reads.append(ids) or original(self, ids))
        assert engine.evaluate_suite(suite) == first
        assert decodes == [4, 4, 4, 4, 4, 4, 1] and reads == []

    @pytest.mark.parametrize("weighting", protocols.WEIGHTINGS)
    def test_winners_follow_argmax_label(self, weighting):
        # Labels 0 and 1 (2 and 3) tie exactly in both scorers; the winner is
        # argmax_label's on the returned dict, the lowest label id on a tie.
        ds = _tied_dataset(seed=22)
        engine = Engine(ds, _fast_config(weighting=weighting, seed=22))
        for idx, (_, label) in enumerate(ds.samples):
            if label in (0, 1, 4) and idx % 3:
                engine.process(idx)
        ids = list(range(len(ds.samples)))
        ties = 0
        for suite in (EvalSuite("all", ids, set(range(6))), EvalSuite("one", ids, {3})):
            accuracy, predictions = engine.evaluate_suite(suite)
            hits = 0
            for idx in ids:
                dist = predictions[idx]
                best = max(dist.values())
                ties += sum(p == best for p in dist.values()) > 1
                hits += argmax_label(dist) == ds.samples[idx][1]
            assert accuracy == hits / len(ids)
        if weighting in ("frozen-only", "tuned-only", "aim", "ocw-binary"):
            assert ties > 0
        assert engine.evaluate_suite(EvalSuite("one", ids, {3}))[0] == 1 / 6

    def test_process_updates_tracker_as_argmax_label_of_both_scorers(self):
        ds = _tied_dataset(seed=23)
        for variant in ("linear", "block"):
            engine = Engine(ds, _fast_config(decoder_variant=variant, seed=23))
            ref = protocols.ClassAccuracyTracker(engine.table, decay=engine.tracker.decay)
            outcomes = set()
            for idx, (tokens, label) in enumerate(ds.samples):
                candidates = set(engine.store.seen_labels()) | {label}
                tuned = argmax_label(zero_shot_probabilities(
                    decode(ds.tokens(idx), engine.params), engine.table, candidates))
                frozen = argmax_label(engine.frozen_probabilities(ds.tokens(idx), candidates))
                ref.ema_update(label, tuned == label, frozen == label)
                outcomes.add((tuned == label, frozen == label))
                engine.process(idx)
                assert engine.tracker.acc.tobytes() == ref.acc.tobytes()
                assert engine.tracker.n_seen.tolist() == ref.n_seen.tolist()
            assert len(outcomes) > 1

    @pytest.mark.parametrize("config", [
        dict(weighting="nn-loo"),
        dict(decoder_variant="block", compression="pca-cls-quant", pca_components=2,
             sampler=SamplerConfig(strategy="fws", batch_size=4)),
    ], ids=["linear-nnloo", "block-pcaq-fws"])
    def test_a_sample_that_cannot_be_scored_leaves_the_engine_as_it_was(self, config):
        # Sample 4's CLS row has zero norm, so scoring it raises. It is scored before it
        # is stored: the engine keeps its store, step, parameters, tracker and RNG
        # state, and goes on to train and evaluate (nn-loo extends its neighbours).
        # A dataset rejects such a row, so it is written into the dataset's tokens.
        ds = _dataset(num_classes=3, samples_per_class=3, seed=25)
        ds.token_rows[4, 0] = 0.0

        def state(engine):
            return (len(engine.store), engine.opt.step, engine.params.flat.tobytes(),
                    engine.tracker.acc.tobytes(), engine.tracker.n_seen.tolist(),
                    engine.rng.bit_generator.state)

        suite = EvalSuite("all", [0, 1, 2, 3, 5, 6], {0, 1, 2})
        for stored in (0, 3):
            engine = Engine(ds, _fast_config(seed=25, **config))
            for idx in range(stored):
                engine.process(idx)
            before = state(engine)
            with pytest.raises(ValueError, match="zero-norm"):
                engine.process(4)
            assert state(engine) == before
            engine.process(5)
            engine.evaluate_suite(suite)
            assert len(engine.store) == engine.opt.step == stored + 1

    @pytest.mark.parametrize("weighting", protocols.WEIGHTINGS)
    def test_runs_without_argmax_label(self, monkeypatch, weighting):
        def refuse(dist):
            raise AssertionError("argmax_label called")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "ovstream" and getattr(module, "argmax_label", None):
                monkeypatch.setattr(module, "argmax_label", refuse)
        assert core.argmax_label is refuse
        ds = _dataset(num_classes=4, samples_per_class=3, seed=24)
        stream = build_stream(ds, "data_incremental", seed=24, fractions=(50, 100))
        record = run_stream(ds, stream, _fast_config(weighting=weighting, seed=24))
        assert len(record.rows) == 3

    @pytest.mark.parametrize("weighting", ["ocw", "ocw-binary", "nn-loo"])
    def test_predictions_are_combined_predictions_result(self, monkeypatch, weighting):
        # The engine's distributions are the values combined_prediction returns:
        # a 1e-15 nudge to them changes every prediction, the benchmark's
        # never-trained check included.
        ds = _dataset(num_classes=6, samples_per_class=4, seed=25)
        engine = Engine(ds, _fast_config(weighting=weighting, seed=25))
        for idx, (_, label) in enumerate(ds.samples):
            if label < 3:
                engine.process(idx)
        ids = list(range(len(ds.samples)))
        suites = [EvalSuite("all", ids, set(range(6))), EvalSuite("unseen", ids, {3, 4, 5})]
        before = [engine.evaluate_suite(suite)[1] for suite in suites]
        original = protocols.combined_prediction

        def nudged(*args, **kwargs):
            return {y: p * (1 + 1e-15) for y, p in original(*args, **kwargs).items()}

        monkeypatch.setattr(protocols, "combined_prediction", nudged)
        after = [engine.evaluate_suite(suite)[1] for suite in suites]
        for old, new in zip(before, after):
            assert all(old[idx] != new[idx] for idx in ids)

    def test_compression_modes_run(self):
        ds = _dataset(num_classes=3, samples_per_class=3, dim=12, tokens=5,
                      seed=14)
        stream = build_stream(ds, "data_incremental", seed=14,
                              fractions=(50, 100))
        for mode in compression.MODES:
            config = _fast_config(compression=mode, pca_components=3, seed=14)
            record = run_stream(ds, stream, config)
            assert record.accuracy(2, "all") >= 0.0

    def test_invalid_config_rejected(self):
        for kw in (dict(weighting="nope"), dict(compression="zip"),
                   dict(decoder_variant="conv"), dict(lr=0.0),
                   dict(ema_decay=0.0), dict(beta=-1.0), dict(weight_decay=-1.0),
                   dict(pca_components=0), dict(lr=float("nan")), dict(lr=float("inf")),
                   dict(beta=float("nan")), dict(beta=float("inf")),
                   dict(weight_decay=float("nan")), dict(weight_decay=float("inf"))):
            with pytest.raises(ValueError):
                EngineConfig(**kw).validate()

    def test_dataset_pca_rejected_as_stream_mode(self):
        with pytest.raises(ValueError, match="ovstream compress"):
            EngineConfig(compression="dataset-pca").validate()


class TestFrozenRowsAndUntrainedSuites:
    """``evaluate_suite`` keeps each suite's frozen rows, and ``predict`` decodes nothing
    for candidates the decoder has not trained on; neither changes a bit."""

    @staticmethod
    def _engine(weighting, **kw):
        # Labels 0-2 trained, 3-5 never; 30 samples of 256 bytes (T=4, D=16), batch 4.
        ds = _dataset(num_classes=6, samples_per_class=5, seed=28)
        engine = Engine(ds, _fast_config(weighting=weighting, seed=28, **kw))
        for idx, (_, label) in enumerate(ds.samples):
            if label < 3 and idx % 4:
                engine.process(idx)
        assert engine.store.seen_labels() == [0, 1, 2]
        return ds, engine

    @staticmethod
    def _count_products(monkeypatch):
        # Each product's embeddings and whether it ran the stable kernel.
        calls = []
        original = protocols.candidate_probabilities
        monkeypatch.setattr(protocols, "candidate_probabilities",
                            lambda e, mat, *, stable: calls.append((np.array(e), stable))
                            or original(e, mat, stable=stable))
        return calls

    @pytest.mark.parametrize("weighting", protocols.WEIGHTINGS)
    def test_frozen_product_runs_once_per_suite_then_never(self, monkeypatch, weighting):
        ds, engine = self._engine(weighting)
        monkeypatch.setattr(protocols, "EVAL_SLICE_BYTES", 2 * 4 * 256)  # 8, 8, 8 and 6 rows
        calls = self._count_products(monkeypatch)
        suite = EvalSuite("all", list(range(29, -1, -1)), set(range(6)))
        cls_rows = ds.token_rows[suite.sample_ids, 0]
        tuned = weighting != "frozen-only"  # a tuned product per slice
        first = int(weighting != "tuned-only")  # tuned-only reads no frozen rows
        for frozen_products in (first, 0):
            calls.clear()
            engine.evaluate_suite(suite)
            assert len(calls) == frozen_products + 4 * tuned
            assert sum(np.array_equal(e, cls_rows) for e, _ in calls) == frozen_products
            # Frozen rows by the stable kernel, first; tuned rows by the BLAS product.
            assert [s for _, s in calls] == [True] * frozen_products + [False] * 4 * tuned
        if first:  # the kept rows are the bits that per-slice products give
            mat = engine.table.matrix(range(6))
            want = np.concatenate([candidate_probabilities(cls_rows[k:k + 8], mat, stable=True)
                                   for k in range(0, 30, 8)])
            assert engine._frozen["all"][1].tobytes() == want.tobytes()
        else:
            assert engine._frozen == {}

    def test_suite_renamed_or_redefined_is_recomputed(self, monkeypatch):
        ds, engine = self._engine("ocw")
        calls = self._count_products(monkeypatch)
        suites = [EvalSuite("s", [0, 1, 2], {0, 1, 4}), EvalSuite("s", [0, 1, 3], {0, 1, 4}),
                  EvalSuite("s", [0, 1, 3], {0, 1, 5}), EvalSuite("t", [0, 1, 3], {0, 1, 5})]
        for suite in suites:
            calls.clear()
            _, result = engine.evaluate_suite(suite)
            # One frozen and one tuned product: nothing reused.
            assert [s for _, s in calls] == [True, False]
            fresh = self._engine("ocw")[1].evaluate_suite(suite)[1]
            assert result.probs.tobytes() == fresh.probs.tobytes()
        assert sorted(engine._frozen) == ["s", "t"]
        key, rows = engine._frozen["s"]
        assert key == ((0, 1, 3), (0, 1, 5)) and rows.shape == (3, 3)

    @pytest.mark.parametrize("weighting", protocols.WEIGHTINGS)
    def test_never_trained_suite_decodes_nothing(self, monkeypatch, weighting):
        ds, engine = self._engine(weighting)
        fresh = Engine(ds, _fast_config(weighting=weighting, seed=28))
        decodes = []
        monkeypatch.setattr(protocols, "decode",
                            lambda tokens, params: decodes.append(len(tokens))
                            or decode(tokens, params))
        ids = list(range(30))
        # Never-trained labels after training, and every label before any training.
        for eng, candidates in ((engine, {3, 4, 5}), (fresh, set(range(6)))):
            _, result = eng.evaluate_suite(EvalSuite("untrained", ids, candidates))
            if weighting != "tuned-only":
                frozen = [list(eng.frozen_probabilities(ds.tokens(i), candidates).values())
                          for i in ids]
                assert np.array_equal(result.probs, frozen)
        if weighting == "tuned-only":
            assert decodes
        else:
            assert decodes == []


class TestSuitePredictions:
    """``evaluate_suite``'s result: one (N, C) array, argmax winners, dicts on access."""

    @staticmethod
    def _tied_engine():
        # Labels 0 and 1 share one embedding, so over {0, 1} every frozen row ties exactly.
        ds = _tied_dataset(seed=22)
        return ds, Engine(ds, _fast_config(weighting="frozen-only", seed=22))

    @staticmethod
    def _trained_engine():
        ds = _dataset(num_classes=5, samples_per_class=5, seed=19)
        engine = Engine(ds, _fast_config(weighting="nn-loo", seed=19))  # batch_size 4
        for idx in range(10):
            engine.process(idx)
        return engine

    def test_tie_goes_to_the_lowest_label(self):
        ds, engine = self._tied_engine()
        ids = [i for i, (_, label) in enumerate(ds.samples) if label in (0, 1)]
        accuracy, result = engine.evaluate_suite(EvalSuite("tied", ids, {0, 1}))
        assert np.array_equal(result.probs[:, 0], result.probs[:, 1])
        assert result.winners.tolist() == [0] * len(ids)
        assert accuracy == 0.5  # four samples of label 0 hit, four of label 1 miss

    def test_duplicated_id_counts_twice_and_holds_one_entry(self):
        ds, engine = self._tied_engine()
        labels = [label for _, label in ds.samples]
        i, j = labels.index(0), labels.index(1)
        accuracy, result = engine.evaluate_suite(EvalSuite("dup", [i, j, i], {0, 1}))
        assert accuracy == 2 / 3
        assert result.probs.shape == (3, 2) and result.winners.tolist() == [0, 0, 0]
        assert list(result) == [i, j] and len(result) == 2

    def test_empty_suite(self):
        # No prediction backs an accuracy for a suite without samples.
        _, engine = self._tied_engine()
        with pytest.raises(ValueError, match="suite 'none' has no samples"):
            engine.evaluate_suite(EvalSuite("none", [], {0, 1}))

    def test_entry_is_its_row_as_a_dict(self):
        engine = self._trained_engine()
        suite = EvalSuite("some", [3, 17, 8, 21, 0], {4, 0, 2})
        _, result = engine.evaluate_suite(suite)
        assert result.labels == [0, 2, 4]
        for row, idx in enumerate(suite.sample_ids):
            assert list(result[idx]) == sorted(suite.candidates)
            assert result[idx] == dict(zip(result.labels, result.probs[row].tolist()))

    def test_probs_are_the_slices_predict_returned(self, monkeypatch):
        engine = self._trained_engine()
        monkeypatch.setattr(protocols, "EVAL_SLICE_BYTES", 2 * 4 * 256)  # two batches of four
        outputs = []
        original = Engine.predict
        monkeypatch.setattr(Engine, "predict", lambda self, *a, **kw:
                            outputs.append(original(self, *a, **kw)) or outputs[-1])
        _, result = engine.evaluate_suite(EvalSuite("all", list(range(25)), set(range(5))))
        assert [len(chunk) for chunk in outputs] == [8, 8, 8, 1]
        assert result.probs.dtype == np.float64 and result.probs.shape == (25, 5)
        assert result.probs.tobytes() == np.concatenate(outputs).tobytes()

    def test_evaluations_of_one_state_compare_equal(self):
        engine = self._trained_engine()
        suite = EvalSuite("all", list(range(25)), set(range(5)))
        first = engine.evaluate_suite(suite)
        assert engine.evaluate_suite(suite) == first
        assert first[1] == dict(first[1])
        engine.process(10)
        assert engine.evaluate_suite(suite)[1] != first[1]


# Block decoder with compressed storage and FWS replay; linear decoder with
# raw storage, class-balanced replay and nn-loo weighting.
RESUME_CONFIGS = {
    "block-pcaq-fws": dict(decoder_variant="block", compression="pca-cls-quant",
                           pca_components=2, sampler=SamplerConfig(strategy="fws", batch_size=4)),
    "linear-nnloo": dict(weighting="nn-loo"),
}


def _first_stored_row(engine) -> int:
    """The table row of the label of the engine's first stored sample."""
    return engine.table.rows([engine.store.label(0)])[0]


def _forget(tracker, row: int) -> None:
    """Give a tracker row the state of a never-observed label."""
    tracker.acc[row], tracker.n_seen[row] = 0.0, 0


class TestSnapshot:
    """A stream that stops, snapshots, restores and goes on reaches the same bits."""

    @staticmethod
    def _stream_run(ds, config, resume_at=None, path=None):
        """The engine after a data-incremental stream, its metrics rows and every
        evaluated distribution; with ``resume_at``, the engine is snapshot after that
        many samples and the stream finishes on the restored engine."""
        stream = build_stream(ds, "data_incremental", seed=1, fractions=(20, 50, 100))
        engine = Engine(ds, config)
        rows, dists, done = [], [], 0
        for stage in [None] + stream:  # stage 0: before any training
            for idx in stage.sample_ids if stage else []:
                if done == resume_at:
                    engine.snapshot(path)
                    engine = Engine.restore(path, ds)
                engine.process(idx)
                done += 1
            for suite in stream[0].suites:
                acc, dist = engine.evaluate_suite(suite)
                rows.append((stage.index if stage else 0, suite.name, acc))
                dists.append(dist)
        return engine, rows, dists

    @pytest.mark.parametrize("name", sorted(RESUME_CONFIGS))
    def test_resumed_stream_reaches_the_same_bits(self, tmp_path, name):
        ds = _dataset(num_classes=6, samples_per_class=5, seed=3, noise=0.3)
        config = _fast_config(seed=2, **RESUME_CONFIGS[name])
        a, rows_a, dists_a = self._stream_run(ds, config)
        # Stages hold 6, 9 and 15 samples: sample 10 is in the middle of stage 2.
        b, rows_b, dists_b = self._stream_run(ds, config, 10, tmp_path / "engine.snap")
        assert rows_a == rows_b
        assert dists_a == dists_b
        assert a.params.flat.tobytes() == b.params.flat.tobytes()
        assert (a.opt.m.tobytes(), a.opt.v.tobytes()) == (b.opt.m.tobytes(), b.opt.v.tobytes())
        assert a.opt.step == b.opt.step == len(ds.samples)
        assert a.rng.bit_generator.state == b.rng.bit_generator.state
        assert a.tracker.acc.tobytes() == b.tracker.acc.tobytes()
        assert a.tracker.n_seen.tolist() == b.tracker.n_seen.tolist()
        ids = range(len(a.store))
        assert a.store.tokens(ids).tobytes() == b.store.tokens(ids).tobytes()
        for sid in ids:
            sa, sb = a.store.sample(sid), b.store.sample(sid)
            assert (sa.label, sa.batch_count, sa.fws_weight) == (
                sb.label, sb.batch_count, sb.fws_weight)

    # Each edit gives the engine a second record of a fact its store holds, one that
    # disagrees with the store; the snapshot holds each fact once, the store's.
    MISMATCHES = {
        "fws-weight": lambda e: setattr(e.store.sample(0), "fws_weight", 0.5),
        "never-stored-label": lambda e: e.tracker.ema_update(4, True, False),
        "n-seen": lambda e: e.tracker.n_seen.__setitem__(_first_stored_row(e), 99),
        "no-tracker-entry": lambda e: _forget(e.tracker, _first_stored_row(e)),
    }

    @staticmethod
    def _restored(tmp_path, ds, config, edit):
        """An engine trained on labels 0-2 and edited, restored from its snapshot."""
        engine = Engine(ds, config)
        for idx, (_, label) in enumerate(ds.samples):
            if label < 3:
                engine.process(idx)
        edit(engine)
        engine.snapshot(tmp_path / "engine.snap")
        return Engine.restore(tmp_path / "engine.snap", ds)

    @pytest.mark.parametrize("mismatch", sorted(MISMATCHES))
    @pytest.mark.parametrize("name", sorted(RESUME_CONFIGS))
    def test_restore_gives_the_engine_the_store_implies(self, tmp_path, name, mismatch):
        ds = _dataset(num_classes=6, samples_per_class=5, seed=3, noise=0.3)
        config = _fast_config(seed=2, **RESUME_CONFIGS[name])
        engine = self._restored(tmp_path, ds, config, self.MISMATCHES[mismatch])
        store, counts = engine.store, {}
        for sid in range(len(store)):
            sample = store.sample(sid)
            counts[sample.label] = counts.get(sample.label, 0) + 1
            assert sample.fws_weight == config.sampler.fws_weight(sample.batch_count)
        assert any(store.sample(sid).batch_count for sid in range(len(store)))
        labels = engine.dataset.labels()
        rows = engine.table.rows(labels)
        assert store.seen_labels() == [0, 1, 2]
        assert engine.tracker.n_seen[rows].tolist() == [counts.get(y, 0) for y in labels]
        # Only the stored labels have an estimate; the rest hold (0, 0).
        assert not engine.tracker.acc[rows[3:]].any() and engine.tracker.acc[rows[:3]].any()

    @pytest.mark.parametrize("weighting", ["ocw", "aim"])
    def test_tracker_entry_of_a_never_stored_label_keeps_the_frozen_output(self, tmp_path,
                                                                          weighting):
        ds = _dataset(num_classes=6, samples_per_class=5, seed=3, noise=0.3)
        engine = self._restored(tmp_path, ds, _fast_config(seed=2, weighting=weighting),
                                self.MISMATCHES["never-stored-label"])
        unseen = [i for i, (_, label) in enumerate(ds.samples) if label >= 3]
        _, predictions = engine.evaluate_suite(EvalSuite("unseen", unseen, {3, 4, 5}))
        for row, idx in enumerate(unseen):
            frozen = engine.frozen_probabilities(ds.tokens(idx), {3, 4, 5})
            assert np.array_equal(predictions.probs[row], list(frozen.values()))

    @pytest.mark.parametrize("name", sorted(RESUME_CONFIGS))
    @pytest.mark.parametrize("steps", [0, 10])
    def test_snapshot_of_a_restored_engine_is_the_same_file(self, tmp_path, name, steps):
        ds = _dataset(num_classes=6, samples_per_class=5, seed=3, noise=0.3)
        engine = Engine(ds, _fast_config(seed=2, **RESUME_CONFIGS[name]))
        for idx in range(steps):
            engine.process(idx)
        engine.snapshot(tmp_path / "a.snap")
        Engine.restore(tmp_path / "a.snap", ds).snapshot(tmp_path / "b.snap")
        assert (tmp_path / "a.snap").read_bytes() == (tmp_path / "b.snap").read_bytes()


class TestMetricsRecord:
    def test_accuracy_lookup(self):
        record = MetricsRecord()
        record.add(0, "all", 0.5)
        record.add(1, "all", 0.7)
        record.add(1, "held", 0.2)
        assert record.accuracy(1, "all") == 0.7
        with pytest.raises(KeyError):
            record.accuracy(9, "all")


class TestMtilMetrics:
    def test_two_by_two_hand_computed(self):
        a, z, b, c = 0.8, 0.3, 0.6, 0.9
        transfer, avg, last = mtil_metrics([[a, z], [b, c]])
        assert transfer == pytest.approx(z)
        assert avg == pytest.approx(((a + b) / 2 + (z + c) / 2) / 2)
        assert last == pytest.approx((b + c) / 2)

    def test_constant_matrix(self):
        transfer, avg, last = mtil_metrics(np.full((4, 4), 0.5))
        assert (transfer, avg, last) == (0.5, 0.5, 0.5)

    def test_transfer_ignores_diagonal_and_below(self):
        # Lower triangle and diagonal can be anything; Transfer only reads
        # strictly-upper entries.
        m = np.zeros((3, 3))
        m[0, 1], m[0, 2], m[1, 2] = 0.2, 0.4, 0.6
        base = mtil_metrics(m)[0]
        m[np.tril_indices(3)] = 0.99
        assert mtil_metrics(m)[0] == pytest.approx(base)
        # column means: col1 = 0.2, col2 = (0.4 + 0.6)/2 -> mean 0.35
        assert base == pytest.approx((0.2 + 0.5) / 2)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            mtil_metrics([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        with pytest.raises(ValueError):
            mtil_metrics([[1.0]])


class TestZeroForgetting:
    def test_training_on_other_classes_leaves_unseen_predictions_unchanged(self):
        # Per-sample distributions over never-trained candidates are
        # bit-identical before and after training on disjoint classes.
        ds = _dataset(num_classes=6, samples_per_class=3, seed=16)
        engine = Engine(ds, _fast_config(seed=16))
        held_candidates = {4, 5}
        held_ids = [i for i, (_, label) in enumerate(ds.samples) if label >= 4]
        before = [engine.predict(ds.tokens(i), held_candidates) for i in held_ids]
        for i, (_, label) in enumerate(ds.samples):
            if label < 4:
                engine.process(i)
        after = [engine.predict(ds.tokens(i), held_candidates) for i in held_ids]
        assert np.array_equal(before, after)
