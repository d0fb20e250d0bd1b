"""Accuracy tracker, per-label alpha, and the combined-prediction mix."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ovstream.core import (
    LabelEmbeddingTable,
    as_embedding,
    label_cosines,
    unit_rows,
    zero_shot_probabilities,
)
from ovstream.weighting import (
    EPS,
    ClassAccuracyTracker,
    FrozenNeighbours,
    aim_alpha,
    alpha,
    combined_prediction,
    mix_predictions,
    nn_loo_confidence,
)


def _tracker(decay=0.99, labels=(0, 1)):
    """A tracker over a table of ``labels``, whose row i holds ``labels[i]``."""
    table = LabelEmbeddingTable({y: np.eye(2)[y % 2] for y in labels})
    return ClassAccuracyTracker(table, decay=decay)


def _acc(tracker, label):
    """The tracker's (c_t, c_o) of ``label``, as a tuple of floats."""
    return tuple(tracker.acc[tracker.table.rows([label])[0]].tolist())


class TestTracker:
    def test_first_update_is_exact_mean(self):
        tracker = _tracker()
        tracker.ema_update(0, tuned_correct=True, frozen_correct=False)
        assert _acc(tracker, 0) == (1.0, 0.0)

    def test_cold_start_running_mean(self):
        tracker = _tracker(decay=0.99)
        outcomes = [True, False, True, True]
        for o in outcomes:
            tracker.ema_update(0, o, o)
        assert _acc(tracker, 0)[0] == pytest.approx(3 / 4)

    def test_ema_after_cold_start(self):
        # decay=0.5 -> cold start covers floor(1/0.5)=2 updates; the third
        # applies the recursion: 0.5 * 0.5 + 0.5 * 0 = 0.25.
        tracker = _tracker(decay=0.5)
        tracker.ema_update(0, True, True)
        tracker.ema_update(0, False, False)
        assert _acc(tracker, 0)[0] == pytest.approx(0.5)
        tracker.ema_update(0, False, False)
        assert _acc(tracker, 0)[0] == pytest.approx(0.25)

    def test_known_recursion_value(self):
        # After cold start at exactly 0.5, one wrong step: 0.99 * 0.5 = 0.495.
        tracker = _tracker(decay=0.99)
        for _ in range(50):
            tracker.ema_update(1, True, True)
            tracker.ema_update(1, False, False)
        # 100 cold-start updates of alternating outcomes leave the mean at 0.5.
        assert _acc(tracker, 1)[0] == pytest.approx(0.5, abs=1e-12)
        tracker.ema_update(1, False, False)
        assert _acc(tracker, 1)[0] == pytest.approx(0.495, abs=1e-12)

    def test_alternating_stream_stays_near_half(self):
        tracker = _tracker(decay=0.99)
        for i in range(1000):
            tracker.ema_update(0, i % 2 == 0, i % 2 == 1)
        t, f = _acc(tracker, 0)
        assert t == pytest.approx(0.5, abs=0.005)
        assert f == pytest.approx(0.5, abs=0.005)

    def test_labels_tracked_independently(self):
        tracker = _tracker(labels=(0, 1, 2))
        tracker.ema_update(0, True, True)
        tracker.ema_update(1, False, False)
        assert _acc(tracker, 0) == (1.0, 1.0)
        assert _acc(tracker, 1) == (0.0, 0.0)
        assert tracker.n_seen.tolist() == [1, 1, 0]

    def test_rows_follow_the_table(self):
        # Row order is the table's, whatever the label ids; an unknown label raises.
        tracker = _tracker(labels=(9, 4, 6))
        tracker.ema_update(4, True, False)
        assert tracker.acc.tolist() == [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
        assert tracker.n_seen.tolist() == [0, 1, 0]
        with pytest.raises(KeyError, match="unknown label id 5"):
            tracker.ema_update(5, True, True)

    def test_equals_the_scalar_recursion_bit_for_bit(self):
        # 150 mixed updates over three labels at decay 0.99: label 0 gets more than
        # the cold-start steps, so both branches of the recursion are crossed. In
        # float64 1 / (1 - 0.99) is 99.99999999999991, so the cold start is 99 steps.
        decay = 0.99
        cold_start = math.floor(1.0 / (1.0 - decay))
        assert cold_start == 99
        gen = np.random.default_rng(7)
        tracker = _tracker(decay=decay, labels=(0, 1, 2))
        ref = {y: [0.0, 0.0, 0] for y in (0, 1, 2)}  # c_t, c_o, n_seen
        for label in gen.choice(3, size=150, p=[0.8, 0.15, 0.05]).tolist():
            outcomes = gen.random(2) < (0.7, 0.4)
            tracker.ema_update(label, bool(outcomes[0]), bool(outcomes[1]))
            s = ref[label]
            for k in (0, 1):
                ind = 1.0 if outcomes[k] else 0.0
                if s[2] < cold_start:
                    s[k] = (s[k] * s[2] + ind) / (s[2] + 1)
                else:
                    s[k] = decay * s[k] + (1.0 - decay) * ind
            s[2] += 1
            for y in (0, 1, 2):
                assert _acc(tracker, y) == (ref[y][0], ref[y][1])
                assert tracker.n_seen[y] == ref[y][2]
        assert ref[0][2] > cold_start


class TestAlpha:
    def test_unseen_label_is_all_frozen(self):
        # A label without an estimate holds (0, 0), whose weight is exactly 0.
        assert alpha(np.zeros((1, 2))).tolist() == [0.0]
        assert alpha([(0.8, 0.2), (0.0, 0.0)])[1] == 0.0

    def test_all_candidates_seen_is_all_tuned(self):
        assert alpha([(0.8, 0.2)], all_candidates_seen=True).tolist() == [1.0]
        assert alpha(np.zeros((2, 2)), all_candidates_seen=True).tolist() == [1.0, 1.0]

    def test_ratio_formula(self):
        a_t = alpha([(0.8, 0.2)])[0]
        assert a_t == 0.8 / (0.8 + 0.2 + 1e-8)

    def test_both_zero_accuracy(self):
        assert alpha([(0.0, 0.0)]).tolist() == [0.0]

    def test_zero_pairs_give_exactly_zero_and_seen_exactly_one(self):
        gen = np.random.default_rng(8)
        confidence = gen.uniform(size=(40, 2))
        confidence[::3] = 0.0
        got = alpha(confidence)
        assert got[::3].tolist() == [0.0] * 14
        assert (got[1::3] > 0).all()
        assert alpha(confidence, all_candidates_seen=True).tolist() == [1.0] * 40
        assert alpha(np.empty((0, 2))).shape == (0,)


def _columns(out, labels):
    """The (B, C) array of a ``{label: (B,) column}`` result, in label order."""
    assert list(out) == list(labels)
    return np.array([out[y] for y in labels]).T


class TestCombinedPrediction:
    def test_all_unseen_returns_frozen_bit_exact(self):
        p_t = np.array([[0.9, 0.1]])
        p_f = np.array([[0.123456789, 0.876543211]])
        out = combined_prediction(p_t, p_f, alpha(np.zeros((2, 2))), [0, 1])
        assert _columns(out, [0, 1]).tolist() == p_f.tolist()

    def test_all_seen_flag_returns_tuned_bit_exact(self):
        p_t = np.array([[0.7, 0.3]])
        out = combined_prediction(p_t, np.array([[0.5, 0.5]]),
                                  alpha([(1.0, 1.0), (1.0, 1.0)], all_candidates_seen=True),
                                  [0, 1])
        assert _columns(out, [0, 1]).tolist() == p_t.tolist()

    def test_hand_computed_mix(self):
        # Label 0 has c_t = c_o = 1 -> alpha = 1/(2 + eps); label 1 has no
        # estimate -> alpha 0.
        p_t = np.array([[1.0, 0.0]])
        p_f = np.array([[0.1, 0.9]])
        out = combined_prediction(p_t, p_f, alpha([(1.0, 1.0), (0.0, 0.0)]), [0, 1])
        x = 1.0 / (2.0 + 1e-8)
        raw0 = x * 1.0 + (1 - x) * 0.1
        raw1 = 0.9
        assert out[0][0] == pytest.approx(raw0 / (raw0 + raw1), rel=1e-9)
        assert out[1][0] == pytest.approx(raw1 / (raw0 + raw1), rel=1e-9)

    def test_tracker_accuracies_as_confidence(self):
        # The OCW source: the tracker's rows of the candidates; untrained 2 holds (0, 0).
        tracker = _tracker(labels=(0, 1, 2))
        tracker.ema_update(0, True, False)
        tracker.ema_update(1, False, True)
        confidence = tracker.acc[tracker.table.rows([0, 1, 2])]
        p_t = np.array([[0.6, 0.3, 0.1]])
        p_f = np.array([[0.2, 0.5, 0.3]])
        out = combined_prediction(p_t, p_f, alpha(confidence), [0, 1, 2])
        a0 = 1.0 / (1.0 + EPS)
        raw = {0: a0 * 0.6 + (1 - a0) * 0.2, 1: 0.5, 2: 0.3}
        total = sum(raw.values())
        assert {y: float(v[0]) for y, v in out.items()} == {y: v / total for y, v in raw.items()}

    def test_output_normalized(self):
        out = combined_prediction(np.array([[0.6, 0.4]]), np.array([[0.2, 0.8]]),
                                  alpha([(1.0, 0.0), (0.0, 0.0)]), [0, 1])
        assert float(sum(out.values())[0]) == pytest.approx(1.0, abs=1e-12)

    def test_candidate_mismatch_rejected(self):
        with pytest.raises(ValueError):
            combined_prediction(np.array([[1.0]]), np.array([[0.5, 0.5]]),
                                alpha(np.zeros((2, 2))), [0, 1])
        for pairs in ([(1.0, 0.0), (0.0, 0.0), (0.0, 0.0)], np.zeros((3, 2))):
            # alphas for three labels, columns for two
            with pytest.raises(ValueError):
                combined_prediction(np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]]),
                                    alpha(pairs), [0, 1, 2])

    def test_zero_mass_raises(self):
        # The scorers' distributions are strictly positive; a hand-made mix
        # with no mass has nothing to renormalize.
        with pytest.raises(ZeroDivisionError):
            mix_predictions(np.array([[0.0, 0.0]]), np.array([[0.0, 0.0]]), np.array([0.5, 0.0]))

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_mix_stays_normalized_for_any_accuracies(self, c_t, c_o):
        out = combined_prediction(np.array([[0.25, 0.75]]), np.array([[0.6, 0.4]]),
                                  alpha([(c_t, c_o), (1.0, 1.0)]), [0, 1])
        assert float(sum(out.values())[0]) == pytest.approx(1.0, abs=1e-9)
        assert all(v[0] >= 0 for v in out.values())

    def test_columns_mix_each_sample_as_alone(self):
        # Row 0's alphas are all 0, row 1's all 1, row 2 mixes, and row 3 has
        # 0 on one label and 1 on the other, which is no corner.
        p_t = np.array([[0.9, 0.1], [0.7, 0.3], [0.6, 0.4], [0.2, 0.8]])
        p_f = np.array([[0.3, 0.7], [0.4, 0.6], [0.5, 0.5], [0.6, 0.4]])
        alphas = np.array([[0.0, 0.0], [1.0, 1.0], [0.25, 0.5], [0.0, 1.0]])
        out = mix_predictions(p_t, p_f, alphas)
        for i in range(4):
            alone = mix_predictions(p_t[i:i + 1], p_f[i:i + 1], alphas[i:i + 1])
            assert out[i].tolist() == alone[0].tolist()
        assert out[0].tolist() == p_f[0].tolist()
        assert out[1].tolist() == p_t[1].tolist()
        # A (B, 1) per-sample alpha column broadcasts over the labels.
        out = mix_predictions(p_t, p_f, np.array([[0.0], [0.5], [0.0], [0.5]]))
        assert out[0].tolist() == p_f[0].tolist() and out[2].tolist() == p_f[2].tolist()

    def test_row_sums_do_not_depend_on_the_batch(self):
        # From 8 labels up ndarray.sum adds in pairs; each row still adds in one
        # order, so a row mixes and sums to the same bits alone as in any batch.
        gen = np.random.default_rng(4)
        for c in (3, 9, 100, 150):
            b = int(gen.integers(2, 40))
            p_t, p_f = (gen.dirichlet(np.full(c, 0.3), size=b) for _ in range(2))
            alphas = gen.uniform(size=c)
            seen = set(range(0, c, 3))
            out = mix_predictions(p_t, p_f, alphas)
            mass = aim_alpha(p_f, list(range(c)), seen)
            for i in range(b):
                alone = mix_predictions(p_t[i:i + 1], p_f[i:i + 1], alphas)
                assert out[i].tobytes() == alone[0].tobytes()
                assert mass[i].tobytes() == aim_alpha(p_f[i:i + 1], list(range(c)), seen)[0].tobytes()

    def test_alpha_monotone_in_tuned_accuracy(self):
        # Fixing c_o, the tuned weight grows with c_t across a grid.
        prev = -1.0
        for c_t in np.linspace(0.0, 1.0, 21):
            a_t = alpha([(float(c_t), 0.4)])[0]
            assert a_t >= prev
            prev = a_t


class TestAimAlpha:
    def test_sums_seen_mass(self):
        p_f = np.array([[0.5, 0.3, 0.2]])
        assert aim_alpha(p_f, [0, 1, 2], {0, 2})[0, 0] == pytest.approx(0.7)

    def test_no_seen_labels(self):
        assert aim_alpha(np.array([[1.0]]), [0], set()).tolist() == [[0.0]]

    def test_columns_give_one_alpha_per_sample(self):
        p_f = np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3]])
        np.testing.assert_array_equal(aim_alpha(p_f, [0, 1, 2], {0, 2}),
                                      [[0.5 + 0.2], [0.1 + 0.3]])


def _nn_loo_loop(exemplars) -> dict[int, float]:
    """Reference: the pairwise loop nn_loo_confidence replaced, one cosine per pair."""
    def cosine(a, b):
        va = as_embedding(a).astype(np.float64)
        vb = as_embedding(b).astype(np.float64)
        if va.size != vb.size:
            raise ValueError(f"dimension mismatch: {va.size} vs {vb.size}")
        na = np.linalg.norm(va)
        nb = np.linalg.norm(vb)
        if na == 0.0 or nb == 0.0:
            raise ValueError("cosine similarity undefined for zero-norm vector")
        return float(np.clip(va @ vb / (na * nb), -1.0, 1.0))

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
            c = cosine(emb_i, emb_j)
            if c > best_cos:
                best_cos = c
                best_j = j
        if items[best_j][1] == label_i:
            hits[label_i] = hits.get(label_i, 0) + 1
    return {
        label: hits.get(label, 0) / counts[label]
        for label in sorted(counts) if counts[label] >= 2
    }


def _exemplar_set(gen: np.random.Generator):
    """Random exemplars with singleton classes and exact duplicates, some relabelled."""
    n = int(gen.integers(2, 25))
    dim = int(gen.integers(1, 9))
    labels = gen.integers(0, int(gen.integers(1, 8)), size=n)
    embs = gen.standard_normal((n, dim)).astype(np.float32)
    for _ in range(int(gen.integers(0, n))):
        i, j = gen.integers(0, n, size=2)
        embs[j] = embs[i]
        if gen.random() < 0.5:
            labels[j] = labels[i]
    return [(embs[i], int(labels[i])) for i in range(n)]


class TestNnLooConfidence:
    def test_matches_brute_force(self, rng):
        items = [(rng.standard_normal(6), int(rng.integers(0, 3)))
                 for _ in range(24)]
        got = nn_loo_confidence(items)

        # Quadratic re-implementation with explicit normalization.
        embs = np.array([e / np.linalg.norm(e) for e, _ in items])
        labels = [label for _, label in items]
        sims = embs @ embs.T
        np.fill_diagonal(sims, -np.inf)
        counts = {label: labels.count(label) for label in set(labels)}
        expect = {}
        for label in sorted(counts):
            if counts[label] < 2:
                continue
            idx = [i for i, lab in enumerate(labels) if lab == label]
            hits = sum(labels[int(np.argmax(sims[i]))] == label for i in idx)
            expect[label] = hits / counts[label]
        assert got == pytest.approx(expect)

    def test_equals_pairwise_loop(self):
        gen = np.random.default_rng(20)
        for _ in range(220):
            items = _exemplar_set(gen)
            assert nn_loo_confidence(items) == _nn_loo_loop(items)

    def test_ties_go_to_the_first_neighbour(self):
        # Items 1 and 2 are both exactly item 0; the first decides.
        v = np.array([0.3, -0.7, 0.2], dtype=np.float32)
        w = np.array([-1.0, 0.5, 0.0], dtype=np.float32)
        items = [(v, 0), (v, 0), (v, 1), (w, 1)]
        assert nn_loo_confidence(items) == _nn_loo_loop(items) == {0: 1.0, 1: 0.0}
        items = [(v, 0), (v, 1), (v, 0), (w, 1)]
        assert nn_loo_confidence(items) == _nn_loo_loop(items) == {0: 0.5, 1: 0.0}

    def test_bad_input_raises_value_error(self):
        good = [(np.array([1.0, 0.0]), 0), (np.array([0.0, 1.0]), 0)]
        for bad in ([(np.array([0.0, 0.0]), 1)], [(np.array([np.nan, 1.0]), 1)],
                    [(np.array([1.0, 0.0, 0.0]), 1)]):
            with pytest.raises(ValueError):
                _nn_loo_loop(good + bad)
            with pytest.raises(ValueError):
                nn_loo_confidence(good + bad)

    @pytest.mark.parametrize("bad", [np.zeros(0), np.zeros((2, 2)), np.array([np.nan, 1.0]),
                                     np.array([1.0, np.inf])],
                             ids=["empty", "2-D", "nan", "inf"])
    def test_bad_exemplar_raises_as_embedding_error(self, bad):
        # The stack is validated once; a bad exemplar still gets as_embedding's message,
        # wherever it sits and whether or not the others share its shape.
        with pytest.raises(ValueError) as expected:
            as_embedding(bad)
        good = [(np.array([1.0, 0.0]), 0), (np.array([0.0, 1.0]), 0)]
        for items in (good + [(bad, 1)], [(bad, 0)] + good, [(bad, 1), (bad.copy(), 1)]):
            with pytest.raises(ValueError) as got:
                nn_loo_confidence(items)
            assert str(got.value) == str(expected.value)

    def test_all_singletons_are_not_compared(self):
        # No class has two exemplars, so no cosine is taken, as in the loop.
        items = [(np.array([0.0, 0.0]), 0), (np.array([1.0, 0.0]), 1)]
        assert nn_loo_confidence(items) == _nn_loo_loop(items) == {}

    def test_tight_clusters_score_one(self):
        items = []
        for label, center in ((0, [1.0, 0.0]), (1, [0.0, 1.0])):
            for eps in (0.0, 0.01, -0.01):
                v = np.array(center, dtype=float)
                v[0] += eps
                items.append((v, label))
        assert nn_loo_confidence(items) == {0: 1.0, 1: 1.0}

    def test_interleaved_classes_score_zero(self):
        # Each point's nearest neighbor belongs to the other class.
        items = [
            (np.array([1.0, 0.0]), 0),
            (np.array([0.9995, 0.0316]), 1),
            (np.array([0.0, 1.0]), 0),
            (np.array([0.0316, 0.9995]), 1),
        ]
        got = nn_loo_confidence(items)
        assert got == {0: 0.0, 1: 0.0}

    def test_singleton_class_omitted(self):
        items = [(np.array([1.0, 0.0]), 0), (np.array([0.9, 0.1]), 0),
                 (np.array([0.0, 1.0]), 5)]
        got = nn_loo_confidence(items)
        assert 5 not in got
        assert 0 in got

    def test_fewer_than_two_items(self):
        assert nn_loo_confidence([(np.array([1.0, 0.0]), 0)]) == {}


class TestFrozenNeighbours:
    """The kept index is nn_loo_confidence's search, done once per pair."""

    @staticmethod
    def _check(index, items):
        # Each row's neighbour and cosine are those of the whole-set search, byte for
        # byte, and so is the confidence map.
        embs = np.array([e for e, _ in items], np.float32)
        sims, _, _ = label_cosines(embs, unit_rows(embs)[0], stable=True)
        np.fill_diagonal(sims, -np.inf)
        assert index.nearest.tolist() == sims.argmax(axis=1).tolist()
        assert index.cosines.tobytes() == sims.max(axis=1).tobytes()
        assert index.confidence([y for _, y in items]) == nn_loo_confidence(items)

    @pytest.mark.parametrize("most", [1, 4, 30], ids=["one", "several", "many"])
    def test_extended_index_is_the_reference_after_each_extend(self, most):
        # Exact duplicates, some relabelled, make ties that the first neighbour wins.
        gen = np.random.default_rng(most)
        for _ in range(150):
            items = _exemplar_set(gen)
            index, done = FrozenNeighbours(len(items[0][0])), 0
            while done < len(items):
                k = int(gen.integers(1, most + 1))
                index.extend(np.array([e for e, _ in items[done:done + k]]))
                done = min(done + k, len(items))
                self._check(index, items[:done])
            index.extend(np.empty((0, len(items[0][0])), np.float32))
            self._check(index, items)

    def test_an_equal_new_row_keeps_the_first_neighbour(self):
        v = np.array([0.3, -0.7, 0.2], dtype=np.float32)
        w = np.array([-1.0, 0.5, 0.0], dtype=np.float32)
        items = [(v, 0), (v, 0), (v, 1), (w, 1)]
        index = FrozenNeighbours(3)
        for e, _ in items:
            index.extend(e[None])
        self._check(index, items)
        assert index.nearest.tolist() == [1, 0, 0, 0]
        assert index.confidence([y for _, y in items]) == {0: 1.0, 1: 0.0}


def test_zero_shot_scale_invariance_through_pipeline(rng):
    # The frozen scorer, and therefore every alpha built on it, is invariant
    # to rescaling the query embedding.
    table = LabelEmbeddingTable({i: rng.standard_normal(16) for i in range(5)})
    x = rng.standard_normal(16)
    p1 = zero_shot_probabilities(x, table, range(5))
    p2 = zero_shot_probabilities(1000.0 * x, table, range(5))
    for label in p1:
        assert abs(p1[label] - p2[label]) <= 1e-7
    a1, a2 = (aim_alpha(np.array([list(p.values())]), list(p), {0, 1}) for p in (p1, p2))
    assert a1[0, 0] == pytest.approx(a2[0, 0], abs=1e-7)
