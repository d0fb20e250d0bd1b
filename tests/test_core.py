import numpy as np
import pytest
from hypothesis import given, strategies as st

from ovstream.core import (
    CandidateSet,
    LabelEmbeddingTable,
    NumericError,
    argmax_label,
    candidate_probabilities,
    label_cosines,
    unit_rows,
    zero_shot_probabilities,
)


def _cosine(a, b) -> float:
    """Cosine of two vectors through the stable kernel: ``b`` as a one-row label matrix."""
    unit_b, _ = unit_rows(np.asarray(b, dtype=np.float64)[None, :])
    cos, _, _ = label_cosines(a, unit_b, stable=True)
    return float(cos[0])


class TestCosineSimilarity:
    def test_identical_vectors(self):
        assert _cosine([1, 0, 0], [1, 0, 0]) == 1.0

    def test_orthogonal(self):
        assert _cosine([1, 0], [0, 1]) == 0.0

    def test_hand_computed(self):
        # (1,1).(1,0) / (sqrt(2)*1)
        assert _cosine([1, 1], [1, 0]) == pytest.approx(0.70710678, abs=1e-6)

    def test_symmetric(self, rng):
        a = rng.standard_normal(5)
        b = rng.standard_normal(5)
        assert _cosine(a, b) == pytest.approx(_cosine(b, a))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            _cosine([1, 0], [1, 0, 0])

    def test_zero_vector(self):
        with pytest.raises(ValueError, match="zero-norm embedding"):
            _cosine([0, 0], [1, 0])
        with pytest.raises(ValueError, match="zero-norm embedding"):
            unit_rows(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_unit_rows_norm_is_numpy_norm(self, rng):
        # The frozen scorer's outputs stay bit-identical to np.linalg.norm's.
        for row in rng.standard_normal((20, 7)):
            unit, norm = unit_rows(row)
            assert norm[0] == np.linalg.norm(row)
            np.testing.assert_array_equal(unit, row / np.linalg.norm(row))

    def test_rows_score_the_same_in_any_batch(self):
        # Under the stable kernel a row of a batch gets the bits it gets alone, as a
        # vector and as a batch of one, and equal label rows get equal cosines.
        gen = np.random.default_rng(31)
        for _ in range(300):
            b, d, c = (int(gen.integers(1, 200)), int(gen.integers(3, 97)),
                       int(gen.integers(2, 120)))
            labels, _ = unit_rows(gen.standard_normal((c, d)))
            j, k = gen.choice(c, size=2, replace=False)
            labels[j] = labels[k]
            batch = gen.standard_normal((b, d)).astype(np.float32)
            cos, _, _ = label_cosines(batch, labels, stable=True)
            np.testing.assert_array_equal(cos[:, j], cos[:, k])
            for i in gen.choice(b, size=min(b, 3), replace=False):
                np.testing.assert_array_equal(label_cosines(batch[i], labels, stable=True)[0],
                                              cos[i])
                np.testing.assert_array_equal(
                    label_cosines(batch[i:i + 1], labels, stable=True)[0][0], cos[i])

    def test_blas_product_is_the_stable_one_up_to_rounding(self):
        # stable=False is one BLAS product: its cosines, unit rows and norms are the
        # stable kernel's within 1e-15, for single rows, single labels and a D vector.
        gen = np.random.default_rng(37)
        shapes = [(1, 64, 1), (1, 64, 100), (96, 64, 1), (96, 64, 100), (32, 3, 2)]
        shapes += [tuple(int(n) for n in gen.integers(1, 130, 3)) for _ in range(200)]
        for b, d, c in shapes:
            labels, _ = unit_rows(gen.standard_normal((c, d)))
            batch = gen.standard_normal((b, d)).astype(np.float32)
            for e in (batch, batch[0]):
                fast = label_cosines(e, labels, stable=False)
                exact = label_cosines(e, labels, stable=True)
                assert fast[0].shape == exact[0].shape == e.shape[:-1] + (c,)
                np.testing.assert_allclose(fast[0], exact[0], rtol=0, atol=1e-15)
                assert np.abs(fast[0]).max() <= 1.0
                for got, want in zip(fast[1:], exact[1:]):
                    np.testing.assert_array_equal(got, want)


class TestLabelTable:
    def test_unit_norm_on_insert(self):
        table = LabelEmbeddingTable({0: [3.0, 4.0, 0.0]})
        assert np.linalg.norm(table.embedding(0)) == pytest.approx(1.0, abs=1e-5)

    def test_duplicate_label_rejected(self):
        # Label ids are taken as ints, so two keys can name one label.
        with pytest.raises(ValueError, match="duplicate label id 0"):
            LabelEmbeddingTable({0: [1, 0], 0.5: [0, 1]})

    @pytest.mark.parametrize("bad, match", [
        ([0.0, 0.0], "label 7: zero-norm embedding"),
        ([1.0, float("nan")], "label 7: embedding contains non-finite entries"),
        ([1.0, 0.0, 0.0], "label 7: dimension 3 != table dimension 2"),
        ([[1.0, 0.0]], "label 7: embedding must be a non-empty 1-D vector"),
        ([], "label 7: embedding must be a non-empty 1-D vector"),
    ], ids=["zero", "nan", "dimension", "matrix", "empty"])
    def test_bad_entry_is_named(self, bad, match):
        with pytest.raises(ValueError, match=match):
            LabelEmbeddingTable({0: [1.0, 0.0], 3: [0.0, 2.0], 7: bad, 9: [1.0, 1.0]})

    def test_unknown_label(self, small_table):
        with pytest.raises(KeyError):
            small_table.embedding(42)
        with pytest.raises(KeyError):
            small_table.matrix([0, 42])

    def test_matrix_equals_stacked_embeddings(self, small_table):
        for candidates in ([3, 0, 2], [1], range(4)):
            assert all(small_table.embedding(c).dtype == np.float32 for c in candidates)
            want = np.stack([small_table.embedding(c).astype(np.float64)
                             for c in candidates])
            got = small_table.matrix(candidates)
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, want)
        # Callers get a fresh array; the cached matrix cannot be changed through it.
        small_table.matrix([0])[0, 0] = 99.0
        assert small_table.matrix([0])[0, 0] != 99.0


class TestCandidateSet:
    def test_sorted_labels_rows_and_columns(self, small_table):
        got = CandidateSet(small_table, {3, 0, 2})
        assert got.labels == list(got) == [0, 2, 3] and len(got) == 3
        assert got.column == {0: 0, 2: 1, 3: 2} and 2 in got and 1 not in got
        np.testing.assert_array_equal(got.matrix, small_table.matrix([0, 2, 3]))

    def test_of_reuses_a_set_of_the_same_table_only(self, small_table):
        built = CandidateSet(small_table, [1, 0])
        assert CandidateSet.of(small_table, built) is built
        other = LabelEmbeddingTable({0: [1.0] * 8, 1: [0.5] * 8})
        rebuilt = CandidateSet.of(other, built)
        assert rebuilt.table is other and rebuilt.labels == [0, 1]
        np.testing.assert_array_equal(rebuilt.matrix, other.matrix([0, 1]))


class TestZeroShotProbabilities:
    def test_identical_candidates_split_evenly(self):
        table = LabelEmbeddingTable({0: [1.0, 0.0], 1: [1.0, 0.0]})
        probs = zero_shot_probabilities([0.3, 0.8], table, [0, 1])
        assert probs[0] == pytest.approx(0.5)
        assert probs[1] == pytest.approx(0.5)

    def test_matching_candidate_dominates(self):
        table = LabelEmbeddingTable({0: [1.0, 0.0], 1: [0.0, 1.0]})
        probs = zero_shot_probabilities([1.0, 0.0], table, [0, 1])
        # p0 = 1 / (1 + e^-100)
        assert probs[0] == pytest.approx(1.0 / (1.0 + np.exp(-100.0)), abs=1e-10)

    def test_matches_direct_evaluation(self, rng):
        # Independent double-precision softmax over 100*cos for 3 random
        # unit candidates.
        cands = {i: rng.standard_normal(4) for i in range(3)}
        table = LabelEmbeddingTable(cands)
        x = rng.standard_normal(4)
        probs = zero_shot_probabilities(x, table, [0, 1, 2])
        xs = x / np.linalg.norm(x)
        expected_logits = []
        for i in range(3):
            e = np.asarray(table.embedding(i), dtype=np.float64)
            expected_logits.append(100.0 * float(xs @ e / np.linalg.norm(e)))
        exps = np.exp(np.array(expected_logits))
        expected = exps / exps.sum()
        for i in range(3):
            assert probs[i] == pytest.approx(expected[i], abs=1e-6)

    def test_sums_to_one(self, small_table, rng):
        probs = zero_shot_probabilities(rng.standard_normal(8), small_table, range(4))
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-6)

    def test_invariant_to_input_rescaling(self, small_table, rng):
        x = rng.standard_normal(8)
        p1 = zero_shot_probabilities(x, small_table, range(4))
        p2 = zero_shot_probabilities(7.5 * x, small_table, range(4))
        for label in p1:
            assert p1[label] == pytest.approx(p2[label], abs=1e-6)

    def test_extreme_cosines_stay_finite(self):
        table = LabelEmbeddingTable({0: [1.0, 0.0], 1: [-1.0, 0.0]})
        probs = zero_shot_probabilities([1.0, 0.0], table, [0, 1])
        assert all(np.isfinite(p) for p in probs.values())
        assert sum(probs.values()) == pytest.approx(1.0)

    @pytest.mark.parametrize("stable", [True, False])
    def test_non_finite_embeddings_are_a_numeric_error(self, small_table, stable):
        # A NumericError is both: a ValueError of bad input, and the CLI's exit 3.
        batch = np.ones((2, small_table.dim), dtype=np.float32)
        batch[1, 3] = np.inf
        with pytest.raises(NumericError, match="non-finite") as info:
            candidate_probabilities(batch, small_table.matrix([0, 1]), stable=stable)
        assert isinstance(info.value, ValueError) and isinstance(info.value, FloatingPointError)

    def test_empty_candidates(self, small_table):
        with pytest.raises(ValueError):
            zero_shot_probabilities([1.0] * 8, small_table, [])

    def test_unknown_candidate(self, small_table):
        with pytest.raises(KeyError):
            zero_shot_probabilities([1.0] * 8, small_table, [0, 99])


    def test_matrix_gives_rows_of_the_vector_results(self, small_table, rng):
        batch = rng.standard_normal((7, small_table.dim)).astype(np.float32)
        labels = small_table.labels()[::-1]
        probs = zero_shot_probabilities(batch, small_table, labels)
        assert probs.shape == (7, len(labels))
        for i, row in enumerate(batch):
            assert dict(zip(sorted(labels), probs[i].tolist())) == \
                zero_shot_probabilities(row, small_table, labels)
        with pytest.raises(ValueError):
            zero_shot_probabilities(np.full((2, small_table.dim), np.nan), small_table, labels)


class TestArgmaxLabel:
    def test_clear_winner(self):
        assert argmax_label({0: 0.7, 1: 0.3}) == 0

    def test_tie_breaks_to_lowest_id(self):
        assert argmax_label({5: 0.5, 2: 0.5}) == 2

    def test_uniform_gives_smallest(self):
        assert argmax_label({k: 0.2 for k in (9, 3, 7, 1, 5)}) == 1

    def test_insertion_order_irrelevant(self, rng):
        probs = {int(k): float(v) for k, v in zip(range(6), rng.random(6))}
        items = list(probs.items())
        for _ in range(10):
            rng.shuffle(items)
            assert argmax_label(dict(items)) == argmax_label(probs)

    def test_empty(self):
        with pytest.raises(ValueError):
            argmax_label({})


@given(st.lists(st.floats(-5, 5), min_size=2, max_size=8),
       st.integers(0, 2 ** 31))
def test_zero_shot_always_normalized(logit_like, seed):
    gen = np.random.default_rng(seed)
    dim = 6
    table = LabelEmbeddingTable(
        {i: gen.standard_normal(dim) for i in range(len(logit_like))})
    x = gen.standard_normal(dim)
    probs = zero_shot_probabilities(x, table, range(len(logit_like)))
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-6)
    assert all(p >= 0.0 for p in probs.values())
