import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

from ovstream.core import TEMPERATURE, CandidateSet, LabelEmbeddingTable, label_cosines
from ovstream.decoder import (
    OPT_BETA1,
    OPT_BETA2,
    OPT_EPS,
    DecoderParams,
    OptimizerState,
    TrainingBatch,
    _erf,
    _forward,
    augmented_logits,
    block_params,
    combined_loss,
    decode,
    linear_params,
    loss_gradients,
    online_update,
    optimizer_step,
    zeros_like_params,
)
from ovstream.replay import ReplayStore, SamplerConfig


def _stored(table, store):
    """The store's labels as the candidate set ``online_update`` trains over."""
    return CandidateSet(table, store.seen_labels())


class TestDecode:
    def test_linear_identity_returns_cls(self, rng):
        tokens = rng.standard_normal((4, 6)).astype(np.float32)
        params = linear_params(6)
        np.testing.assert_allclose(decode(tokens, params), tokens[0], atol=1e-6)

    def test_block_zero_projections_residual_only(self, rng):
        tokens = rng.standard_normal((4, 6)).astype(np.float32)
        params = block_params(6, scale=0.0)
        np.testing.assert_allclose(decode(tokens, params), tokens[0], atol=1e-5)

    def test_linear_matches_matmul_oracle(self, rng):
        tokens = rng.standard_normal((3, 4)).astype(np.float32)
        params = linear_params(4, identity=False, rng=np.random.default_rng(5))
        expected = (params.tensors["weight"].astype(np.float64)
                    @ tokens[0].astype(np.float64)
                    + params.tensors["bias"])
        np.testing.assert_allclose(decode(tokens, params), expected, atol=1e-5)

    def test_shape_mismatch(self, rng):
        params = linear_params(6)
        with pytest.raises(ValueError):
            decode(rng.standard_normal((4, 5)).astype(np.float32), params)

    @pytest.mark.parametrize("variant", ["linear", "block"])
    def test_batch_matches_each_matrix(self, variant, rng):
        _, params, _ = _instance(variant, seed=8)
        mats = rng.standard_normal((8, 5, 8)).astype(np.float32)
        out = decode(mats, params)
        assert out.shape == (len(mats), 8) and out.dtype == np.float32
        for row, tokens in zip(out, mats):
            np.testing.assert_allclose(row, decode(tokens, params), rtol=1e-6, atol=1e-7)
        assert decode(np.zeros((0, 5, 8), np.float32), params).shape == (0, 8)


class TestAugmentedLogits:
    def test_orthogonal_all_zero(self):
        table = LabelEmbeddingTable({0: [1, 0, 0], 1: [0, 1, 0]})
        cos, _, _ = label_cosines([0, 0, 1.0], table.matrix([0, 1]))
        logits = augmented_logits(cos, other_logit=0.0)
        np.testing.assert_array_equal(logits, [0.0, 0.0, 0.0])

    def test_large_other_logit_dominates(self):
        table = LabelEmbeddingTable({0: [1, 0], 1: [0, 1]})
        cos, _, _ = label_cosines([-1.0, -1.0], table.matrix([0, 1]))
        logits = augmented_logits(cos, other_logit=50.0)
        exps = np.exp(logits - logits.max())
        p_other = exps[-1] / exps.sum()
        assert p_other > 1 - 1e-12

    def test_hand_set_cosines(self):
        # cos(e, t0) = 0.5, cos(e, t1) = -0.5, other logit 0 ->
        # softmax of (50, -50, 0).
        s = np.sqrt(0.75)
        table = LabelEmbeddingTable({0: [0.5, s], 1: [-0.5, s]})
        cos, _, _ = label_cosines([1.0, 0.0], table.matrix([0, 1]))
        logits = augmented_logits(cos, other_logit=0.0)
        exps = np.exp(np.array([50.0, -50.0, 0.0]))
        expected = exps / exps.sum()
        probs = np.exp(logits)
        probs /= probs.sum()
        np.testing.assert_allclose(probs, expected, rtol=1e-12)

    def test_batch_rows_match_single_rows(self, rng):
        cos = rng.uniform(-1, 1, size=(4, 3))
        logits = augmented_logits(cos, other_logit=-0.25)
        assert logits.shape == (4, 4)
        for row, c in zip(logits, cos):
            np.testing.assert_array_equal(row, augmented_logits(c, -0.25))
        np.testing.assert_array_equal(logits[:, :3], TEMPERATURE * cos)
        assert np.all(logits[:, 3] == -0.25)


def _orthogonal_batch():
    """Single sample whose decoded CLS is orthogonal to the one candidate."""
    table = LabelEmbeddingTable({0: [1.0, 0.0]})
    tokens = np.array([[0.0, 1.0], [0.0, 1.0]], dtype=np.float32)
    return TrainingBatch(tokens[None], [0], {0}), table


class TestCombinedLoss:
    def test_singleton_candidate_all_logits_equal(self):
        # One candidate at logit 0 vs OTHER at logit 0: term 1 = ln 2; the
        # second term's label space is {OTHER} alone so it contributes 0.
        batch, table = _orthogonal_batch()
        params = linear_params(2)
        assert combined_loss(batch, params, table, beta=0.7) == pytest.approx(
            np.log(2.0), rel=1e-12)

    def test_beta_zero_is_plain_ce_with_other(self, rng):
        table = LabelEmbeddingTable({i: rng.standard_normal(4) for i in range(3)})
        tokens = rng.standard_normal((3, 4)).astype(np.float32)
        batch = TrainingBatch(tokens[None], [1], {0, 1, 2})
        params = linear_params(4)
        loss = combined_loss(batch, params, table, beta=0.0)
        # Oracle: -log softmax over the 3 cosine logits plus the 0 OTHER logit.
        e = tokens[0].astype(np.float64)
        e /= np.linalg.norm(e)
        logits = [100.0 * float(e @ np.asarray(table.embedding(i), dtype=np.float64))
                  for i in range(3)] + [0.0]
        z = np.array(logits) - max(logits)
        expected = -np.log(np.exp(z[1]) / np.exp(z).sum())
        assert loss == pytest.approx(expected, rel=1e-10)

    def test_matches_independent_reimplementation(self, rng):
        # Batch of 4, 3 candidates, beta = 0.1, vs a from-scratch
        # double-precision evaluation of both loss terms.
        table = LabelEmbeddingTable({i: rng.standard_normal(5) for i in range(3)})
        params = linear_params(5, identity=False, rng=np.random.default_rng(2))
        samples = [(rng.standard_normal((3, 5)).astype(np.float32),
                    int(rng.integers(0, 3))) for _ in range(4)]
        matrices, labels = zip(*samples)
        batch = TrainingBatch(np.stack(matrices), list(labels), {0, 1, 2})
        beta = 0.1

        def oracle():
            total = 0.0
            w = params.tensors["weight"]
            b = params.tensors["bias"]
            for tokens, y in samples:
                e = w @ tokens[0].astype(np.float64) + b
                e /= np.linalg.norm(e)
                logits = {i: 100.0 * float(
                    e @ np.asarray(table.embedding(i), dtype=np.float64))
                    for i in range(3)}
                logits["other"] = 0.0
                full = np.array(list(logits.values()))
                p = np.exp(full - full.max())
                p /= p.sum()
                total += -np.log(p[list(logits).index(y)])
                reduced = {k: v for k, v in logits.items() if k != y}
                sub = np.array(list(reduced.values()))
                q = np.exp(sub - sub.max())
                q /= q.sum()
                total += beta * -np.log(q[list(reduced).index("other")])
            return total / len(samples)

        assert combined_loss(batch, params, table, beta) == pytest.approx(
            oracle(), rel=1e-10)

    def test_missing_true_label_rejected(self, rng):
        table = LabelEmbeddingTable({0: [1, 0], 1: [0, 1]})
        tokens = rng.standard_normal((2, 2)).astype(np.float32)
        with pytest.raises(ValueError):
            combined_loss(TrainingBatch(tokens[None], [2], {0, 1}),
                          linear_params(2), table, 0.1)

    def test_low_other_logit_bounds_plain_ce(self, rng):
        # With OTHER pushed to -50, the beta=0 loss exceeds the CE computed
        # without the OTHER option by at most 1e-9.
        table = LabelEmbeddingTable({i: rng.standard_normal(4) for i in range(3)})
        tokens = rng.standard_normal((2, 4)).astype(np.float32)
        batch = TrainingBatch(tokens[None], [0], {0, 1, 2})
        params = linear_params(4)
        params.tensors["other_logit"][...] = -50.0
        with_other = combined_loss(batch, params, table, beta=0.0)
        e = tokens[0].astype(np.float64)
        e /= np.linalg.norm(e)
        logits = np.array([100.0 * float(
            e @ np.asarray(table.embedding(i), dtype=np.float64)) for i in range(3)])
        z = logits - logits.max()
        without = -np.log(np.exp(z[0]) / np.exp(z).sum())
        assert with_other >= without - 1e-12
        assert with_other - without <= 1e-9


def _scalar_params(value):
    return DecoderParams("linear", 1, {"weight": np.array([[float(value)]]),
                                       "bias": np.zeros(1),
                                       "other_logit": np.zeros(())})


class TestOptimizer:
    def test_zero_gradient_no_change(self):
        params = _scalar_params(0.3)
        state = OptimizerState(lr=0.1, weight_decay=0.0)
        before = params.tensors["weight"].copy()
        optimizer_step(params, zeros_like_params(params), state)
        np.testing.assert_array_equal(params.tensors["weight"], before)

    def test_first_step_hand_computed(self):
        # m = 0.1, v = 0.001, bias-corrected both to 1; step = lr/(1 + eps).
        params = _scalar_params(1.0)
        state = OptimizerState(lr=0.1, weight_decay=0.0)
        grads = zeros_like_params(params)
        grads.tensors["weight"][0, 0] = 1.0
        optimizer_step(params, grads, state)
        expected = 1.0 - 0.1 * (1.0 / (1.0 + OPT_EPS))
        assert params.tensors["weight"][0, 0] == pytest.approx(expected, rel=1e-12)

    def test_quadratic_descent(self):
        # Minimize 0.5 * theta^2; loss must decrease monotonically after the
        # adaptive moments warm up. Stop while theta is still well above the
        # learning rate — the normalized step oscillates once it reaches the
        # optimum.
        params = _scalar_params(2.0)
        state = OptimizerState(lr=0.05, weight_decay=0.0)
        losses = []
        for _ in range(30):
            theta = params.tensors["weight"][0, 0]
            losses.append(0.5 * theta ** 2)
            grads = zeros_like_params(params)
            grads.tensors["weight"][0, 0] = theta
            optimizer_step(params, grads, state)
        assert all(b <= a + 1e-12 for a, b in zip(losses[5:], losses[6:]))
        assert losses[-1] < losses[0]

    def test_other_logit_exempt_from_decay(self):
        params = _scalar_params(1.0)
        params.tensors["other_logit"][...] = 0.5
        state = OptimizerState(lr=0.1, weight_decay=0.5)
        optimizer_step(params, zeros_like_params(params), state)
        assert params.tensors["other_logit"] == pytest.approx(0.5)
        assert params.tensors["weight"][0, 0] < 1.0  # decayed

    def test_shape_mismatch(self):
        params = _scalar_params(1.0)
        grads = zeros_like_params(linear_params(2))
        with pytest.raises(ValueError):
            optimizer_step(params, grads, OptimizerState())

    @pytest.mark.parametrize("variant", ["linear", "block"])
    def test_flat_step_equals_per_tensor_reference(self, variant):
        rng = np.random.default_rng(11)
        params = (linear_params(5, identity=False, rng=rng) if variant == "linear"
                  else block_params(6, rng=rng))
        params.tensors["other_logit"][...] = 0.4
        ref = {k: np.array(v) for k, v in params.tensors.items()}
        state = OptimizerState(lr=1e-2, weight_decay=0.05)
        ref_state = OptimizerState(lr=1e-2, weight_decay=0.05)
        ref_state.m, ref_state.v = {}, {}
        for step in range(50):
            grads = zeros_like_params(params)
            for name, g in grads.tensors.items():
                g[...] = 10.0 ** (step % 5 - 2) * rng.standard_normal(g.shape)
            _ref_optimizer_step(ref, {k: v.copy() for k, v in grads.tensors.items()}, ref_state)
            optimizer_step(params, grads, state)
        assert state.step == ref_state.step == 50
        for name, want in ref.items():
            np.testing.assert_array_equal(params.tensors[name], want)
        # Packing the reference moments gives the flat layout they must equal.
        for got, want in ((state.m, ref_state.m), (state.v, ref_state.v)):
            packed = DecoderParams(params.variant, params.dim, want)
            np.testing.assert_array_equal(got, packed.flat)
        assert params.tensors["other_logit"] != 0.4  # trained, just not decayed

    @pytest.mark.parametrize("change", ["reshape", "add"])
    def test_changed_tensor_set_rejected(self, change):
        # The tensors are fixed views of ``flat``: neither replaced nor added to.
        params = _scalar_params(1.0)
        before = params.flat.copy()
        with pytest.raises(TypeError):
            if change == "reshape":
                params.tensors["bias"] = np.zeros(2)
            else:
                params.tensors["extra"] = np.zeros(1)
        assert sorted(params.tensors) == ["bias", "other_logit", "weight"]
        assert params.tensors["bias"].shape == (1,)
        np.testing.assert_array_equal(params.flat, before)


def _ref_optimizer_step(params, grads, state):
    """The per-tensor update the flat ``optimizer_step`` replaced, on name -> array
    dicts; ``state.m`` and ``state.v`` are dicts too."""
    state.step += 1
    bc1 = 1.0 - OPT_BETA1 ** state.step
    bc2 = 1.0 - OPT_BETA2 ** state.step
    for name, theta in params.items():
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(theta)
            state.v[name] = np.zeros_like(theta)
        m = state.m[name]
        v = state.v[name]
        m *= OPT_BETA1
        m += (1.0 - OPT_BETA1) * g
        v *= OPT_BETA2
        v += (1.0 - OPT_BETA2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + OPT_EPS)
        if name != "other_logit":
            update = update + state.weight_decay * theta
        theta -= state.lr * update


class TestFlatBuffer:
    @staticmethod
    def _assert_views_of_one_buffer(params):
        assert params.flat.dtype == np.float64 and params.flat.flags.c_contiguous
        assert sum(t.size for t in params.tensors.values()) == params.flat.size
        for t in params.tensors.values():
            assert t.base is params.flat

    @pytest.mark.parametrize("variant", ["linear", "block"])
    def test_every_constructor_packs_one_buffer(self, variant):
        params = (linear_params(6, identity=False, rng=np.random.default_rng(0))
                  if variant == "linear" else block_params(6))
        made = [params, zeros_like_params(params)]
        for p in made:
            self._assert_views_of_one_buffer(p)
            assert list(p.tensors)[-1] == "other_logit"
            assert p.n_decay == p.flat.size - 1
        assert not any(np.shares_memory(a.flat, b.flat)
                       for i, a in enumerate(made) for b in made[i + 1:])

    def test_loss_gradients_calls_return_independent_arrays(self, rng):
        table, params, _ = _instance("block", seed=8)
        store = ReplayStore()
        state = OptimizerState(lr=1e-3)
        for label in range(3):
            sid = store.insert(label, rng.standard_normal((4, 8)).astype(np.float32))
        online_update(sid, store, params, state, _stored(table, store),
                      SamplerConfig(batch_size=4), np.random.default_rng(0))
        batch = TrainingBatch(rng.standard_normal((1, 4, 8)), [1], {0, 1, 2})
        first = loss_gradients(batch, params, table, 0.1)
        want = first.flat.copy()
        second = loss_gradients(batch, params, table, 0.1)
        for a, b in ((first, second), (first, state.grads), (second, state.grads)):
            assert not np.shares_memory(a.flat, b.flat)
        second.flat[:] = 1.0
        np.testing.assert_array_equal(first.flat, want)

    @pytest.mark.parametrize("variant", ["linear", "block"])
    def test_loss_gradients_writes_every_entry_of_out(self, variant, rng):
        # A reused buffer is not zeroed first: every gradient view is written.
        table, params, _ = _instance(variant, seed=6)
        batch = TrainingBatch(rng.standard_normal((3, 4, 8)), [0, 1, 1], {0, 1, 2})
        stale = zeros_like_params(params)
        stale.flat.fill(np.nan)
        got = loss_gradients(batch, params, table, 0.1, stale)
        assert got is stale
        assert got.flat.tobytes() == loss_gradients(batch, params, table, 0.1).flat.tobytes()

    def test_validate_names_the_non_finite_tensor(self):
        params = block_params(4)
        params.validate()
        params.tensors["w1"][1, 2] = np.nan
        with pytest.raises(ValueError, match="parameter w1 contains non-finite"):
            params.validate()
        params = linear_params(3)
        params.tensors["bias"][1] = np.inf
        with pytest.raises(ValueError, match="parameter bias contains non-finite"):
            params.validate()


class TestOnlineUpdate:
    def _setup(self, rng, n_classes=3, dim=6):
        table = LabelEmbeddingTable(
            {i: rng.standard_normal(dim) for i in range(n_classes)})
        store = ReplayStore()
        params = linear_params(dim)
        state = OptimizerState(lr=1e-3)
        return table, store, params, state

    def test_single_sample_store(self, rng):
        table, store, params, state = self._setup(rng)
        tokens = rng.standard_normal((3, 6)).astype(np.float32)
        sid = store.insert(0, tokens)
        ids = online_update(sid, store, params, state, _stored(table, store),
                            SamplerConfig(batch_size=4),
                            np.random.default_rng(0))
        assert ids == [sid]
        assert state.step == 1

    def test_class_balanced_batch_composition(self, rng):
        table, store, params, state = self._setup(rng, n_classes=10)
        for label in range(10):
            store.insert(label, rng.standard_normal((3, 6)).astype(np.float32))
        new = store.insert(0, rng.standard_normal((3, 6)).astype(np.float32))
        ids = online_update(new, store, params, state, _stored(table, store),
                            SamplerConfig(strategy="class_balanced", batch_size=4),
                            np.random.default_rng(1))
        assert ids[0] == new
        assert len(ids) == 4
        companion_labels = [store.label(i) for i in ids[1:]]
        assert len(set(companion_labels)) == 3  # 3 distinct chosen classes

    def test_reused_gradient_buffer_matches_fresh_gradients(self):
        # Every step starts from zero gradients, as a fresh loss_gradients does.
        runs = []
        for reuse in (True, False):
            gen = np.random.default_rng(3)
            table, store, params, state = self._setup(np.random.default_rng(5))
            for step in range(6):
                sid = store.insert(step % 3, gen.standard_normal((3, 6)).astype(np.float32))
                config, draws = SamplerConfig(batch_size=4), np.random.default_rng(step)
                if reuse:
                    online_update(sid, store, params, state, _stored(table, store), config, draws)
                    continue
                ids = store.compose_batch(sid, config, draws)
                store.record_batched(ids, config)
                batch = TrainingBatch(store.tokens(ids), store.labels(ids),
                                      set(store.seen_labels()))
                optimizer_step(params, loss_gradients(batch, params, table, 0.1), state)
            runs.append(params.flat.copy())
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_determinism(self, rng):
        runs = []
        for _ in range(2):
            gen = np.random.default_rng(77)
            table, store, params, state = self._setup(np.random.default_rng(5))
            for step in range(20):
                tokens = gen.standard_normal((3, 6)).astype(np.float32)
                sid = store.insert(step % 3, tokens)
                online_update(sid, store, params, state, _stored(table, store),
                              SamplerConfig(batch_size=4),
                              np.random.default_rng(1000 + step))
            runs.append({k: v.copy() for k, v in params.tensors.items()})
        for name in runs[0]:
            np.testing.assert_array_equal(runs[0][name], runs[1][name])


# ---------------------------------------------------------------------------
# Reference: the per-sample loss and gradients the batched pass replaced.
# The block runs over all T rows here, so it also checks that computing the
# CLS query alone is exact.


def _ref_layer_norm(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
    xhat = (x - mu) * inv
    return gain * xhat + bias, (xhat, inv, gain)


def _ref_layer_norm_bwd(dout, cache):
    xhat, inv, gain = cache
    dxhat = dout * gain
    dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return dx, (dout * xhat).sum(axis=0), dout.sum(axis=0)


def _ref_gelu(z):
    return 0.5 * z * (1.0 + erf(z / np.sqrt(2.0)))


def _ref_gelu_grad(z):
    return (0.5 * (1.0 + erf(z / np.sqrt(2.0)))
            + z * np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi))


def _ref_softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _ref_forward(tokens, params):
    x = np.asarray(tokens, dtype=np.float64)
    t = params.tensors
    if params.variant == "linear":
        return t["weight"] @ x[0] + t["bias"], ("linear", x[0])
    y1, ln1 = _ref_layer_norm(x, t["ln1_gain"], t["ln1_bias"])
    q = y1 @ t["wq"] + t["bq"]
    k = y1 @ t["wk"]
    v = y1 @ t["wv"] + t["bv"]
    scale = 1.0 / np.sqrt(params.dim)
    attn_w = _ref_softmax((q @ k.T) * scale)
    attn = attn_w @ v
    h = x + attn @ t["wo"] + t["bo"]
    y2, ln2 = _ref_layer_norm(h, t["ln2_gain"], t["ln2_bias"])
    z = y2 @ t["w1"] + t["b1"]
    a = _ref_gelu(z)
    out = h + a @ t["w2"] + t["b2"]
    return out[0], ("block", x, y1, ln1, q, k, v, scale, attn_w, attn, y2, ln2, z, a)


def _ref_backward(d_e, params, cache, g):
    t = params.tensors
    if cache[0] == "linear":
        g["weight"] += np.outer(d_e, cache[1])
        g["bias"] += d_e
        return
    _, x, y1, ln1, q, k, v, scale, attn_w, attn, y2, ln2, z, a = cache
    dout = np.zeros_like(x)
    dout[0] = d_e
    g["w2"] += a.T @ dout
    g["b2"] += dout.sum(axis=0)
    dz = (dout @ t["w2"].T) * _ref_gelu_grad(z)
    g["w1"] += y2.T @ dz
    g["b1"] += dz.sum(axis=0)
    dh_ln, dg2, db2 = _ref_layer_norm_bwd(dz @ t["w1"].T, ln2)
    g["ln2_gain"] += dg2
    g["ln2_bias"] += db2
    dh = dout + dh_ln
    g["wo"] += attn.T @ dh
    g["bo"] += dh.sum(axis=0)
    dattn = dh @ t["wo"].T
    dw = dattn @ v.T
    dv = attn_w.T @ dattn
    dscores = attn_w * (dw - (dw * attn_w).sum(axis=-1, keepdims=True))
    dq = (dscores @ k) * scale
    dk = (dscores.T @ q) * scale
    for name, d in (("q", dq), ("k", dk), ("v", dv)):
        g["w" + name] += y1.T @ d
    g["bq"] += dq.sum(axis=0)
    g["bv"] += dv.sum(axis=0)
    dy1 = dq @ t["wq"].T + dk @ t["wk"].T + dv @ t["wv"].T
    _, dg1, db1 = _ref_layer_norm_bwd(dy1, ln1)
    g["ln1_gain"] += dg1
    g["ln1_bias"] += db1


def _ref_ce_terms(e, label, candidates, table, other_logit, beta):
    n = len(candidates)
    norm = np.linalg.norm(e)
    mat = np.stack([np.asarray(table.embedding(c), dtype=np.float64) for c in candidates])
    cos = np.clip(mat @ (e / norm), -1.0, 1.0)
    logits = np.append(100.0 * cos, other_logit)
    idx = candidates.index(label)
    p1 = _ref_softmax(logits)
    loss = -np.log(p1[idx])
    dlogits = p1.copy()
    dlogits[idx] -= 1.0
    if n > 1:
        keep = [i for i in range(n + 1) if i != idx]
        p2 = _ref_softmax(logits[keep])
        loss += beta * -np.log(p2[-1])
        p2[-1] -= 1.0
        for j, i in enumerate(keep):
            dlogits[i] += beta * p2[j]
    e_hat = e / norm
    d_e = sum(dlogits[k] * 100.0 * (mat[k] - cos[k] * e_hat) / norm for k in range(n))
    return loss, d_e, dlogits[n]


def _ref_loss_and_grads(batch, params, table, beta):
    candidates = sorted(batch.candidates)
    g = dict(zeros_like_params(params).tensors)  # accumulated into with +=
    total = 0.0
    inv_n = 1.0 / len(batch.labels)
    for tokens, label in zip(batch.tokens, batch.labels):
        e, cache = _ref_forward(tokens, params)
        loss, d_e, d_other = _ref_ce_terms(e, label, candidates, table,
                                           params.other_logit, beta)
        total += loss * inv_n
        g["other_logit"] += inv_n * d_other
        _ref_backward(inv_n * d_e, params, cache, g)
    return total, g


def _assert_rel_close(got, want, rtol=1e-12):
    """Largest error within ``rtol`` of the largest reference entry."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    scale = max(np.max(np.abs(want)), 1e-300)
    assert np.max(np.abs(got - want)) <= rtol * scale


def _instance(variant, seed, dim=8, n_classes=5):
    rng = np.random.default_rng(seed)
    table = LabelEmbeddingTable({i: rng.standard_normal(dim) for i in range(n_classes)})
    if variant == "linear":
        params = linear_params(dim, identity=False, rng=rng, scale=0.3)
    else:
        params = block_params(dim, rng=rng, scale=0.2)
    params.tensors["other_logit"][...] = 0.7
    return table, params, rng


class TestBatchedMatchesPerSampleReference:
    CASES = {"mixed_labels": 0, "singleton": 1, "beta_zero": 2}

    @pytest.mark.parametrize("variant", ["linear", "block"])
    @pytest.mark.parametrize("case", CASES)
    def test_loss_and_every_gradient(self, variant, case):
        table, params, rng = _instance(variant, seed=self.CASES[case])
        beta = 0.0 if case == "beta_zero" else 0.3
        candidates = {2} if case == "singleton" else set(range(5))
        samples = []
        for i in range(9):
            label = 2 if case == "singleton" else int(rng.integers(0, 5))
            samples.append((rng.standard_normal((6, 8)).astype(np.float32), label))
        if case == "mixed_labels":
            assert len({label for _, label in samples}) > 2
        matrices, labels = zip(*samples)
        batch = TrainingBatch(np.stack(matrices), list(labels), candidates)
        want_loss, want_grads = _ref_loss_and_grads(batch, params, table, beta)
        _assert_rel_close(combined_loss(batch, params, table, beta), want_loss)
        grads = loss_gradients(batch, params, table, beta)
        assert sorted(grads.tensors) == sorted(want_grads)
        for name, want in want_grads.items():
            _assert_rel_close(grads.tensors[name], want)

    @pytest.mark.parametrize("variant", ["linear", "block"])
    def test_any_candidate_collection_gives_the_same_bytes(self, variant):
        # A set, a sorted list, a reversed tuple or a CandidateSet: the loss scores the
        # sorted candidates from each, so the gradients are the same bytes. combined_loss
        # still returns the loss, which the gradient path no longer computes.
        table, params, rng = _instance(variant, seed=5)
        tokens = rng.standard_normal((6, 4, 8)).astype(np.float32)
        labels = [3, 0, 3, 1, 4, 0]
        forms = [{0, 1, 3, 4}, [0, 1, 3, 4], (4, 3, 1, 0), CandidateSet(table, {4, 0, 3, 1})]
        grads = {loss_gradients(TrainingBatch(tokens, labels, c), params, table, 0.3)
                 .flat.tobytes() for c in forms}
        assert len(grads) == 1
        losses = {combined_loss(TrainingBatch(tokens, labels, c), params, table, 0.3)
                  for c in forms}
        assert len(losses) == 1
        want, _ = _ref_loss_and_grads(TrainingBatch(tokens, labels, forms[0]), params, table, 0.3)
        _assert_rel_close(losses.pop(), want)

    def test_block_decode_is_the_full_block_cls_row(self):
        _, params, rng = _instance("block", seed=4)
        for t in (1, 2, 7):
            tokens = rng.standard_normal((t, 8)).astype(np.float32)
            want, _ = _ref_forward(tokens, params)
            _assert_rel_close(decode(tokens, params), want.astype(np.float32), rtol=1e-6)
            got, _ = _forward(tokens.astype(np.float64)[None], params)
            _assert_rel_close(got[0], want)

    def test_bad_token_matrices_rejected(self, rng):
        table, params, _ = _instance("block", seed=5)
        for bad in (rng.standard_normal(8), rng.standard_normal((3, 7))):
            with pytest.raises(ValueError):
                loss_gradients(TrainingBatch(bad[None], [0], {0}), params, table, 0.1)
        with pytest.raises(ValueError):
            loss_gradients(TrainingBatch(rng.standard_normal((1, 3, 8)), [0], {0}),
                           params, table, -0.1)

    def test_zero_norm_decoded_embedding_rejected(self):
        table = LabelEmbeddingTable({0: [1.0, 0.0]})
        params = linear_params(2)
        tokens = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="zero-norm"):
            loss_gradients(TrainingBatch(tokens[None], [0], {0}), params, table, 0.1)


def _ulps(got, want):
    """|got - want| in units of the last place of want."""
    return np.abs(got - want) / np.spacing(np.abs(want))


def _signed(x):
    return x * np.random.default_rng(1).choice([-1.0, 1.0], x.shape)


# Samples from each of the kernel's branches, with their edges.
_BRANCHES = {
    "small": np.r_[np.random.default_rng(2).uniform(0.0, 1.0, 20000), 1.0],
    "tail": np.r_[np.random.default_rng(3).uniform(1.0, 8.0, 20000), np.nextafter(1.0, 2.0)],
    "beyond_8": np.r_[np.random.default_rng(4).uniform(8.0, 1e300, 2000),
                      np.geomspace(8.0, 1.7e308, 200)],
}


class TestErf:
    @pytest.mark.parametrize("branch", sorted(_BRANCHES))
    def test_within_3_ulp_of_math_erf(self, branch):
        x = _signed(_BRANCHES[branch])
        want = np.array([math.erf(v) for v in x])
        assert _ulps(_erf(x), want).max() <= 3

    @pytest.mark.parametrize("branch", sorted(_BRANCHES))
    def test_within_1_ulp_of_scipy(self, branch):
        special = pytest.importorskip("scipy.special")
        x = _signed(_BRANCHES[branch])
        assert _ulps(_erf(x), special.erf(x)).max() <= 1

    def test_zeros_and_subnormals(self):
        x = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e-300])
        got = _erf(x)
        want = np.array([math.erf(v) for v in x])
        assert _ulps(got, want).max() <= 3
        assert (np.signbit(got) == np.signbit(x)).all()

    def test_infinities_and_nan(self):
        got = _erf(np.array([np.inf, -np.inf, np.nan, 0.5]))
        assert got[:2].tolist() == [1.0, -1.0]
        assert np.isnan(got[2])
        assert _ulps(got[3], math.erf(0.5)) <= 3  # the NaN leaves its neighbours alone

    def test_odd_symmetry_bit_for_bit(self):
        x = np.concatenate([_signed(b) for b in _BRANCHES.values()] + [[0.0, 5e-324, np.inf]])
        assert _erf(-x).tobytes() == (-_erf(x)).tobytes()

    def test_no_floating_point_warning(self):
        x = np.array([np.inf, -np.inf, np.nan, 1e308, -1e308, 1.3e154, 5e-324, -0.0, 0.7, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _erf(x)
            _erf(x.reshape(2, 5))

    def test_any_layout_and_the_input_untouched(self, rng):
        z = 3.0 * rng.standard_normal((8, 32))
        before = z.copy()
        want = _erf(np.ascontiguousarray(z.T))
        got = _erf(z.T)  # a transposed view: the tail's flat indices must follow its order
        assert got.shape == (32, 8) and got.tobytes() == want.tobytes()
        assert z.tobytes() == before.tobytes()
        assert _erf(np.empty((0, 4))).shape == (0, 4)


_NO_SCIPY = """
import sys

import ovstream
import ovstream.cli
import ovstream.protocols
from ovstream.data import SyntheticSpec, generate
from ovstream.protocols import Engine, EngineConfig, EvalSuite
from ovstream.replay import SamplerConfig

dataset = generate(SyntheticSpec(num_classes=4, samples_per_class=4, dim=16, tokens=6, seed=1))
engine = Engine(dataset, EngineConfig(decoder_variant="block", compression="pca-cls-quant",
                                      sampler=SamplerConfig(strategy="fws")))
for i in (0, 5, 10, 15, 1, 6):
    engine.process(i)
engine.evaluate_suite(EvalSuite("all", list(range(len(dataset))), set(range(4))))
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_the_engine_runs_without_scipy():
    # Its own interpreter, so only what the package itself imports is loaded: a block,
    # pca-cls-quant, FWS engine trains and evaluates without loading any of scipy.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
