"""Finite-difference verification of the analytic gradients."""

import numpy as np
import pytest

from ovstream.core import LabelEmbeddingTable
from ovstream.decoder import (
    TrainingBatch,
    block_params,
    combined_loss,
    linear_params,
    loss_gradients,
)

FD_STEP = 1e-4
REL_TOL = 1e-4


def _random_instance(seed, variant, dim=6, n_classes=4, batch=2, tokens=4):
    rng = np.random.default_rng(seed)
    table = LabelEmbeddingTable({i: rng.standard_normal(dim) for i in range(n_classes)})
    if variant == "linear":
        params = linear_params(dim, identity=False, rng=rng)
    else:
        params = block_params(dim, rng=rng, scale=0.05)
    samples = [(rng.standard_normal((tokens, dim)).astype(np.float32),
                int(rng.integers(0, n_classes))) for _ in range(batch)]
    matrices, labels = zip(*samples)
    return table, params, TrainingBatch(np.stack(matrices), list(labels), set(range(n_classes)))


def _check_gradients(table, params, batch, beta, rng, coords_per_tensor=4):
    grads = loss_gradients(batch, params, table, beta)
    for name, tensor in params.tensors.items():
        flat = tensor.reshape(-1)
        gflat = grads.tensors[name].reshape(-1)
        picks = rng.choice(flat.size, size=min(coords_per_tensor, flat.size),
                           replace=False)
        for i in picks:
            orig = flat[i]

            def central(h):
                flat[i] = orig + h
                up = combined_loss(batch, params, table, beta)
                flat[i] = orig - h
                down = combined_loss(batch, params, table, beta)
                flat[i] = orig
                return (up - down) / (2 * h)

            # Richardson extrapolation cancels the O(h^2) truncation term,
            # which matters because the temperature-100 logits make the
            # loss surface sharply curved.
            fd = (4.0 * central(FD_STEP / 2) - central(FD_STEP)) / 3.0
            scale = max(abs(fd), abs(gflat[i]), 1e-6)
            assert abs(fd - gflat[i]) / scale <= REL_TOL, (
                f"{name}[{i}]: analytic {gflat[i]} vs fd {fd}")


@pytest.mark.parametrize("variant", ["linear", "block"])
@pytest.mark.parametrize("seed", range(10))
def test_gradients_match_finite_differences(variant, seed):
    table, params, batch = _random_instance(seed, variant)
    _check_gradients(table, params, batch, beta=0.1,
                     rng=np.random.default_rng(seed + 1000))


def test_other_logit_gradient_is_softmax_ce_identity():
    # Single sample, decoded embedding orthogonal to the lone candidate,
    # beta = 0: d loss / d other_logit = p_OTHER.
    table = LabelEmbeddingTable({0: [1.0, 0.0]})
    tokens = np.array([[0.0, 1.0], [0.0, 1.0]], dtype=np.float32)
    batch = TrainingBatch(tokens[None], [0], {0})
    params = linear_params(2)
    grads = loss_gradients(batch, params, table, beta=0.0)
    # Both logits are 0 -> p_OTHER = 0.5.
    assert float(grads.tensors["other_logit"]) == pytest.approx(0.5, rel=1e-12)


def test_gradient_vanishes_at_constructed_minimum():
    # True-label logit far above the competitors: every gradient is tiny.
    rng = np.random.default_rng(3)
    dim = 4
    table = LabelEmbeddingTable({0: [1, 0, 0, 0], 1: [0, 1, 0, 0]})
    tokens = np.zeros((2, dim), dtype=np.float32)
    tokens[0, 0] = 1.0  # CLS aligned with label 0
    batch = TrainingBatch(tokens[None], [0], {0, 1})
    params = linear_params(dim)
    params.tensors["other_logit"][...] = -50.0
    grads = loss_gradients(batch, params, table, beta=0.0)
    del rng
    for name, g in grads.tensors.items():
        assert np.max(np.abs(g)) < 1e-6, name
