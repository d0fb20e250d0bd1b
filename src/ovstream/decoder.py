"""Trainable decoder: forward pass, loss, analytic gradients, and optimizer.

Two variants map a token matrix to an output embedding:

* ``linear`` -- ``weight @ cls + bias`` on the CLS row only.
* ``block`` -- a pre-norm single-head transformer block (self-attention plus
  a 2-layer GELU MLP, both with residuals); the post-block CLS row is the
  output. Layer norm and the MLP act row by row, so that row depends only
  on the CLS query and on the keys and values of all tokens: the block
  normalizes every token but computes the query, attention, output
  projection, LN2 and MLP for the CLS row alone. This is exact, since no
  other row reaches the output. Keys and values are linear in the
  normalized tokens, so they enter through the CLS row's scores and
  attention-weighted sum without being formed. Keys carry no bias: it would
  shift every score of a row by the same amount, which the softmax ignores.

``decode`` and the loss run one forward pass over a B x T x D token array. A
stream has one token shape (the dataset and the replay store enforce it), so
a training step's batch is one ``tokens(ids)`` read from the replay store.
Evaluation decodes a suite slice in ``batch_size`` row groups, so a decode
never holds more float64 working set than a training step's forward.

Both carry one extra learnable scalar, the "other" logit: an
input-independent none-of-the-above score. ``augmented_logits`` appends it
after the candidates' cosine logits for the loss. A decoder has one width D, the
token and label-embedding dimension. Its parameters, and its gradients, each live
only in one float64 vector, which ``DecoderParams.tensors`` views by name.

The block's GELU is the exact one, ``z Phi(z)``. Its erf is ``_erf``, a numpy kernel
of W. J. Cody's rational approximations in Cephes's coefficients, the forms scipy's
``erf`` evaluates: within 3 ulp of ``math.erf`` and within 1 ulp of scipy's. So the
package needs numpy alone.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .core import TEMPERATURE, CandidateSet, LabelEmbeddingTable, label_cosines, softmax

LN_EPS = 1e-5


# ---------------------------------------------------------------------------
# Parameters


# The "other" logit is a bias-like scalar and is excluded from weight decay.
_NO_DECAY = {"other_logit"}


@dataclass
class DecoderParams:
    """Named parameter tensors of one decoder variant and width ``dim``, copied at
    construction into one float64 vector ``flat``, their only storage. ``tensors`` is a
    read-only map of fixed views into ``flat``: a tensor is written in place, never
    replaced. ``_NO_DECAY`` tensors come last, so weight decay covers ``flat[:n_decay]``."""

    variant: str  # "linear" | "block"
    dim: int
    tensors: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        names = sorted(self.tensors, key=lambda k: k in _NO_DECAY)  # stable
        self.layout = tuple((k, np.shape(self.tensors[k])) for k in names)
        ends = np.cumsum([0] + [math.prod(shape) for _, shape in self.layout])
        self.n_decay = int(ends[sum(k not in _NO_DECAY for k in names)])
        self.flat = np.concatenate([np.zeros(0)] + [np.ravel(self.tensors[k]) for k in names])
        self.tensors = MappingProxyType({k: self.flat[a:b].reshape(shape) for (k, shape), a, b
                                         in zip(self.layout, ends, ends[1:])})

    @property
    def other_logit(self) -> float:
        return float(self.tensors["other_logit"])

    def validate(self) -> None:
        if not np.isfinite(self.flat).all():
            name = next(k for k, t in self.tensors.items() if not np.isfinite(t).all())
            raise ValueError(f"parameter {name} contains non-finite entries")


def linear_params(dim: int, identity: bool = True, rng: np.random.Generator | None = None,
                  scale: float = 0.02) -> DecoderParams:
    """Linear decoder; identity-initialized (the frozen decoder is a no-op) unless
    ``identity`` is false, then drawn from ``rng`` at ``scale``."""
    weight = (np.eye(dim) if identity
              else scale * (rng or np.random.default_rng(0)).standard_normal((dim, dim)))
    return DecoderParams("linear", dim,
                         {"weight": weight, "bias": np.zeros(dim), "other_logit": np.zeros(())})


def block_params(dim: int, rng: np.random.Generator | None = None,
                 scale: float = 0.02) -> DecoderParams:
    """Pre-norm single-head transformer block with small random projections.

    With small projections the block starts close to the residual-only path,
    so the initial tuned embedding stays near the CLS token.
    """
    rng = rng or np.random.default_rng(0)
    d = dim
    shapes = {"ln1_gain": (d,), "ln1_bias": (d,), "wq": (d, d), "bq": (d,), "wk": (d, d),
              "wv": (d, d), "bv": (d,), "wo": (d, d), "bo": (d,), "ln2_gain": (d,),
              "ln2_bias": (d,), "w1": (d, 4 * d), "b1": (4 * d,), "w2": (4 * d, d),
              "b2": (d,), "other_logit": ()}
    tensors = {name: (scale * rng.standard_normal(shape) if name[0] == "w"
                      else np.ones(shape) if name.endswith("gain") else np.zeros(shape))
               for name, shape in shapes.items()}
    return DecoderParams("block", dim, tensors)


def zeros_like_params(params: DecoderParams) -> DecoderParams:
    return DecoderParams(params.variant, params.dim,
                         {k: np.zeros_like(v) for k, v in params.tensors.items()})


# ---------------------------------------------------------------------------
# Primitive layers


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Layer normalization over the last axis.

    Returns the output plus the normalized input and the inverse standard
    deviation, which the decoder's backward pass needs.
    """
    n = x.shape[-1]
    # The same arithmetic as x.mean() and x.var(), without their call overhead.
    xhat = x - x.sum(axis=-1, keepdims=True) / n
    std = np.sqrt((xhat * xhat).sum(axis=-1, keepdims=True) / n + LN_EPS)
    xhat /= std
    y = gain * xhat
    y += bias
    return y, xhat, 1.0 / std


# erf as Cephes (S. L. Moshier, ndtr.c) evaluates it, after W. J. Cody's rational
# approximations (Math. Comp. 23, 1969): x T(x^2) / U(x^2) for |x| <= 1, and
# 1 - exp(-x^2) P(|x|) / Q(|x|) with the sign of x above 1. U and Q are monic; their
# leading 1 is left out. Cephes has a third form, R/S, for |x| >= 8, where erf is 1.0.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)


def _horner(x, coefs, monic=False):
    """Cephes's ``polevl`` at x, or ``p1evl`` when ``monic``, in their order of operations."""
    acc = x + coefs[0] if monic else x * coefs[0] + coefs[1]
    for c in coefs[1 if monic else 2:]:
        acc *= x
        acc += c
    return acc


def _erf(x: np.ndarray) -> np.ndarray:
    """erf of a float64 array, in Cephes's forms: within 3 ulp of ``math.erf``, as
    scipy's ``erf`` is, and within 1 ulp of scipy's. The |x| <= 1 form runs over the
    whole array, the tail form only where |x| > 1. x is clamped to [-8, 8] first (erf
    is 1.0 from about 5.9), so no sum overflows: ±inf gives ±1 and NaN stays NaN, with
    no floating-point warning."""
    x = np.minimum(x, 8.0)  # a new array; faster than np.clip on a short one
    np.maximum(x, -8.0, out=x)
    z = x * x
    y = _horner(z, _ERF_T)
    y *= x
    y /= _horner(z, _ERF_U, monic=True)
    if not z.max(initial=0.0) <= 1.0:  # NaN comes here too, and leaves as it came
        # A gather and a scatter by flat index cost less than by a boolean mask.
        tail = np.flatnonzero(z > 1.0)
        xt = x.take(tail)
        a = np.abs(xt)
        e = np.exp(-(a * a))
        e *= _horner(a, _ERFC_P)
        e /= _horner(a, _ERFC_Q, monic=True)
        np.put(y, tail, np.copysign(1.0 - e, xt))
    return y


def _gelu(z):
    """GELU of z, plus ``1 + erf(z / sqrt 2)``, which its derivative reuses."""
    s = _erf(z / np.sqrt(2.0))
    s += 1.0
    return 0.5 * z * s, s


def _gelu_grad(z, s):
    phi = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
    return 0.5 * s + z * phi


# ---------------------------------------------------------------------------
# Forward / backward over a B x T x D token array


def _forward(tokens, params: DecoderParams):
    """Output embeddings (B x D) of a B x T x D token array, plus the backward cache.

    The block attends with the CLS query only (exact; see the module docstring).
    """
    x = np.asarray(tokens)
    if x.ndim != 3 or x.shape[1] < 1:
        raise ValueError(f"token matrix must be 2-D, got shape {x.shape[1:]}")
    if x.shape[2] != params.dim:
        raise ValueError(f"token dimension {x.shape[2]} != decoder dim {params.dim}")
    t = params.tensors
    if params.variant == "linear":  # reads the CLS rows alone, so converts only those
        cls = np.asarray(x[:, 0], dtype=np.float64)
        return cls @ t["weight"].T + t["bias"], (cls,)
    if params.variant != "block":
        raise ValueError(f"unknown decoder variant {params.variant!r}")

    x = np.asarray(x, dtype=np.float64)
    y1, xhat1, inv1 = layer_norm(x, t["ln1_gain"], t["ln1_bias"])
    q = y1[:, 0] @ t["wq"] + t["bq"]
    qk = q @ t["wk"].T  # score_t = y1_t . (wk q)
    scale = 1.0 / np.sqrt(x.shape[2])
    attn_w = softmax((y1 @ qk[:, :, None])[:, :, 0] * scale)
    pooled = (attn_w[:, None, :] @ y1)[:, 0]  # sum_t w_t y1_t
    attn = pooled @ t["wv"] + attn_w.sum(axis=1, keepdims=True) * t["bv"]
    h = x[:, 0] + attn @ t["wo"] + t["bo"]
    y2, xhat2, inv2 = layer_norm(h, t["ln2_gain"], t["ln2_bias"])
    z = y2 @ t["w1"] + t["b1"]
    a, erf1 = _gelu(z)
    out = h + a @ t["w2"] + t["b2"]
    return out, (y1, xhat1, inv1, q, qk, scale, attn_w, pooled, attn, y2, xhat2, inv2, z, a, erf1)


def _backward(d_e: np.ndarray, params: DecoderParams, cache, grads: DecoderParams) -> None:
    """Write every parameter gradient but the OTHER logit's into ``grads``, once each,
    for dL/d(output embeddings) = d_e (B x D)."""
    t = params.tensors
    g = grads.tensors
    if params.variant == "linear":
        (cls,) = cache
        g["weight"][...] = d_e.T @ cls
        g["bias"][...] = d_e.sum(axis=0)
        return

    y1, xhat1, inv1, q, qk, scale, attn_w, pooled, attn, y2, xhat2, inv2, z, a, erf1 = cache

    # MLP branch
    g["w2"][...] = a.T @ d_e
    g["b2"][...] = d_e.sum(axis=0)
    dz = (d_e @ t["w2"].T) * _gelu_grad(z, erf1)
    g["w1"][...] = y2.T @ dz
    g["b1"][...] = dz.sum(axis=0)
    dy2 = dz @ t["w1"].T
    g["ln2_gain"][...] = (dy2 * xhat2).sum(axis=0)
    g["ln2_bias"][...] = dy2.sum(axis=0)
    dxhat = dy2 * t["ln2_gain"]
    dh = d_e + inv2 * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                       - xhat2 * (dxhat * xhat2).mean(axis=-1, keepdims=True))

    # Attention branch. Per sample, dL/dk_t = ds_t q and dL/dv_t = w_t dattn
    # are rank one, so every sum over tokens is a weighted sum of LN1 rows.
    g["wo"][...] = attn.T @ dh
    g["bo"][...] = dh.sum(axis=0)
    dattn = dh @ t["wo"].T
    dw = (y1 @ (dattn @ t["wv"].T)[:, :, None])[:, :, 0] + (dattn @ t["bv"])[:, None]  # v_t . dattn
    ds = attn_w * (dw - (dw * attn_w).sum(axis=-1, keepdims=True)) * scale
    ds_y1 = (ds[:, None, :] @ y1)[:, 0]  # sum_t ds_t y1_t
    dq = ds_y1 @ t["wk"]
    g["wq"][...] = y1[:, 0].T @ dq
    g["bq"][...] = dq.sum(axis=0)
    g["wk"][...] = ds_y1.T @ q
    g["wv"][...] = pooled.T @ dattn
    g["bv"][...] = attn_w.sum(axis=1) @ dattn
    # dL/dy1_t = ds_t (wk q) + w_t (wv dattn), plus wq dq on the CLS row.
    dv_y = dattn @ t["wv"].T
    dq_y = dq @ t["wq"].T
    g["ln1_gain"][...] = (((ds[:, None, :] @ xhat1)[:, 0] * qk).sum(axis=0)
                          + ((attn_w[:, None, :] @ xhat1)[:, 0] * dv_y).sum(axis=0)
                          + (xhat1[:, 0] * dq_y).sum(axis=0))
    g["ln1_bias"][...] = ds.sum(axis=1) @ qk + attn_w.sum(axis=1) @ dv_y + dq_y.sum(axis=0)


def decode(tokens, params: DecoderParams) -> np.ndarray:
    """Output embedding (float32) of a T x D token matrix, or B x D of a B x T x D array."""
    x = np.asarray(tokens)
    with np.errstate(over="ignore", invalid="ignore"):  # the scorer raises on inf and NaN
        e, _ = _forward(x if x.ndim == 3 else x[None], params)
        return (e if x.ndim == 3 else e[0]).astype(np.float32)


# ---------------------------------------------------------------------------
# Loss


@dataclass
class TrainingBatch:
    """A B x T x D token array, its B true label ids and the candidate labels the loss
    scores over: any collection of labels, or a ``CandidateSet`` of the loss's table,
    which the loss then reads as it is."""

    tokens: np.ndarray
    labels: list
    candidates: Collection


def augmented_logits(cos, other_logit: float) -> np.ndarray:
    """(..., C+1) logits from (..., C) candidate cosines in sorted-candidate order:
    ``TEMPERATURE * cos``, then the input-independent OTHER logit in the last column."""
    cos = np.asarray(cos, dtype=np.float64)
    logits = np.empty(cos.shape[:-1] + (cos.shape[-1] + 1,))
    np.multiply(TEMPERATURE, cos, out=logits[..., :-1])
    logits[..., -1] = other_logit
    return logits


def combined_loss(batch: TrainingBatch, params: DecoderParams,
                  table: LabelEmbeddingTable, beta: float) -> float:
    """Mean over the batch of true-label CE plus beta times the OTHER-target CE."""
    return _loss_and_grads(batch, params, table, beta)


def loss_gradients(batch: TrainingBatch, params: DecoderParams, table: LabelEmbeddingTable,
                   beta: float, out: DecoderParams | None = None) -> DecoderParams:
    """Analytic gradients of :func:`combined_loss` wrt every parameter, in new arrays
    or in ``out``'s buffer, whose every entry is written."""
    out = zeros_like_params(params) if out is None else out
    _loss_and_grads(batch, params, table, beta, out)
    return out


def _loss_and_grads(batch, params, table, beta, grads=None) -> float | None:
    """The loss without ``grads``; with them, every gradient written once into ``grads``
    and no loss, which no caller of the gradients reads. One forward pass, and one
    backward pass for the gradients.

    Term 1: cross-entropy with the true label over candidates + OTHER.
    Term 2: cross-entropy with OTHER as target over (candidates + OTHER) \\ label;
    it vanishes when the true label is the only candidate (singleton softmax).
    """
    if beta < 0:
        raise ValueError("beta must be non-negative")
    if not len(batch.labels):
        raise ValueError("empty training batch")
    if len(batch.labels) != len(batch.tokens):
        raise ValueError(f"{len(batch.labels)} labels for {len(batch.tokens)} token matrices")
    candidates = CandidateSet.of(table, batch.candidates)
    try:
        idx = np.array([candidates.column[label] for label in batch.labels])
    except KeyError as exc:
        raise ValueError(f"true label {exc.args[0]} missing from candidate set") from None
    e, cache = _forward(batch.tokens, params)
    rows = np.arange(len(e))

    mat = candidates.matrix
    n = len(candidates)
    cos, e_hat, norms = label_cosines(e, mat)
    logits = augmented_logits(cos, params.other_logit)  # column n = OTHER
    p1 = softmax(logits)
    if n > 1:  # the logits are spent once p1 is out, so they take the true label's -inf
        logits[rows, idx] = -np.inf
        p2 = softmax(logits)
    inv_n = 1.0 / len(e)
    if grads is None:
        loss = -np.log(np.maximum(p1[rows, idx], 1e-300))
        if n > 1:
            loss += beta * -np.log(np.maximum(p2[:, n], 1e-300))
        return float(loss.sum() * inv_n)

    dlogits = p1
    dlogits[rows, idx] -= 1.0
    if n > 1:
        p2[:, n] -= 1.0
        dlogits += beta * p2
    grads.tensors["other_logit"][...] = inv_n * dlogits[:, n].sum()
    # d(T * cos_k)/de = T * (m_k - cos_k * e_hat) / |e|
    dl = dlogits[:, :n]
    d_e = (inv_n * TEMPERATURE) * (dl @ mat - (dl * cos).sum(axis=1, keepdims=True) * e_hat) / norms
    _backward(d_e, params, cache, grads)


# ---------------------------------------------------------------------------
# Optimizer (decoupled weight decay, adaptive moments)


OPT_BETA1, OPT_BETA2, OPT_EPS = 0.9, 0.999, 1e-8  # moment decays, denominator epsilon


@dataclass
class OptimizerState:
    lr: float = 9.375e-6
    weight_decay: float = 0.05
    step: int = 0
    m: np.ndarray | None = None  # moments over DecoderParams.flat
    v: np.ndarray | None = None
    scratch: np.ndarray | None = field(default=None, repr=False)  # two reused work rows
    grads: DecoderParams | None = field(default=None, repr=False)


def optimizer_step(params: DecoderParams, grads: DecoderParams, state: OptimizerState) -> None:
    """One decoupled-weight-decay adaptive-moment update, in place, on ``params.flat``."""
    theta, g = params.flat, grads.flat
    if grads.layout != params.layout:
        raise ValueError("gradient tensors do not match the parameter tensors")
    if state.m is None:
        state.m, state.v = np.zeros((2,) + theta.shape)
    if state.scratch is None:
        state.scratch = np.zeros((2,) + theta.shape)
    state.step += 1
    bc1 = 1.0 - OPT_BETA1 ** state.step
    bc2 = 1.0 - OPT_BETA2 ** state.step
    m, v, (s, update), k = state.m, state.v, state.scratch, params.n_decay
    m *= OPT_BETA1
    m += np.multiply(1.0 - OPT_BETA1, g, out=s)
    v *= OPT_BETA2
    np.multiply(1.0 - OPT_BETA2, g, out=s)
    v += np.multiply(s, g, out=s)
    np.sqrt(np.divide(v, bc2, out=s), out=s)
    s += OPT_EPS
    np.divide(m, bc1, out=update)
    update /= s
    update[:k] += np.multiply(state.weight_decay, theta[:k], out=s[:k])
    theta -= np.multiply(state.lr, update, out=update)


def online_update(new_id: int, store, params: DecoderParams,
                  state: OptimizerState, candidates: CandidateSet,
                  sampler_config, rng: np.random.Generator,
                  beta: float = 0.1) -> list[int]:
    """One training iteration on a batch built around a just-inserted sample.

    The store must already hold ``new_id``, and ``candidates`` must be its stored
    labels as a ``CandidateSet`` of the label table: the loss's candidates, which change
    only when a label is first stored. Returns the batch sample ids.
    """
    ids = store.compose_batch(new_id, sampler_config, rng)
    store.record_batched(ids, sampler_config)
    batch = TrainingBatch(store.tokens(ids), store.labels(ids), candidates)
    state.grads = loss_gradients(batch, params, candidates.table, beta, state.grads)
    optimizer_step(params, state.grads, state)
    return ids
