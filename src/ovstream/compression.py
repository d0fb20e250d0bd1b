"""Per-instance weighted PCA compression of token matrices, and the storage
modes that decide how a stream stores each sample (``encode``) and reads it
back (``to_tokens``).

A stored record keeps three blocks: token mean, PCA coefficients, and PCA
components. Each block is independently raw float32 or integer-quantized
with min/max envelopes (components and mean at 8 bits with per-row
envelopes, coefficients at 16 bits with one envelope for the matrix).

``split`` is the one definition of a storable payload: a raw token matrix
(float32, T x D), or a record whose blocks have the shapes its ``n`` and
``shape`` give, float blocks and envelopes in float32, codes in uint8 at
8 bits or uint16 at 16, and one envelope per row or one for the matrix. It
returns the payload's layout key and arrays; ``join`` rebuilds the payload.
The replay store keeps those arrays and ``storage_bytes`` counts their bytes.
The on-disk record is those arrays under a small fixed descriptor header (see
the layout above ``payload_to_bytes``): ``payload_to_bytes`` raises ``split``'s
``ValueError`` on a payload ``split`` rejects, and ``payload_from_bytes`` hands
what it reads to ``join`` and accepts only what ``split`` accepts.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .core import FormatError, as_token_matrix
from .decoder import layer_norm


@dataclass
class QuantizedBlock:
    codes: np.ndarray       # uint8 or uint16, same shape as the source block
    mins: np.ndarray        # float32, one per envelope
    maxs: np.ndarray
    bit_width: int          # 8 or 16
    per_row: bool           # per-row envelopes vs one envelope for the matrix


@dataclass
class CompressedFeature:
    shape: tuple            # (T, D) of the original token matrix
    n: int                  # retained component count
    mean: object            # (1, D) float32 array or QuantizedBlock
    coefficients: object    # (T, n)
    components: object      # (n, D)


# ---------------------------------------------------------------------------
# Quantization


def quantize(block, bit_width: int, per_row: bool = True) -> QuantizedBlock:
    """Min-max affine map of a float matrix onto [0, 2**bit_width - 1],
    rounded to the nearest code (half a step of worst-case error)."""
    x = np.asarray(block, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"quantize expects a 2-D block, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("block contains non-finite entries")
    if bit_width not in (8, 16):
        raise ValueError(f"unsupported bit width {bit_width}")
    levels = (1 << bit_width) - 1
    axis = 1 if per_row else None
    mins = x.min(axis=axis, keepdims=True)
    maxs = x.max(axis=axis, keepdims=True)
    span = maxs - mins
    # Constant envelopes (max == min) quantize to code 0 and dequantize to
    # the stored min, which reproduces the constant exactly.
    safe = np.where(span > 0, span, 1.0)
    scaled = levels * (x - mins) / safe
    codes = np.round(scaled)
    dtype = np.uint8 if bit_width == 8 else np.uint16
    return QuantizedBlock(
        codes=codes.astype(dtype),
        mins=mins.astype(np.float32).reshape(-1),
        maxs=maxs.astype(np.float32).reshape(-1),
        bit_width=bit_width,
        per_row=per_row,
    )


def dequantize(block: QuantizedBlock) -> np.ndarray:
    """Float32 block of a quantized one. Codes may carry leading batch axes; the
    envelopes broadcast as (..., rows, 1), one per row or one for the matrix."""
    levels = (1 << block.bit_width) - 1
    mins = block.mins.astype(np.float64)[..., None]
    maxs = block.maxs.astype(np.float64)[..., None]
    out = mins + block.codes.astype(np.float64) * (maxs - mins) / levels
    return out.astype(np.float32)


def _block_array(block) -> np.ndarray:
    if isinstance(block, QuantizedBlock):
        return dequantize(block)
    return block


# ---------------------------------------------------------------------------
# CLS-attention token weighting


def cls_weighting(tokens, norm_gain=None, norm_bias=None) -> np.ndarray:
    """Scale patch tokens by their softmax attention similarity to the CLS token.

    Normalization parameters come from the decoder's first layer norm
    (identity gain / zero bias when the decoder is linear). The weights are
    multiplied by T-1 so the mean patch scale is 1, which
    keeps the reconstruction magnitude comparable to the input.
    """
    x = as_token_matrix(tokens).astype(np.float64)
    dim = x.shape[1]
    gain = np.ones(dim) if norm_gain is None else np.asarray(norm_gain, dtype=np.float64)
    bias = np.zeros(dim) if norm_bias is None else np.asarray(norm_bias, dtype=np.float64)
    cls_n, _, _ = layer_norm(x[0], gain, bias)
    patch_n, _, _ = layer_norm(x[1:], gain, bias)
    # Huge norm parameters overflow here, quietly: the NaN weights fail the PCA's check.
    with np.errstate(over="ignore", invalid="ignore"):
        sims = patch_n @ cls_n
        sims = sims - sims.max()
        weights = np.exp(sims)
        weights /= weights.sum()
    weights = weights * (x.shape[0] - 1)
    out = x.copy()
    out[1:] *= weights[:, None]
    return out.astype(np.float32)


# ---------------------------------------------------------------------------
# Per-instance PCA


def per_instance_pca(tokens, n: int) -> CompressedFeature:
    """Center the tokens, take a thin SVD, keep the top ``n`` components.

    Sign convention: the largest-magnitude entry of each component row is
    made non-negative, with the matching coefficient column flipped.
    """
    x = as_token_matrix(tokens).astype(np.float64)
    t, d = x.shape
    if not 1 <= n <= min(t, d):
        raise ValueError(f"component count {n} out of range [1, {min(t, d)}]")
    mu = x.mean(axis=0)
    u, s, vt = np.linalg.svd(x - mu, full_matrices=False)
    coeff = u[:, :n] * s[:n]
    comp = vt[:n].copy()
    flips = np.sign(comp[np.arange(n), np.abs(comp).argmax(axis=1)])
    flips[flips == 0] = 1.0
    comp *= flips[:, None]
    coeff *= flips[None, :]
    return CompressedFeature(
        shape=(t, d),
        n=n,
        mean=mu.reshape(1, -1).astype(np.float32),
        coefficients=coeff.astype(np.float32),
        components=comp.astype(np.float32),
    )


# (bit width, per-row envelopes) of the quantized mean, coefficients and components.
QUANTIZED_BLOCKS = ((8, True), (16, False), (8, True))


def quantize_feature(cf: CompressedFeature) -> CompressedFeature:
    """Quantize the blocks: components and mean to 8 bits, coefficients to 16."""
    blocks = (cf.mean, cf.coefficients, cf.components)
    return CompressedFeature(cf.shape, cf.n, *(
        quantize(_block_array(block), bits, per_row)
        for block, (bits, per_row) in zip(blocks, QUANTIZED_BLOCKS)))


def compress(tokens, n: int, quantized: bool = False, cls_weight: bool = False,
             norm_gain=None, norm_bias=None) -> CompressedFeature:
    """Full compression pipeline: optional CLS weighting, PCA, optional quantization."""
    x = as_token_matrix(tokens)
    if cls_weight:
        x = cls_weighting(x, norm_gain, norm_bias)
    cf = per_instance_pca(x, n)
    if quantized:
        cf = quantize_feature(cf)
    return cf


def reconstruct(cf: CompressedFeature) -> np.ndarray:
    """Token matrix approximation: coefficients @ components + mean.

    Blocks may carry one leading batch axis (records of one layout stacked);
    the result is then a (B, T, D) stack, each matrix bit-equal to its
    record's own reconstruction.
    """
    # A corrupted record can hold non-finite or huge blocks, whose result overflows
    # or is NaN without numpy's warnings: the loaders reject the non-finite tokens.
    with np.errstate(over="ignore", invalid="ignore"):
        mean = _block_array(cf.mean).astype(np.float64)
        coeff = _block_array(cf.coefficients).astype(np.float64)
        comp = _block_array(cf.components).astype(np.float64)
        if not coeff.shape[-1] == comp.shape[-2] == cf.n or mean.shape[-1] != comp.shape[-1]:
            raise FormatError(f"inconsistent block shapes {coeff.shape} / {comp.shape} / "
                              f"{mean.shape} for {cf.n} components")
        out = coeff @ comp + mean
        if out.shape[-2:] != cf.shape:
            raise FormatError(f"reconstructed shape {out.shape} != recorded {cf.shape}")
        return out.astype(np.float32)


# ---------------------------------------------------------------------------
# Storage modes: how a sample is stored when it arrives and read back when
# it is replayed

MODES = ("none", "pca", "pca-cls", "pca-cls-quant")


def encode(tokens, mode: str, n: int, norm_gain=None, norm_bias=None):
    """Payload that stores one token matrix under a storage mode from ``MODES``.

    ``"none"`` keeps the token matrix as float32, checked where it is stored
    (``ReplayStore.insert``) rather than twice; the PCA modes compress it to
    ``n`` components, with CLS weighting for ``"pca-cls"`` and
    ``"pca-cls-quant"`` (normalized by ``norm_gain``/``norm_bias``) and
    quantization for ``"pca-cls-quant"``.
    """
    if mode == "none":
        return np.asarray(tokens, dtype=np.float32)
    if mode not in MODES:
        raise ValueError(f"unknown compression mode {mode!r}")
    return compress(tokens, n, quantized=(mode == "pca-cls-quant"),
                    cls_weight=(mode in ("pca-cls", "pca-cls-quant")),
                    norm_gain=norm_gain, norm_bias=norm_bias)


def fits_mode(payload, mode: str, n: int) -> bool:
    """Whether ``encode(tokens, mode, n)`` stores records of ``payload``'s layout: a raw
    matrix under ``"none"``; else ``n`` components, in float32 blocks or, under
    ``"pca-cls-quant"``, in blocks quantized as ``quantize_feature`` quantizes them."""
    kinds = QUANTIZED_BLOCKS if mode == "pca-cls-quant" else (None,) * 3
    return split(payload)[0] == (("raw",) if mode == "none" else (n, *kinds))


def to_tokens(payload) -> np.ndarray:
    """Token matrix of a payload: a raw matrix as it is (no copy), a compressed
    record reconstructed. Payloads stacked on a leading batch axis give a stack."""
    if isinstance(payload, CompressedFeature):
        return reconstruct(payload)
    return payload


# ---------------------------------------------------------------------------
# The stored form of a payload

_CODES = {8: np.uint8, 16: np.uint16}


def split(payload):
    """``(key, shape, arrays)`` of a payload fit to store, or ``ValueError``.

    A raw payload is validated as a token matrix: key ``("raw",)``, one array. A
    compressed record must hold blocks of the shapes its ``n`` and ``shape`` give:
    float32 float blocks, uint8 codes at 8 bits or uint16 at 16, float32 envelopes,
    one per row or one for the matrix. Its key is ``n`` and each block's
    ``(bit_width, per_row)``, or ``None`` for a float block; its arrays are the
    blocks' in order, codes then mins then maxs for a quantized one. Payloads of
    one key stack on a leading sample axis.
    """
    if not isinstance(payload, CompressedFeature):
        tokens = as_token_matrix(payload)
        return ("raw",), tokens.shape, [tokens]
    t, d = shape = tuple(payload.shape)
    key, arrays = [payload.n], []
    blocks = (payload.mean, payload.coefficients, payload.components)
    for block, rows_cols in zip(blocks, ((1, d), (t, payload.n), (payload.n, d))):
        if isinstance(block, QuantizedBlock):
            key.append((block.bit_width, block.per_row))
            envelopes = (rows_cols[0] if block.per_row else 1,)
            parts = ((block.codes, rows_cols, _CODES.get(block.bit_width)),
                     (block.mins, envelopes, np.float32), (block.maxs, envelopes, np.float32))
        else:
            key.append(None)
            parts = ((block, rows_cols, np.float32),)
        for a, want, dtype in parts:
            if not (isinstance(a, np.ndarray) and a.shape == want and a.dtype.type is dtype):
                raise ValueError(f"block of shape {np.shape(a)} and dtype "
                                 f"{getattr(a, 'dtype', None)} does not fit a {shape} "
                                 f"record of {payload.n} components")
            arrays.append(a)
    return tuple(key), shape, arrays


def join(key, shape, arrays):
    """The payload of ``split``'s key, shape and arrays, with any leading sample axis kept."""
    if key[0] == "raw":
        return arrays[0]
    rest = iter(arrays)
    blocks = [next(rest) if kind is None
              else QuantizedBlock(next(rest), next(rest), next(rest), *kind) for kind in key[1:]]
    return CompressedFeature(shape, key[0], *blocks)


def storage_bytes(payload) -> int:
    """Bytes a stored sample holds: those of ``split``'s arrays, so raw tokens count
    T*D float32 bytes and a record its blocks' data plus quantization envelopes.
    The fixed per-record descriptor header of the on-disk format is not included.
    """
    return sum(a.nbytes for a in split(payload)[2])


# ---------------------------------------------------------------------------
# Dataset-wide PCA baseline


class DatasetPcaCodec:
    """Chunked dataset-level PCA over the feature dimension.

    Samples are grouped into consecutive chunks; each chunk gets its own
    token mean and component matrix. Sample ``i`` of the fitted range
    belongs to chunk ``i // chunk_size``.
    """

    def __init__(self, chunk_size: int, n_components: int):
        if chunk_size < 1 or n_components < 1:
            raise ValueError("chunk size and component count must be >= 1")
        if chunk_size < n_components:
            raise ValueError("chunk size must be >= component count")
        self.chunk_size = chunk_size
        self.n_components = n_components
        self._means: list[np.ndarray] = []
        self._components: list[np.ndarray] = []
        self._size = 0  # samples fitted

    @classmethod
    def fit(cls, token_matrices, chunk_size: int = 5000,
            n_components: int = 200) -> "DatasetPcaCodec":
        codec = cls(chunk_size, n_components)
        mats = [as_token_matrix(m).astype(np.float64) for m in token_matrices]
        if not mats:
            raise ValueError("cannot fit codec on an empty dataset")
        codec._size = len(mats)
        for start in range(0, len(mats), chunk_size):
            chunk = mats[start:start + chunk_size]
            stacked = np.concatenate(chunk, axis=0)
            n = min(n_components, *stacked.shape)
            mu = stacked.mean(axis=0)
            _, _, vt = np.linalg.svd(stacked - mu, full_matrices=False)
            codec._means.append(mu)
            codec._components.append(vt[:n])
        return codec

    def _chunk_of(self, sample_id: int) -> int:
        if not 0 <= sample_id < self._size:
            raise KeyError(f"sample {sample_id} is not assigned to any chunk")
        return sample_id // self.chunk_size

    def encode(self, sample_id: int, tokens) -> np.ndarray:
        chunk = self._chunk_of(sample_id)
        x = as_token_matrix(tokens).astype(np.float64)
        coeff = (x - self._means[chunk]) @ self._components[chunk].T
        return coeff.astype(np.float32)

    def decode(self, sample_id: int, coefficients) -> np.ndarray:
        chunk = self._chunk_of(sample_id)
        coeff = np.asarray(coefficients, dtype=np.float64)
        out = coeff @ self._components[chunk] + self._means[chunk]
        return out.astype(np.float32)


# ---------------------------------------------------------------------------
# On-disk record layout (little-endian throughout)
#
# payload record: u8 kind (0 raw tokens, 1 compressed).
#   raw:        u32 T, u32 D, T*D float32.
#   compressed: u32 T, u32 D, u32 n, then three blocks in order
#               mean (1 x D), coefficients (T x n), components (n x D).
#   block:      u8 encoding (0 float32, 1 uint8-quant, 2 uint16-quant),
#               u32 rows, u32 cols; float32 data for encoding 0; otherwise
#               u8 per-row flag, envelope count u32, (min, max) float32
#               pairs, then the integer codes.
#
# A record holds ``split``'s arrays: a block's encoding is its bit width / 8.

_KIND_RAW = 0
_KIND_COMPRESSED = 1
_ENCODINGS = ("<f4", "<u1", "<u2")  # the dtype of each block encoding's data


def _array(data: bytes, off: int, dtype: str, shape: tuple):
    """The read-only ``shape`` array of ``data`` at ``off``, and the offset after it. The
    count is a Python int: numpy's int64 product of two u32s can wrap."""
    arr = np.frombuffer(data, dtype=dtype, count=shape[0] * shape[1], offset=off)
    return arr.reshape(shape), off + arr.nbytes


def payload_to_bytes(payload) -> bytes:
    """The record of a payload: ``split``'s arrays under their descriptors. Raises
    ``split``'s ``ValueError`` for a payload unfit to store."""
    key, (t, d), arrays = split(payload)
    if key[0] == "raw":
        return struct.pack("<BII", _KIND_RAW, t, d) + arrays[0].astype("<f4", copy=False).tobytes()
    out, rest = [struct.pack("<BIII", _KIND_COMPRESSED, t, d, key[0])], iter(arrays)
    for kind in key[1:]:
        block = next(rest)
        encoding = 0 if kind is None else kind[0] // 8
        out.append(struct.pack("<BII", encoding, *block.shape))
        if kind is not None:
            envelopes = np.stack([next(rest), next(rest)], axis=1)  # (min, max) pairs
            out += [struct.pack("<BI", kind[1], len(envelopes)), envelopes.astype("<f4").tobytes()]
        out.append(block.astype(_ENCODINGS[encoding], copy=False).tobytes())
    return b"".join(out)


def payload_from_bytes(data: bytes, off: int = 0):
    """Decode one payload record; returns (payload, next offset).

    Raises only ``FormatError``, naming the offset of the bad record or block: a
    record is returned only once its token matrix has been read back and validated,
    and ``split`` accepts it. A raw record is a read-only view of ``data``, so a reader
    that keeps it copies it (the replay store's ``insert`` does, and ``data.load``
    copies all its records at once).
    """
    start, where = off, f"record at offset {off}"
    try:
        (kind,) = struct.unpack_from("<B", data, off)
        if kind == _KIND_RAW:
            t, d = struct.unpack_from("<II", data, off + 1)
            tokens, off = _array(data, off + 9, "<f4", (t, d))
            return as_token_matrix(tokens), off
        if kind != _KIND_COMPRESSED:
            raise FormatError(f"unknown payload kind {kind} at offset {off}")
        t, d, n = struct.unpack_from("<III", data, off + 1)
        off += 13
        key, arrays = [n], []
        for _ in range(3):
            where = f"block at offset {off}"
            encoding, rows, cols = struct.unpack_from("<BII", data, off)
            off += 9
            if encoding == 0:
                key.append(None)
            elif encoding in (1, 2):
                per_row, count = struct.unpack_from("<BI", data, off)
                envelopes, off = _array(data, off + 5, "<f4", (count, 2))
                key.append((8 * encoding, bool(per_row)))
            else:
                raise FormatError(f"bad payload {where}: unknown encoding {encoding}")
            block, off = _array(data, off, _ENCODINGS[encoding], (rows, cols))
            arrays.append(block.copy())
            if encoding:
                arrays += [envelopes[:, 0].copy(), envelopes[:, 1].copy()]
        where = f"record at offset {start}"
        cf = join(tuple(key), (t, d), arrays)
        as_token_matrix(reconstruct(cf))
        split(cf)
        return cf, off
    except (struct.error, ValueError, OverflowError) as exc:
        # OverflowError: an element count too large for numpy
        raise FormatError(f"bad payload {where}: {exc}") from exc
