"""Token compression: CLS weighting, per-instance PCA, quantization, storage."""

import numpy as np
import pytest

from ovstream.compression import (
    MODES,
    CompressedFeature,
    DatasetPcaCodec,
    QuantizedBlock,
    cls_weighting,
    compress,
    dequantize,
    encode,
    payload_from_bytes,
    payload_to_bytes,
    per_instance_pca,
    quantize,
    quantize_feature,
    reconstruct,
    storage_bytes,
    to_tokens,
)
from ovstream.core import FormatError


def _tokens(rng, t=10, d=16, rank=None):
    if rank is None:
        return rng.standard_normal((t, d)).astype(np.float32)
    base = rng.standard_normal((rank, d))
    coeff = rng.standard_normal((t, rank))
    return (coeff @ base).astype(np.float32)


class TestClsWeighting:
    def test_cls_row_unchanged(self, rng):
        x = _tokens(rng)
        out = cls_weighting(x)
        np.testing.assert_allclose(out[0], x[0], rtol=1e-6)

    def test_weights_mean_one_after_rescale(self, rng):
        # With rescale the implied patch weights average to exactly 1, so the
        # total patch mass is preserved for equal-magnitude rows.
        x = _tokens(rng)
        out = cls_weighting(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = out[1:] / x[1:]
        weights = np.nanmedian(ratios, axis=1)
        assert weights.mean() == pytest.approx(1.0, abs=1e-5)

    def test_patch_matching_cls_weighted_highest(self, rng):
        x = _tokens(rng, t=6, d=12)
        x[3] = x[0]  # identical to CLS
        out = cls_weighting(x)
        ratios = np.nanmedian(out[1:] / x[1:], axis=1)
        assert np.argmax(ratios) == 2  # patch row 3 is ratio index 2

    def test_uniform_patches_get_uniform_weights(self, rng):
        x = np.tile(rng.standard_normal(8).astype(np.float32), (5, 1))
        out = cls_weighting(x)
        np.testing.assert_allclose(out, x, rtol=1e-5)


class TestPerInstancePca:
    def test_full_rank_reconstruction_exact(self, rng):
        x = _tokens(rng, t=6, d=10)
        cf = per_instance_pca(x, 6)
        np.testing.assert_allclose(reconstruct(cf), x, atol=1e-4)

    def test_low_rank_input_recovered(self, rng):
        x = _tokens(rng, t=12, d=16, rank=3)
        # Centering can add one dimension, so 4 components suffice.
        cf = per_instance_pca(x, 4)
        np.testing.assert_allclose(reconstruct(cf), x, atol=1e-3)

    def test_error_matches_discarded_singular_values(self, rng):
        # Squared reconstruction error equals the tail singular-value energy.
        x = _tokens(rng, t=10, d=16).astype(np.float64)
        mu = x.mean(axis=0)
        s = np.linalg.svd(x - mu, compute_uv=False)
        for n in (2, 5, 8):
            cf = per_instance_pca(x, n)
            err = np.sum((reconstruct(cf).astype(np.float64) - x) ** 2)
            tail = np.sum(s[n:] ** 2)
            assert err == pytest.approx(tail, rel=1e-3, abs=1e-6)

    def test_error_monotone_in_components(self, rng):
        x = _tokens(rng, t=10, d=16)
        errs = []
        for n in range(1, 10):
            cf = per_instance_pca(x, n)
            errs.append(float(np.sum((reconstruct(cf) - x) ** 2)))
        assert all(a >= b - 1e-9 for a, b in zip(errs, errs[1:]))

    def test_sign_convention_deterministic(self, rng):
        x = _tokens(rng)
        a = per_instance_pca(x, 4)
        b = per_instance_pca(x.copy(), 4)
        np.testing.assert_array_equal(a.components, b.components)
        np.testing.assert_array_equal(a.coefficients, b.coefficients)
        idx = np.abs(a.components).argmax(axis=1)
        assert np.all(a.components[np.arange(4), idx] >= 0)

    def test_component_count_bounds(self, rng):
        x = _tokens(rng, t=5, d=8)
        with pytest.raises(ValueError):
            per_instance_pca(x, 0)
        with pytest.raises(ValueError):
            per_instance_pca(x, 6)


class TestQuantize:
    def test_endpoints_exact(self):
        block = np.array([[-1.5, 0.0, 2.5]])
        out = dequantize(quantize(block, 8))
        assert out[0, 0] == pytest.approx(-1.5, abs=1e-6)
        assert out[0, 2] == pytest.approx(2.5, abs=1e-6)

    def test_constant_row_exact(self):
        block = np.array([[3.25, 3.25, 3.25], [1.0, 2.0, 3.0]])
        out = dequantize(quantize(block, 8))
        np.testing.assert_allclose(out[0], 3.25, atol=1e-6)

    def test_nearest_error_bound(self, rng):
        block = rng.standard_normal((6, 40))
        out = dequantize(quantize(block, 8, per_row=True))
        for r in range(6):
            half_step = (block[r].max() - block[r].min()) / (2 * 255)
            assert np.max(np.abs(out[r] - block[r])) <= half_step + 1e-6

    def test_16bit_finer_than_8bit(self, rng):
        block = rng.standard_normal((4, 64))
        e8 = np.abs(dequantize(quantize(block, 8, per_row=False)) - block).max()
        e16 = np.abs(dequantize(quantize(block, 16, per_row=False)) - block).max()
        assert e16 < e8

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            quantize(np.ones(5), 8)
        with pytest.raises(ValueError):
            quantize(np.ones((2, 2)), 12)
        with pytest.raises(ValueError):
            quantize(np.array([[np.nan, 1.0]]), 8)


class TestCompressPipeline:
    def test_quantized_reconstruction_close(self, rng):
        x = _tokens(rng, t=10, d=32, rank=4)
        cf = compress(x, n=5, quantized=True)
        raw = compress(x, n=5, quantized=False)
        err_q = np.abs(reconstruct(cf) - x).max()
        err_r = np.abs(reconstruct(raw) - x).max()
        assert err_q < 0.1
        assert err_r <= err_q + 1e-6

    def test_quantize_feature_block_types(self, rng):
        cf = quantize_feature(per_instance_pca(_tokens(rng), 4))
        assert cf.mean.bit_width == 8 and cf.mean.per_row
        assert cf.coefficients.bit_width == 16 and not cf.coefficients.per_row
        assert cf.components.bit_width == 8 and cf.components.per_row


class TestStorageBytes:
    def test_raw_tokens_50x768(self):
        assert storage_bytes(np.zeros((50, 768), dtype=np.float32)) == 153_600

    def test_pca_five_components(self, rng):
        x = rng.standard_normal((50, 768)).astype(np.float32)
        cf = per_instance_pca(x, 5)
        # 5*768 components + 50*5 coefficients + 768 mean, 4 bytes each.
        assert storage_bytes(cf) == 19_432

    def test_quantized_five_components(self, rng):
        x = rng.standard_normal((50, 768)).astype(np.float32)
        cf = quantize_feature(per_instance_pca(x, 5))
        # components: 5*768 u8 + 5 envelope pairs = 3880
        # mean: 768 u8 + 1 pair = 776; coefficients: 250 u16 + 1 pair = 508
        assert storage_bytes(cf) == 3880 + 776 + 508 == 5164

    def test_quantized_within_budget(self, rng):
        x = rng.standard_normal((50, 768)).astype(np.float32)
        cf = compress(x, n=5, quantized=True, cls_weight=True)
        assert storage_bytes(cf) == pytest.approx(5300, rel=0.10)


class TestDatasetPcaCodec:
    def test_round_trip_within_subspace(self, rng):
        mats = [_tokens(rng, t=8, d=12, rank=3) for _ in range(20)]
        codec = DatasetPcaCodec.fit(mats, chunk_size=20, n_components=12)
        for i, m in enumerate(mats):
            out = codec.decode(i, codec.encode(i, m))
            np.testing.assert_allclose(out, m, atol=1e-3)

    def test_error_monotone_in_components(self, rng):
        mats = [_tokens(rng, t=8, d=24) for _ in range(10)]
        errs = []
        for n in (2, 4, 8, 16, 24):
            codec = DatasetPcaCodec.fit(mats, chunk_size=24, n_components=n)
            err = sum(float(np.sum((codec.decode(i, codec.encode(i, m)) - m) ** 2))
                      for i, m in enumerate(mats))
            errs.append(err)
        assert all(a >= b - 1e-6 for a, b in zip(errs, errs[1:]))

    def test_chunks_fit_independently(self, rng):
        mats = [_tokens(rng, t=4, d=8) for _ in range(10)]
        codec = DatasetPcaCodec.fit(mats, chunk_size=5, n_components=4)
        assert len(codec._means) == 2
        assert [codec._chunk_of(i) for i in (0, 4, 5, 9)] == [0, 0, 1, 1]

    def test_deterministic(self, rng):
        mats = [_tokens(rng, t=6, d=10) for _ in range(8)]
        c1 = DatasetPcaCodec.fit(mats, chunk_size=8, n_components=5)
        c2 = DatasetPcaCodec.fit(mats, chunk_size=8, n_components=5)
        for i, m in enumerate(mats):
            np.testing.assert_array_equal(c1.encode(i, m), c2.encode(i, m))

    def test_unknown_sample(self, rng):
        codec = DatasetPcaCodec.fit([_tokens(rng, t=4, d=6)],
                                    chunk_size=4, n_components=3)
        for sample_id in (1, 5, -1):
            with pytest.raises(KeyError):
                codec.encode(sample_id, _tokens(rng, t=4, d=6))

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            DatasetPcaCodec(chunk_size=0, n_components=1)
        with pytest.raises(ValueError):
            DatasetPcaCodec(chunk_size=3, n_components=5)
        with pytest.raises(ValueError):
            DatasetPcaCodec.fit([], chunk_size=4, n_components=2)


def _stacked(records):
    """Records of one layout as one record whose blocks carry a leading batch axis."""
    def stack(blocks):
        if isinstance(blocks[0], QuantizedBlock):
            return QuantizedBlock(*(np.stack([getattr(b, f) for b in blocks])
                                    for f in ("codes", "mins", "maxs")),
                                  blocks[0].bit_width, blocks[0].per_row)
        return np.stack(blocks)
    first = records[0]
    return CompressedFeature(first.shape, first.n,
                             *(stack([getattr(r, f) for r in records])
                               for f in ("mean", "coefficients", "components")))


class TestBatchAxis:
    """A leading batch axis gives the stack of per-record results, bit for bit."""

    @pytest.mark.parametrize("bits", [8, 16])
    @pytest.mark.parametrize("per_row", [True, False])
    def test_dequantize(self, rng, bits, per_row):
        blocks = [quantize(rng.standard_normal((6, 9)), bits, per_row) for _ in range(7)]
        got = dequantize(QuantizedBlock(np.stack([b.codes for b in blocks]),
                                        np.stack([b.mins for b in blocks]),
                                        np.stack([b.maxs for b in blocks]), bits, per_row))
        want = np.stack([dequantize(b) for b in blocks])
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("layout", ["float", "stored", (8, True), (8, False),
                                        (16, True), (16, False)])
    def test_reconstruct(self, rng, layout):
        records = []
        for _ in range(32):
            cf = per_instance_pca(_tokens(rng, t=10, d=64), 5)
            if layout == "stored":
                cf = quantize_feature(cf)
            elif layout != "float":
                cf = CompressedFeature(cf.shape, cf.n, *(
                    quantize(b, *layout) for b in (cf.mean, cf.coefficients, cf.components)))
            records.append(cf)
        got = reconstruct(_stacked(records))
        want = np.stack([reconstruct(cf) for cf in records])
        assert got.shape == (32, 10, 64) and got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(to_tokens(_stacked(records[:1]))[0], reconstruct(records[0]))


class TestStorageModes:
    @pytest.mark.parametrize("mode", MODES)
    def test_encode_then_to_tokens(self, rng, mode):
        x = _tokens(rng, t=8, d=12, rank=3)
        gain = 1.0 + 0.1 * rng.standard_normal(12)
        bias = 0.1 * rng.standard_normal(12)
        payload = encode(x, mode, 3, gain, bias)
        if mode == "none":
            assert payload is x and to_tokens(payload) is x
            return
        want = compress(x, 3, quantized=(mode == "pca-cls-quant"),
                        cls_weight=(mode != "pca"), norm_gain=gain, norm_bias=bias)
        np.testing.assert_array_equal(to_tokens(payload), reconstruct(want))

    def test_unknown_mode_rejected(self, rng):
        for mode in ("dataset-pca", "zip"):
            with pytest.raises(ValueError, match="mode"):
                encode(_tokens(rng), mode, 3)


class TestPayloadSerialization:
    def test_raw_round_trip_bit_exact(self, rng):
        x = _tokens(rng)
        blob = payload_to_bytes(x)
        back, off = payload_from_bytes(blob)
        assert off == len(blob)
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back, x)

    def test_compressed_round_trip_bit_exact(self, rng):
        cf = compress(_tokens(rng, t=8, d=20), n=4, quantized=True)
        blob = payload_to_bytes(cf)
        back, off = payload_from_bytes(blob)
        assert off == len(blob)
        assert isinstance(back, CompressedFeature)
        assert back.shape == cf.shape and back.n == cf.n
        np.testing.assert_array_equal(back.mean.codes, cf.mean.codes)
        np.testing.assert_array_equal(back.coefficients.codes, cf.coefficients.codes)
        np.testing.assert_array_equal(back.components.codes, cf.components.codes)
        np.testing.assert_array_equal(reconstruct(back), reconstruct(cf))

    def test_unquantized_round_trip(self, rng):
        cf = per_instance_pca(_tokens(rng), 3)
        back, _ = payload_from_bytes(payload_to_bytes(cf))
        np.testing.assert_array_equal(back.components, cf.components)

    def test_truncated_payload(self, rng):
        blob = payload_to_bytes(_tokens(rng))
        with pytest.raises(FormatError):
            payload_from_bytes(blob[: len(blob) // 2])

    def test_unknown_kind(self):
        with pytest.raises(FormatError):
            payload_from_bytes(b"\x07" + b"\x00" * 32)
