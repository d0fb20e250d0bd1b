"""Every loader rejects truncated or corrupted bytes with FormatError and nothing else.

The fuzz tests cut a valid file short or flip some of its bytes, load it, and
read every loaded sample back with ``tokens()`` (an engine snapshot: train one
step and evaluate with it); any exception other than FormatError fails them.
"""

import json
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ovstream.compression import (
    CompressedFeature,
    compress,
    payload_from_bytes,
    payload_to_bytes,
    per_instance_pca,
    quantize,
    to_tokens,
)
from ovstream.core import FormatError, LabelEmbeddingTable
from ovstream.data import Dataset, load, save
from ovstream.protocols import Engine, EngineConfig, EvalSuite
from ovstream.replay import ReplayStore, SamplerConfig

NAN = struct.pack("<f", float("nan"))


def _payloads(seed=3):
    """A raw token matrix, a float PCA record and a quantized record (T=4, D=3)."""
    tokens = np.random.default_rng(seed).standard_normal((4, 3)).astype(np.float32)
    return [tokens, per_instance_pca(tokens, 2), compress(tokens, 2, quantized=True)]


def _dataset():
    """The token matrices of ``_payloads()``'s three records, labelled 0, 5, 0: a dataset
    holds raw samples, so the compressed ones are reconstructed."""
    table = LabelEmbeddingTable({0: [1.0, 0.0, 0.0], 5: [0.0, 0.6, 0.8]})
    rows = np.stack([to_tokens(p) for p in _payloads()])
    return Dataset(table, rows, [0, 5, 0], {0: [0, 1], 1: [2]})


# The storage mode that stores each of ``_payloads()``'s layouts, at 2 components.
LAYOUT_MODES = ("none", "pca", "pca-cls-quant")


def _store(layout: int):
    """A store of three records of one of ``_payloads()``'s layouts (seeds 3, 4, 5),
    labelled 0, 5, 0."""
    store = ReplayStore()
    for label, seed in ((0, 3), (5, 4), (0, 5)):
        store.insert(label, _payloads(seed)[layout])
    return store


def _snapshot(path, layout: int):
    """A snapshot of an engine whose storage mode stores ``_payloads()[layout]``,
    holding ``_store(layout)``'s records."""
    engine = Engine(_dataset(), EngineConfig(compression=LAYOUT_MODES[layout], pca_components=2))
    engine.store = _store(layout)
    engine.snapshot(path)
    return path


@st.composite
def corrupted(draw, blob: bytes) -> bytes:
    """``blob`` cut short, or with one to four of its bytes flipped."""
    if draw(st.booleans()):
        return blob[:draw(st.integers(0, len(blob) - 1))]
    out = bytearray(blob)
    flips = st.tuples(st.integers(0, len(blob) - 1), st.integers(1, 255))
    for pos, mask in draw(st.lists(flips, min_size=1, max_size=4)):
        out[pos] ^= mask
    return bytes(out)


class TestPayloadRecord:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([payload_to_bytes(p) for p in _payloads()]).flatmap(corrupted))
    def test_corrupt_record_raises_only_format_error(self, blob):
        try:
            payload, _ = payload_from_bytes(blob)
            to_tokens(payload)
        except FormatError:
            pass

    def test_token_count_too_large_for_numpy(self):
        blob = struct.pack("<BII", 0, 0xFFFFFFFF, 0xFFFFFFFF) + bytes(16)
        with pytest.raises(FormatError, match="offset 0"):
            payload_from_bytes(blob)

    def test_block_size_too_large_for_numpy(self):
        blob = struct.pack("<BIII", 1, 4, 3, 2) + struct.pack("<BII", 0, 0xFFFFFFFF, 0xFFFFFFFF)
        with pytest.raises(FormatError, match="offset 13"):
            payload_from_bytes(blob)

    @pytest.mark.parametrize("edit", [
        dict(mean=3e38, coefficients=3e38),               # beyond float32 range
        dict(mean=np.inf, coefficients=-np.inf, components=1.0),  # inf - inf
        dict(coefficients=np.inf, components=0.0),        # inf * 0
    ], ids=["overflow", "inf_minus_inf", "inf_times_zero"])
    def test_non_finite_reconstruction_raises_format_error_without_warning(self, edit):
        pca = _payloads()[1]
        blocks = {name: np.full_like(getattr(pca, name), value) for name, value in edit.items()}
        blob = payload_to_bytes(CompressedFeature(pca.shape, pca.n, **{
            "mean": pca.mean, "coefficients": pca.coefficients,
            "components": pca.components, **blocks}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match="non-finite"):
                payload_from_bytes(blob)

    def test_per_row_block_with_one_envelope(self):
        # Components of 2 rows quantized with one envelope, but flagged per-row:
        # they reconstruct, yet no store could hold them. The writer refuses such a
        # record, so the block is packed here, after the float record's first two.
        pca = _payloads()[1]
        comp = quantize(pca.components, 8, per_row=False)
        head = payload_to_bytes(pca)[:-(9 + pca.components.nbytes)]
        blob = (head + struct.pack("<BIIBI2f", 1, 2, 3, 1, 1, comp.mins[0], comp.maxs[0])
                + comp.codes.tobytes())
        with pytest.raises(FormatError, match="does not fit"):
            payload_from_bytes(blob)

    def test_blocks_that_do_not_fit_the_record(self):
        blob = bytearray(payload_to_bytes(_payloads()[1]))
        blob[9:13] = struct.pack("<I", 3)  # n: 2 -> 3
        with pytest.raises(FormatError, match="block shapes"):
            payload_from_bytes(bytes(blob))


class TestDatasetFile:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_corrupt_file_raises_only_format_error(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "data.bin"
        save(_dataset(), path)
        path.write_bytes(data.draw(corrupted(path.read_bytes())))
        try:
            ds = load(path)
            for i in range(len(ds.samples)):
                ds.tokens(i)
        except FormatError:
            pass

    def _patched(self, tmp_path, off: int, raw: bytes):
        path = tmp_path / "data.bin"
        save(_dataset(), path)
        blob = bytearray(path.read_bytes())
        blob[off:off + len(raw)] = raw
        path.write_bytes(bytes(blob))
        return path

    def test_nan_label_embedding(self, tmp_path):
        # Label entries start at offset 28: u32 id, then D=3 float32.
        path = self._patched(tmp_path, 32, NAN)
        with pytest.raises(FormatError, match="label 0"):
            load(path)

    def test_duplicate_label_id(self, tmp_path):
        path = self._patched(tmp_path, 44, struct.pack("<I", 0))
        with pytest.raises(FormatError, match="duplicate label id 0"):
            load(path)

    def test_task_naming_a_sample_out_of_range(self, tmp_path):
        # Tasks start at offset 60, after two label entries: u32 task id, u32
        # size, then the sample ids. The dataset has 3 samples.
        path = self._patched(tmp_path, 68, struct.pack("<I", 99))
        with pytest.raises(FormatError, match="sample 99 of 3 at offset 68"):
            load(path)

    # Records start at offset 300, after four label entries of D=16; each record of
    # a 6 x 16 matrix is 397 bytes (u32 label, 9-byte payload header, float32 data).
    @pytest.mark.parametrize("edits, match", [
        ({3: (np.ones((4, 16)), 1)},
         r"record 3 at offset 1491: token shape \(4, 16\) != the dataset's \(6, 16\)"),
        ({5: (np.ones((6, 8)), 2)},
         r"record 5 at offset 2285: token shape \(6, 8\) != the dataset's \(6, 16\)"),
        ({2: (np.ones((6, 16)), 99)}, "record 2 at offset 1094: label 99 is not in the label table"),
        ({3: (np.ones((4, 16)), 1), 5: (np.ones((6, 8)), 2)}, "record 3 at offset 1491"),
    ], ids=["short_t", "narrow_d", "label_outside_the_table", "ragged"])
    def test_record_the_header_does_not_describe(self, edited_dataset, edits, match):
        with pytest.raises(FormatError, match=match):
            load(edited_dataset(edits))

    def test_records_the_header_describes_load(self, edited_dataset):
        ds = load(edited_dataset({3: (np.ones((6, 16)), 3)}))
        assert ds.shape == (6, 16)
        np.testing.assert_array_equal(ds.tokens(3), np.ones((6, 16)))


class TestReplayStoreFiles:
    """The store's records as an engine snapshot holds them."""

    @staticmethod
    def _record_offset(blob: bytes, layout: int) -> int:
        """Offset of record 0 of a ``_snapshot(path, layout)``."""
        return blob.index(payload_to_bytes(_payloads()[layout]))

    def test_nan_in_raw_payload(self, tmp_path):
        path = _snapshot(tmp_path / "engine.snap", 0)
        blob = bytearray(path.read_bytes())
        off = self._record_offset(blob, 0) + 9  # first token value of the raw record
        blob[off:off + 4] = NAN
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="record 0"):
            Engine.restore(path, _dataset())

    @pytest.mark.parametrize("layout", [0, 1, 2], ids=LAYOUT_MODES)
    def test_tokens_of_each_layout_equal_each_record(self, tmp_path, layout):
        ids = [2, 0, 1, 2, 1]
        want = np.stack([to_tokens(_payloads(3 + i)[layout]) for i in ids])
        assert _store(layout).tokens(ids).tobytes() == want.tobytes()
        engine = Engine.restore(_snapshot(tmp_path / "engine.snap", layout), _dataset())
        assert engine.store.tokens(ids).tobytes() == want.tobytes()

    def test_record_whose_coefficients_do_not_fit_its_n(self, tmp_path):
        path = _snapshot(tmp_path / "engine.snap", 1)
        blob = bytearray(path.read_bytes())
        off = self._record_offset(blob, 1)  # float PCA, n=2
        blob[off + 9:off + 13] = struct.pack("<I", 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="record 0"):
            Engine.restore(path, _dataset())

    def test_record_of_another_token_shape(self, tmp_path):
        path = _snapshot(tmp_path / "engine.snap", 0)
        blob = path.read_bytes()
        # The u32 sample count precedes record 0's (label, batch count); the last
        # record is followed by the tracker's (c_t, c_o) of stored labels 0 and 5.
        count = self._record_offset(blob, 0) - struct.calcsize("<qq") - 4
        end = len(blob) - 2 * struct.calcsize("<dd")
        other = struct.pack("<qq", 0, 0) + payload_to_bytes(np.ones((5, 3), np.float32))
        path.write_bytes(blob[:count] + struct.pack("<I", 4) + blob[count + 4:end] + other
                         + blob[end:])
        with pytest.raises(FormatError, match="record 3"):
            Engine.restore(path, _dataset())


# Two engines a stream reaches: block decoder, compressed store and FWS replay;
# linear decoder, raw store, class-balanced replay and nn-loo weighting.
SNAPSHOT_CONFIGS = [
    dict(decoder_variant="block", compression="pca-cls-quant", pca_components=2,
         sampler=dict(strategy="fws", batch_size=2)),
    dict(weighting="nn-loo", sampler=dict(batch_size=2)),
]


def _trained_engine(config: dict) -> Engine:
    sampler = SamplerConfig(**config["sampler"])
    engine = Engine(_dataset(), EngineConfig(lr=0.01, **{**config, "sampler": sampler}))
    engine.process(0)
    engine.process(1)
    return engine


class TestEngineSnapshot:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), config=st.sampled_from(SNAPSHOT_CONFIGS))
    def test_corrupt_snapshot_raises_only_format_error(self, tmp_path_factory, data, config):
        path = tmp_path_factory.mktemp("fuzz") / "engine.snap"
        _trained_engine(config).snapshot(path)
        path.write_bytes(data.draw(corrupted(path.read_bytes())))
        ds = _dataset()
        try:
            engine = Engine.restore(path, ds)
        except FormatError:
            return
        # A flipped exponent bit can leave a finite parameter near 1e300: a state
        # a diverging stream reaches too, whose arithmetic overflows. Nothing else
        # may fail.
        try:
            engine.process(2)
            engine.evaluate_suite(EvalSuite("all", [0, 1, 2], set(ds.labels())))
        except ValueError as exc:
            assert "non-finite" in str(exc)

    def test_huge_norm_gain_raises_non_finite_without_a_warning(self):
        # A finite LN1 gain near the float64 limit, as a flipped exponent bit leaves it:
        # the CLS weighting of the next sample overflows, quietly, and its encode
        # rejects the NaN tokens.
        engine = _trained_engine(SNAPSHOT_CONFIGS[0])
        engine.params.tensors["ln1_gain"][0] = 1e303
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                engine.process(2)

    def test_huge_norm_gain_in_the_block_forward_raises_without_a_warning(self):
        # On raw storage the next sample reaches the block forward, whose matmuls
        # overflow quietly before the scorer rejects the non-finite embedding.
        engine = _trained_engine(dict(SNAPSHOT_CONFIGS[0], compression="none"))
        engine.params.tensors["ln1_gain"][0] = 1e303
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                engine.process(2)

    # Each edit leaves the engine in a state that no stream could reach.
    @pytest.mark.parametrize("edit, match", [
        (lambda e: e.params.tensors["other_logit"].fill(np.nan), "non-finite"),
        (lambda e: e.opt.m.__setitem__(0, np.inf), "non-finite"),
        (lambda e: e.opt.v.__setitem__(0, -1e-9), "v < 0"),
        (lambda e: setattr(e.store.sample(1), "batch_count", -1), "record 1.*batch count -1"),
        # Two steps of at most two ids each: batch counts sum to at most 4.
        (lambda e: setattr(e.store.sample(1), "batch_count", 10**6), "record 1.*sum past step 2"),
        (lambda e: e.tracker.acc.__setitem__((e.table.rows([0])[0], 0), 1.5),
         "tracker entry for label 0"),
        (lambda e: setattr(e.config, "lr", float("inf")), "lr must be finite"),
        (lambda e: setattr(e.config.sampler, "batch_size", 2.5), "batch_size"),
    ])
    @pytest.mark.parametrize("config", SNAPSHOT_CONFIGS, ids=["block", "linear"])
    def test_state_no_stream_reaches_is_rejected(self, tmp_path, config, edit, match):
        engine = _trained_engine(config)
        edit(engine)
        engine.snapshot(tmp_path / "engine.snap")
        with pytest.raises(FormatError, match=match):
            Engine.restore(tmp_path / "engine.snap", _dataset())

    @pytest.mark.parametrize("config", SNAPSHOT_CONFIGS, ids=["block", "linear"])
    def test_record_of_a_label_outside_the_table(self, tmp_path, config):
        # The tracker has a row per table label only, so no engine snapshots a stored
        # label outside the table: record 2's label field is patched in the bytes. The
        # record is followed by the tracker's (c_t, c_o) of stored labels 0 and 5.
        engine = _trained_engine(config)
        engine.store.insert(0, engine.store.sample(0).payload)
        path = tmp_path / "engine.snap"
        engine.snapshot(path)
        blob = bytearray(path.read_bytes())
        record = payload_to_bytes(engine.store.sample(2).payload)
        off = len(blob) - 2 * struct.calcsize("<dd") - len(record) - struct.calcsize("<qq")
        assert struct.unpack_from("<q", blob, off) == (0,)
        blob[off:off + 8] = struct.pack("<q", 7)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="record 2.*label 7"):
            Engine.restore(path, _dataset())

    def test_bad_magic_version_and_trailing_bytes(self, tmp_path):
        path = tmp_path / "engine.snap"
        _trained_engine(SNAPSHOT_CONFIGS[1]).snapshot(path)
        blob = path.read_bytes()
        for bad, match in ((b"OVDS" + blob[4:], "magic"),
                           (blob[:4] + struct.pack("<I", 4) + blob[8:], "version 4"),
                           (blob + b"\0", "1 bytes after the last record")):
            path.write_bytes(bad)
            with pytest.raises(FormatError, match=match):
                Engine.restore(path, _dataset())

    def test_version_2_snapshot_rejected(self, tmp_path):
        # Version 2 also wrote what version 3 derives from the store: the tracker's
        # label ids, entry count and n_seen, and every stored sample's FWS weight.
        engine = _trained_engine(SNAPSHOT_CONFIGS[0])
        path = tmp_path / "engine.snap"
        engine.snapshot(path)
        blob = path.read_bytes()
        (size,) = struct.unpack_from("<I", blob, 8)
        (n,) = struct.unpack_from("<I", blob, 12 + size)
        labels = engine.store.seen_labels()
        acc, n_seen = (a[engine.table.rows(labels)] for a in (engine.tracker.acc,
                                                              engine.tracker.n_seen))
        samples = [engine.store.sample(sid) for sid in range(len(engine.store))]
        path.write_bytes(b"".join([
            blob[:4], struct.pack("<I", 2), blob[8:24 + size + 24 * n],  # through moment v
            struct.pack("<I", len(labels)),
            *(struct.pack("<qddQ", y, *a, k) for y, a, k in zip(labels, acc, n_seen)),
            struct.pack("<I", len(samples)),
            *(struct.pack("<qqd", s.label, s.batch_count, s.fws_weight)
              + payload_to_bytes(s.payload) for s in samples)]))
        with pytest.raises(FormatError, match="unsupported snapshot version 2"):
            Engine.restore(path, _dataset())

    def test_version_1_snapshot_rejected(self, tmp_path):
        # A version-1 header's config carries the retired "p_other_weighting" field.
        path = tmp_path / "engine.snap"
        _trained_engine(SNAPSHOT_CONFIGS[1]).snapshot(path)
        blob = path.read_bytes()
        (size,) = struct.unpack_from("<I", blob, 8)
        header = json.loads(blob[12:12 + size])
        header["config"]["p_other_weighting"] = False
        old = json.dumps(header, sort_keys=True).encode()
        for version, match in ((1, "unsupported snapshot version 1"), (3, "p_other_weighting")):
            path.write_bytes(blob[:4] + struct.pack("<II", version, len(old)) + old
                             + blob[12 + size:])
            with pytest.raises(FormatError, match=match):
                Engine.restore(path, _dataset())

    @pytest.mark.parametrize("mode, n, layout", [
        ("pca", 2, "raw"),
        ("pca-cls-quant", 2, "raw"),
        ("none", 2, "float"),
        ("none", 2, "quantized"),
        ("pca-cls-quant", 2, "float"),
        ("pca-cls-quant", 2, "quantized mean only"),
        ("pca-cls-quant", 2, "8-bit coefficients"),
        ("pca", 2, "quantized"),
        ("pca-cls", 2, "quantized"),
        ("pca", 3, "float"),
        ("pca-cls-quant", 1, "quantized"),
    ])
    def test_record_the_engine_would_not_store(self, tmp_path, mode, n, layout):
        raw, pca, quant = _payloads()
        payload = {
            "raw": raw, "float": pca, "quantized": quant,
            "quantized mean only": CompressedFeature(
                pca.shape, 2, quant.mean, pca.coefficients, pca.components),
            "8-bit coefficients": CompressedFeature(
                pca.shape, 2, quant.mean, quantize(pca.coefficients, 8, per_row=False),
                quant.components),
        }[layout]
        engine = Engine(_dataset(), EngineConfig(compression=mode, pca_components=n))
        engine.store.insert(0, payload)
        engine.snapshot(tmp_path / "engine.snap")
        with pytest.raises(FormatError, match=f"record 0 .*compression '{mode}' with {n} "):
            Engine.restore(tmp_path / "engine.snap", _dataset())
