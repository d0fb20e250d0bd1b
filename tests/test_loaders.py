"""Every loader rejects truncated or corrupted bytes with FormatError and nothing else.

The fuzz tests cut a valid file short or flip some of its bytes, load it, and
read every loaded sample back with ``tokens()`` (a decoder checkpoint: decode
with it); any exception other than FormatError fails them.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ovstream.compression import (
    compress,
    payload_from_bytes,
    payload_to_bytes,
    per_instance_pca,
    to_tokens,
)
from ovstream.core import FormatError, LabelEmbeddingTable
from ovstream.data import Dataset, load, save
from ovstream.decoder import block_params, decode, linear_params, load_checkpoint, save_checkpoint
from ovstream.replay import ReplayStore

NAN = struct.pack("<f", float("nan"))


def _payloads():
    """A raw token matrix, a float PCA record and a quantized record (T=4, D=3)."""
    tokens = np.random.default_rng(3).standard_normal((4, 3)).astype(np.float32)
    return [tokens, per_instance_pca(tokens, 2), compress(tokens, 2, quantized=True)]


def _dataset():
    table = LabelEmbeddingTable({0: [1.0, 0.0, 0.0], 5: [0.0, 0.6, 0.8]})
    samples = [(p, 5 * (i % 2)) for i, p in enumerate(_payloads())]
    return Dataset(table, samples, {0: [0, 1], 1: [2]})


def _store():
    store = ReplayStore()
    for i, payload in enumerate(_payloads()):
        store.insert(i, payload)
    return store


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

    def _label_block_patched(self, tmp_path, off: int, raw: bytes):
        path = tmp_path / "data.bin"
        save(_dataset(), path)
        blob = bytearray(path.read_bytes())
        blob[off:off + len(raw)] = raw
        path.write_bytes(bytes(blob))
        return path

    def test_nan_label_embedding(self, tmp_path):
        # Label entries start at offset 28: u32 id, then D=3 float32.
        path = self._label_block_patched(tmp_path, 32, NAN)
        with pytest.raises(FormatError, match="label 0"):
            load(path)

    def test_duplicate_label_id(self, tmp_path):
        path = self._label_block_patched(tmp_path, 44, struct.pack("<I", 0))
        with pytest.raises(FormatError, match="duplicate label id 0"):
            load(path)


class TestReplayStoreFiles:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_corrupt_files_raise_only_format_error(self, tmp_path_factory, data):
        tmp = tmp_path_factory.mktemp("fuzz")
        payload, meta = tmp / "store.bin", tmp / "store.csv"
        _store().save(payload, meta)
        target = data.draw(st.sampled_from([payload, meta]))
        target.write_bytes(data.draw(corrupted(target.read_bytes())))
        try:
            store = ReplayStore.load(payload, meta)
            store.tokens(range(len(store)))
        except FormatError:
            pass

    def test_nan_in_raw_payload(self, tmp_path):
        payload, meta = tmp_path / "store.bin", tmp_path / "store.csv"
        _store().save(payload, meta)
        blob = bytearray(payload.read_bytes())
        blob[17:21] = NAN  # first token value of the first (raw) record
        payload.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="offset 8"):
            ReplayStore.load(payload, meta)

    def test_tokens_of_every_layout_equal_each_record(self):
        ids = [2, 0, 1, 2, 1]
        want = np.stack([to_tokens(_payloads()[i]) for i in ids])
        assert _store().tokens(ids).tobytes() == want.tobytes()

    def test_record_whose_coefficients_do_not_fit_its_n(self, tmp_path):
        payload, meta = tmp_path / "store.bin", tmp_path / "store.csv"
        _store().save(payload, meta)
        blob = bytearray(payload.read_bytes())
        off = 8 + len(payload_to_bytes(_payloads()[0]))  # record 1: float PCA, n=2
        blob[off + 9:off + 13] = struct.pack("<I", 1)
        payload.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="record 1"):
            ReplayStore.load(payload, meta)

    def test_record_of_another_token_shape(self, tmp_path):
        payload, meta = tmp_path / "store.bin", tmp_path / "store.csv"
        _store().save(payload, meta)
        other = np.ones((5, 3), dtype=np.float32)
        blob = payload.read_bytes()
        payload.write_bytes(blob[:4] + struct.pack("<I", 4) + blob[8:] + payload_to_bytes(other))
        meta.write_text(meta.read_text() + "3,0,0,1.0\n")
        with pytest.raises(FormatError, match="record 3"):
            ReplayStore.load(payload, meta)


class TestDecoderCheckpoint:
    @staticmethod
    def _saved(tmp_path, variant):
        path = tmp_path / "ck.bin"
        save_checkpoint(linear_params(3, 2, identity=False) if variant == "linear"
                        else block_params(3), path)
        return path

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), variant=st.sampled_from(["linear", "block"]))
    def test_corrupt_checkpoint_raises_only_format_error(self, tmp_path_factory, data, variant):
        path = self._saved(tmp_path_factory.mktemp("fuzz"), variant)
        path.write_bytes(data.draw(corrupted(path.read_bytes())))
        try:
            params = load_checkpoint(path)
            decode(np.ones((2, params.d_in), dtype=np.float32), params)
        except FormatError:
            pass

    @pytest.mark.parametrize("variant,name", [("linear", b"weight"), ("block", b"w2")])
    def test_renamed_tensor_is_missing(self, tmp_path, variant, name):
        path = self._saved(tmp_path, variant)
        blob = path.read_bytes()
        path.write_bytes(blob.replace(name, name[:-1] + b"x", 1))
        with pytest.raises(FormatError, match=repr(name.decode())):
            load_checkpoint(path)

    def test_block_d_out_other_than_d_in(self, tmp_path):
        path = self._saved(tmp_path, "block")
        blob = bytearray(path.read_bytes())
        blob[13:17] = struct.pack("<I", 4)  # d_out: 3 -> 4
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="d_in 3 != d_out 4"):
            load_checkpoint(path)
