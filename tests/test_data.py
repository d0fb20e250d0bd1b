"""Synthetic dataset generation and the dataset file format."""

import hashlib
import struct
import time
import tracemalloc

import numpy as np
import pytest

from ovstream.compression import compress
from ovstream.core import FormatError, LabelEmbeddingTable, argmax_label, zero_shot_probabilities
from ovstream.data import GENERATE_CHUNK_BYTES, Dataset, SyntheticSpec, generate, load, save
from ovstream.protocols import Engine, EngineConfig, build_stream


def _zero_shot_accuracy(dataset):
    labels = dataset.labels()
    hits = 0
    for i, (_, label) in enumerate(dataset.samples):
        probs = zero_shot_probabilities(dataset.tokens(i)[0],
                                        dataset.label_table, labels)
        hits += argmax_label(probs) == label
    return hits / len(dataset.samples)


class TestSpecValidation:
    def test_defaults_valid(self):
        SyntheticSpec().validate()

    @pytest.mark.parametrize("field,value", [
        ("num_classes", 0), ("samples_per_class", 0), ("dim", 0),
        ("tokens", 1), ("noise", -0.1), ("separation", 0.0),
        ("separation", 2.5), ("label_alignment", 1.5),
        ("label_alignment", -0.1),
    ])
    def test_rejects_bad_fields(self, field, value):
        spec = SyntheticSpec(**{field: value})
        with pytest.raises(ValueError):
            spec.validate()


class TestGenerate:
    def test_shapes_and_counts(self):
        spec = SyntheticSpec(num_classes=4, samples_per_class=6, dim=16,
                             tokens=5, seed=3)
        ds = generate(spec)
        assert len(ds.samples) == 24
        assert ds.labels() == [0, 1, 2, 3]
        for i in range(24):
            assert ds.tokens(i).shape == (5, 16)
        counts = {}
        for _, label in ds.samples:
            counts[label] = counts.get(label, 0) + 1
        assert counts == {y: 6 for y in range(4)}

    def test_centers_respect_separation(self):
        spec = SyntheticSpec(num_classes=8, samples_per_class=1, dim=32,
                             separation=0.5, seed=1)
        ds = generate(spec)
        mat = np.array([ds.label_table.embedding(y) for y in range(8)],
                       dtype=np.float64)
        gram = mat @ mat.T
        np.fill_diagonal(gram, -1.0)
        assert gram.max() <= 0.5 + 1e-6

    def test_impossible_separation(self):
        spec = SyntheticSpec(num_classes=50, dim=2, separation=1.9)
        with pytest.raises(ValueError):
            generate(spec)

    def test_zero_noise_gives_perfect_zero_shot(self):
        spec = SyntheticSpec(num_classes=5, samples_per_class=10, dim=24,
                             noise=0.0, seed=7)
        assert _zero_shot_accuracy(generate(spec)) == 1.0

    def test_huge_noise_near_chance(self):
        spec = SyntheticSpec(num_classes=10, samples_per_class=60, dim=48,
                             noise=20.0, seed=5)
        acc = _zero_shot_accuracy(generate(spec))
        assert acc == pytest.approx(0.1, abs=0.1)

    def test_label_alignment_degrades_zero_shot(self):
        base = dict(num_classes=6, samples_per_class=30, dim=32,
                    noise=0.3, separation=0.4, seed=2)
        aligned = _zero_shot_accuracy(generate(SyntheticSpec(**base)))
        drifted = _zero_shot_accuracy(
            generate(SyntheticSpec(label_alignment=0.3, **base)))
        assert drifted < aligned

    def test_bit_identical_per_seed(self):
        spec = SyntheticSpec(num_classes=3, samples_per_class=4, seed=11)
        a, b = generate(spec), generate(spec)
        for i in range(len(a.samples)):
            np.testing.assert_array_equal(a.tokens(i), b.tokens(i))
            assert a.samples[i][1] == b.samples[i][1]
        for y in a.labels():
            np.testing.assert_array_equal(a.label_table.embedding(y),
                                          b.label_table.embedding(y))

    def test_seeds_differ(self):
        a = generate(SyntheticSpec(num_classes=3, samples_per_class=2, seed=0))
        b = generate(SyntheticSpec(num_classes=3, samples_per_class=2, seed=1))
        assert not np.array_equal(a.tokens(0), b.tokens(0))

    def test_tokens_are_low_rank(self):
        # Top 5 singular values carry >= 95% of the centered energy.
        ds = generate(SyntheticSpec(num_classes=2, samples_per_class=5,
                                    dim=64, tokens=20, seed=9))
        for i in range(len(ds.samples)):
            x = ds.tokens(i).astype(np.float64)
            s = np.linalg.svd(x - x.mean(axis=0), compute_uv=False)
            assert np.sum(s[:5] ** 2) / np.sum(s ** 2) >= 0.95

    # name -> (spec, sha256 over token_rows, label_ids and the table's embeddings),
    # recorded from the per-sample generation loop that chunked generation replaced.
    # "many-chunks" draws its 120 samples in four chunks of GENERATE_CHUNK_BYTES.
    PINNED = {
        "dim-1": (dict(num_classes=2, samples_per_class=3, dim=1, tokens=4, seed=1),
                  "5d7b1a4fb79a4dd516b459e9da343a6f576b57ce445c660883a098588dae2cde"),
        "dim-2": (dict(num_classes=3, samples_per_class=3, dim=2, tokens=4, seed=2),
                  "bfea3599ec51bf8e27dd55a915ebf376784b4837aa270973b3a4dc1f7c02c03f"),
        "tokens-2": (dict(num_classes=3, samples_per_class=4, dim=8, tokens=2, seed=3),
                     "86a5c002c146e8e55b70bcd8c7e6fd8749ee49a4cdca143984c5766398ee69a9"),
        "noise-0": (dict(num_classes=3, samples_per_class=4, dim=8, tokens=5, noise=0.0,
                         seed=4),
                    "90491d852cb7995c87c4cffc8ebdfa3a0a36515cc27eab7e23c71fb9f2d3df96"),
        "aligned": (dict(num_classes=3, samples_per_class=4, dim=8, tokens=5, noise=0.3,
                         label_alignment=1.0, seed=5),
                    "e6eb930d646b3fff8b481cf13905b8922fd8aadf6932af7e4fb5588045736d79"),
        "drifted": (dict(num_classes=3, samples_per_class=4, dim=8, tokens=5, noise=0.3,
                         label_alignment=0.8, seed=5),
                    "762a3f0bbc37d02bd8868fd32f877a5d2709942c79337528d4c96aa260d90374"),
        "one-class": (dict(num_classes=1, samples_per_class=5, dim=8, tokens=5, seed=6),
                      "e0708efa15c431e62652d827260a5614d72aa043bc475eff6f20bfeec90c1954"),
        "many-chunks": (dict(num_classes=4, samples_per_class=30, dim=64, tokens=10, seed=7),
                        "7d854800d35b905998507f3d685d49f53825111ea759f88c02fb5544532a1b57"),
    }

    @pytest.mark.parametrize("name", PINNED)
    def test_generated_bytes_are_pinned(self, name):
        spec, want = self.PINNED[name]
        ds = generate(SyntheticSpec(**spec))
        h = hashlib.sha256(ds.token_rows.tobytes())
        h.update(ds.label_ids.tobytes())
        for y in ds.labels():
            h.update(ds.label_table.embedding(y).tobytes())
        assert h.hexdigest() == want

    def test_working_set_is_the_output_and_a_few_chunks(self):
        # One draw for all 2000 samples would hold 2000 x 859 float64 values, 13.7 MB,
        # beside the 5.1 MB of token rows; chunks of GENERATE_CHUNK_BYTES hold 38.
        generate(SyntheticSpec(num_classes=2, samples_per_class=2))
        tracemalloc.start()
        try:
            ds = generate(SyntheticSpec(num_classes=20, samples_per_class=100, dim=64,
                                        tokens=10, seed=1))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held >= ds.token_rows.nbytes
        assert peak - held <= 4 * GENERATE_CHUNK_BYTES

    def test_cls_row_is_unit_norm(self):
        ds = generate(SyntheticSpec(num_classes=2, samples_per_class=3, seed=4))
        for i in range(6):
            assert np.linalg.norm(ds.tokens(i)[0]) == pytest.approx(1.0, abs=1e-5)


class TestDatasetShape:
    def _table(self):
        return LabelEmbeddingTable({0: [1.0, 0.0], 1: [0.0, 1.0]})

    def test_every_sample_has_the_dataset_shape(self):
        ds = generate(SyntheticSpec(num_classes=2, samples_per_class=3, dim=16, tokens=5))
        assert ds.shape == (5, 16)
        assert Dataset(self._table(), np.empty((0, 4, 2), np.float32), []).shape is None

    @pytest.mark.parametrize("rows, labels, match", [
        (np.ones((2, 1, 2), np.float32), [0, 1], r"token shape \(1, 2\) is not \(T >= 2, 2\)"),
        (np.ones((2, 4, 3), np.float32), [0, 1], r"token shape \(4, 3\) is not \(T >= 2, 2\)"),
        (np.ones((2, 4, 2), np.float32), [0, 7], "sample 1: label 7 is not in the label table"),
        (np.ones((2, 4, 2)), [0, 1], r"token rows of float64 \(2, 4, 2\) are not 2 float32"),
        (np.ones((4, 2), np.float32), [0, 1], r"token rows of float32 \(4, 2\) are not 2"),
        (np.ones((3, 4, 2), np.float32), [0, 1], r"\(3, 4, 2\) are not 2 float32"),
        ([np.ones((4, 2), np.float32)] * 2, [0, 1], "token rows of list"),
        (np.ones((2, 4, 2), np.float32), [0.0, 1.0], "label ids must be one 1-D integer array"),
        (np.ones((2, 4, 2), np.float32), [[0, 1]], "label ids must be one 1-D integer array"),
        (np.array([[[1, 1]] * 4, [[1, 1]] * 3 + [[np.nan, 1]]], np.float32), [0, 1],
         "sample 1: token matrix contains non-finite entries"),
        (np.array([[[1, 1]] * 4, [[1, 1], [1, -np.inf]] * 2], np.float32), [0, 1],
         "sample 1: token matrix contains non-finite entries"),
    ], ids=["short_t", "narrow_d", "label_outside_the_table", "float64", "2-d", "count",
            "list", "float_labels", "2-d_labels", "nan", "inf"])
    def test_mixed_samples_rejected_in_memory(self, rows, labels, match):
        with pytest.raises(ValueError, match=match):
            Dataset(self._table(), rows, labels)

    def test_label_outside_the_table_rejected_with_filled_rows(self):
        rows = np.ones((3, 4, 2), np.float32)
        with pytest.raises(ValueError, match="sample 1: label 7 is not in the label table"):
            Dataset(self._table(), rows, np.array([0, 7, 9]))

    def test_zero_norm_cls_row_rejected_in_memory(self):
        rows = np.ones((3, 4, 2), np.float32)
        rows[1, 0] = rows[2, 0] = 0.0
        with pytest.raises(ValueError, match="sample 1: CLS row has zero norm"):
            Dataset(self._table(), rows, [0, 1, 1])

    def test_zero_norm_cls_row_rejected_at_load(self, edited_dataset):
        # Records start at offset 300 and each raw one is 397 bytes, so record 2
        # starts at 1094.
        tokens = np.random.default_rng(1).standard_normal((6, 16)).astype(np.float32)
        tokens[0] = 0.0
        with pytest.raises(FormatError, match="record 2 at offset 1094: CLS row has zero norm"):
            load(edited_dataset({2: (tokens, 1)}))

    def test_token_dimension_is_the_tables(self):
        with pytest.raises(ValueError, match=r"token shape \(4, 3\) is not"):
            Dataset(self._table(), np.ones((1, 4, 3), np.float32), [0])


class TestTokens:
    """``Dataset.tokens`` of an id sequence is the stack of its per-id reads."""

    @staticmethod
    def _dataset(tmp_path, kind):
        ds = generate(SyntheticSpec(num_classes=3, samples_per_class=4, dim=8, tokens=5,
                                    seed=9))
        if kind == "loaded":
            save(ds, tmp_path / "data.bin")
            return load(tmp_path / "data.bin")
        return ds

    @pytest.mark.parametrize("kind", ["generated", "loaded"])
    def test_gather_is_the_stack_of_single_reads(self, tmp_path, kind):
        ds = self._dataset(tmp_path, kind)
        for ids in ([3, 0, 11, 3], list(range(12)), np.array([5, 6]), range(2, 4), []):
            got = ds.tokens(ids)
            want = (np.stack([ds.tokens(int(i)) for i in ids]) if len(ids)
                    else np.empty((0, 5, 8), np.float32))
            assert got.dtype == want.dtype == np.float32 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_samples_are_rows_of_one_array(self, tmp_path):
        for kind in ("generated", "loaded"):
            ds = self._dataset(tmp_path, kind)
            assert ds.token_rows.shape == (12, 5, 8) and ds.token_rows.dtype == np.float32
            assert ds.label_ids.dtype == np.int64 and len(ds) == 12
            assert "samples" not in vars(ds)
            want = list(zip(ds.token_rows, ds.label_ids.tolist()))
            assert [(p.tobytes(), y) for p, y in ds.samples] == [
                (p.tobytes(), y) for p, y in want]
            assert all(p.base is ds.token_rows for p, _ in ds.samples)
            assert ds.samples is ds.samples  # built once, on the first read

    def test_no_command_builds_the_sample_list(self, tmp_path):
        ds = self._dataset(tmp_path, "generated")
        stream = build_stream(ds, "data_incremental", fractions=[50, 100])
        Engine(ds, EngineConfig(weighting="nn-loo")).run(stream)
        save(ds, tmp_path / "again.bin")
        assert "samples" not in vars(ds)

    @pytest.mark.parametrize("quantized", [False, True], ids=["float", "quantized"])
    def test_compressed_sample_rejected(self, tmp_path, quantized):
        # A dataset holds raw token matrices only; compression is the store's business.
        # Per-sample payloads with sample 2 compressed, as a list or an object array,
        # are not one float32 (N, T, D) array, so the constructor refuses them.
        ds = self._dataset(tmp_path, "generated")
        payloads = list(ds.token_rows)
        payloads[2] = compress(ds.tokens(2), 2, quantized=quantized)
        boxed = np.empty(len(payloads), object)
        boxed[:] = payloads
        for rows, kind in ((payloads, r"list"), (boxed, r"object \(12,\)")):
            with pytest.raises(ValueError,
                               match=rf"token rows of {kind} +are not 12 float32 \(T, D\)"):
                Dataset(ds.label_table, rows, ds.label_ids)

    @pytest.mark.parametrize("quantized", [False, True], ids=["float", "quantized"])
    def test_compressed_record_rejected_at_load(self, edited_dataset, quantized):
        # Records start at offset 300 and each raw one is 397 bytes (see
        # test_loaders.py), so record 1 starts at 697; a compressed record of the
        # dataset's shape and a label of the table is spliced over it.
        tokens = np.random.default_rng(1).standard_normal((6, 16)).astype(np.float32)
        path = edited_dataset({1: (compress(tokens, 2, quantized=quantized), 0)})
        with pytest.raises(FormatError, match="record 1 at offset 697: a compressed record"):
            load(path)


class TestFileFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        spec = SyntheticSpec(num_classes=4, samples_per_class=5, dim=16,
                             tokens=6, seed=13)
        ds = generate(spec)
        ds.task_map = {0: list(range(10)), 1: list(range(10, 20))}
        path = tmp_path / "data.bin"
        save(ds, path)
        back = load(path)
        assert back.labels() == ds.labels()
        assert back.task_map == ds.task_map
        assert len(back.samples) == len(ds.samples)
        for i in range(len(ds.samples)):
            np.testing.assert_array_equal(back.tokens(i), ds.tokens(i))
            assert back.samples[i][1] == ds.samples[i][1]
        for y in ds.labels():
            np.testing.assert_array_equal(back.label_table.embedding(y),
                                          ds.label_table.embedding(y))

    @staticmethod
    def _tasks_file(tmp_path):
        """A saved dataset of four samples with the task map {0: [0, 1], 1: [2, 3]}, and
        the offset of its second task entry: tasks start at offset 68, after two label
        entries of D=4, and each entry here is 16 bytes (u32 task id, u32 size, two ids)."""
        ds = generate(SyntheticSpec(num_classes=2, samples_per_class=2, dim=4, tokens=2))
        ds.task_map = {0: [0, 1], 1: [2, 3]}
        path = tmp_path / "data.bin"
        save(ds, path)
        return path, 68 + 16

    @pytest.mark.parametrize("edit, match", [
        ((0, [2, 3]), "task 0 listed twice, at offset 84"),
        ((1, [1, 3]), "task 1 names sample 1 named before at offset 92"),
        ((1, [2, 2]), "task 1 names sample 2 named before at offset 96"),
    ], ids=["task-id-twice", "sample-in-two-tasks", "sample-twice-in-a-task"])
    def test_task_map_that_is_no_partition_is_rejected_on_load(self, tmp_path, edit, match):
        path, second = self._tasks_file(tmp_path)
        assert load(path).task_map == {0: [0, 1], 1: [2, 3]}
        blob = bytearray(path.read_bytes())
        task, ids = edit
        blob[second:second + 16] = struct.pack("<4I", task, len(ids), *ids)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=match):
            load(path)

    @pytest.mark.parametrize("task_map, match", [
        ({0: [0, 1], 1: [2, 99]}, "task 1 names sample 99 of 4"),
        ({0: [0, 1], 1: [1, 2]}, "task 1 names sample 1 named before"),
        ({0: [0, 0]}, "task 0 names sample 0 named before"),
        ({0: [-1]}, "task 0 names sample -1 of 4"),
    ], ids=["out-of-range", "in-two-tasks", "twice-in-a-task", "negative"])
    def test_task_map_that_is_no_partition_is_not_saved(self, tmp_path, task_map, match):
        ds = generate(SyntheticSpec(num_classes=2, samples_per_class=2, dim=4, tokens=2))
        ds.task_map = task_map
        with pytest.raises(ValueError, match=match):
            save(ds, tmp_path / "data.bin")
        assert not (tmp_path / "data.bin").exists()

    def test_double_round_trip_identical_bytes(self, tmp_path):
        ds = generate(SyntheticSpec(num_classes=2, samples_per_class=3, seed=21))
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save(ds, p1)
        save(load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_generated_file_bytes_are_pinned(self, tmp_path):
        # The recorded sha256 of this spec's file: the generator's draws and the format
        # both show in it.
        path = tmp_path / "data.bin"
        save(generate(SyntheticSpec(num_classes=7, samples_per_class=5, dim=16, tokens=4,
                                    seed=3)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "39bca6ab66f0adcf731132ad2d5af132e17670c94b7d5442219b9614f5c40cde")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "data.bin"
        ds = generate(SyntheticSpec(num_classes=2, samples_per_class=2))
        save(ds, path)
        path.write_bytes(b"NOPE" + path.read_bytes()[4:])
        with pytest.raises(FormatError):
            load(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "data.bin"
        save(generate(SyntheticSpec(num_classes=2, samples_per_class=2)), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 10])
        with pytest.raises(FormatError):
            load(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "data.bin"
        save(generate(SyntheticSpec(num_classes=2, samples_per_class=2)), path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load(path)

    def test_load_is_fast(self, tmp_path):
        # 1000 samples of 10x64 tokens load in well under a second.
        ds = generate(SyntheticSpec(num_classes=10, samples_per_class=100,
                                    dim=64, tokens=10, seed=17))
        path = tmp_path / "data.bin"
        save(ds, path)
        start = time.perf_counter()
        load(path)
        assert time.perf_counter() - start < 1.0

    def test_load_holds_the_file_and_the_rows_alone(self, tmp_path):
        # 2000 samples of 10x64 tokens, 5.12 MB: the file's bytes and the stacked rows,
        # and no per-record copy beside them.
        ds = generate(SyntheticSpec(num_classes=20, samples_per_class=100, dim=64,
                                    tokens=10, seed=3))
        path = tmp_path / "data.bin"
        save(ds, path)
        tracemalloc.start()
        try:
            back = load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.token_rows.tobytes() == ds.token_rows.tobytes()
        assert back.token_rows.flags.writeable
        assert peak <= 2.2 * ds.token_rows.nbytes

    def test_empty_dataset_round_trip(self, tmp_path):
        ds = Dataset(LabelEmbeddingTable({0: [1.0, 0.0]}), np.empty((0, 4, 2), np.float32),
                     [], {})
        path = tmp_path / "empty.bin"
        save(ds, path)
        back = load(path)
        assert back.samples == [] and len(back) == 0 and back.shape is None
        assert back.labels() == [0]

    @pytest.mark.parametrize("field", [4, 5], ids=["labels", "samples"])
    def test_header_counts_size_no_allocation(self, tmp_path, field):
        # A header claiming 2**32 - 1 labels or samples over a file of four samples
        # (T=10, D=64) fails at the first record it does not hold, without sizing
        # anything from the claim.
        path = tmp_path / "data.bin"
        save(generate(SyntheticSpec(num_classes=2, samples_per_class=2, dim=64, tokens=10,
                                    seed=5)), path)
        blob = bytearray(path.read_bytes())
        blob[4 * field:4 * field + 4] = (2 ** 32 - 1).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError):
                load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
