import re
import struct

import numpy as np
import pytest

from ovstream.compression import payload_to_bytes
from ovstream.core import LabelEmbeddingTable
from ovstream.data import SyntheticSpec, generate, save

_ACCEPTANCE_OUTCOMES = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid or report.when != "call":
        return
    match = re.search(r"criterion_(\d+)", report.nodeid)
    if match:
        _ACCEPTANCE_OUTCOMES[int(match.group(1))] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_OUTCOMES:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for num in sorted(_ACCEPTANCE_OUTCOMES):
        outcome = _ACCEPTANCE_OUTCOMES[num]
        word = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"  criterion {num}: {word}")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_table():
    """Four unit labels in 8 dims, fixed seed."""
    gen = np.random.default_rng(99)
    return LabelEmbeddingTable({i: gen.standard_normal(8) for i in range(4)})


@pytest.fixture
def edited_dataset(tmp_path):
    """A function of ``{record: (token matrix, label)}`` that returns the path of a
    saved dataset (8 samples, labels 0-3, T=6, D=16) with those sample records
    replaced. ``save`` writes datasets of one token shape only, so the records are
    packed here."""
    def make(edits):
        ds = generate(SyntheticSpec(num_classes=4, samples_per_class=2, dim=16, tokens=6,
                                    seed=3))
        path = tmp_path / "edited.bin"
        save(ds, path)
        records = [struct.pack("<I", label) + payload_to_bytes(p) for p, label in ds.samples]
        blob = path.read_bytes()
        head = blob[:len(blob) - sum(map(len, records))]
        for i, (tokens, label) in edits.items():
            records[i] = struct.pack("<I", label) + payload_to_bytes(tokens)
        path.write_bytes(head + b"".join(records))
        return path
    return make


def random_unit(gen, dim):
    v = gen.standard_normal(dim)
    return v / np.linalg.norm(v)
