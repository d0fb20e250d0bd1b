"""End-to-end command-line tests driven through ``cli.main``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ovstream import compression, protocols, replay
from ovstream.cli import RUN_KEYS, _engine_config_from_dict, canonical_json, config_hash, main
from ovstream.protocols import EngineConfig


SPEC = {"num_classes": 3, "samples_per_class": 4, "dim": 12, "tokens": 4,
        "noise": 0.2, "seed": 5}

RUN_CONFIG = {
    "synthetic": SPEC,
    "protocol": "data_incremental",
    "fractions": [50, 100],
    "weighting": "ocw",
    "lr": 0.01,
    "sampler": {"batch_size": 4},
    "seed": 5,
}


def _write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _readme_run_section() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme[readme.index("### Run a stream experiment"):
                  readme.index("### Compression benchmark")]


@pytest.fixture
def dataset_path(tmp_path):
    spec = _write_json(tmp_path / "spec.json", SPEC)
    out = tmp_path / "data.bin"
    assert main(["gen", "--spec", spec, "--out", str(out)]) == 0
    return out


class TestCanonicalJson:
    def test_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_hash_stable_under_key_order(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        assert len(config_hash({})) == 16

    def test_hash_differs_for_different_configs(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})


class TestGen:
    def test_writes_loadable_dataset(self, dataset_path):
        from ovstream import data
        ds = data.load(dataset_path)
        assert len(ds.samples) == 12

    def test_seed_override_changes_output(self, tmp_path):
        spec = _write_json(tmp_path / "spec.json", SPEC)
        a, b, c = (tmp_path / n for n in ("a.bin", "b.bin", "c.bin"))
        main(["gen", "--spec", spec, "--out", str(a)])
        main(["gen", "--spec", spec, "--out", str(b), "--seed", "5"])
        main(["gen", "--spec", spec, "--out", str(c), "--seed", "6"])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    @pytest.mark.parametrize("raw, word", [
        ({**SPEC, "noise": -1.0}, "noise"),
        ({**SPEC, "tokens": 4.0}, "SyntheticSpec.tokens"),
        ([SPEC], "SyntheticSpec must be an object"),
    ])
    def test_invalid_spec_exits_2(self, tmp_path, capsys, raw, word):
        spec = _write_json(tmp_path / "spec.json", raw)
        assert main(["gen", "--spec", spec, "--out", str(tmp_path / "x.bin")]) == 2
        assert word in capsys.readouterr().err

    def test_unknown_field_exits_2(self, tmp_path, capsys):
        spec = _write_json(tmp_path / "spec.json", {**SPEC, "sigma": 1.0})
        assert main(["gen", "--spec", spec, "--out", str(tmp_path / "x.bin")]) == 2
        assert "sigma" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "spec.json"
        bad.write_text("{not json")
        assert main(["gen", "--spec", str(bad), "--out", str(tmp_path / "x.bin")]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["gen", "--spec", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "x.bin")]) == 2


class TestRun:
    def test_outputs_and_hash(self, tmp_path):
        config = _write_json(tmp_path / "run.json", RUN_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        metrics = (out / "metrics.csv").read_text()
        assert metrics.startswith("# config_hash=")
        assert "# seed=5" in metrics
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config_hash"] == config_hash(RUN_CONFIG)
        assert summary["stages"] == 2
        assert set(summary["final"]) == {"all"}
        assert 0.0 <= summary["final"]["all"] <= 1.0

    def test_byte_identical_across_runs(self, tmp_path):
        config = _write_json(tmp_path / "run.json", RUN_CONFIG)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["run", "--config", config, "--out", str(out1)])
        main(["run", "--config", config, "--out", str(out2)])
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_seed_override_changes_metrics(self, tmp_path):
        config = _write_json(tmp_path / "run.json", RUN_CONFIG)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["run", "--config", config, "--out", str(out1)])
        main(["run", "--config", config, "--out", str(out2), "--seed", "99"])
        assert "# seed=99" in (out2 / "metrics.csv").read_text()
        assert (out1 / "metrics.csv").read_bytes() != (out2 / "metrics.csv").read_bytes()

    def test_runs_from_saved_dataset_with_suites(self, tmp_path, dataset_path):
        config = _write_json(tmp_path / "run.json", {
            "dataset": str(dataset_path),
            "protocol": "class_incremental",
            "class_groups": 3,
            "lr": 0.01,
            "sampler": {"batch_size": 4},
            "suites": [
                {"name": "everything", "samples": "all", "candidates": "all"},
                {"name": "pair", "samples": [0, 1], "candidates": [0, 1]},
            ],
        })
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["final"]) == {"everything", "pair"}

    def test_bad_weighting_exits_2(self, tmp_path, capsys):
        config = _write_json(tmp_path / "run.json",
                             {**RUN_CONFIG, "weighting": "psychic"})
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        assert "psychic" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    def test_dataset_pca_is_not_a_run_mode(self, tmp_path, capsys):
        config = _write_json(tmp_path / "run.json",
                             {**RUN_CONFIG, "compression": "dataset-pca"})
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        assert "ovstream compress" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    def test_config_defaults_are_the_dataclass_defaults(self):
        assert _engine_config_from_dict({}) == EngineConfig()

    def test_missing_dataset_section_exits_2(self, tmp_path):
        config = _write_json(tmp_path / "run.json", {"protocol": "data_incremental"})
        assert main(["run", "--config", config, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("extra, key", [
        ({"compresion": "pca-cls-quant"}, "compresion"),
        ({"dataset_pca_components": 4}, "dataset_pca_components"),
        ({"sampler": {"batch_size": 4, "stratgy": "fws"}}, "stratgy"),
        ({"p_other_weighting": False}, "p_other_weighting"),  # a retired key
        ({"suites": [{"name": "pair", "samples": [0, 1], "candidate": [0, 1]}]}, "candidate"),
    ])
    def test_unknown_key_exits_2(self, tmp_path, capsys, extra, key):
        config = _write_json(tmp_path / "run.json", {**RUN_CONFIG, **extra})
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("extra, field", [
        ({"seed": 1.5}, "EngineConfig.seed"),
        ({"sampler": {"batch_size": 4.9}}, "SamplerConfig.batch_size"),
        ({"pca_components": 2.7}, "EngineConfig.pca_components"),
        ({"lr": "0.01"}, "EngineConfig.lr"),
        ({"lr": True}, "EngineConfig.lr"),
        ({"synthetic": {**SPEC, "samples_per_class": 4.5}}, "SyntheticSpec.samples_per_class"),
        ({"synthetic": {**SPEC, "dim": True}}, "SyntheticSpec.dim"),
        ({"synthetic": {**SPEC, "noise": "0.1"}}, "SyntheticSpec.noise"),
        ({"protocol": "class_incremental", "class_groups": 2.7}, "class_groups"),
        ({"protocol": "class_incremental", "class_groups": "2"}, "class_groups"),
        ({"fractions": [50.5, 100]}, "fractions"),
        ({"fractions": [True, 100]}, "fractions"),
    ])
    def test_mistyped_field_exits_2(self, tmp_path, capsys, extra, field):
        config = _write_json(tmp_path / "run.json", {**RUN_CONFIG, **extra})
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_int_in_a_float_field_is_that_float(self):
        config = _engine_config_from_dict({"lr": 1, "beta": 0, "sampler": {"decay": 1}})
        assert config == _engine_config_from_dict(
            {"lr": 1.0, "beta": 0.0, "sampler": {"decay": 1.0}})
        assert [type(v) for v in (config.lr, config.beta, config.sampler.decay)] == [float] * 3

    @pytest.mark.parametrize("extra, word", [
        ({"weight_decay": -1.0}, "hyperparameters"),
        ({"pca_components": 0, "compression": "pca-cls-quant"}, "hyperparameters"),
        ({"lr": float("nan")}, "lr must be finite"),
        ({"class_groups": 0}, "class_groups must be an int >= 1"),
    ])
    def test_config_rejected_before_any_output(self, tmp_path, capsys, extra, word):
        config = _write_json(tmp_path / "run.json", {**RUN_CONFIG, **extra})
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        assert word in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("suite, word", [
        ({"name": "past", "samples": [0, 12]}, "sample ids [12] not in [0, 12)"),
        ({"name": "negative", "samples": [-1, 0]}, "sample ids [-1]"),
        ({"name": "fraction", "samples": [1.0]}, "sample ids [1.0]"),
        ({"name": "alien", "candidates": [0, 7]}, "candidates [7] not in the label table"),
        ({"name": 3}, "string 'name'"),
        ({"samples": [0, 1]}, "string 'name'"),
    ])
    def test_suite_outside_the_dataset_exits_2(self, tmp_path, capsys, suite, word):
        config = _write_json(tmp_path / "run.json", {**RUN_CONFIG, "suites": [suite]})
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        assert word in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("suite, word", [
        ({"name": "flags", "candidates": [True, 2.0]}, "suite 'flags': candidates [True, 2.0]"),
        ({"name": "bare", "candidates": 1}, "suite 'bare': candidates must be \"all\" or a list"),
        ({"name": "word", "candidates": "some"}, "suite 'word': candidates must be"),
        ({"name": "none", "candidates": []}, "suite 'none' has no candidates"),
        ({"name": "count", "samples": 5}, "suite 'count': samples must be \"all\" or a list"),
        ({"name": "keys", "samples": {"0": 1}}, "suite 'keys': samples must be"),
        ({"name": "flag", "samples": [False]}, "suite 'flag': sample ids [False]"),
    ])
    def test_suite_members_of_another_type_exit_2_before_any_work(self, tmp_path, capsys,
                                                                   monkeypatch, suite, word):
        # Samples and candidates are each "all" or a list of int ids; a bool or float
        # is no id, and a suite scores over at least one candidate.
        monkeypatch.setattr(protocols, "run_stream", lambda *a: pytest.fail("stream ran"))
        config = _write_json(tmp_path / "run.json", {**RUN_CONFIG, "suites": [suite]})
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        assert word in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("suites, word", [
        ([{"name": "a", "samples": [0]}, {"name": "a", "samples": [1, 2]}],
         "two different suites are named 'a'"),
        ([{"name": "a"}, {"name": "a"}], "lists a suite twice"),
        ([{"name": "none", "samples": []}], "suite 'none' has no samples"),
    ])
    def test_suites_without_one_accuracy_row_each_exit_2(self, tmp_path, capsys, suites, word):
        # Duplicate names would write several rows under one name, and an empty suite
        # an accuracy that no prediction backs.
        config = _write_json(tmp_path / "run.json", {**RUN_CONFIG, "suites": suites})
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        assert word in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["", "a,b", "../escaped", "a\\b", "tab\there",
                                      "two\nlines", "para\u2029graph"])
    def test_suite_name_that_breaks_the_report_exits_2(self, tmp_path, capsys, name):
        # A comma splits the metrics.csv row, a path separator leads the report's chart
        # out of --out, and a line break splits the row in two.
        config = _write_json(tmp_path / "run.json",
                             {**RUN_CONFIG, "suites": [{"name": name, "samples": [0]}]})
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        assert f"suite name {name!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_suite_name_with_dots_and_spaces_reports(self, tmp_path):
        config = _write_json(tmp_path / "run.json", {**RUN_CONFIG, "suites": [
            {"name": "..", "samples": [0]}, {"name": "held out #2", "samples": [1]}]})
        runs, out = tmp_path / "runs", tmp_path / "report"
        assert main(["run", "--config", config, "--out", str(runs / "a")]) == 0
        assert main(["report", "--metrics-dir", str(runs), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["...svg", "held out #2.svg",
                                                         "matrix.csv"]

    @pytest.mark.parametrize("target", ["taken", "taken/out"])
    def test_out_that_cannot_be_a_directory_exits_2_before_any_work(self, tmp_path, capsys,
                                                                   monkeypatch, target):
        def refuse(*args, **kwargs):
            raise AssertionError("the stream ran")

        monkeypatch.setattr(protocols, "run_stream", refuse)
        config = _write_json(tmp_path / "run.json", RUN_CONFIG)
        (tmp_path / "taken").write_text("kept\n")
        assert main(["run", "--config", config, "--out", str(tmp_path / target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "taken exists and is not a directory" in err
        assert (tmp_path / "taken").read_text() == "kept\n"

    def test_ragged_dataset_exits_2_naming_the_record(self, tmp_path, capsys, edited_dataset):
        path = edited_dataset({3: (np.ones((4, 16)), 1), 5: (np.ones((6, 8)), 2)})
        config = _write_json(tmp_path / "run.json", {
            **{k: v for k, v in RUN_CONFIG.items() if k != "synthetic"}, "dataset": str(path)})
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        assert "record 3 at offset" in capsys.readouterr().err
        assert not out.exists()

    def test_diverging_stream_exits_3(self, tmp_path, capsys):
        config = _write_json(tmp_path / "run.json", {**RUN_CONFIG, "lr": 1e30})
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", "--config", config, "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("numeric error:")
        assert not (out / "metrics.csv").exists()

    def test_diverging_stream_prints_only_the_error(self, tmp_path):
        # Its own interpreter, so numpy warns as it does for a user: nothing may precede
        # the error line.
        config = _write_json(tmp_path / "run.json", {**RUN_CONFIG, "lr": 1e30})
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run([sys.executable, "-m", "ovstream.cli", "run", "--config", config,
                               "--out", str(tmp_path / "out")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 3
        assert proc.stderr.startswith("numeric error:"), proc.stderr

    def test_readme_lists_every_run_key(self):
        section = _readme_run_section()
        for key in RUN_KEYS:
            assert f"`{key}`" in section, key

    def test_readme_names_every_accepted_run_value(self):
        section = _readme_run_section()
        for value in (*protocols.PROTOCOLS, *protocols.WEIGHTINGS, *compression.MODES,
                      *replay.STRATEGIES):
            assert f"`{value}`" in section, value
        assert "union_data_incremental" not in section


class TestCompress:
    @pytest.mark.parametrize("mode", ["none", "pca", "pca-cls-quant"])
    def test_report_and_timing(self, tmp_path, dataset_path, mode):
        out = tmp_path / f"c-{mode}"
        assert main(["compress", "--dataset", str(dataset_path), "--mode", mode,
                     "--components", "3", "--repetitions", "2",
                     "--out", str(out)]) == 0
        report = (out / "compression.csv").read_text()
        assert report.startswith("# config_hash=")
        header, row = report.splitlines()[1:3]
        assert header == "mode,kb_per_sample,bytes_per_sample,reconstruction_rel_error"
        cells = row.split(",")
        assert cells[0] == mode
        timing = json.loads((out / "timing.json").read_text())
        assert timing["mode"] == mode and timing["ms_per_batch"] > 0

    def test_dataset_pca_stores_coefficients(self, tmp_path, dataset_path):
        out = tmp_path / "c"
        assert main(["compress", "--dataset", str(dataset_path), "--mode", "dataset-pca",
                     "--components", "3", "--repetitions", "1", "--out", str(out)]) == 0
        row = (out / "compression.csv").read_text().splitlines()[2]
        # 4 tokens x 3 coefficients x 4 bytes
        assert float(row.split(",")[2]) == 48.0
        assert json.loads((out / "timing.json").read_text())["ms_per_batch"] > 0

    def test_none_mode_is_lossless(self, tmp_path, dataset_path):
        out = tmp_path / "c"
        main(["compress", "--dataset", str(dataset_path), "--mode", "none",
              "--repetitions", "1", "--out", str(out)])
        row = (out / "compression.csv").read_text().splitlines()[2]
        assert float(row.split(",")[3]) == 0.0
        # 4 tokens x 12 dims x 4 bytes
        assert float(row.split(",")[2]) == 192.0

    def test_quantized_smaller_than_raw_pca(self, tmp_path, dataset_path):
        sizes = {}
        for mode in ("pca", "pca-cls-quant"):
            out = tmp_path / f"c-{mode}"
            main(["compress", "--dataset", str(dataset_path), "--mode", mode,
                  "--components", "3", "--repetitions", "1", "--out", str(out)])
            row = (out / "compression.csv").read_text().splitlines()[2]
            sizes[mode] = float(row.split(",")[2])
        assert sizes["pca-cls-quant"] < sizes["pca"]

    def test_report_deterministic(self, tmp_path, dataset_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            main(["compress", "--dataset", str(dataset_path), "--mode", "pca",
                  "--components", "2", "--repetitions", "1", "--out", str(out)])
            outs.append((out / "compression.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_missing_dataset_exits_2(self, tmp_path):
        assert main(["compress", "--dataset", str(tmp_path / "none.bin"),
                     "--mode", "pca", "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("argv, word", [
        (["--components", "2", "--repetitions", "0"], "--repetitions must be >= 1, not 0"),
        (["--components", "2", "--repetitions", "-3"], "--repetitions must be >= 1, not -3"),
        (["--components", "0"], "component count 0"),
    ], ids=["zero-repetitions", "negative-repetitions", "zero-components"])
    def test_rejected_arguments_exit_2_and_leave_no_output(self, tmp_path, capsys,
                                                          dataset_path, argv, word):
        out = tmp_path / "c"
        assert main(["compress", "--dataset", str(dataset_path), "--mode", "pca", *argv,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and word in err
        assert not out.exists()


class TestReport:
    def _run_once(self, tmp_path, name, seed):
        config = _write_json(tmp_path / f"{name}.json",
                             {**RUN_CONFIG, "seed": seed})
        out = tmp_path / "runs" / name
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        return out

    def test_charts_and_matrix(self, tmp_path):
        self._run_once(tmp_path, "a", 1)
        self._run_once(tmp_path, "b", 2)
        out = tmp_path / "report"
        assert main(["report", "--metrics-dir", str(tmp_path / "runs"),
                     "--out", str(out)]) == 0
        svg = (out / "all.svg").read_text()
        assert svg.startswith("<svg ")
        assert svg.count("<polyline") == 2  # one line per run, overlaid
        matrix = (out / "matrix.csv").read_text().splitlines()
        assert matrix[0] == "stage,all"
        assert len(matrix) == 4  # header + stages 0..2

    def test_report_deterministic(self, tmp_path):
        self._run_once(tmp_path, "a", 1)
        r1, r2 = tmp_path / "rep1", tmp_path / "rep2"
        for out in (r1, r2):
            main(["report", "--metrics-dir", str(tmp_path / "runs"),
                  "--out", str(out)])
        assert (r1 / "all.svg").read_bytes() == (r2 / "all.svg").read_bytes()
        assert (r1 / "matrix.csv").read_bytes() == (r2 / "matrix.csv").read_bytes()

    @pytest.mark.parametrize("target", ["taken", "taken/out"])
    def test_out_that_cannot_be_a_directory_exits_2(self, tmp_path, capsys, target):
        self._run_once(tmp_path, "a", 1)
        (tmp_path / "taken").write_text("kept\n")
        assert main(["report", "--metrics-dir", str(tmp_path / "runs"),
                     "--out", str(tmp_path / target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "taken exists and is not a directory" in err
        assert (tmp_path / "taken").read_text() == "kept\n"

    def test_no_metrics_exits_2(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["report", "--metrics-dir", str(empty),
                     "--out", str(tmp_path / "o")]) == 2

    def test_empty_metrics_file_exits_2(self, tmp_path):
        run = tmp_path / "runs" / "x"
        run.mkdir(parents=True)
        (run / "metrics.csv").write_text("# config_hash=deadbeef\nstage,suite,accuracy\n")
        assert main(["report", "--metrics-dir", str(tmp_path / "runs"),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("row, word", [
        ("0,a,b,1.0", "too many values"),
        ("0,all", "not enough values"),
        ("first,all,0.5", "invalid literal for int()"),
        ("0,all,high", "could not convert string to float"),
        ("0,../escaped,1.0", "suite name '../escaped'"),
        ("0,,1.0", "suite name ''"),
    ])
    def test_malformed_row_exits_2_naming_the_line(self, tmp_path, capsys, row, word):
        run = tmp_path / "runs" / "x"
        run.mkdir(parents=True)
        path = run / "metrics.csv"
        path.write_text(f"# config_hash=deadbeef\n# seed=0\nstage,suite,accuracy\n"
                        f"0,all,0.5\n{row}\n")
        out = tmp_path / "report" / "charts"
        assert main(["report", "--metrics-dir", str(tmp_path / "runs"),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{path} line 5: {row!r} is not a stage,suite,accuracy row" in err
        assert word in err
        assert not (tmp_path / "report").exists()
