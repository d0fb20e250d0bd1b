"""Command-line front end: dataset generation, experiments, compression
benchmarks, and report rendering.

All outputs embed the canonical config hash and seed so identical inputs
reproduce byte-identical files; wall-clock timings go to a separate file
(``timing.json``) that is excluded from that guarantee.

Exit codes: 0 success, 2 config or format error, 3 runtime numeric error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import unicodedata
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import compression, data, protocols
from .core import FormatError
from .decoder import TrainingBatch, linear_params, loss_gradients


def canonical_json(obj) -> str:
    """Canonical serialization: sorted keys, compact separators."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()[:16]


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON in {path}: {exc}") from exc


# Every key a run config may hold (the README lists the same keys): the
# engine's, then where the data comes from and how the stream is cut.
RUN_KEYS = ("decoder", "weighting", "sampler", "beta", "ema_decay", "lr", "weight_decay",
            "compression", "pca_components", "seed",
            "dataset", "synthetic", "protocol", "fractions", "class_groups", "suites")


def _engine_config_from_dict(raw: dict) -> protocols.EngineConfig:
    protocols._reject_unknown(raw, RUN_KEYS, "run config")
    fields = {name: raw[name] for name in protocols.EngineConfig.__dataclass_fields__
              if name in raw}
    if "decoder" in raw:
        fields["decoder_variant"] = raw["decoder"]
    return protocols._typed(protocols.EngineConfig, fields)


def _dataset_from_config(raw: dict) -> data.Dataset:
    if "dataset" in raw:
        return data.load(raw["dataset"])
    if "synthetic" in raw:
        return data.generate(protocols._typed(data.SyntheticSpec, raw["synthetic"]))
    raise ValueError("config needs either a 'dataset' path or a 'synthetic' spec")


def _check_suite_name(name: str) -> None:
    """A suite name is a ``metrics.csv`` field and the stem of a ``report`` chart file,
    so it is not empty and holds no ``,``, ``/``, ``\\`` or control character (line
    separators included); else ``ValueError``."""
    if not name or any(ch in ",/\\" or unicodedata.category(ch) in ("Cc", "Zl", "Zp")
                       for ch in name):
        raise ValueError(f"suite name {name!r} is empty or holds ',', '/', '\\' "
                         "or a control character")


def _suite_members(entry: dict, key: str, everything: list, fits, what: str) -> list:
    """A suite's ``samples`` or ``candidates``: ``everything`` for ``"all"`` (the default),
    else a list of ints that each ``fits``; else ``TypeError`` or ``ValueError`` naming
    the suite and ``what`` the bad items are not."""
    value = entry.get(key, "all")
    if value == "all":
        return everything
    if type(value) is not list:
        raise TypeError(f"suite {entry['name']!r}: {key} must be \"all\" or a list, "
                        f"not {value!r}")
    bad = [v for v in value if type(v) is not int or not fits(v)]
    if bad:
        noun = "sample ids" if key == "samples" else key
        raise ValueError(f"suite {entry['name']!r}: {noun} {bad} not {what}")
    return value


def _suites_from_config(raw: dict, dataset: data.Dataset):
    if "suites" not in raw:
        return None
    suites, n = [], len(dataset)
    for entry in raw["suites"]:
        if type(entry) is not dict or type(entry.get("name")) is not str:
            raise TypeError(f"a suite must be an object with a string 'name', not {entry!r}")
        protocols._reject_unknown(entry, ("name", "samples", "candidates"), "suite")
        _check_suite_name(entry["name"])
        ids = _suite_members(entry, "samples", list(range(n)), lambda i: 0 <= i < n,
                             f"in [0, {n})")
        cands = _suite_members(entry, "candidates", dataset.labels(),
                               dataset.label_table.__contains__, "in the label table")
        if not cands:
            raise ValueError(f"suite {entry['name']!r} has no candidates")
        suites.append(protocols.EvalSuite(entry["name"], list(ids), set(cands)))
    return suites


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gen(args) -> int:
    raw = _load_json(args.spec)
    if args.seed is not None:
        raw["seed"] = args.seed
    spec = protocols._typed(data.SyntheticSpec, raw)
    dataset = data.generate(spec)
    data.save(dataset, args.out)
    print(f"wrote {args.out}: {len(dataset)} samples, "
          f"{len(dataset.labels())} classes (config {config_hash(asdict(spec))})")
    return 0


def _out_dir(path) -> Path:
    """``--out``, checked before any work: a path that cannot become a directory raises
    ``ValueError``. A command makes it only once its work succeeds."""
    out = Path(path)
    if bad := next((p for p in (out, *out.parents) if p.exists() and not p.is_dir()), None):
        raise ValueError(f"--out {out}: {bad} exists and is not a directory")
    return out


def cmd_run(args) -> int:
    out = _out_dir(args.out)
    raw = _load_json(args.config)
    if args.seed is not None:
        raw["seed"] = args.seed
    config = _engine_config_from_dict(raw)
    dataset = _dataset_from_config(raw)
    suites = _suites_from_config(raw, dataset)
    stream = protocols.build_stream(
        dataset, raw.get("protocol", "data_incremental"), seed=config.seed,
        fractions=raw.get("fractions", protocols.DEFAULT_FRACTIONS),
        class_groups=raw.get("class_groups", 5), suites=suites)

    record = protocols.run_stream(dataset, stream, config)
    chash = config_hash(raw)
    summary = {
        "config_hash": chash,
        "seed": config.seed,
        "stages": len(stream),
        "suites": sorted({name for _, name, _ in record.rows}),
        "final": {name: acc for stage, name, acc in record.rows
                  if stage == stream[-1].index},
    }
    out.mkdir(parents=True, exist_ok=True)
    _write_metrics_csv(record, out / "metrics.csv", chash, config.seed)
    (out / "summary.json").write_text(canonical_json(summary) + "\n")
    print(f"wrote {out}/metrics.csv and summary.json (config {chash})")
    return 0


def _write_metrics_csv(record, path, chash, seed) -> None:
    lines = [f"# config_hash={chash}", f"# seed={seed}", "stage,suite,accuracy"]
    for stage, suite, acc in record.rows:
        lines.append(f"{stage},{suite},{acc!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_compress(args) -> int:
    out = _out_dir(args.out)
    if args.repetitions < 1:
        raise ValueError(f"--repetitions must be >= 1, not {args.repetitions}")
    dataset = data.load(args.dataset)
    n = args.components
    tokens = dataset.token_rows

    if args.mode == "dataset-pca":
        codec = compression.DatasetPcaCodec.fit(
            tokens, chunk_size=args.chunk_size, n_components=n)
        # Storage for this mode is the coefficient matrix per sample.
        payloads = [codec.encode(i, tm) for i, tm in enumerate(tokens)]
        decode = codec.decode
    else:
        payloads = [compression.encode(tm, args.mode, n) for tm in tokens]

        def decode(_, payload):
            return compression.to_tokens(payload)
    errors = [_rel_err(tm, decode(i, p))
              for i, (tm, p) in enumerate(zip(tokens, payloads))]

    sizes = [compression.storage_bytes(p) for p in payloads]
    kb = float(np.mean(sizes)) / 1024.0
    err = float(np.mean(errors))
    # Identify the dataset by content, not path, so moving the file does
    # not change the report hash.
    dataset_digest = hashlib.sha256(Path(args.dataset).read_bytes()).hexdigest()[:16]
    meta = {"mode": args.mode, "components": n, "dataset": dataset_digest}
    chash = config_hash(meta)
    ms = _time_batch(dataset, payloads, decode, repetitions=args.repetitions)
    out.mkdir(parents=True, exist_ok=True)
    report = out / "compression.csv"
    report.write_text(
        f"# config_hash={chash}\n"
        "mode,kb_per_sample,bytes_per_sample,reconstruction_rel_error\n"
        f"{args.mode},{kb!r},{float(np.mean(sizes))!r},{err!r}\n")
    (out / "timing.json").write_text(canonical_json(
        {"mode": args.mode, "ms_per_batch": ms, "repetitions": args.repetitions}) + "\n")
    print(f"{args.mode}: {kb:.2f} KB/sample, recon rel err {err:.5f}, "
          f"{ms:.2f} ms/batch (report: {report})")
    return 0


def _rel_err(original, recon) -> float:
    o = np.asarray(original, dtype=np.float64)
    r = np.asarray(recon, dtype=np.float64)
    denom = np.linalg.norm(o)
    return float(np.linalg.norm(o - r) / denom) if denom else 0.0


def _time_batch(dataset, payloads, decode, repetitions=100, batch_size=32) -> float:
    """Mean ms to load, decode, and run one decoder train step on a batch.

    ``decode(sample_index, payload)`` turns a stored payload back into its
    token matrix.
    """
    table = dataset.label_table
    params = linear_params(table.dim)
    ids = list(range(min(batch_size, len(payloads))))
    blobs = [compression.payload_to_bytes(payloads[i]) for i in ids]
    labels = dataset.label_ids[ids]
    start = time.perf_counter()
    for _ in range(repetitions):
        tokens = np.stack([decode(i, compression.payload_from_bytes(blobs[i])[0]) for i in ids])
        batch = TrainingBatch(tokens, labels, set(dataset.labels()))
        loss_gradients(batch, params, table, beta=0.1)
    return (time.perf_counter() - start) / repetitions * 1000.0


def cmd_report(args) -> int:
    out = _out_dir(args.out)
    metrics_dir = Path(args.metrics_dir)
    files = sorted(metrics_dir.rglob("metrics.csv"))
    if not files:
        raise FormatError(f"no metrics.csv found under {metrics_dir}")
    runs = {}
    for path in files:
        rows = _read_metrics_csv(path)
        if not rows:
            raise FormatError(f"empty metrics file {path}")
        runs[str(path.parent.relative_to(metrics_dir)) or "."] = rows

    out.mkdir(parents=True, exist_ok=True)
    suites = sorted({suite for rows in runs.values() for _, suite, _ in rows})
    for suite in suites:
        series = {
            run: [(stage, acc) for stage, s, acc in rows if s == suite]
            for run, rows in runs.items()
        }
        series = {run: pts for run, pts in series.items() if pts}
        svg = _line_chart_svg(f"accuracy: {suite}", series)
        (out / f"{suite}.svg").write_text(svg)

    # Stage x suite accuracy matrix for the first run, in stage order.
    first = runs[sorted(runs)[0]]
    stages = sorted({stage for stage, _, _ in first})
    lines = ["stage," + ",".join(suites)]
    for stage in stages:
        cells = []
        for suite in suites:
            match = [acc for s, name, acc in first if s == stage and name == suite]
            cells.append(repr(match[0]) if match else "")
        lines.append(f"{stage}," + ",".join(cells))
    (out / "matrix.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {len(suites)} chart(s) and matrix.csv to {out}")
    return 0


def _read_metrics_csv(path):
    rows = []
    for number, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line or line.startswith("#") or line.startswith("stage,"):
            continue
        try:
            stage, suite, acc = line.split(",")
            _check_suite_name(suite)
            rows.append((int(stage), suite, float(acc)))
        except ValueError as exc:
            raise FormatError(f"{path} line {number}: {line!r} is not a "
                              f"stage,suite,accuracy row ({exc})") from exc
    return rows


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _line_chart_svg(title: str, series: dict, width=640, height=400) -> str:
    """Deterministic standalone SVG line chart (stages on x, accuracy on y)."""
    pad = 50
    xs = sorted({x for pts in series.values() for x, _ in pts})
    x_min, x_max = min(xs), max(xs)
    span = (x_max - x_min) or 1

    def px(x):
        return pad + (x - x_min) / span * (width - 2 * pad)

    def py(y):
        return height - pad - y * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(
            f'<text x="{pad - 8}" y="{py(frac) + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{frac:.2f}</text>')
    for x in xs:
        parts.append(
            f'<text x="{px(x):.1f}" y="{height - pad + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{x}</text>')
    for i, run in enumerate(sorted(series)):
        color = _PALETTE[i % len(_PALETTE)]
        pts = sorted(series[run])
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        parts.append(f'<text x="{width - pad + 4}" y="{pad + 14 * i + 10}" '
                     f'font-family="sans-serif" font-size="10" fill="{color}">{run}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ovstream",
        description="Online continual learning over embedding streams")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate and save a synthetic dataset")
    p.add_argument("--spec", required=True, help="JSON synthetic spec file")
    p.add_argument("--out", required=True, help="output dataset path")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("run", help="run a protocol experiment")
    p.add_argument("--config", required=True, help="JSON experiment config file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compress", help="compression benchmark over a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--mode", required=True,
                   choices=(*compression.MODES, "dataset-pca"))
    p.add_argument("--components", type=int, default=5)
    p.add_argument("--chunk-size", type=int, default=5000)
    p.add_argument("--repetitions", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("report", help="render SVG charts and the accuracy matrix")
    p.add_argument("--metrics-dir", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FloatingPointError, np.linalg.LinAlgError, OverflowError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, FormatError, FileNotFoundError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
