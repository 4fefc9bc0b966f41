"""Command-line interface for the prototype EEG classifier.

Subcommands: synth, preprocess, split, train, eval, push, explain, report.
Every one of them accepts ``--seed``, ``--config`` (a UTF-8 JSON file) and
``--out`` (the run directory; no subcommand writes anywhere else).  Config
resolution is defaults <- file <- command-line flags, key by key.  One
decoder, `container.decode`, reads configs (exit 1) and artifacts, that is
manifests and checkpoint headers (exit 2): an unknown, repeated, missing or
ill-typed key, at any depth, fails fast naming its path.  An int may stand
for a float, and null only for a prototype's provenance before its push.

The resolved configuration, the seed, the inputs (each file the command
read, the config file and a dataset's manifest too, with the sha256 of the
bytes read) and the outputs (the files this command wrote, hashed as
written) land in ``<out>/resolved_config.json``.  With the same numpy/BLAS build that is
enough to reproduce a run bit for bit; ``train`` also needs the same BLAS
thread count, which the record does not store.

Exit codes: 0 success; 1 usage or configuration error; 2 data or file
format error, or a file that cannot be read or written; 3 numeric failure
during computation.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import sigproc
from .container import decode, loads, read_bytes, recording, write_json
from .dataset import (DatasetManifest, SynthConfig, generate_synthetic, load,
                      make_windows, rows_of, save, split_windows)
from .errors import (ConfigurationError, ContractError, DataFormatError,
                     DegenerateInputError, DimensionError, MissingSampleError,
                     NumericError, ProtoeegError, ProvenanceError,
                     UndefinedMetricError, UsageError)
from .evaluation import POSITIVE_VOTE_THRESHOLD, metrics_from_scores, score_samples
from .explain import explain, global_prototype_report, render_report
from .model import INPUT_CHANNELS, INPUT_TIME, load_model, save_model
from .training import TrainConfig, push_prototypes, train

# exit code by error class; an OSError is a file the run could not read or write
_EXIT_CODES = {UsageError: 1, ConfigurationError: 1,
               DataFormatError: 2, MissingSampleError: 2, ProvenanceError: 2,
               UndefinedMetricError: 2, OSError: 2,
               NumericError: 3, DegenerateInputError: 3, DimensionError: 3,
               ContractError: 3}


# --------------------------------------------------------------------------
# config resolution


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise DataFormatError(f"config file {p} does not exist")
    raw = loads(read_bytes(p, "config"), ConfigurationError, f"config file {p}")
    if not isinstance(raw, dict):
        raise DataFormatError(f"config file {p} must hold a JSON object")
    return raw


def resolve_config(defaults: dict, config_path, overrides: dict,
                   required=()) -> dict:
    """defaults <- JSON file <- CLI flags; later sources win key by key, at
    every depth.

    `container.decode` checks every file value against its default, also one
    that a flag replaces, then the file merged with every override that is
    not None; a key in `required` must come from one of them, and a seed must
    be non-negative.
    """
    file_doc = _load_config_file(config_path)
    decode(defaults, file_doc, ConfigurationError, "config")
    given = {**file_doc, **{k: v for k, v in overrides.items() if v is not None}}
    merged = decode(defaults, given, ConfigurationError, "config")
    for key in required:
        if key not in given:
            raise UsageError(f"config key {key!r} must come from a flag or the config file")
    if merged.get("seed", 0) < 0:
        raise ConfigurationError(
            f"config key 'seed' must be a non-negative integer, got {merged['seed']}")
    return merged


# --------------------------------------------------------------------------
# run-directory bookkeeping


def _write_resolved(out: Path, command: str, config: dict, record) -> None:
    """Echo the run record: the resolved config plus the digests of every file
    the command read and wrote, from the `record` of its call."""
    inputs, outputs = record
    doc = {
        "command": command,
        "seed": config.get("seed"),
        "config": config,
        "inputs": {name: {"path": str(p), "sha256": digest}
                   for name, (p, digest) in inputs.items()},
        "outputs": {p.relative_to(out).as_posix(): digest for p, digest in outputs.items()},
    }
    write_json(out / "resolved_config.json", doc)


def _read_dataset(arg, *, network=False) -> tuple:
    """(windows, manifest) of a dataset file or directory.  With `network`
    set its windows must have the shape the network reads."""
    p = Path(arg)
    if p.is_dir():
        p = p / "dataset.peeg"
    windows, manifest = load(p)
    shape = windows.dtype["values"].shape
    if network and shape != (INPUT_TIME, INPUT_CHANNELS):
        raise DataFormatError(f"{p} holds windows of shape {shape}; the network "
                              f"reads windows of shape {(INPUT_TIME, INPUT_CHANNELS)}")
    return windows, manifest


def _read_model_and_dataset(ns) -> tuple:
    """(model, windows, manifest) of ``--model`` (a file or run directory)
    and ``--data``, whose windows the network must be able to read."""
    p = Path(ns.model)
    if p.is_dir():
        p = p / "model.pegm"
    return (load_model(p), *_read_dataset(ns.data, network=True))


# --------------------------------------------------------------------------
# subcommands: each writes under `out`, returns (its config, the line to print)


def _cmd_synth(ns, out: Path) -> tuple:
    default = SynthConfig(n_samples=1)  # n_samples: its type only
    merged = resolve_config(asdict(default), ns.config,
                            {"n_samples": ns.n, "seed": ns.seed},
                            required=("n_samples",))
    cfg = decode(default, merged, ConfigurationError, "config")
    windows, manifest = generate_synthetic(cfg)
    data_path = out / "dataset.peeg"
    save(windows, manifest, data_path)
    return asdict(cfg), f"wrote {len(windows)} windows to {data_path}"


def _archive_array(archive, name: str) -> np.ndarray:
    """One array of the input archive; it must hold real numbers."""
    try:
        arr = archive[name]
    except (OSError, ValueError) as exc:  # e.g. an object array
        raise DataFormatError(f"cannot read {name!r} from the input archive: {exc}") from exc
    if arr.dtype.kind not in "iuf":
        raise DataFormatError(f"{name!r} must hold real numbers, got dtype {arr.dtype}")
    return arr


def _whole_numbers(arr: np.ndarray, name: str, stop: int) -> np.ndarray:
    """`arr` as int64, if every entry is a whole number in [0, stop)."""
    if arr.dtype.kind == "f" and not np.all(np.isfinite(arr) & (arr == np.round(arr))):
        raise DataFormatError(f"{name!r} must hold whole numbers")
    if arr.size and (arr.min() < 0 or arr.max() >= stop):
        raise DataFormatError(f"{name!r} must lie in 0..{stop - 1}")
    return arr.astype(np.int64)


def _read_archive(src: Path) -> tuple:
    """(values (n, time, channel) in their stored dtype, sample rate, votes,
    ids) of an .npz archive, each checked for dtype, shape, integrality,
    range and finiteness, so that a malformed archive is a data error."""
    if not src.exists():
        raise DataFormatError(f"input archive {src} does not exist")
    try:
        archive = np.load(io.BytesIO(read_bytes(src, "input")), allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise DataFormatError(f"cannot read {src} as an .npz archive: {exc}") from exc
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise DataFormatError(f"{src} is a single array, not an .npz archive")
    with archive:
        names = set(archive.files)
        if "values" not in names or "sample_rate_hz" not in names:
            raise DataFormatError(
                "input archive needs 'values' (n, time, channel) and 'sample_rate_hz'")
        values = _archive_array(archive, "values")
        if values.ndim != 3:
            raise DataFormatError(
                f"'values' must be (n, time, channel), got shape {values.shape}")
        n = values.shape[0]
        if n == 0:
            raise DataFormatError(f"{src} holds no windows")
        if values.shape[1] < sigproc.MIN_FILTER_SAMPLES:
            raise DataFormatError(
                f"'values' holds windows of {values.shape[1]} samples; filtering "
                f"needs at least {sigproc.MIN_FILTER_SAMPLES}")
        if values.shape[2] == 0:
            raise DataFormatError("'values' holds windows of 0 channels")
        if not np.isfinite(values).all():
            raise DataFormatError(f"'values' in {src} holds non-finite numbers")
        rate = _archive_array(archive, "sample_rate_hz").reshape(-1)
        if rate.size == 0 or not (np.isfinite(rate[0]) and rate[0] > 0):
            raise DataFormatError("'sample_rate_hz' must hold a positive finite number")
        votes = (_archive_array(archive, "votes") if "votes" in names
                 else np.zeros(n, dtype=np.int64))
        ids = (_archive_array(archive, "ids") if "ids" in names
               else np.arange(n, dtype=np.int64))
    if votes.shape != (n,) or ids.shape != (n,):
        raise DataFormatError("'votes' and 'ids' must be 1-d with one entry per window")
    return (values, float(rate[0]), _whole_numbers(votes, "votes", ds.NUM_ANNOTATORS + 1),
            _whole_numbers(ids, "ids", 2 ** 63))


def _cmd_preprocess(ns, out: Path) -> tuple:
    defaults = {"notch_hz": sigproc.DEFAULT_NOTCH_HZ,
                "notch_q": sigproc.DEFAULT_NOTCH_Q,
                "highpass_hz": sigproc.DEFAULT_HIGHPASS_HZ,
                "highpass_order": sigproc.DEFAULT_HIGHPASS_ORDER,
                "target_fs": sigproc.TARGET_FS,
                "seed": 0}
    merged = resolve_config(defaults, ns.config, {"seed": ns.seed})
    src = Path(ns.input)
    values, fs_in, votes, ids = _read_archive(src)
    n, raw_steps, channels = values.shape
    time_steps = sigproc.resampled_length(raw_steps, fs_in, merged["target_fs"])
    if time_steps == 0:
        raise DataFormatError(
            f"'values' holds windows of {raw_steps} samples at {fs_in:g} Hz, "
            f"which resample to 0 samples at {merged['target_fs']:g} Hz")
    processed = sigproc.preprocess_window(
        values, fs_in, notch_hz=merged["notch_hz"], notch_q=merged["notch_q"],
        highpass_hz=merged["highpass_hz"], highpass_order=merged["highpass_order"],
        fs_out=merged["target_fs"])
    del values  # freed before the dataset is built and written
    limit = float(np.finfo(np.float32).max)
    if not (processed.min() >= -limit and processed.max() <= limit):
        raise DataFormatError(f"'values' in {src} preprocess to numbers outside the float32 range")
    digest = hashlib.sha256(
        json.dumps(merged, sort_keys=True).encode()).hexdigest()
    manifest = DatasetManifest(
        version=ds.FORMAT_VERSION, sample_count=n, channel_count=channels,
        time_steps=time_steps, sample_rate_hz=float(merged["target_fs"]),
        splits={}, seed=merged["seed"], config_digest=digest)
    data_path = out / "dataset.peeg"
    save(make_windows(ids, votes, processed), manifest, data_path)
    return merged, (f"preprocessed {n} windows ({fs_in:g} Hz -> "
                    f"{merged['target_fs']:g} Hz) to {data_path}")


def _cmd_split(ns, out: Path) -> tuple:
    defaults = {"fractions": list(ds.DEFAULT_FRACTIONS), "seed": 0}
    overrides = {"fractions": list(ns.fractions) if ns.fractions else None,
                 "seed": ns.seed}
    merged = resolve_config(defaults, ns.config, overrides)
    windows, old = _read_dataset(ns.data)
    # acquisition facts carry over from the source manifest
    manifest = replace(old, version=ds.FORMAT_VERSION, seed=merged["seed"],
                       splits=ds.split(windows, fractions=merged["fractions"],
                                       seed=merged["seed"]))
    data_path = out / "dataset.peeg"
    save(windows, manifest, data_path)
    sizes = {name: len(manifest.ids_for(name)) for name in ("train", "val", "test")}
    return merged, f"split {len(windows)} windows into {sizes} at {data_path}"


def _cmd_train(ns, out: Path) -> tuple:
    merged = resolve_config(asdict(TrainConfig()), ns.config,
                            {"seed": ns.seed,
                             "num_train_epochs": ns.epochs,
                             "batch_size": ns.batch_size})
    cfg = decode(TrainConfig(), merged, ConfigurationError, "config")
    windows, manifest = _read_dataset(ns.data, network=True)
    model, history = train(cfg, split_windows(windows, manifest, "train"),
                           split_windows(windows, manifest, "val"), out_dir=out)
    final = out / "model.pegm"
    save_model(model, final)
    for warning in history.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    last = history.records[-1]
    tail = ""
    if last.get("val"):
        tail = (f"; val accuracy {last['val']['accuracy']:.3f}, "
                f"val cross-entropy {last['val']['cross_entropy']:.4f}")
    return asdict(cfg), f"trained {cfg.num_train_epochs} epochs; model at {final}{tail}"


def _cmd_eval(ns, out: Path) -> tuple:
    defaults = {"split": "test", "rounds": 10000, "seed": 0, "filtered": False}
    merged = resolve_config(defaults, ns.config,
                            {"split": ns.split, "rounds": ns.rounds,
                             "seed": ns.seed, "filtered": ns.filtered})
    model, windows, manifest = _read_model_and_dataset(ns)
    # ascending sample_id, which scores.json and the bootstrap draws follow
    subset = split_windows(windows, manifest, merged["split"])
    if len(subset) == 0:
        raise ConfigurationError(
            f"split {merged['split']!r} is empty in {ns.data}")
    p_pos = score_samples(model, subset)
    metrics = metrics_from_scores(p_pos, subset.votes, rounds=merged["rounds"],
                                  seed=merged["seed"])
    write_json(out / "metrics.json", metrics)
    score_rows = [{"sample_id": i, "p_pos": p, "p_neg": 1.0 - p,
                   "label": int(v >= POSITIVE_VOTE_THRESHOLD), "votes": v}
                  for i, p, v in zip(subset.sample_id.tolist(), p_pos.tolist(),
                                     subset.votes.tolist())]
    write_json(out / "scores.json", score_rows)
    view = "filtered" if merged["filtered"] else "unfiltered"
    lo, hi = metrics[f"ci_{view}"]
    n = metrics["n_filtered"] if view == "filtered" else metrics["n_test"]
    return merged, (f"AUROC ({view}): {metrics['auroc_' + view]:.4f}  "
                    f"CI95 [{lo:.4f}, {hi:.4f}]  n={n}")


def _cmd_push(ns, out: Path) -> tuple:
    defaults = {"seed": 0}
    merged = resolve_config(defaults, ns.config, {"seed": ns.seed})
    model, windows, manifest = _read_model_and_dataset(ns)
    records, _ = push_prototypes(model, split_windows(windows, manifest, "train"), epoch=0)
    save_model(model, out / "model.pegm")
    write_json(out / "push_records.json", [asdict(r) for r in records])
    return merged, f"pushed {len(records)} prototypes; model at {out / 'model.pegm'}"


def _cmd_explain(ns, out: Path) -> tuple:
    defaults = {"top_k": 3, "seed": 0}
    merged = resolve_config(defaults, ns.config,
                            {"top_k": ns.top_k, "seed": ns.seed})
    model, windows, _ = _read_model_and_dataset(ns)
    (row,) = rows_of(windows, [ns.sample_id])
    explanation = explain(model, windows[row], top_k=merged["top_k"])
    paths = render_report(explanation, windows, out)
    return merged, "\n".join(f"{kind}: {path}" for kind, path in sorted(paths.items()))


def _cmd_report(ns, out: Path) -> tuple:
    defaults = {"seed": 0}
    merged = resolve_config(defaults, ns.config, {"seed": ns.seed})
    model, windows, manifest = _read_model_and_dataset(ns)
    doc = global_prototype_report(model, split_windows(windows, manifest, "train"))
    write_json(out / "prototype_report.json", doc)
    return merged, (f"{len(doc['flagged'])} of {len(doc['prototypes'])} prototypes "
                    f"flagged; report at {out / 'prototype_report.json'}")


# --------------------------------------------------------------------------
# parser and dispatch


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; the contract is 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="protoeeg",
        description="Prototype-based EEG spike classifier.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND",
                                parser_class=_Parser)

    def command(name: str, help_: str, handler):
        p = sub.add_parser(name, help=help_, description=help_)
        p.add_argument("--seed", type=int, default=None,
                       help="override the seed")
        p.add_argument("--config", default=None, metavar="FILE",
                       help="JSON config file (defaults <- file <- flags)")
        p.add_argument("--out", required=True, metavar="DIR",
                       help="output directory; all writes land here")
        p.set_defaults(handler=handler)
        return p

    p = command("synth", "generate a synthetic labelled dataset", _cmd_synth)
    p.add_argument("--n", type=int, default=None, help="number of windows")

    p = command("preprocess", "notch, high-pass and resample raw windows",
                _cmd_preprocess)
    p.add_argument("--input", required=True, metavar="NPZ",
                   help=".npz with values (n, time, channel) and sample_rate_hz; "
                        "optional votes and ids")

    p = command("split", "re-split an existing dataset", _cmd_split)
    p.add_argument("--data", required=True, help="dataset file or directory")
    p.add_argument("--fractions", type=float, nargs=3, default=None,
                   metavar=("TRAIN", "VAL", "TEST"))

    p = command("train", "run the full training schedule", _cmd_train)
    p.add_argument("--data", required=True, help="dataset file or directory")
    p.add_argument("--epochs", type=int, default=None,
                   help="override num_train_epochs")
    p.add_argument("--batch-size", type=int, default=None,
                   help="override batch_size")

    p = command("eval", "AUROC with bootstrap CIs on a held-out split", _cmd_eval)
    p.add_argument("--model", required=True, help="model file or run directory")
    p.add_argument("--data", required=True, help="dataset file or directory")
    p.add_argument("--split", default=None, choices=("train", "val", "test"))
    p.add_argument("--rounds", type=int, default=None,
                   help="bootstrap rounds (default 10000)")
    p.add_argument("--filtered", action="store_const", const=True, default=None,
                   help="headline the consensus-filtered AUROC")

    p = command("push", "project prototypes onto nearest training latents",
                _cmd_push)
    p.add_argument("--model", required=True, help="model file or run directory")
    p.add_argument("--data", required=True, help="dataset file or directory")

    p = command("explain", "render the prototype evidence report for one sample",
                _cmd_explain)
    p.add_argument("--model", required=True, help="model file or run directory")
    p.add_argument("--data", required=True, help="dataset file or directory")
    p.add_argument("--sample-id", type=int, required=True)
    p.add_argument("--top-k", type=int, default=None,
                   help="prototype rows per class section (default 3)")

    p = command("report", "global prototype quality report", _cmd_report)
    p.add_argument("--model", required=True, help="model file or run directory")
    p.add_argument("--data", required=True, help="dataset file or directory")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help; keep main() returning an int
        return exc.code if isinstance(exc.code, int) else 0
    if getattr(ns, "handler", None) is None:
        parser.print_usage(sys.stderr)
        print(f"{parser.prog}: error: a subcommand is required", file=sys.stderr)
        return 1
    out = Path(ns.out)
    try:
        with recording() as record:
            config, message = ns.handler(ns, out)
            _write_resolved(out, ns.command, config, record)
        print(message)
    except (ProtoeegError, OSError) as exc:
        print(f"{parser.prog} {ns.command}: error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[k] for k in type(exc).__mro__ if k in _EXIT_CODES)
    return 0


if __name__ == "__main__":
    sys.exit(main())
