"""The three workloads: set-up, one timed round, and the checks of its outputs.

Every workload drives the program in-process through ``protoeeg.cli.main``,
the entry point behind the ``protoeeg`` command, with the arguments a user
would type.  Inputs are made afresh from the seed in set-up; nothing is
reused between runs.
"""

from __future__ import annotations

import io
import json
import shutil
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
from protoeeg import cli
from protoeeg.dataset import DatasetManifest, load, manifest_path
from protoeeg.errors import ProtoeegError
from protoeeg.model import load_model

import checks

# Warm stage only, then one push and refit: enough for a model with push
# provenance, which `eval`, `report`, `push` and `explain` need, at a
# fraction of a training run's cost.
AUDIT_MODEL_SCHEDULE = {
    "num_train_epochs": 1, "num_warm_epochs": 1, "num_secondary_warm_epochs": 0,
    "push_start": 0, "push_epochs": [1],
}

# The acceptance schedule (30 epochs, 3 + 3 warm, pushes at 20 and 30,
# batch 32) scaled down to 5 epochs.  Its optimizer steps are the acceptance
# run's; only the joint prototype rate is 0.01 instead of 0.05, which keeps
# the short run from ending near 0.6 test AUROC on some seeds.
TRAIN_SCHEDULE = {
    "num_train_epochs": 5, "num_warm_epochs": 1, "num_secondary_warm_epochs": 1,
    "push_start": 2, "push_epochs": [3, 5], "joint_lr_step_size": 30,
    "batch_size": 32, "joint_prototype_lr": 0.01,
}
# train / validation / test shares of the train workload's dataset
TRAIN_FRACTIONS = (0.6, 0.1, 0.3)


class Bench:
    """Runs CLI calls, under a span when a tracer is recording."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.log = []  # stderr of calls that failed

    def cli(self, *argv) -> bool:
        argv = [str(a) for a in argv]
        recording = self.tracer is not None and self.tracer.phase is not None
        span = self.tracer.open("cli.main") if recording else None
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(argv)
        except Exception:  # a bare traceback out of the program is a failed operation
            rc = None
            err.write(traceback.format_exc())
        finally:
            if span is not None:
                self.tracer.close(span)
        if rc != 0:
            self.log.append(f"protoeeg {' '.join(argv)} -> {rc}\n{err.getvalue()}")
        elif span is not None:
            span.attrs["hashed"] = _hashed_bytes(Path(argv[argv.index("--out") + 1]))
        return rc == 0

    def must(self, *argv) -> None:
        """A set-up call; without its output the run cannot go on."""
        if not self.cli(*argv):
            raise RuntimeError(self.log[-1])


def _hashed_bytes(out: Path) -> int:
    """Bytes behind the checksums in the run record the call wrote."""
    try:
        rec = json.loads((out / "resolved_config.json").read_text("utf-8"))
    except (OSError, json.JSONDecodeError):
        return 0
    paths = [Path(v["path"]) for v in rec.get("inputs", {}).values()]
    paths += [out / rel for rel in rec.get("outputs", {})]
    return sum(p.stat().st_size for p in paths if p.is_file())


def _write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", "utf-8")
    return path


def _read_json(path: Path):
    return json.loads(Path(path).read_text("utf-8"))


def _manifest(data_file) -> DatasetManifest:
    return DatasetManifest.from_json(manifest_path(data_file).read_text())


def _split_sizes(data_file: Path) -> dict:
    manifest = _manifest(data_file)
    return {name: len(manifest.ids_for(name)) for name in ("train", "val", "test")}


def _load_dataset(data_file):
    """(window by id as float64, votes by id, manifest) for the checks."""
    samples, manifest = load(data_file)
    windows = {s.sample_id: np.asarray(s.values, dtype=np.float64) for s in samples}
    votes = {s.sample_id: int(s.votes) for s in samples}
    return windows, votes, manifest


def _prototype_errors(path: Path, windows, votes, train_ids, tag: str) -> list:
    try:
        model = load_model(path)
    except ProtoeegError as exc:
        return [f"{tag}: cannot load {path.name}: {exc}"]
    return checks.check_prototypes(model, windows, votes, train_ids, tag)


def _synth(bench: Bench, out: Path, n: int, seed: int, fractions=None, config=None) -> Path:
    args = ["synth", "--n", n, "--seed", seed, "--out", out]
    if config is not None:
        args += ["--config", _write_json(out.parent / f"{out.name}.synth.json", config)]
    bench.must(*args)
    if fractions is None:
        return out / "dataset.peeg"
    split_out = out.parent / f"{out.name}_split"
    bench.must("split", "--data", out, "--fractions", *fractions, "--seed", seed,
               "--out", split_out)
    return split_out / "dataset.peeg"


def _audit_model(bench: Bench, root: Path, data: Path, seed: int) -> Path:
    config = _write_json(root / "audit_model.json", dict(AUDIT_MODEL_SCHEDULE, seed=seed))
    bench.must("train", "--data", data, "--config", config, "--out", root / "model")
    return root / "model" / "model.pegm"


class Workload:
    """One workload.  ``setup`` returns a JSON-able state; ``run_round`` is
    one timed round; ``check`` inspects the outputs of the rounds that
    returned True and returns failure messages."""

    name = ""
    op = ""          # what op_p50_ms times
    setups = 3       # set-ups per run; setup_s is their median

    def setup(self, bench: Bench, root: Path, seed: int) -> dict:
        raise NotImplementedError

    def windows_per_round(self, state: dict) -> int:
        raise NotImplementedError

    def stage_windows(self, state: dict) -> dict:
        return {}

    def run_round(self, bench: Bench, state: dict, root: Path, k: int) -> bool:
        raise NotImplementedError

    def check(self, state: dict, root: Path, ok_rounds: list) -> list:
        raise NotImplementedError


class Train(Workload):
    name = "train"
    op = "one optimizer step through the backbone (secondary-warm and joint stages)"
    setups = 11  # a set-up is under a second here; more of them steady the median

    def __init__(self, n_windows=1200, schedule=None, auroc_floor=0.6, check_rounds=200):
        self.n_windows = n_windows
        self.schedule = dict(schedule or TRAIN_SCHEDULE)
        self.auroc_floor = auroc_floor
        self.check_rounds = check_rounds

    def setup(self, bench, root, seed):
        data = _synth(bench, root / "data", self.n_windows, seed, TRAIN_FRACTIONS)
        config = _write_json(root / "train.json", dict(self.schedule, seed=seed))
        return {"data": str(data), "config": str(config), "sizes": _split_sizes(data)}

    def windows_per_round(self, state):
        return state["sizes"]["train"] * self.schedule["num_train_epochs"]

    def stage_windows(self, state):
        n = state["sizes"]["train"]
        labels = checks.stage_labels(self.schedule)
        return {stage: n * labels.count(stage)
                for stage in ("warm", "secondary_warm", "joint")}

    def run_round(self, bench, state, root, k):
        return bench.cli("train", "--data", state["data"], "--config", state["config"],
                         "--out", root / f"round{k}")

    def check(self, state, root, ok_rounds):
        bench = Bench()
        windows, votes, manifest = _load_dataset(state["data"])
        train_ids = set(manifest.ids_for("train"))
        errors = []
        for k in ok_rounds:
            run = root / f"round{k}"
            records = [json.loads(line) for line in
                       (run / "history.jsonl").read_text("utf-8").splitlines() if line]
            errors += checks.check_history(records, self.schedule)
            errors += checks.check_refits(records)
            models = [run / f"checkpoint_epoch{e:03d}.pegm" for e in self.schedule["push_epochs"]]
            models.append(run / "model.pegm")
            for path in models:
                if not path.is_file():
                    errors.append(f"round {k}: missing {path.name}")
                    continue
                errors += _prototype_errors(path, windows, votes, train_ids,
                                            f"round {k} {path.name}")
            ev = run / "check_eval"
            if not bench.cli("eval", "--model", run / "model.pegm", "--data", state["data"],
                             "--rounds", self.check_rounds, "--out", ev):
                errors.append(f"round {k}: {bench.log[-1]}")
                continue
            value, errs = checks.check_test_auroc(_read_json(ev / "scores.json"),
                                                  _read_json(ev / "metrics.json"),
                                                  self.auroc_floor)
            print(f"train: round {k} test AUROC {value:.4f} (pairwise, "
                  f"{state['sizes']['test']} windows, floor {self.auroc_floor})")
            errors += errs
        return errors


class Evaluate(Workload):
    name = "evaluate"
    op = "one audit cycle: protoeeg eval, report and push"

    def __init__(self, n_windows=1000, rounds=None):
        self.n_windows = n_windows
        self.rounds = rounds  # None: the program's default bootstrap rounds

    def setup(self, bench, root, seed):
        data = _synth(bench, root / "data", self.n_windows, seed)
        model = _audit_model(bench, root, data, seed)
        return {"data": str(data), "model": str(model), "sizes": _split_sizes(data)}

    def windows_per_round(self, state):
        return state["sizes"]["test"] + 2 * state["sizes"]["train"]

    def run_round(self, bench, state, root, k):
        cycle = root / f"cycle{k}"
        common = ["--model", state["model"], "--data", state["data"]]
        eval_args = ["eval", *common, "--out", cycle / "eval"]
        if self.rounds is not None:
            eval_args += ["--rounds", self.rounds]
        return (bench.cli(*eval_args)
                and bench.cli("report", *common, "--out", cycle / "report")
                and bench.cli("push", *common, "--out", cycle / "push"))

    def check(self, state, root, ok_rounds):
        windows, votes, manifest = _load_dataset(state["data"])
        train_ids = set(manifest.ids_for("train"))
        errors, first = [], None
        for k in ok_rounds:
            cycle = root / f"cycle{k}"
            metrics = _read_json(cycle / "eval" / "metrics.json")
            errors += checks.check_eval(metrics, _read_json(cycle / "eval" / "scores.json"),
                                        state["sizes"]["test"])
            first = first or metrics
            errors += checks.check_same_cis(metrics, first)
            errors += checks.check_report(_read_json(cycle / "report" / "prototype_report.json"))
            errors += checks.check_push_records(
                _read_json(cycle / "push" / "push_records.json"), votes, train_ids)
            errors += _prototype_errors(cycle / "push" / "model.pegm", windows, votes,
                                        train_ids, f"cycle {k} push")
        return errors


RAW_FS = 256.0


class Review(Workload):
    name = "review"
    op = "one protoeeg explain call"

    def __init__(self, n_windows=2000, fractions=(0.15, 0.05, 0.8), probe_seconds=10):
        self.n_windows = n_windows
        self.fractions = fractions
        self.probe_seconds = probe_seconds

    def setup(self, bench, root, seed):
        raw_dir = root / "raw"
        raw = _synth(bench, raw_dir, self.n_windows, seed,
                     config={"sample_rate_hz": RAW_FS})
        samples, _ = load(raw)
        archive = root / "raw.npz"
        np.savez(archive, values=np.stack([s.values for s in samples]),
                 sample_rate_hz=np.array([RAW_FS]),
                 votes=np.array([s.votes for s in samples]),
                 ids=np.array([s.sample_id for s in samples]))
        del samples
        bench.must("preprocess", "--input", archive, "--out", root / "pre")
        data_dir = root / "data"
        bench.must("split", "--data", root / "pre", "--fractions", *self.fractions,
                   "--seed", seed, "--out", data_dir)
        data = data_dir / "dataset.peeg"
        model = _audit_model(bench, root, data, seed)
        test_ids = _manifest(data).ids_for("test")
        order = np.random.default_rng(seed).permutation(test_ids).tolist()
        return {"data": str(data), "model": str(model), "order": order,
                "scratch": [str(raw_dir), str(archive), str(root / "pre")]}

    def windows_per_round(self, state):
        return 1

    def sample_id(self, state, k):
        return state["order"][k % len(state["order"])]

    def run_round(self, bench, state, root, k):
        return bench.cli("explain", "--model", state["model"], "--data", state["data"],
                         "--sample-id", self.sample_id(state, k), "--out", root / f"explain{k}")

    def check(self, state, root, ok_rounds):
        model = load_model(state["model"])
        windows, votes, manifest = _load_dataset(state["data"])
        train_ids = set(manifest.ids_for("train"))
        errors = []
        for k in ok_rounds:
            sid = self.sample_id(state, k)
            doc, errs = checks.check_report_files(
                checks.report_files(root / f"explain{k}", sid))
            errors += errs
            if doc is not None:
                if doc.get("sample_id") != sid:
                    errors.append(f"call {k}: report is for {doc.get('sample_id')}, not {sid}")
                errors += checks.check_explanation(doc, model, windows[sid], votes, train_ids)
        errors += self.check_preprocessing(root / "probe")
        return errors

    def check_preprocessing(self, root: Path) -> list:
        """A long 60 Hz + 10 Hz probe through ``protoeeg preprocess``, kept at
        the raw rate so the notch is seen apart from resampling."""
        root.mkdir(parents=True, exist_ok=True)
        t = np.arange(int(self.probe_seconds * RAW_FS)) / RAW_FS
        probe = 20.0 * np.sin(2 * np.pi * 60.0 * t) + 10.0 * np.sin(2 * np.pi * 10.0 * t)
        np.savez(root / "probe.npz", values=probe[None, :, None].astype(np.float32),
                 sample_rate_hz=np.array([RAW_FS]))
        config = _write_json(root / "probe.json", {"target_fs": RAW_FS})
        bench = Bench()
        if not bench.cli("preprocess", "--input", root / "probe.npz", "--config", config,
                         "--out", root / "out"):
            return [f"preprocessing probe: {bench.log[-1]}"]
        samples, _ = load(root / "out" / "dataset.peeg")
        raw = probe.astype(np.float32).astype(np.float64)
        return checks.check_notch(raw, np.asarray(samples[0].values[:, 0], np.float64),
                                  RAW_FS)


WORKLOADS = {w.name: w for w in (Train, Evaluate, Review)}


def remove(paths) -> None:
    for p in map(Path, paths):
        if p.is_dir():
            shutil.rmtree(p, ignore_errors=True)
        elif p.exists():
            p.unlink()
