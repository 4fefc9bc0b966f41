"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Each workload is set up and run small, in-process.  Its checks must pass on
the program as it is; then one output at a time is corrupted and the checks
must report it.  Exits 1 if any expectation fails.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (fixes the BLAS threads before numpy loads)

run._import_program()

import numpy as np  # noqa: E402

import checks  # noqa: E402
from workloads import Bench, Evaluate, Review, Train, remove  # noqa: E402

SEED = 5
TINY_SCHEDULE = {
    "num_train_epochs": 3, "num_warm_epochs": 1, "num_secondary_warm_epochs": 1,
    "push_start": 1, "push_epochs": [2, 3], "joint_lr_step_size": 30,
    "batch_size": 16, "secondary_feature_lr": 3e-3, "joint_feature_lr": 3e-3,
}


@contextmanager
def corrupted(path: Path, edit):
    """Apply ``edit`` to the file at ``path``; restore its bytes afterwards."""
    original = path.read_bytes()
    try:
        edit(path)
        yield
    finally:
        path.write_bytes(original)


def json_edit(change):
    def edit(path):
        doc = json.loads(path.read_text("utf-8"))
        doc = change(doc) or doc
        path.write_text(json.dumps(doc), "utf-8")
    return edit


def jsonl_edit(change):
    def edit(path):
        records = [json.loads(line) for line in path.read_text("utf-8").splitlines() if line]
        records = change(records) or records
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n", "utf-8")
    return edit


def model_edit(change):
    from protoeeg.model import load_model, save_model

    def edit(path):
        model = load_model(path)
        change(model)
        save_model(model, path)
    return edit


class Report:
    def __init__(self):
        self.failures = 0

    def expect(self, label: str, errors: list, should_fail: bool) -> None:
        good = bool(errors) == should_fail
        self.failures += not good
        detail = errors[0] if errors else "no failures"
        print(f"{'ok  ' if good else 'FAIL'} {label}: {detail}")


def _other_class_train_window(state, cls):
    from protoeeg.dataset import load

    samples, manifest = load(state["data"])
    votes = {s.sample_id: s.votes for s in samples}
    return next(i for i in manifest.ids_for("train") if votes[i] != cls)


def _run(workload, root: Path, rounds: int):
    bench = Bench()
    (root / "setup").mkdir()
    state = workload.setup(bench, root / "setup", SEED)
    timed = root / "timed"
    timed.mkdir()
    ok = [k for k in range(rounds) if workload.run_round(bench, state, timed, k)]
    if len(ok) != rounds:
        sys.exit(f"selftest: {workload.name} failed a round:\n" + "\n".join(bench.log))
    return state, timed, ok


def test_train(report: Report, root: Path) -> None:
    wl = Train(n_windows=240, schedule=TINY_SCHEDULE, auroc_floor=0.0, check_rounds=20)
    state, timed, ok = _run(wl, root, 1)
    report.expect("train: program as it is", wl.check(state, timed, ok), False)
    run0 = timed / "round0"
    history = run0 / "history.jsonl"

    def stretch(model):
        model.bank.vectors.data[0] *= 1.0 + 1e-11

    def cite_other_class(model):
        model.bank.provenance[0].source_sample_id = _other_class_train_window(state, 0)

    def move_off_source(model):
        v = model.bank.vectors.data
        v[0] += 0.01 * np.random.default_rng(0).standard_normal(v.shape[1])
        v[0] /= np.linalg.norm(v[0])

    cases = [
        ("history missing its last epoch", history, jsonl_edit(lambda r: r[:-1])),
        ("history with a wrong stage label",
         history, jsonl_edit(lambda r: r[0].update(stage="joint"))),
        ("refit objective above its initial", history,
         jsonl_edit(lambda r: r[-1]["convex"].update(
             objective=r[-1]["convex"]["objective_initial"] + 1e-6))),
        ("prototype off the unit sphere", run0 / "model.pegm", model_edit(stretch)),
        ("prototype citing a window of another class", run0 / "model.pegm",
         model_edit(cite_other_class)),
        ("prototype not at its source's latent", run0 / "checkpoint_epoch002.pegm",
         model_edit(move_off_source)),
    ]
    for label, path, edit in cases:
        with corrupted(path, edit):
            report.expect(f"train: {label}", wl.check(state, timed, ok), True)
    wl.auroc_floor = 1.0
    report.expect("train: test AUROC below the floor", wl.check(state, timed, ok), True)
    wl.auroc_floor = 0.0
    ev = run0 / "check_eval"
    metrics = json.loads((ev / "metrics.json").read_text())
    metrics["auroc_unfiltered"] += 1e-6
    _, errors = checks.check_test_auroc(json.loads((ev / "scores.json").read_text()),
                                        metrics, 0.0)
    report.expect("train: AUROC off by 1e-6", errors, True)


def test_evaluate(report: Report, root: Path) -> None:
    wl = Evaluate(n_windows=240, rounds=200)
    state, timed, ok = _run(wl, root, 2)
    report.expect("evaluate: program as it is", wl.check(state, timed, ok), False)
    c0, c1 = timed / "cycle0", timed / "cycle1"

    def shift_ci(doc):
        doc["ci_filtered"][0] = doc["auroc_filtered"] + 1e-3

    cases = [
        ("AUROC off by 1e-6", c0 / "eval" / "metrics.json",
         json_edit(lambda d: d.update(auroc_unfiltered=d["auroc_unfiltered"] + 1e-6))),
        ("CI that excludes its point", c0 / "eval" / "metrics.json", json_edit(shift_ci)),
        ("CI that differs between cycles", c1 / "eval" / "metrics.json",
         json_edit(lambda d: d["ci_unfiltered"].__setitem__(0, d["ci_unfiltered"][0] - 1e-9))),
        ("scores with a window missing", c0 / "eval" / "scores.json",
         json_edit(lambda rows: rows[1:])),
        ("flagged list that disagrees with its rows", c0 / "report" / "prototype_report.json",
         json_edit(lambda d: d.update(flagged=sorted(
             set(range(len(d["prototypes"]))) - set(d["flagged"]))))),
        ("push record citing a window of another class", c0 / "push" / "push_records.json",
         json_edit(lambda rows: rows[0].update(
             source_sample_id=_other_class_train_window(state, rows[0]["prototype_class"])))),
    ]
    for label, path, edit in cases:
        with corrupted(path, edit):
            report.expect(f"evaluate: {label}", wl.check(state, timed, ok), True)


def test_review(report: Report, root: Path) -> None:
    wl = Review(n_windows=300, fractions=(0.5, 0.1, 0.4), probe_seconds=4)
    state, timed, ok = _run(wl, root, 2)
    report.expect("review: program as it is", wl.check(state, timed, ok), False)
    sid = wl.sample_id(state, 0)
    files = checks.report_files(timed / "explain0", sid)

    def other_class_source(doc):
        row = doc["sections"][0]["rows"][0]
        row["source_sample_id"] = _other_class_train_window(state, row["prototype_class"])

    cases = [
        ("logit off by 1e-6", files["json"],
         json_edit(lambda d: d["sections"][1].update(logit=d["sections"][1]["logit"] + 1e-6))),
        ("probabilities that do not sum to 1", files["json"],
         json_edit(lambda d: d["probabilities"].__setitem__(0, d["probabilities"][0] + 1e-6))),
        ("source citing a window of another class", files["json"],
         json_edit(other_class_source)),
        ("JSON report that does not parse", files["json"],
         lambda p: p.write_text(p.read_text()[:-20])),
        ("missing SVG report", files["svg"], lambda p: p.unlink()),
    ]
    for label, path, edit in cases:
        with corrupted(path, edit):
            report.expect(f"review: {label}", wl.check(state, timed, ok), True)
    t = np.arange(1024) / 256.0
    probe = np.sin(2 * np.pi * 60.0 * t) + np.sin(2 * np.pi * 10.0 * t)
    report.expect("review: preprocessing that keeps 60 Hz",
                  checks.check_notch(probe, probe, 256.0), True)


def main() -> int:
    root = run.ROOT / ".bench_runs" / f"selftest-{os.getpid()}"
    remove([root])
    report = Report()
    try:
        for test in (test_train, test_evaluate, test_review):
            sub = root / test.__name__
            sub.mkdir(parents=True)
            test(report, sub)
    finally:
        remove([root])
    print(f"selftest: {'passed' if not report.failures else f'{report.failures} failed'}")
    return 1 if report.failures else 0


if __name__ == "__main__":
    sys.exit(main())
