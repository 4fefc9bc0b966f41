"""Correctness checks on the program's outputs.

Each check either recomputes a figure apart from the program (pairwise
AUROC, latents embedded from a saved checkpoint, per-prototype points) or
tests a property the method must have (monotone refit, unit prototypes,
notch attenuation).  None compares against a stored copy of earlier output.
Every check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

POSITIVE_VOTES = 4           # a window is positive at >= 4 of 8 votes
AMBIGUOUS_VOTES = (3, 4, 5)  # dropped from the filtered view
UNIT_NORM_TOL = 1e-12        # pushed rows are l2-normalized latents
PUSH_SIM_TOL = 1e-9
EXACT_TOL = 1e-12


def pairwise_auroc(scores, labels) -> float:
    """Mann-Whitney AUROC by counting every positive/negative pair;
    a tie gives half credit."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos, neg = scores[labels == 1], scores[labels == 0]
    greater = int(np.count_nonzero(pos[:, None] > neg[None, :]))
    ties = int(np.count_nonzero(pos[:, None] == neg[None, :]))
    return (2 * greater + ties) / (2 * pos.size * neg.size)


def _views(score_rows):
    """(scores, labels) for the unfiltered and the filtered view."""
    p = np.array([r["p_pos"] for r in score_rows], dtype=np.float64)
    votes = np.array([r["votes"] for r in score_rows])
    labels = (votes >= POSITIVE_VOTES).astype(int)
    keep = ~np.isin(votes, AMBIGUOUS_VOTES)
    return {"unfiltered": (p, labels), "filtered": (p[keep], labels[keep])}


# ---------------------------------------------------------------------------
# train


def stage_labels(schedule: dict) -> list:
    w = schedule["num_warm_epochs"]
    s = schedule["num_secondary_warm_epochs"]
    n = schedule["num_train_epochs"]
    return ["warm"] * w + ["secondary_warm"] * s + ["joint"] * (n - w - s)


def check_history(records, schedule: dict) -> list:
    errors = []
    want = stage_labels(schedule)
    if len(records) != len(want):
        errors.append(f"history has {len(records)} records, schedule has {len(want)} epochs")
    for i, (rec, stage) in enumerate(zip(records, want), start=1):
        if rec.get("epoch") != i or rec.get("stage") != stage:
            errors.append(f"history record {i} is epoch {rec.get('epoch')} "
                          f"stage {rec.get('stage')!r}, expected epoch {i} {stage!r}")
    pushes = [r.get("epoch") for r in records if "push" in r]
    if pushes != list(schedule["push_epochs"]):
        errors.append(f"pushes at epochs {pushes}, schedule says {schedule['push_epochs']}")
    return errors


def check_refits(records) -> list:
    errors = []
    refits = [r for r in records if "push" in r]
    for rec in refits:
        convex = rec.get("convex") or {}
        if not convex or not rec.get("val"):
            errors.append(f"epoch {rec.get('epoch')}: push without refit or validation")
        elif not convex["objective"] <= convex["objective_initial"]:
            errors.append(f"epoch {rec['epoch']}: refit objective {convex['objective']!r} "
                          f"above its initial {convex['objective_initial']!r}")
    return errors


def check_prototypes(model, windows: dict, votes_of: dict, train_ids, tag: str) -> list:
    """Pushed prototypes are unit rows, each citing a training window of its
    own class whose latent, embedded afresh from ``model``, matches it."""
    errors = []
    bank = model.bank
    protos = np.asarray(bank.vectors.data)
    norms = np.linalg.norm(protos, axis=1)
    bad = np.nonzero(np.abs(norms - 1.0) > UNIT_NORM_TOL)[0]
    if bad.size:
        errors.append(f"{tag}: prototype {int(bad[0])} has norm {float(norms[bad[0]])!r}")
    cited = []
    for j, rec in enumerate(bank.provenance):
        cls = j // bank.per_class
        if rec is None:
            errors.append(f"{tag}: prototype {j} has no push provenance")
            continue
        sid = int(rec.source_sample_id)
        if sid not in train_ids:
            errors.append(f"{tag}: prototype {j} cites window {sid}, not a training window")
        elif votes_of[sid] != cls:
            errors.append(f"{tag}: prototype {j} of class {cls} cites window {sid} "
                          f"of class {votes_of[sid]}")
        else:
            cited.append((j, sid))
    if cited:
        latents = np.asarray(model.embed(np.stack([windows[sid] for _, sid in cited])).data)
        for (j, sid), z in zip(cited, latents):
            sim = float(z @ protos[j])
            if sim < 1.0 - PUSH_SIM_TOL:
                errors.append(f"{tag}: prototype {j} has similarity {sim!r} "
                              f"to its source window {sid}")
    return errors


def check_test_auroc(score_rows, metrics: dict, floor: float) -> tuple:
    """(pairwise AUROC, errors)."""
    scores, labels = _views(score_rows)["unfiltered"]
    value = pairwise_auroc(scores, labels)
    errors = []
    if not value >= floor:
        errors.append(f"test AUROC {value:.4f} (pairwise) is below the floor {floor}")
    if abs(value - metrics["auroc_unfiltered"]) > EXACT_TOL:
        errors.append(f"metrics.json AUROC {metrics['auroc_unfiltered']!r} != "
                      f"pairwise {value!r}")
    return value, errors


# ---------------------------------------------------------------------------
# evaluate


def check_eval(metrics: dict, score_rows, n_expected: int) -> list:
    errors = []
    if len(score_rows) != n_expected or metrics.get("n_test") != n_expected:
        errors.append(f"scored {len(score_rows)} windows (n_test {metrics.get('n_test')}), "
                      f"split holds {n_expected}")
    for view, (scores, labels) in _views(score_rows).items():
        value = pairwise_auroc(scores, labels)
        point = metrics[f"auroc_{view}"]
        if abs(value - point) > EXACT_TOL:
            errors.append(f"{view} AUROC {point!r} != pairwise {value!r}")
        lower, upper = metrics[f"ci_{view}"]
        if not lower <= point <= upper:
            errors.append(f"{view} CI [{lower!r}, {upper!r}] does not hold {point!r}")
    return errors


def check_same_cis(metrics: dict, first: dict) -> list:
    return [f"{key} {metrics[key]!r} differs from the first cycle's {first[key]!r}"
            for key in ("ci_unfiltered", "ci_filtered") if metrics[key] != first[key]]


def check_report(doc: dict) -> list:
    want = [j for j, row in enumerate(doc["prototypes"])
            if row["max_off_class"] > row["max_on_class"]]
    if doc["flagged"] != want:
        return [f"flagged {doc['flagged']} but rows say {want}"]
    return []


def check_push_records(records, votes_of: dict, train_ids) -> list:
    errors = []
    for rec in records:
        sid, cls = rec["source_sample_id"], rec["prototype_class"]
        if sid not in train_ids or votes_of[sid] != cls:
            errors.append(f"push record of class {cls} cites window {sid}, "
                          "not a training window of that class")
        if not rec["similarity"] <= 1.0 + EXACT_TOL:
            errors.append(f"push similarity {rec['similarity']!r} above 1")
    return errors


# ---------------------------------------------------------------------------
# review


def report_files(out_dir: Path, sample_id: int) -> dict:
    return {kind: out_dir / f"explain_{sample_id}.{kind}" for kind in ("json", "svg", "txt")}


def check_report_files(paths: dict) -> tuple:
    """(parsed JSON or None, errors)."""
    errors = [f"missing report file {p.name}" for p in paths.values() if not p.is_file()]
    if errors:
        return None, errors
    try:
        return json.loads(paths["json"].read_text("utf-8")), []
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        return None, [f"{paths['json'].name} does not parse: {exc}"]


def check_explanation(doc: dict, model, window, votes_of: dict, train_ids) -> list:
    """Points recomputed from the model sum to each logit; rows and sources agree."""
    errors = []
    head = np.asarray(model.head.data)
    per_class = model.bank.per_class
    sims = np.asarray(model.bank.vectors.data) @ np.asarray(model.embed(window).data)
    probs = doc["probabilities"]
    if abs(math.fsum(probs) - 1.0) > EXACT_TOL:
        errors.append(f"probabilities sum to {math.fsum(probs)!r}")
    if doc["predicted_class"] != int(np.argmax(probs)):
        errors.append(f"predicted class {doc['predicted_class']} is not the argmax")
    for section in doc["sections"]:
        k = section["class_id"]
        total = math.fsum(head[k, j] * sims[j] for j in range(head.shape[1]))
        if abs(total - section["logit"]) > EXACT_TOL:
            errors.append(f"class {k}: points sum to {total!r}, logit {section['logit']!r}")
        for row in section["rows"]:
            j = row["prototype_class"] * per_class + row["prototype_index"]
            if abs(row["points"] - head[k, j] * sims[j]) > EXACT_TOL:
                errors.append(f"class {k} prototype {j}: points {row['points']!r} != "
                              f"{head[k, j] * sims[j]!r}")
            sid = row["source_sample_id"]
            if sid not in train_ids or votes_of[sid] != row["prototype_class"]:
                errors.append(f"prototype {j} cites window {sid}, not a training "
                              f"window of class {row['prototype_class']}")
    return errors


def tone_amplitude(signal, fs: float, freq: float) -> float:
    """Least-squares amplitude of one sinusoid in a 1-d signal."""
    t = np.arange(len(signal)) / fs
    basis = np.stack([np.sin(2 * np.pi * freq * t), np.cos(2 * np.pi * freq * t),
                      np.ones_like(t)], axis=1)
    coef, *_ = np.linalg.lstsq(basis, signal, rcond=None)
    return float(np.hypot(coef[0], coef[1]))


def check_notch(raw, filtered, fs: float) -> list:
    """60 Hz line noise loses >= 20 dB while a 10 Hz rhythm keeps within 1 dB
    (steady state: the second half of a long probe)."""
    half = len(raw) // 2
    errors = []
    for freq, lo, hi in ((60.0, None, -20.0), (10.0, -1.0, 1.0)):
        gain = 20 * math.log10(tone_amplitude(filtered[half:], fs, freq)
                               / tone_amplitude(raw[half:], fs, freq))
        if (lo is not None and gain < lo) or gain > hi:
            errors.append(f"preprocessing gain at {freq:g} Hz is {gain:.2f} dB")
    return errors
