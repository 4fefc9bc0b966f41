"""Case-based explanation reports: this EEG looks like that EEG.

Every explanation is a complete accounting — similarity times class
connection summed over all prototypes reproduces the class logit with no
remainder — rendered as JSON, a plain-text table, and an SVG that lays the
query window next to the training windows its prototypes came from.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .container import write_atomic, write_json
from .dataset import require_class_coverage, rows_of
from .errors import ConfigurationError, NumericError, ProvenanceError
from .evaluation import POSITIVE_VOTE_THRESHOLD, binary_scores
from .model import ProtoEEGNet, own_prototypes, points_contributed


def _fmt(x: float) -> str:
    """Canonical number formatting shared by every output surface."""
    return format(float(x), ".12g")


@dataclass(frozen=True)
class PrototypeRow:
    prototype_class: int
    prototype_index: int
    similarity: float
    class_connection: float
    points: float
    source_sample_id: int


@dataclass(frozen=True)
class ClassSection:
    class_id: int
    probability: float
    logit: float
    residual: float
    rows: tuple


@dataclass(frozen=True)
class Explanation:
    sample_id: int
    predicted_class: int
    probabilities: tuple
    binary: dict | None  # p_pos, p_neg, label; None unless the head covers the nine vote classes
    sections: tuple  # predicted class first, then by descending probability


def _require_provenance(model: ProtoEEGNet) -> None:
    if any(rec is None for rec in model.bank.provenance):
        raise ProvenanceError(
            "prototypes have no push provenance; run push_prototypes (or "
            "train through a push epoch) before requesting explanations")


def explain(model: ProtoEEGNet, sample, top_k: int = 3) -> Explanation:
    """Full per-prototype accounting for one sample: a row of a dataset
    record array, with its ``sample_id``, ``votes`` and ``values``.

    Sections cover every class — the predicted one first, the rest by
    descending probability — each keeping its top_k rows by absolute
    points contributed.
    """
    if not isinstance(top_k, (int, np.integer)) or top_k < 1:
        raise ConfigurationError(f"top_k must be a positive integer, got {top_k!r}")
    _require_provenance(model)

    out = model.forward_probs(sample.values)
    sims = out["similarities"]
    logits = out["logits"]
    probs = out["probabilities"]
    predicted = int(np.argmax(probs))
    points = points_contributed(sims, model.head.data)  # (num_classes, count)

    bank = model.bank
    sections = []
    # descending probability, ties to the smaller class: the predicted
    # class, the first maximum, comes first
    for k in np.argsort(-probs, kind="stable").tolist():
        residual = float(logits[k]) - float(np.sum(points[k]))
        if abs(residual) > 1e-12:
            raise NumericError(
                f"class {k} logit fails completeness: residual {residual!r}")
        # descending |points|, ties to the smaller prototype index
        ranked = np.argsort(-np.abs(points[k]), kind="stable")[:top_k].tolist()
        rows = tuple(
            PrototypeRow(
                *divmod(j, bank.per_class),
                similarity=float(sims[j]),
                class_connection=float(model.head.data[k, j]),
                points=float(points[k, j]),
                source_sample_id=bank.provenance[j].source_sample_id)
            for j in ranked)
        sections.append(ClassSection(class_id=k, probability=float(probs[k]),
                                     logit=float(logits[k]),
                                     residual=residual, rows=rows))

    binary = None
    if probs.shape == (9,):  # the vote-scale reduction needs all nine classes
        p_pos = float(binary_scores(probs[None])[0])
        binary = {"p_pos": p_pos, "p_neg": 1.0 - p_pos,
                  "label": int(sample.votes >= POSITIVE_VOTE_THRESHOLD)}
    return Explanation(sample_id=int(sample.sample_id),
                       predicted_class=predicted,
                       probabilities=tuple(float(p) for p in probs),
                       binary=binary, sections=tuple(sections))


# ---------------------------------------------------------------------------
# rendering


def _trace_polylines(values, x0, y0, width, height, color) -> list:
    """One polyline per channel, vertically stacked, amplitude-normalized."""
    values = np.asarray(values, dtype=np.float64)
    n_t, n_c = values.shape
    step = height / n_c
    amp = np.max(np.abs(values)) or 1.0
    xs = x0 + np.arange(n_t) * (width / (n_t - 1))
    points = " ".join(f"{x:.1f},%.1f" for x in xs.tolist())  # only the y values vary
    ys = y0 + (np.arange(n_c) + 0.5) * step - values / amp * (step * 1.3)
    return [f'<polyline fill="none" stroke="{color}" '
            f'stroke-width="0.6" points="{points % tuple(column)}"/>'
            for column in ys.T.tolist()]


def _svg_report(explanation: Explanation, query_values, sources) -> str:
    """Hand-built SVG: query window beside each top prototype's source."""
    rows = explanation.sections[0].rows
    panel_w, panel_h, gutter, margin = 420, 230, 40, 20
    header_h = 64
    row_h = panel_h + 42
    width = margin * 2 + panel_w * 2 + gutter
    height = header_h + row_h * len(rows) + margin

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" viewBox="0 0 {width} {height}">',
           f'<rect width="{width}" height="{height}" fill="white"/>',
           f'<text x="{margin}" y="28" font-family="monospace" font-size="16" '
           f'fill="#222">sample {explanation.sample_id} — predicted class '
           f'{explanation.predicted_class} '
           f'(p={_fmt(explanation.sections[0].probability)})</text>']
    if explanation.binary is not None:
        out.append(f'<text x="{margin}" y="50" font-family="monospace" '
                   f'font-size="13" fill="#222">'
                   f'p_pos={_fmt(explanation.binary["p_pos"])} '
                   f'p_neg={_fmt(explanation.binary["p_neg"])}</text>')

    for i, row in enumerate(rows):
        top = header_h + i * row_h
        src = sources[row.source_sample_id]
        out.append(f'<text x="{margin}" y="{top + 14}" font-family="monospace" '
                   f'font-size="12" fill="#222">query vs prototype '
                   f'({row.prototype_class},{row.prototype_index}) — '
                   f'similarity {_fmt(row.similarity)} · '
                   f'weight {_fmt(row.class_connection)} · '
                   f'points {_fmt(row.points)} · '
                   f'source {row.source_sample_id}</text>')
        out.extend(_trace_polylines(query_values, margin, top + 24,
                                    panel_w, panel_h, "#1f77b4"))
        out.extend(_trace_polylines(src, margin + panel_w + gutter, top + 24,
                                    panel_w, panel_h, "#d62728"))
    out.append("</svg>")
    return "\n".join(out)


def _text_report(explanation: Explanation) -> str:
    lines = [f"sample {explanation.sample_id}  "
             f"predicted class {explanation.predicted_class}"]
    if explanation.binary is not None:
        lines.append(f"binary: p_pos={_fmt(explanation.binary['p_pos'])} "
                     f"p_neg={_fmt(explanation.binary['p_neg'])} "
                     f"label={explanation.binary['label']}")
    lines.append("")
    for section in explanation.sections:
        lines.append(f"class {section.class_id}  "
                     f"p={_fmt(section.probability)}  "
                     f"logit={_fmt(section.logit)}  "
                     f"residual={_fmt(section.residual)}")
        lines.append(f"  {'rank':>4}  {'prototype':<10}  {'similarity':>18}  "
                     f"{'weight':>18}  {'points':>18}  {'source':>8}")
        for rank, row in enumerate(section.rows, start=1):
            proto = f"({row.prototype_class},{row.prototype_index})"
            lines.append(f"  {rank:>4}  {proto:<10}  "
                         f"{_fmt(row.similarity):>18}  "
                         f"{_fmt(row.class_connection):>18}  "
                         f"{_fmt(row.points):>18}  "
                         f"{row.source_sample_id:>8}")
        lines.append("")
    return "\n".join(lines)


def render_report(explanation: Explanation, dataset, out_dir) -> dict:
    """Write explain_<id>.{json,svg,txt} into out_dir; returns the paths.

    `dataset` is a dataset record array; it must hold the query window and
    every source window of the predicted class's rows, or MissingSampleError
    names the first absent id, the query's before the sources'.
    """
    ids = [explanation.sample_id,
           *sorted({row.source_sample_id for row in explanation.sections[0].rows})]
    index = dict(zip(ids, dataset[rows_of(dataset, ids)].values))

    stem = f"explain_{explanation.sample_id}"
    paths = {kind: Path(out_dir) / f"{stem}.{kind}" for kind in ("json", "svg", "txt")}
    write_json(paths["json"], asdict(explanation))
    write_atomic(paths["svg"],
                 _svg_report(explanation, index[explanation.sample_id], index) + "\n")
    write_atomic(paths["txt"], _text_report(explanation) + "\n")
    return paths


# ---------------------------------------------------------------------------
# prototype-quality audit


def global_prototype_report(model: ProtoEEGNet, train) -> dict:
    """Per-prototype similarity audit over the `train` windows, a dataset
    record array.

    Flags prototypes that resemble some off-class sample more than any
    sample of their own class.
    """
    _require_provenance(model)
    bank = model.bank
    require_class_coverage(train, bank.num_classes, "to audit against")

    sims = model.forward_probs(train.values)["similarities"]  # (n, count)
    own = own_prototypes(train.votes, bank)
    max_on = np.where(own, sims, -np.inf).max(axis=0)
    max_off = np.where(own, -np.inf, sims).max(axis=0)  # -inf with no off-class row
    flagged = max_off > max_on
    rows = []
    for j, rec in enumerate(bank.provenance):
        c, i = divmod(j, bank.per_class)
        rows.append({
            "prototype_class": c,
            "prototype_index": i,
            "source_sample_id": rec.source_sample_id,
            "push_similarity": rec.similarity,
            "push_epoch": rec.epoch,
            # a 1-d mean per prototype: a masked sum over axis 0 adds in
            # another order and rounds differently
            "mean_on_class": float(sims[own[:, j], j].mean()),
            "max_on_class": float(max_on[j]),
            "max_off_class": float(max_off[j]),
            "flagged": bool(flagged[j]),
        })
    return {"prototypes": rows, "flagged": np.flatnonzero(flagged).tolist()}
