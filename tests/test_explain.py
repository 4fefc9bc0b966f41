"""Explanation accounting, report rendering, and the prototype audit."""

import copy
import json
import xml.etree.ElementTree as ET
from dataclasses import asdict

import numpy as np
import pytest

from conftest import train_data
from protoeeg import explain as ex
from protoeeg import model as m
from protoeeg import training as tr
from protoeeg.dataset import make_windows
from protoeeg.errors import (ConfigurationError, MissingSampleError,
                             ProvenanceError)

TOY_ARCH = m.BackboneConfig(
    blocks=(m.ConvBlock(4, (29, 17), (11, 10)), m.ConvBlock(8, (10, 3), (1, 1))),
    latent_dim=8)


def toy_windows(n_per_class=6, num_classes=9, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(128) / 128.0
    values, labels = [], []
    for c in range(num_classes):
        tone = np.sin(2 * np.pi * (2.0 + 3.0 * c) * t)[:, None]
        emphasis = np.ones(37)
        emphasis[c * 4:(c + 1) * 4] = 2.5
        for _ in range(n_per_class):
            w = tone * emphasis[None, :] + 0.05 * rng.standard_normal((128, 37))
            values.append(w)
            labels.append(c)
    return np.asarray(values), np.asarray(labels, dtype=np.int64)


@pytest.fixture(scope="module")
def pushed():
    values, labels = toy_windows()
    samples, val = train_data(values, labels)
    net = m.ProtoEEGNet.initialize(config=TOY_ARCH, seed=31, num_classes=9,
                                   per_class=2)
    cfg = tr.TrainConfig(num_train_epochs=4, num_warm_epochs=4,
                         num_secondary_warm_epochs=0, push_start=0,
                         push_epochs=(4,), batch_size=8, seed=2)
    tr.run_warm_stage(net, samples, val, cfg)
    records, _ = tr.push_prototypes(net, samples, epoch=4)
    return net, samples, records


class TestExplain:
    def test_requires_push_provenance(self):
        net = m.ProtoEEGNet.initialize(config=TOY_ARCH, seed=1, num_classes=4,
                                       per_class=2)
        sample = make_windows([0], [1], np.zeros((1, 128, 37)) + 0.5)[0]
        with pytest.raises(ProvenanceError, match="push"):
            ex.explain(net, sample)

    def test_push_source_scores_similarity_one(self, pushed):
        net, samples, records = pushed
        rec = records[0]
        sample = next(s for s in samples if s.sample_id == rec.source_sample_id)
        result = ex.explain(net, sample, top_k=net.bank.count)
        section = next(s for s in result.sections
                       if s.class_id == rec.prototype_class)
        row = next(r for r in section.rows
                   if (r.prototype_class, r.prototype_index)
                   == (rec.prototype_class, rec.prototype_index))
        assert abs(row.similarity - 1.0) <= 1e-9
        assert row.source_sample_id == sample.sample_id

    def test_completeness_residual_is_zero(self, pushed):
        net, samples, _ = pushed
        for sample in samples[:12]:
            result = ex.explain(net, sample, top_k=net.bank.count)
            for section in result.sections:
                assert section.residual == 0.0
                total = sum(r.points for r in section.rows)
                assert abs(total - section.logit) <= 1e-12

    def test_rows_sorted_by_absolute_points(self, pushed):
        net, samples, _ = pushed
        result = ex.explain(net, samples[3], top_k=net.bank.count)
        for section in result.sections:
            mags = [abs(r.points) for r in section.rows]
            assert mags == sorted(mags, reverse=True)
        top = result.sections[0].rows[0]
        assert abs(top.points) == max(abs(r.points)
                                      for r in result.sections[0].rows)

    def test_points_is_exact_product(self, pushed):
        net, samples, _ = pushed
        result = ex.explain(net, samples[5], top_k=4)
        for section in result.sections:
            for row in section.rows:
                assert row.points == row.similarity * row.class_connection

    def test_section_ordering(self, pushed):
        net, samples, _ = pushed
        result = ex.explain(net, samples[7])
        assert result.sections[0].class_id == result.predicted_class
        rest = [s.probability for s in result.sections[1:]]
        assert rest == sorted(rest, reverse=True)
        assert len(result.sections) == net.bank.num_classes

    def test_top_k_limits_rows(self, pushed):
        net, samples, _ = pushed
        assert all(len(s.rows) == 2
                   for s in ex.explain(net, samples[0], top_k=2).sections)
        assert all(len(s.rows) == net.bank.count
                   for s in ex.explain(net, samples[0], top_k=99).sections)
        with pytest.raises(ConfigurationError):
            ex.explain(net, samples[0], top_k=0)

    def test_equal_points_rank_by_prototype_index(self, pushed):
        net, samples, _ = pushed
        net = copy.deepcopy(net)
        net.head.data[~m.own_class_mask(9, 2)] = 0.0  # every off-class row ties at 0
        result = ex.explain(net, samples[3], top_k=net.bank.count)
        for section in result.sections:
            ranked = [(abs(r.points), r.prototype_class * 2 + r.prototype_index)
                      for r in section.rows]
            assert [mag for mag, _ in ranked].count(0.0) == net.bank.count - 2
            assert ranked == sorted(ranked, key=lambda pair: (-pair[0], pair[1]))

    def test_sources_belong_to_prototype_class(self, pushed):
        net, samples, _ = pushed
        label_of = {int(i): int(l) for i, l in zip(samples.sample_id, samples.votes)}
        result = ex.explain(net, samples[9], top_k=net.bank.count)
        for section in result.sections:
            for row in section.rows:
                assert label_of[row.source_sample_id] == row.prototype_class

    def test_json_roundtrip(self, pushed):
        net, samples, _ = pushed
        result = ex.explain(net, samples[2])
        blob = json.dumps(asdict(result), sort_keys=True)
        parsed = json.loads(blob)
        assert parsed["sample_id"] == samples[2].sample_id
        assert parsed["predicted_class"] == result.predicted_class
        assert len(parsed["probabilities"]) == 9
        assert abs(parsed["binary"]["p_pos"] + parsed["binary"]["p_neg"] - 1.0) \
            <= 1e-12

    def test_binary_score_needs_nine_classes(self):
        values, labels = toy_windows(n_per_class=4, num_classes=4)
        train, _ = train_data(values, labels)
        net = m.ProtoEEGNet.initialize(config=TOY_ARCH, seed=2, num_classes=4,
                                       per_class=2)
        tr.push_prototypes(net, train, epoch=1)
        result = ex.explain(net, train[0])
        assert result.binary is None
        assert asdict(result)["binary"] is None


class TestRenderReport:
    def test_files_and_names(self, pushed, tmp_path):
        net, samples, _ = pushed
        result = ex.explain(net, samples[4])
        paths = ex.render_report(result, samples, tmp_path)
        sid = samples[4].sample_id
        for kind in ("json", "svg", "txt"):
            assert paths[kind].name == f"explain_{sid}.{kind}"
            assert paths[kind].exists()

    def test_svg_is_well_formed(self, pushed, tmp_path):
        net, samples, _ = pushed
        result = ex.explain(net, samples[4])
        paths = ex.render_report(result, samples, tmp_path)
        root = ET.fromstring(paths["svg"].read_text())
        assert root.tag.endswith("svg")

    def test_rendered_numbers_match_explanation(self, pushed, tmp_path):
        net, samples, _ = pushed
        result = ex.explain(net, samples[6])
        paths = ex.render_report(result, samples, tmp_path)
        svg = paths["svg"].read_text()
        txt = paths["txt"].read_text()
        for row in result.sections[0].rows:
            for value in (row.similarity, row.class_connection, row.points):
                token = format(value, ".12g")
                assert token in svg
                assert token in txt
        for section in result.sections:  # text table carries every section
            assert format(section.logit, ".12g") in txt

    def test_deterministic_bytes(self, pushed, tmp_path):
        net, samples, _ = pushed
        result = ex.explain(net, samples[1])
        first = ex.render_report(result, samples, tmp_path / "a")
        second = ex.render_report(result, samples, tmp_path / "b")
        for kind in ("json", "svg", "txt"):
            assert first[kind].read_bytes() == second[kind].read_bytes()

    def test_trace_points_match_per_point_format(self, rng):
        def per_point(values, x0, y0, width, height, color):
            n_t, n_c = values.shape
            step = height / n_c
            amp = np.max(np.abs(values)) or 1.0
            xs = x0 + np.arange(n_t) * (width / (n_t - 1))
            parts = []
            for c in range(n_c):
                ys = y0 + (c + 0.5) * step - values[:, c] / amp * (step * 1.3)
                pts = " ".join(f"{x:.1f},{y:.1f}" for x, y in zip(xs, ys))
                parts.append(f'<polyline fill="none" stroke="{color}" '
                             f'stroke-width="0.6" points="{pts}"/>')
            return parts

        windows = [rng.standard_normal((128, 37)) * 10.0 ** rng.uniform(-3, 3)
                   for _ in range(20)]
        windows.append(np.zeros((128, 37)))
        for values in windows:
            args = (values, 20, 88, 420, 230, "#1f77b4")
            assert ex._trace_polylines(*args) == per_point(*args)
        # x0 = -0.04 and the first channel's centre line at y = -0.03 print
        # as "-0.0" both ways
        args = (np.zeros((4, 2)), -0.04, -0.055, 0.09, 0.1, "#d62728")
        lines = ex._trace_polylines(*args)
        assert lines == per_point(*args)
        assert "-0.0,-0.0" in lines[0]

    def test_trace_points_match_the_per_channel_format(self, rng):
        def per_channel(values, x0, y0, width, height, color):
            n_t, n_c = values.shape
            step = height / n_c
            amp = np.max(np.abs(values)) or 1.0
            xs = x0 + np.arange(n_t) * (width / (n_t - 1))
            points = " ".join(["%.1f,%.1f"] * n_t)
            parts = []
            for c in range(n_c):
                ys = y0 + (c + 0.5) * step - values[:, c] / amp * (step * 1.3)
                pts = points % tuple(np.column_stack((xs, ys)).ravel().tolist())
                parts.append(f'<polyline fill="none" stroke="{color}" '
                             f'stroke-width="0.6" points="{pts}"/>')
            return parts

        windows = [rng.standard_normal((128, 37)) * 10.0 ** rng.uniform(-3, 3)
                   for _ in range(20)]
        windows.append(np.zeros((128, 37)))
        for values in windows:
            for x0, y0 in ((20, 88), (480, 360), (-0.04, -0.055)):
                args = (values, x0, y0, 420, 230, "#1f77b4")
                assert ex._trace_polylines(*args) == per_channel(*args)
        args = (np.zeros((4, 2)), -0.04, -0.055, 0.09, 0.1, "#d62728")
        assert ex._trace_polylines(*args) == per_channel(*args)

    def test_missing_source_rejected(self, pushed, tmp_path):
        net, samples, _ = pushed
        result = ex.explain(net, samples[4])
        needed = {r.source_sample_id for r in result.sections[0].rows}
        pruned = samples[~np.isin(samples.sample_id, list(needed))]
        with pytest.raises(MissingSampleError):
            ex.render_report(result, pruned, tmp_path)

    def test_missing_query_rejected(self, pushed, tmp_path):
        net, samples, _ = pushed
        result = ex.explain(net, samples[4])
        pruned = samples[samples.sample_id != samples[4].sample_id]
        with pytest.raises(MissingSampleError,
                           match=str(samples[4].sample_id)):
            ex.render_report(result, pruned, tmp_path)


def brute_force_report(net, train) -> dict:
    """The audit one prototype at a time, with per-prototype row masks."""
    sims = net.forward_probs(train.values)["similarities"]
    per = net.bank.per_class
    rows = []
    for j, rec in enumerate(net.bank.provenance):
        on = sims[train.votes == j // per, j]
        off = sims[train.votes != j // per, j]
        max_off = float(off.max()) if off.size else -np.inf
        rows.append({"prototype_class": j // per, "prototype_index": j % per,
                     "source_sample_id": rec.source_sample_id,
                     "push_similarity": rec.similarity, "push_epoch": rec.epoch,
                     "mean_on_class": float(on.mean()), "max_on_class": float(on.max()),
                     "max_off_class": max_off, "flagged": bool(max_off > on.max())})
    return {"prototypes": rows,
            "flagged": [j for j, row in enumerate(rows) if row["flagged"]]}


class TestGlobalPrototypeReport:
    def test_equals_brute_force(self, pushed):
        net, samples, _ = pushed
        assert ex.global_prototype_report(net, samples) == brute_force_report(net, samples)

    def test_flags_equal_brute_force(self, pushed):
        net, samples, _ = pushed
        net = copy.deepcopy(net)
        latents = net.forward_probs(samples.values)["latents"]
        # prototypes 0 and 7 (classes 0 and 3) take a class-5 window's latent
        net.bank.vectors.data[[0, 7]] = latents[samples.votes == 5][:2]
        report = ex.global_prototype_report(net, samples)
        assert report["flagged"] == [0, 7]
        assert report == brute_force_report(net, samples)

    def test_votes_past_the_last_class_are_off_class(self):
        values, labels = toy_windows(n_per_class=3, num_classes=6)
        train, _ = train_data(values, labels)
        net = m.ProtoEEGNet.initialize(config=TOY_ARCH, seed=2, num_classes=4,
                                       per_class=2)
        tr.push_prototypes(net, train, epoch=1)
        report = ex.global_prototype_report(net, train)
        assert report == brute_force_report(net, train)

    def test_requires_push(self, pushed):
        _, samples, _ = pushed
        fresh = m.ProtoEEGNet.initialize(config=TOY_ARCH, seed=5,
                                         num_classes=4, per_class=2)
        with pytest.raises(ProvenanceError):
            ex.global_prototype_report(fresh, samples)

    def test_rows_and_push_similarities(self, pushed):
        net, samples, _ = pushed
        report = ex.global_prototype_report(net, samples)
        assert len(report["prototypes"]) == net.bank.count
        for row in report["prototypes"]:
            assert abs(row["max_on_class"] - 1.0) <= 1e-9  # just pushed
            assert row["mean_on_class"] <= row["max_on_class"]
            assert row["source_sample_id"] >= 0

    def test_no_flags_on_separable_toy(self, pushed):
        net, samples, _ = pushed
        report = ex.global_prototype_report(net, samples)
        assert report["flagged"] == []
        assert all(not row["flagged"] for row in report["prototypes"])
