"""Release gate: one test per numbered acceptance check.

`pytest -v tests/test_acceptance.py` prints a pass/fail line per
criterion.  The 2000-sample training run is shared between the
end-to-end check (08) and the explanation audit (09) via a module
fixture; everything else is self-contained.
"""

import hashlib
import inspect
import json
import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from conftest import assert_grad_matches, gradcheck
from protoeeg import cli
from protoeeg import diffcore as dc
from protoeeg import model as m
from protoeeg import sigproc
from protoeeg import training as tr
from protoeeg.dataset import SynthConfig, generate_synthetic, load, split_windows
from protoeeg.diffcore import Tensor
from protoeeg.evaluation import (auroc, bootstrap_ci, metrics_from_scores,
                                 score_samples)
from protoeeg.explain import explain
from protoeeg.losses import LossCoefficients, l1_offclass, total_loss

TOY_BLOCKS = (m.ConvBlock(4, (29, 17), (11, 10)), m.ConvBlock(8, (10, 3), (1, 1)))
TOY_ARCH = m.BackboneConfig(blocks=TOY_BLOCKS, latent_dim=8)


def toy_model(seed=7, num_classes=4, per_class=2):
    return m.ProtoEEGNet.initialize(config=TOY_ARCH, seed=seed,
                                    num_classes=num_classes,
                                    per_class=per_class)


# ---------------------------------------------------------------------------
# 01: finite-difference gradient suite


def _signed_away(rng, shape, low=0.2, high=1.5):
    """Random values bounded away from zero (|x| kinks, norm floors)."""
    return rng.uniform(low, high, shape) * rng.choice([-1.0, 1.0], shape)


def _weighted_sum(out: Tensor, w: Tensor) -> Tensor:
    return dc.tsum(dc.mul(out, w))


def _op_instances():
    """(name, builder) pairs; builder(rng) -> (params, build_loss)."""

    def pair(shape_b=None):
        def build(rng):
            a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
            b = Tensor(rng.standard_normal(shape_b or (3, 4)), requires_grad=True)
            w = Tensor(rng.standard_normal((3, 4)))
            return [a, b], lambda op: lambda ps: _weighted_sum(op(ps[0], ps[1]), w)
        return build

    def unary(shape=(3, 4), gen=None):
        def build(rng):
            data = gen(rng, shape) if gen else rng.standard_normal(shape)
            a = Tensor(data, requires_grad=True)
            w = Tensor(rng.standard_normal(shape))
            return [a], lambda op: lambda ps: _weighted_sum(op(ps[0]), w)
        return build

    def add_b(rng):
        params, mk = pair((1, 4))(rng) if rng.random() < 0.5 else pair()(rng)
        return params, mk(dc.add)

    def sub_b(rng):
        params, mk = pair((1, 4))(rng) if rng.random() < 0.5 else pair()(rng)
        return params, mk(dc.sub)

    def mul_b(rng):
        params, mk = pair()(rng)
        return params, mk(dc.mul)

    def neg_b(rng):
        params, mk = unary()(rng)
        return params, mk(dc.neg)

    def abs_b(rng):
        params, mk = unary(gen=_signed_away)(rng)
        return params, mk(dc.absolute)

    def reshape_b(rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 6)))
        return [a], lambda ps: _weighted_sum(dc.reshape(ps[0], (2, 6)), w)

    def tsum_b(rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        return [a], lambda ps: dc.tsum(ps[0])

    def tmean_b(rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        return [a], lambda ps: dc.tmean(ps[0])

    def linear_b(rng):
        rows = 5 if rng.random() < 0.5 else 1  # a batch, or a batch of one
        x = Tensor(rng.standard_normal((rows, 4)), requires_grad=True)
        wgt = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((rows, 3)))
        return [x, wgt], lambda ps: _weighted_sum(dc.linear(ps[0], ps[1]), w)

    def elu_b(rng):
        params, mk = unary(gen=_signed_away)(rng)
        return params, mk(dc.elu)

    def layer_norm_b(rng):
        x = Tensor(rng.standard_normal((2, 3, 4, 5)), requires_grad=True)
        gain = Tensor(rng.uniform(0.5, 1.5, (3, 1, 1)), requires_grad=True)
        bias = Tensor(rng.standard_normal((3, 1, 1)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 3, 4, 5)))
        return [x, gain, bias], lambda ps: _weighted_sum(
            dc.layer_norm(ps[0], ps[1], ps[2]), w)

    def conv_b(rng):
        stride = [(1, 1), (2, 1), (1, 2), (2, 2)][int(rng.integers(4))]
        x = Tensor(rng.standard_normal((2, 2, 6, 5)), requires_grad=True)
        k = Tensor(rng.standard_normal((3, 2, 2, 2)), requires_grad=True)
        oh = (6 - 2) // stride[0] + 1
        ow = (5 - 2) // stride[1] + 1
        w = Tensor(rng.standard_normal((2, 3, oh, ow)))
        return [x, k], lambda ps: _weighted_sum(
            dc.conv2d_valid(ps[0], ps[1], stride=stride), w)

    def l2_normalize_b(rng):
        shape = (1, 5) if rng.random() < 0.5 else (3, 4)  # a batch of one, or more
        v = Tensor(_signed_away(rng, shape), requires_grad=True)
        w = Tensor(rng.standard_normal(shape))
        return [v], lambda ps: _weighted_sum(dc.l2_normalize(ps[0]), w)

    def cross_entropy_b(rng):
        # the fused op: log-sum-exp forward, (softmax - onehot)/n backward
        q = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        labels = rng.integers(0, 5, 4)
        return [q], lambda ps: dc.cross_entropy(ps[0], labels)

    def masked_rowmax_b(rng):
        x = rng.uniform(0.0, 1.0, (4, 6))
        mask = rng.random((4, 6)) < 0.5
        for i in range(4):
            j = int(rng.integers(6))
            mask[i, j] = True
            x[i, j] += 1.5  # unique in-mask max, gap far above the FD step
        xt = Tensor(x, requires_grad=True)
        w = Tensor(rng.standard_normal(4))
        return [xt], lambda ps: _weighted_sum(dc.masked_rowmax(ps[0], mask), w)

    return [
        ("add", add_b), ("sub", sub_b), ("mul", mul_b), ("neg", neg_b),
        ("absolute", abs_b), ("reshape", reshape_b), ("tsum", tsum_b),
        ("tmean", tmean_b), ("linear", linear_b), ("elu", elu_b),
        ("layer_norm", layer_norm_b), ("conv2d_valid", conv_b),
        ("l2_normalize", l2_normalize_b), ("cross_entropy", cross_entropy_b),
        ("masked_rowmax", masked_rowmax_b),
    ]


def test_gradient_suite_covers_every_op():
    """Every public diffcore function that returns a Tensor is an op, and
    criterion 1 gradchecks each one."""
    ops = {name for name, fn in inspect.getmembers(dc, inspect.isfunction)
           if fn.__module__ == dc.__name__ and not name.startswith("_")
           and fn.__annotations__.get("return") in ("Tensor", dc.Tensor)}
    assert ops == {name for name, _ in _op_instances()}


def _fd_at_coords(loss_fn, param: np.ndarray, coords, h=1e-5):
    flat = param.ravel()
    out = {}
    for i in coords:
        orig = flat[i]
        flat[i] = orig + h
        fp = loss_fn()
        flat[i] = orig - h
        fm = loss_fn()
        flat[i] = orig
        out[int(i)] = (fp - fm) / (2.0 * h)
    return out


def test_criterion_01_gradient_suite():
    t0 = time.monotonic()

    for op_idx, (name, builder) in enumerate(_op_instances()):
        for k in range(20):
            rng = np.random.default_rng(1000 * op_idx + k)
            params, build = builder(rng)
            try:
                gradcheck(build, params)
            except AssertionError as exc:
                raise AssertionError(f"{name} instance {k}: {exc}") from exc

    # full loss through the backbone, prototypes, and head
    coefs = LossCoefficients(crs_ent=1.25, clst=0.1, sep=0.2, ortho=0.5, l1=0.01)
    for k in range(20):
        rng = np.random.default_rng(50_000 + k)
        net = toy_model(seed=k, num_classes=3, per_class=2)
        net.head.data += 0.05 * rng.standard_normal(net.head.data.shape)
        x = rng.standard_normal((3, 128, 37))
        labels = rng.integers(0, 3, 3)

        def batch_loss():
            return total_loss(net.embed(x), labels, net.bank, net.head,
                              coefs).tensor

        for p in net.all_parameters():
            p.zero_grad()
        dc.backward(batch_loss())
        for p in net.all_parameters():
            n_coords = min(3, p.data.size)
            coords = rng.choice(p.data.size, size=n_coords, replace=False)
            numeric = _fd_at_coords(lambda: float(batch_loss().data),
                                    p.data, coords)
            analytic = p.grad.ravel()
            for i, num in numeric.items():
                assert_grad_matches(np.asarray(analytic[i]), np.asarray(num))

    assert time.monotonic() - t0 < 120.0


# ---------------------------------------------------------------------------
# 02: loss values against brute-force re-implementations


def _brute_force_terms(lat, labels, protos, head_w, num_classes, per_class):
    n = lat.shape[0]
    count = protos.shape[0]
    pclass = np.repeat(np.arange(num_classes), per_class)

    sims = np.empty((n, count))
    for i in range(n):
        for j in range(count):
            sims[i, j] = float(np.dot(lat[i], protos[j]))

    clst = -np.mean([max(sims[i, j] for j in range(count) if pclass[j] == labels[i])
                     for i in range(n)])
    sep = np.mean([max(sims[i, j] for j in range(count) if pclass[j] != labels[i])
                   for i in range(n)])

    orth = 0.0
    for c in range(num_classes):
        rows = protos[c * per_class:(c + 1) * per_class]
        g = rows @ rows.T - np.eye(per_class)
        orth += float(np.sum(g * g))

    l1 = sum(abs(head_w[c, j]) for c in range(num_classes) for j in range(count)
             if pclass[j] != c)

    ce = 0.0
    for i in range(n):
        z = sims[i] @ head_w.T
        z -= z.max()
        p = np.exp(z) / np.exp(z).sum()
        ce -= math.log(max(float(p[labels[i]]), 1e-12))
    ce /= n

    return {"cross_entropy": ce, "cluster": clst, "separation": sep,
            "orthogonality": orth, "l1": l1}


def test_criterion_02_loss_oracles():
    coefs = LossCoefficients(crs_ent=1.25, clst=0.1, sep=0.3, ortho=0.5, l1=0.01)
    for k in range(100):
        rng = np.random.default_rng(k)
        n = int(rng.integers(1, 17))
        lat = rng.standard_normal((n, 128))
        lat /= np.linalg.norm(lat, axis=1, keepdims=True)
        labels = rng.integers(0, 9, n)
        bank = m.init_prototypes(seed=k)
        head = m.init_head()
        head.data += 0.1 * rng.standard_normal(head.data.shape)

        report = total_loss(lat, labels, bank, head, coefs)
        want = _brute_force_terms(lat, labels, bank.vectors.data, head.data,
                                  bank.num_classes, bank.per_class)
        assert abs(report.cross_entropy - want["cross_entropy"]) <= 1e-10
        assert abs(report.cluster - want["cluster"]) <= 1e-10
        assert abs(report.separation - want["separation"]) <= 1e-10
        assert abs(report.orthogonality - want["orthogonality"]) <= 1e-10
        assert abs(report.l1 - want["l1"]) <= 1e-10
        want_total = (coefs.crs_ent * want["cross_entropy"]
                      + coefs.clst * want["cluster"]
                      + coefs.sep * want["separation"]
                      + coefs.ortho * want["orthogonality"]
                      + coefs.l1 * want["l1"])
        assert abs(report.total - want_total) <= 1e-10

    assert l1_offclass(m.init_head()).item() == 432.0


# ---------------------------------------------------------------------------
# 03: push postconditions on a 500-sample set


def test_criterion_03_push_postconditions():
    samples, _ = generate_synthetic(SynthConfig(n_samples=500, seed=3))
    labels = samples.votes
    assert np.bincount(labels, minlength=9).min() > 0

    net = m.ProtoEEGNet.initialize(seed=1)
    old_protos = net.bank.vectors.data.copy()
    z = net.forward_probs(samples.values)["latents"]
    records, _ = tr.push_prototypes(net, samples, epoch=7)

    protos = net.bank.vectors.data
    assert np.all(np.abs(np.linalg.norm(protos, axis=1) - 1.0) <= 1e-9)

    pclass = np.repeat(np.arange(9), 12)
    sims_old = z @ old_protos.T
    sims_new = z @ protos.T
    for j in range(net.bank.count):
        rows = np.nonzero(labels == pclass[j])[0]  # ascending sample_id
        winner = int(rows[int(np.argmax(sims_old[rows, j]))])
        rec = records[j]
        assert rec.source_sample_id == winner
        assert rec.prototype_class == pclass[j]
        assert labels[winner] == pclass[j]
        assert np.array_equal(protos[j], z[winner])
        assert net.bank.provenance[j] == rec
        assert sims_new[rows, j].max() >= 1.0 - 1e-9


# ---------------------------------------------------------------------------
# 04: convex last-layer stage against an independent solver


def _lbfgs_oracle(sims, labels, w0, per_class, lam):
    """Variable-split L1 problem solved with bound-constrained L-BFGS."""
    n, num_p = sims.shape
    k = w0.shape[0]
    pclass = np.repeat(np.arange(k), per_class)
    off = pclass[None, :] != np.arange(k)[:, None]

    def objective(w):
        logits = sims @ w.T
        mx = logits.max(axis=1, keepdims=True)
        lse = mx[:, 0] + np.log(np.exp(logits - mx).sum(axis=1))
        ce = float(np.mean(lse - logits[np.arange(n), labels]))
        return ce + lam * float(np.abs(w[off]).sum())

    def fun(x):
        a = x[:k * num_p].reshape(k, num_p)
        b = x[k * num_p:].reshape(k, num_p)
        w = a - b
        logits = sims @ w.T
        mx = logits.max(axis=1, keepdims=True)
        probs = np.exp(logits - mx)
        probs /= probs.sum(axis=1, keepdims=True)
        lse = mx[:, 0] + np.log(np.exp(logits - mx).sum(axis=1))
        ce = np.mean(lse - logits[np.arange(n), labels])
        probs[np.arange(n), labels] -= 1.0
        gw = probs.T @ sims / n
        value = ce + lam * float((a + b)[off].sum())
        return value, np.concatenate([(gw + lam * off).ravel(),
                                      (-gw + lam * off).ravel()])

    x0 = np.concatenate([np.maximum(w0, 0.0).ravel(),
                         np.maximum(-w0, 0.0).ravel()])
    res = minimize(fun, x0, jac=True, method="L-BFGS-B",
                   bounds=[(0.0, None)] * (2 * k * num_p),
                   options={"maxiter": 20000, "ftol": 1e-16, "gtol": 1e-12})
    a = res.x[:k * num_p].reshape(k, num_p)
    b = res.x[k * num_p:].reshape(k, num_p)
    return objective(a - b)


def test_criterion_04_convex_stage():
    rng = np.random.default_rng(2)
    values = rng.standard_normal((60, 128, 37))
    labels = rng.integers(0, 4, 60)

    net = toy_model(seed=3)
    latents = net.forward_probs(values)["latents"]
    sims = latents @ net.bank.vectors.data.T
    before = [t.data.copy() for t in net.backbone_parameters()]

    net, info = tr.optimize_last_layer(net, latents, labels, l1_coef=0.01,
                                       max_iters=20000, tol=1e-14)
    trace = np.asarray(info["trace"])
    assert np.all(np.diff(trace) <= 0.0)
    for t, b in zip(net.backbone_parameters(), before):
        assert np.array_equal(t.data, b)

    oracle = _lbfgs_oracle(sims, labels, m.init_head(4, 2).data,
                           per_class=2, lam=0.01)
    assert abs(info["objective"] - oracle) <= 1e-4

    # heavy penalty drives every off-class connection to exactly zero
    net2 = toy_model(seed=3)
    net2, _ = tr.optimize_last_layer(net2, net2.forward_probs(values)["latents"], labels,
                                     l1_coef=10.0, max_iters=20000, tol=1e-14)
    pclass = np.repeat(np.arange(4), 2)
    off = pclass[None, :] != np.arange(4)[:, None]
    assert np.all(net2.head.data[off] == 0.0)


# ---------------------------------------------------------------------------
# 05: AUROC against pairwise counting


def test_criterion_05_auroc_sweep_vs_pairwise():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        labels = rng.integers(0, 2, n)
        while labels.min() == labels.max():
            labels = rng.integers(0, 2, n)
        scores = rng.uniform(0.01, 0.99, n)
        if rng.random() < 0.5:
            scores = np.round(scores, 1)  # heavy ties
        r = auroc(scores, labels)
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = float((pos[:, None] > neg[None, :]).sum())
        ties = float((pos[:, None] == neg[None, :]).sum())
        brute = (wins + 0.5 * ties) / (pos.size * neg.size)
        assert abs(r - brute) <= 1e-12

    worked = auroc(np.array([0.1, 0.4, 0.35, 0.8]), np.array([0, 0, 1, 1]))
    assert worked == pytest.approx(0.75, abs=1e-15)


# ---------------------------------------------------------------------------
# 06: bootstrap reproducibility and width ordering


def test_criterion_06_bootstrap():
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 2, 2000)
    scores = np.clip(rng.normal(0.5 + 0.12 * (2 * labels - 1), 0.15),
                     1e-6, 1.0 - 1e-6)
    assert labels[:200].min() == 0 and labels[:200].max() == 1

    ci_a = bootstrap_ci(scores, labels, rounds=10000, seed=99)
    ci_b = bootstrap_ci(scores, labels, rounds=10000, seed=99)
    assert (ci_a.lower, ci_a.upper) == (ci_b.lower, ci_b.upper)
    assert ci_a.point == auroc(scores, labels)

    ci_small = bootstrap_ci(scores[:200], labels[:200], rounds=10000, seed=99)
    assert (ci_a.upper - ci_a.lower) < (ci_small.upper - ci_small.lower)


# ---------------------------------------------------------------------------
# 07: preprocessing frequency response


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(x))))


def test_criterion_07_preprocessing():
    fs = 256.0
    n = int(12 * fs)
    t = np.arange(n) / fs
    steady = slice(int(2 * fs), int(-2 * fs))

    def filtered(x):  # the notch and high-pass cascade, no resampling
        return sigproc.preprocess_window(x, fs, fs_out=fs)

    line = np.sin(2 * np.pi * 60.0 * t)[:, None]
    out = filtered(line)
    atten_60 = 20.0 * np.log10(_rms(line[steady]) / _rms(out[steady]))
    assert atten_60 >= 20.0

    # causal filter: step transient decays with ~0.8 s time constant,
    # so judge the DC floor well past it
    dc_in = np.ones((int(30 * fs), 1))
    out = filtered(dc_in)
    atten_dc = 20.0 * np.log10(1.0 / _rms(out[int(20 * fs):]))
    assert atten_dc >= 40.0

    band = np.sin(2 * np.pi * 10.0 * t)[:, None]
    out = filtered(band)
    ripple = abs(20.0 * np.log10(_rms(out[steady]) / _rms(band[steady])))
    assert ripple <= 1.0

    tone = np.sin(2 * np.pi * 5.0 * t)[:, None]
    res = sigproc.resample(tone, fs, 128.0)[:, 0]
    ref = np.sin(2 * np.pi * 5.0 * np.arange(res.size) / 128.0)
    interior = slice(128, -128)
    corr = np.corrcoef(res[interior], ref[interior])[0, 1]
    assert corr >= 0.999


# ---------------------------------------------------------------------------
# 08 + 09 share one real training run


@pytest.fixture(scope="module")
def trained_run():
    samples, manifest = generate_synthetic(SynthConfig(n_samples=2000, seed=11))
    config = tr.TrainConfig(num_train_epochs=30, num_warm_epochs=3,
                            num_secondary_warm_epochs=3, push_start=10,
                            push_epochs=(20, 30), joint_lr_step_size=30,
                            batch_size=32, seed=0)
    t0 = time.monotonic()
    net, _ = tr.train(config, split_windows(samples, manifest, "train"),
                      split_windows(samples, manifest, "val"))
    elapsed = time.monotonic() - t0
    test_samples = samples[manifest.ids_for("test")]
    train_labels = {int(i): samples[i].votes for i in manifest.ids_for("train")}
    metrics = metrics_from_scores(score_samples(net, test_samples),
                                  [s.votes for s in test_samples],
                                  rounds=10000, seed=0)
    return {"model": net, "samples": samples, "test": test_samples,
            "train_labels": train_labels, "metrics": metrics,
            "elapsed": elapsed}


def test_criterion_08_end_to_end_synthetic_run(trained_run):
    metrics = trained_run["metrics"]
    assert trained_run["elapsed"] <= 900.0
    assert metrics["auroc_unfiltered"] >= 0.90
    assert metrics["auroc_filtered"] >= metrics["auroc_unfiltered"]


def test_criterion_09_explanation_completeness(trained_run):
    net = trained_run["model"]
    train_labels = trained_run["train_labels"]
    count = net.bank.count
    rng = np.random.default_rng(17)
    picks = rng.choice(len(trained_run["test"]), size=100, replace=False)

    for i in picks:
        report = explain(net, trained_run["test"][int(i)], top_k=count)
        for section in report.sections:
            assert len(section.rows) == count
            points = math.fsum(r.points for r in section.rows)
            assert abs(points - section.logit) <= 1e-12
            for row in section.rows:
                src = row.source_sample_id
                assert src in train_labels
                assert train_labels[src] == row.prototype_class

    # a push source is its own nearest prototype
    for j in (0, 25, 53, 80, 107):
        src = net.bank.provenance[j].source_sample_id
        report = explain(net, trained_run["samples"][src], top_k=count)
        row = next(r for r in report.sections[0].rows
                   if (r.prototype_class, r.prototype_index) == divmod(j, 12))
        assert row.similarity >= 1.0 - 1e-9


# ---------------------------------------------------------------------------
# 10: bit-identical reruns


def _tree_digests(root):
    # run records embed absolute input paths, which differ between run
    # directories by design; their recorded checksums are compared apart
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "resolved_config.json"}


def _run_records(root):
    out = {}
    for p in sorted(root.rglob("resolved_config.json")):
        rec = json.loads(p.read_text())
        out[str(p.relative_to(root))] = {
            "config": rec["config"],
            "seed": rec["seed"],
            "inputs": {k: v["sha256"] for k, v in rec["inputs"].items()},
            "outputs": rec["outputs"],
        }
    return out


def test_criterion_10_determinism(tmp_path):
    data_dir = tmp_path / "data"
    assert cli.main(["synth", "--n", "300", "--seed", "9",
                     "--out", str(data_dir)]) == 0
    dataset = data_dir / "dataset.peeg"
    _, manifest = load(dataset)
    sample_id = str(int(manifest.ids_for("test")[0]))

    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps({
        "num_train_epochs": 10, "num_warm_epochs": 2,
        "num_secondary_warm_epochs": 2, "push_start": 4,
        "push_epochs": [8, 10], "joint_lr_step_size": 4,
        "batch_size": 16, "last_layer_max_iters": 200, "seed": 1,
    }))

    digests, records = [], []
    for tag in ("first", "second"):
        run = tmp_path / tag
        assert cli.main(["train", "--config", str(cfg_path),
                         "--data", str(dataset), "--out", str(run)]) == 0
        model = run / "model.pegm"
        assert cli.main(["eval", "--model", str(model), "--data", str(dataset),
                         "--out", str(run / "eval")]) == 0
        assert cli.main(["explain", "--model", str(model),
                         "--data", str(dataset), "--sample-id", sample_id,
                         "--out", str(run / "explain")]) == 0
        digests.append(_tree_digests(run))
        records.append(_run_records(run))

    assert digests[0].keys() == digests[1].keys()
    mismatched = [name for name in digests[0]
                  if digests[0][name] != digests[1][name]]
    assert mismatched == []
    assert records[0] == records[1]
