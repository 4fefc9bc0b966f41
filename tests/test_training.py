"""Staged-training contracts: freezes, schedules, push projection, convex fit."""

import json
from dataclasses import asdict

import numpy as np
import pytest
from scipy.optimize import minimize

from conftest import train_data
from protoeeg import model as m
from protoeeg import training as tr
from protoeeg.cli import _build, resolve_config
from protoeeg.errors import ConfigurationError
from protoeeg.losses import LossCoefficients

# Reduced backbone for fast runs: same input contract, 8-d latents.
TOY_BLOCKS = (m.ConvBlock(4, (29, 17), (11, 10)), m.ConvBlock(8, (10, 3), (1, 1)))
TOY_ARCH = m.BackboneConfig(blocks=TOY_BLOCKS, latent_dim=8)


def toy_model(seed=7, num_classes=4, per_class=2):
    return m.ProtoEEGNet.initialize(config=TOY_ARCH, seed=seed,
                                    num_classes=num_classes,
                                    per_class=per_class)


def toy_windows(n_per_class=10, num_classes=4, seed=0, noise=0.05):
    """Linearly separable toy EEG: one frequency + channel emphasis per class."""
    rng = np.random.default_rng(seed)
    t = np.arange(128) / 128.0
    values, labels = [], []
    for c in range(num_classes):
        tone = np.sin(2 * np.pi * (2.0 + 3.0 * c) * t)[:, None]
        emphasis = np.ones(37)
        emphasis[c * 9:(c + 1) * 9] = 2.5
        for _ in range(n_per_class):
            w = tone * emphasis[None, :] + noise * rng.standard_normal((128, 37))
            values.append(w)
            labels.append(c)
    return np.asarray(values), np.asarray(labels, dtype=np.int64)


def toy_config(**overrides):
    base = dict(num_train_epochs=12, num_warm_epochs=2,
                num_secondary_warm_epochs=2, push_start=4, push_epochs=(12,),
                joint_lr_step_size=4, batch_size=8, last_layer_max_iters=200,
                seed=1)
    base.update(overrides)
    return tr.TrainConfig(**base)


def param_bytes(tensors):
    return [t.data.tobytes() for t in tensors]


@pytest.fixture(scope="module")
def toy_data():
    values, labels = toy_windows()
    return train_data(values, labels)


# ---------------------------------------------------------------------------
# configuration


class TestTrainConfig:
    def test_defaults_are_valid(self):
        cfg = tr.TrainConfig()
        assert cfg.num_train_epochs == 130
        assert cfg.push_epochs == (110, 120, 130)
        assert cfg.coefficients == LossCoefficients()

    def test_warm_epochs_exceed_total(self):
        with pytest.raises(ConfigurationError):
            tr.TrainConfig(num_train_epochs=15, num_warm_epochs=10,
                           num_secondary_warm_epochs=10, push_start=1,
                           push_epochs=(15,))

    def test_push_must_follow_push_start(self):
        with pytest.raises(ConfigurationError):
            toy_config(push_start=12)

    def test_final_push_must_be_last_epoch(self):
        with pytest.raises(ConfigurationError):
            toy_config(push_epochs=(10,))

    def test_push_epochs_must_increase(self):
        with pytest.raises(ConfigurationError):
            toy_config(push_epochs=(9, 9, 12))

    def test_push_epochs_must_be_nonempty(self):
        with pytest.raises(ConfigurationError):
            toy_config(push_epochs=())

    def test_decay_bounds(self):
        with pytest.raises(ConfigurationError):
            toy_config(joint_lr_decay=0.0)
        with pytest.raises(ConfigurationError):
            toy_config(joint_lr_decay=1.5)

    def test_dict_roundtrip(self):
        cfg = toy_config(joint_prototype_lr=0.02,
                         coefficients=LossCoefficients(sep=0.1))
        again = _build(tr.TrainConfig, json.loads(json.dumps(asdict(cfg))))
        assert again == cfg

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text(json.dumps({"warm_lr": 0.003}))
        with pytest.raises(ConfigurationError, match="warm_lr"):
            resolve_config(asdict(tr.TrainConfig()), f, {})

    def test_stage_spans_defaults(self):
        spans = tr.stage_spans(tr.TrainConfig())
        assert spans["warm"] == range(1, 11)
        assert spans["secondary_warm"] == range(11, 21)
        assert spans["joint"] == range(21, 131)

    def test_joint_lr_ladder_defaults(self):
        cfg = tr.TrainConfig()
        for epoch, lr in [(21, 0.05), (51, 0.025), (81, 0.0125)]:
            assert cfg.joint_prototype_lr * tr.joint_lr_factor(cfg, epoch) == lr
        assert tr.joint_lr_factor(cfg, 50) == 1.0
        assert tr.joint_lr_factor(cfg, 130) == 0.125

    def test_joint_lr_factor_before_joint_stage(self):
        with pytest.raises(ConfigurationError):
            tr.joint_lr_factor(tr.TrainConfig(), 20)

    def test_stage_lr_names_each_trained_group(self):
        cfg = tr.TrainConfig()
        assert tr.stage_lr(cfg, "warm", 1) == {"prototypes": 3e-3}
        assert tr.stage_lr(cfg, "secondary_warm", 11) == \
            {"prototypes": 3e-3, "features": 1e-3}
        assert list(tr.stage_lr(cfg, "joint", 51)) == \
            ["prototypes", "features", "last_layer"]
        assert tr.stage_lr(cfg, "joint", 51) == \
            {"prototypes": 0.025, "features": 5e-4, "last_layer": 5e-6}


def test_export_list_resolves():
    namespace = {}
    exec("from protoeeg.training import *", namespace)
    assert set(tr.__all__) <= set(namespace)
    assert {"run_stage", "stage_lr"} <= set(tr.__all__)


# ---------------------------------------------------------------------------
# warm stage


class TestWarmStage:
    def test_freeze_contract_and_norms(self, toy_data):
        net = toy_model()
        cfg = toy_config()
        backbone_before = param_bytes(net.backbone_parameters())
        head_before = net.head.data.tobytes()
        protos_before = net.bank.vectors.data.tobytes()

        tr.run_warm_stage(net, toy_data, cfg)

        assert param_bytes(net.backbone_parameters()) == backbone_before
        assert net.head.data.tobytes() == head_before
        assert net.bank.vectors.data.tobytes() != protos_before
        norms = np.linalg.norm(net.bank.vectors.data, axis=1)
        assert np.all(np.abs(norms - 1.0) <= 1e-9)

    def test_same_class_similarity_strictly_increases(self, toy_data):
        net = toy_model(seed=11)
        cfg = toy_config()
        latents = net.forward_probs(toy_data.train_values)["latents"]
        rng = np.random.default_rng(0)

        def metric():
            sims = latents @ net.bank.vectors.data.T
            per = net.bank.per_class
            best = [sims[i, y * per:(y + 1) * per].max()
                    for i, y in enumerate(toy_data.train_labels)]
            return float(np.mean(best))

        trace = [metric()]
        for epoch in range(1, 11):
            tr.run_warm_stage(net, toy_data, cfg,
                              epochs=range(epoch, epoch + 1), rng=rng)
            trace.append(metric())
        assert all(b > a for a, b in zip(trace, trace[1:]))

    def test_empty_split_rejected(self):
        empty = train_data(np.empty((0, 128, 37)), np.empty(0, dtype=int))
        with pytest.raises(ConfigurationError):
            tr.run_warm_stage(toy_model(), empty, toy_config())

    def test_history_records_stage_and_lr(self, toy_data):
        records = []
        tr.run_warm_stage(toy_model(), toy_data, toy_config(),
                          history=records)
        assert [r["epoch"] for r in records] == [1, 2]
        assert all(r["stage"] == "warm" for r in records)
        assert records[0]["lr"] == {"prototypes": 0.003}
        assert set(records[0]["loss"]) == {"total", "cross_entropy", "cluster",
                                           "separation", "orthogonality", "l1"}


# ---------------------------------------------------------------------------
# secondary warm stage


class TestSecondaryWarmStage:
    def test_head_frozen_backbone_moves(self, toy_data):
        net = toy_model()
        cfg = toy_config()
        head_before = net.head.data.tobytes()
        backbone_before = param_bytes(net.backbone_parameters())

        tr.run_secondary_warm_stage(net, toy_data, cfg)

        assert net.head.data.tobytes() == head_before
        assert param_bytes(net.backbone_parameters()) != backbone_before
        norms = np.linalg.norm(net.bank.vectors.data, axis=1)
        assert np.all(np.abs(norms - 1.0) <= 1e-9)

    def test_loss_nonincreasing_moving_average(self, toy_data):
        net = toy_model(seed=2)
        cfg = toy_config()
        tr.run_warm_stage(net, toy_data, cfg)
        records = []
        tr.run_secondary_warm_stage(net, toy_data, cfg,
                                    epochs=range(3, 13), history=records)
        totals = np.array([r["loss"]["total"] for r in records])
        smoothed = np.convolve(totals, np.ones(3) / 3.0, mode="valid")
        assert np.all(np.diff(smoothed) <= 1e-6)


# ---------------------------------------------------------------------------
# joint stage


class TestJointStage:
    def test_lr_ladder_recorded(self, toy_data):
        net = toy_model()
        cfg = toy_config(num_train_epochs=10, num_warm_epochs=1,
                         num_secondary_warm_epochs=1, joint_lr_step_size=3,
                         push_epochs=(10,), push_start=5)
        records = []
        tr.run_joint_stage(net, toy_data, cfg, history=records)
        lrs = [r["lr"]["prototypes"] for r in records]
        assert lrs == [0.05, 0.05, 0.05, 0.025, 0.025, 0.025, 0.0125, 0.0125]
        ratios = [r["lr"]["features"] / r["lr"]["prototypes"] for r in records]
        assert np.allclose(ratios, 0.001 / 0.05)

    def test_all_groups_move(self, toy_data):
        net = toy_model()
        cfg = toy_config()
        before = param_bytes(net.all_parameters())
        tr.run_joint_stage(net, toy_data, cfg, epochs=range(5, 7))
        after = param_bytes(net.all_parameters())
        assert all(a != b for a, b in zip(after, before))


# ---------------------------------------------------------------------------
# one runner


@pytest.fixture
def adams(monkeypatch):
    """Every Adam built while the test runs."""
    built = []

    class RecordingAdam(tr.dc.Adam):
        def __init__(self, groups):
            super().__init__(groups)
            built.append(self)

    monkeypatch.setattr(tr.dc, "Adam", RecordingAdam)
    return built


class TestRunStage:
    def test_stage_bindings_are_the_runner(self):
        for stage, op in tr._STAGE_OPS.items():
            assert op.func is tr.run_stage and op.args == (stage,)
        assert tr.run_warm_stage is tr._STAGE_OPS["warm"]
        assert tr.run_secondary_warm_stage is tr._STAGE_OPS["secondary_warm"]
        assert tr.run_joint_stage is tr._STAGE_OPS["joint"]

    @pytest.mark.parametrize("stage", ["warm", "secondary_warm", "joint"])
    def test_empty_epochs_build_no_optimizer_or_cache(self, stage, toy_data, adams,
                                                      monkeypatch):
        net = toy_model()
        before = param_bytes(net.all_parameters())
        monkeypatch.setattr(m.ProtoEEGNet, "forward_probs",
                            lambda *a: pytest.fail("latents were computed"))
        records = []
        tr.run_stage(stage, net, toy_data, toy_config(), range(5, 5),
                     history=records)
        assert adams == [] and records == []
        assert param_bytes(net.all_parameters()) == before

    def test_unknown_stage_rejected(self, toy_data):
        with pytest.raises(ConfigurationError, match="stage"):
            tr.run_stage("final", toy_model(), toy_data, toy_config())


# ---------------------------------------------------------------------------
# push projection


def push_oracle(latents, labels, ids, protos, per_class):
    """Exhaustive scan in ascending-id order with strict improvement."""
    best_id = {}
    best_latent = {}
    for j in range(protos.shape[0]):
        c = j // per_class
        best = -np.inf
        for i in sorted(range(len(ids)), key=lambda i: ids[i]):
            if labels[i] != c:
                continue
            s = float(latents[i] @ protos[j])
            if s > best:
                best = s
                best_id[j] = int(ids[i])
                best_latent[j] = latents[i]
    return best_id, best_latent


def push_toy_data():
    """50 samples, shuffled non-contiguous ids; class 0 is five identical
    windows so its prototypes must tie-break to the smallest id."""
    rng = np.random.default_rng(5)
    base, _ = toy_windows(n_per_class=1, num_classes=1, seed=9)
    values = [base[0].copy() for _ in range(5)]
    labels = [0] * 5
    more, more_labels = toy_windows(n_per_class=15, num_classes=3, seed=3)
    values.extend(more)
    labels.extend(more_labels + 1)
    ids = rng.permutation(50) * 3 + 7
    return train_data(np.asarray(values), labels, ids=ids)


class TestPush:
    def test_matches_exhaustive_oracle(self):
        data = push_toy_data()
        net = toy_model(seed=13)
        protos_before = net.bank.vectors.data.copy()
        order = np.argsort(data.train_ids)
        latents = net.forward_probs(data.train_values[order])["latents"]

        records, pushed_latents = tr.push_prototypes(net, data, epoch=12)

        # the push hands back every training latent, in data order, unchanged
        assert np.array_equal(pushed_latents[order], latents)

        oracle_ids, oracle_latents = push_oracle(
            latents, data.train_labels[order], data.train_ids[order],
            protos_before, net.bank.per_class)
        for rec in records:
            j = rec.prototype_class * net.bank.per_class + rec.prototype_index
            assert rec.source_sample_id == oracle_ids[j]
            assert np.array_equal(net.bank.vectors.data[j], oracle_latents[j])
            assert -1.0 <= rec.similarity <= 1.0
            assert rec.epoch == 12
            assert net.bank.provenance[j] is rec

    def test_tie_breaks_to_smallest_id(self):
        data = push_toy_data()
        net = toy_model(seed=13)
        records, _ = tr.push_prototypes(net, data)
        class0_ids = sorted(data.train_ids[data.train_labels == 0])
        for rec in records:
            if rec.prototype_class == 0:
                assert rec.source_sample_id == class0_ids[0]

    def test_max_same_class_similarity_is_one(self, toy_data):
        net = toy_model(seed=4)
        tr.push_prototypes(net, toy_data)
        latents = net.forward_probs(toy_data.train_values)["latents"]
        sims = latents @ net.bank.vectors.data.T
        per = net.bank.per_class
        for j in range(net.bank.count):
            c = j // per
            same = sims[toy_data.train_labels == c, j]
            assert abs(same.max() - 1.0) <= 1e-9

    def test_prototype_equals_source_latent(self, toy_data):
        net = toy_model(seed=4)
        records, _ = tr.push_prototypes(net, toy_data)
        for rec in records:
            j = rec.prototype_class * net.bank.per_class + rec.prototype_index
            row = np.nonzero(toy_data.train_ids == rec.source_sample_id)[0][0]
            solo = net.forward_probs(toy_data.train_values[row])["latents"]
            np.testing.assert_allclose(net.bank.vectors.data[j], solo,
                                       rtol=1e-12, atol=1e-15)

    def test_missing_class_rejected(self):
        values, labels = toy_windows(n_per_class=5, num_classes=3)
        data = train_data(values, labels)  # classes 0..2; model wants 4
        with pytest.raises(ConfigurationError, match="class 3"):
            tr.push_prototypes(toy_model(), data)


# ---------------------------------------------------------------------------
# convex last-layer fit


def lbfgs_head_objective(sims, labels, w0, per_class, lam):
    """Independent solver: split off-class weights into positive parts and
    hand the smooth bound-constrained problem to L-BFGS-B."""
    n, num_p = sims.shape
    k = w0.shape[0]
    off = ~m.own_class_mask(k, per_class)

    def fun(x):
        a = x[:k * num_p].reshape(k, num_p)
        b = x[k * num_p:].reshape(k, num_p)
        w = a - b
        logits = sims @ w.T
        mx = logits.max(axis=1, keepdims=True)
        lse = mx[:, 0] + np.log(np.exp(logits - mx).sum(axis=1))
        ce = np.mean(lse - logits[np.arange(n), labels])
        probs = np.exp(logits - mx)
        probs /= probs.sum(axis=1, keepdims=True)
        probs[np.arange(n), labels] -= 1.0
        gw = probs.T @ sims / n
        ga = gw + lam * off
        gb = -gw + lam * off
        value = ce + lam * float((a + b)[off].sum())
        return value, np.concatenate([ga.ravel(), gb.ravel()])

    x0 = np.concatenate([np.maximum(w0, 0.0).ravel(),
                         np.maximum(-w0, 0.0).ravel()])
    res = minimize(fun, x0, jac=True, method="L-BFGS-B",
                   bounds=[(0.0, None)] * (2 * k * num_p),
                   options={"maxiter": 20000, "ftol": 1e-16, "gtol": 1e-12})
    a = res.x[:k * num_p].reshape(k, num_p)
    b = res.x[k * num_p:].reshape(k, num_p)
    return tr._head_objective(a - b, sims, labels, off, lam)


def random_head_problem(seed=0, n=60, k=4, per_class=2, d=6):
    rng = np.random.default_rng(seed)
    latents = rng.standard_normal((n, d))
    latents /= np.linalg.norm(latents, axis=1, keepdims=True)
    protos = rng.standard_normal((k * per_class, d))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    sims = latents @ protos.T
    labels = rng.integers(0, k, size=n)
    w0 = m.init_head(num_classes=k, per_class=per_class).data
    return sims, labels, w0


class TestConvexHeadFit:
    def test_matches_independent_solver(self):
        sims, labels, w0 = random_head_problem(seed=1)
        w, info = tr._prox_head_fit(sims, labels, w0, per_class=2,
                                    l1_coef=0.01, max_iters=20000, tol=1e-14)
        oracle = lbfgs_head_objective(sims, labels, w0, per_class=2, lam=0.01)
        assert info["converged"]
        assert abs(info["objective"] - oracle) <= 1e-4

    def test_trace_monotone_nonincreasing(self):
        for lam in (0.0, 0.01, 1.0):
            sims, labels, w0 = random_head_problem(seed=2)
            _, info = tr._prox_head_fit(sims, labels, w0, per_class=2,
                                        l1_coef=lam, max_iters=300, tol=1e-12)
            assert np.all(np.diff(info["trace"]) <= 0)

    def test_zero_penalty_is_plain_logistic_fit(self):
        sims, labels, w0 = random_head_problem(seed=3)
        w, info = tr._prox_head_fit(sims, labels, w0, per_class=2,
                                    l1_coef=0.0, max_iters=20000, tol=1e-14)
        oracle = lbfgs_head_objective(sims, labels, w0, per_class=2, lam=0.0)
        assert abs(info["objective"] - oracle) <= 1e-4
        # no thresholding: off-class weights move freely and stay dense
        off = ~m.own_class_mask(4, 2)
        assert np.all(w[off] != 0.0)

    def test_huge_penalty_zeroes_offclass_exactly(self):
        sims, labels, w0 = random_head_problem(seed=4)
        w, _ = tr._prox_head_fit(sims, labels, w0, per_class=2,
                                 l1_coef=10.0, max_iters=500, tol=1e-12)
        off = ~m.own_class_mask(4, 2)
        assert np.all(w[off] == 0.0)
        assert np.any(w[~off] != 0.0)

    def test_frozen_groups_and_head_update(self, toy_data):
        net = toy_model(seed=6)
        backbone_before = param_bytes(net.backbone_parameters())
        protos_before = net.bank.vectors.data.tobytes()
        head_before = net.head.data.tobytes()

        latents = net.forward_probs(toy_data.train_values)["latents"]

        _, info = tr.optimize_last_layer(net, latents, toy_data.train_labels,
                                         max_iters=50)

        assert param_bytes(net.backbone_parameters()) == backbone_before
        assert net.bank.vectors.data.tobytes() == protos_before
        assert net.head.data.tobytes() != head_before
        assert info["iterations"] <= 50

    def test_nonconvergence_flag(self, toy_data):
        net = toy_model(seed=6)
        latents = net.forward_probs(toy_data.train_values)["latents"]
        _, info = tr.optimize_last_layer(net, latents, toy_data.train_labels,
                                         max_iters=1, tol=1e-15)
        assert not info["converged"]

    def test_sparsity_direction(self, toy_data):
        net = toy_model(seed=8)
        cfg = toy_config()
        tr.run_warm_stage(net, toy_data, cfg)
        _, latents = tr.push_prototypes(net, toy_data)
        off = ~m.own_class_mask(net.bank.num_classes, net.bank.per_class)
        before = np.mean(np.abs(net.head.data[off]))
        tr.optimize_last_layer(net, latents, toy_data.train_labels,
                               l1_coef=0.01, max_iters=400)
        after = np.mean(np.abs(net.head.data[off]))
        assert after < before


# ---------------------------------------------------------------------------
# full schedule


class TestTrain:
    def small_cfg(self, **overrides):
        base = dict(num_train_epochs=6, num_warm_epochs=2,
                    num_secondary_warm_epochs=2, push_start=2,
                    push_epochs=(5, 6), joint_lr_step_size=2, batch_size=8,
                    last_layer_max_iters=80, seed=3)
        base.update(overrides)
        return tr.TrainConfig(**base)

    def test_stage_tags_and_push_epochs(self, toy_data, tmp_path):
        cfg = self.small_cfg()
        net, history = tr.train(cfg, toy_data, model=toy_model(seed=9),
                                out_dir=tmp_path)

        assert [r["epoch"] for r in history.records] == [1, 2, 3, 4, 5, 6]
        assert [r["stage"] for r in history.records] == \
            ["warm", "warm", "secondary_warm", "secondary_warm",
             "joint", "joint"]
        assert [r["epoch"] for r in history.records if "push" in r] == [5, 6]
        for rec in history.records:
            if "push" in rec:
                assert len(rec["push"]) == net.bank.count
                assert all(p["epoch"] == rec["epoch"] for p in rec["push"])
                assert "converged" in rec["convex"]

        assert (tmp_path / "checkpoint_epoch005.pegm").exists()
        assert (tmp_path / "checkpoint_epoch006.pegm").exists()
        lines = (tmp_path / "history.jsonl").read_text().splitlines()
        assert len(lines) == 6
        assert [json.loads(line) for line in lines] == history.records

    def test_deterministic_under_seed(self, toy_data, tmp_path):
        cfg = self.small_cfg()
        outputs = []
        for run in ("a", "b"):
            net, history = tr.train(cfg, toy_data, model=toy_model(seed=9))
            path = tmp_path / f"{run}.pegm"
            m.save_model(net, path)
            outputs.append((path.read_bytes(), history.to_jsonl()))
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]

    def test_validates_once_per_epoch_after_the_refit(self, toy_data, monkeypatch):
        d = toy_data
        data = tr.TrainData(d.train_values, d.train_labels, d.train_ids,
                            d.train_values[:12], d.train_labels[:12], d.train_ids[:12])
        calls = []
        validate = tr._validation_metrics
        monkeypatch.setattr(tr, "_validation_metrics",
                            lambda model, data: calls.append(1) or validate(model, data))
        net, history = tr.train(self.small_cfg(), data, model=toy_model(seed=9))
        assert len(calls) == len(history.records) == 6
        # epoch 6 ends with the last push and refit, so its val is the final model's
        assert history.records[-1]["val"] == validate(net, data)

    def test_embeds_each_split_once_per_pass(self, toy_data, monkeypatch):
        d = toy_data
        data = tr.TrainData(d.train_values, d.train_labels, d.train_ids,
                            d.train_values[:12], d.train_labels[:12], d.train_ids[:12])
        off_tape = []
        embed = m.ProtoEEGNet.embed

        def counting_embed(self, values):
            z = embed(self, values)
            if not z.requires_grad:
                off_tape.append(z.data.shape[0])
            return z

        monkeypatch.setattr(m.ProtoEEGNet, "embed", counting_embed)
        cfg = self.small_cfg()
        tr.train(cfg, data, model=toy_model(seed=9))
        n_train, n_val = len(d.train_labels), 12
        # the warm-stage cache, one push scan per push epoch (the refit reuses
        # its latents), and one validation pass per epoch
        assert sum(off_tape) == (n_train + len(cfg.push_epochs) * n_train
                                 + cfg.num_train_epochs * n_val)

    def test_toy_accuracy_after_full_schedule(self, toy_data):
        net, _ = tr.train(toy_config(), toy_data, model=toy_model(seed=9))
        out = net.forward_probs(toy_data.train_values)
        acc = np.mean(np.argmax(out["probabilities"], axis=1)
                      == toy_data.train_labels)
        assert acc >= 0.95

    def test_empty_train_split_rejected(self):
        empty = train_data(np.empty((0, 128, 37)), np.empty(0, dtype=int))
        with pytest.raises(ConfigurationError):
            tr.train(self.small_cfg(), empty)

    def test_missing_class_rejected_before_any_epoch(self, monkeypatch):
        values, labels = toy_windows(n_per_class=5, num_classes=3)
        data = train_data(values, labels)  # classes 0..2; model wants 4
        passes = []
        monkeypatch.setattr(tr, "_epoch_pass", lambda *a, **k: passes.append(1))
        with pytest.raises(ConfigurationError, match="class 3"):
            tr.train(self.small_cfg(), data, model=toy_model(seed=9))
        assert passes == []

    def test_fresh_adam_per_push_segment(self, toy_data, adams, tmp_path):
        # pushes inside every stage: warm [1] [2 3], secondary [4] [5], joint [6 7]
        cfg = self.small_cfg(num_train_epochs=7, num_warm_epochs=3,
                             num_secondary_warm_epochs=2, push_start=0,
                             push_epochs=(1, 4, 7), joint_lr_step_size=1)
        _, history = tr.train(cfg, toy_data, model=toy_model(seed=9),
                              out_dir=tmp_path)
        batches = -(-len(toy_data.train_labels) // cfg.batch_size)
        assert [a.step_count for a in adams] == [batches * k for k in (1, 2, 1, 1, 2)]
        groups = [[g["name"] for g in a.groups] for a in adams]
        assert groups == [["prototypes"]] * 2 + [["prototypes", "features"]] * 2 \
            + [["prototypes", "features", "last_layer"]]
        assert [r["stage"] for r in history.records] == \
            ["warm"] * 3 + ["secondary_warm"] * 2 + ["joint"] * 2
        assert [r["epoch"] for r in history.records if "push" in r] == [1, 4, 7]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "checkpoint_epoch001.pegm", "checkpoint_epoch004.pegm",
            "checkpoint_epoch007.pegm", "history.jsonl"]

    def test_nonconvergence_recorded_as_warning(self, toy_data):
        cfg = self.small_cfg(last_layer_max_iters=1, last_layer_tol=1e-15)
        _, history = tr.train(cfg, toy_data, model=toy_model(seed=9))
        assert history.warnings
        assert "max_iters" in history.warnings[0]
