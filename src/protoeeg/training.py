"""Staged optimization: warm, secondary warm, joint, push, convex head fit.

The schedule runs three gradient phases back to back — prototypes warm up
alone, then move together with the backbone, then every parameter group
trains jointly under a halving learning-rate ladder.  One runner,
:func:`run_stage`, trains them all from a table of each stage's parameter
groups and rates, with a fresh Adam per push segment; ``run_warm_stage``,
``run_secondary_warm_stage`` and ``run_joint_stage`` bind it to one stage
each so that the benchmark's tracer can time the stages.  At configured
epochs the prototypes are projected ("pushed") onto their most similar
same-class training latents and the head is re-fit by a convex proximal
pass that drives off-class weights toward exact zeros.

The training and validation windows are the dataset's own record arrays
(:func:`.dataset.split_windows`): stages, push and refit read their
``values``, ``votes`` and ``sample_id`` fields, and the float32 values turn
float64 only inside ``ProtoEEGNet.embed``, a batch at a time.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import diffcore as dc
from .container import write_atomic
from .dataset import require_class_coverage
from .errors import ConfigurationError
from .losses import LossCoefficients, total_loss
from .model import (ProtoEEGNet, PushRecord, own_class_mask, own_prototypes,
                    save_model, similarities, softmax_rows)

__all__ = [
    "TrainConfig", "TrainHistory", "stage_spans", "joint_lr_factor",
    "stage_lr", "run_stage", "run_warm_stage", "run_secondary_warm_stage",
    "run_joint_stage", "push_prototypes", "optimize_last_layer", "train",
]


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class TrainConfig:
    """Schedule and optimizer settings for a full training run.

    Epochs are counted 1..num_train_epochs.  `push_epochs` fire after the
    named epoch finishes; the last push always lands on the final epoch.
    """

    num_train_epochs: int = 130
    num_warm_epochs: int = 10
    num_secondary_warm_epochs: int = 10
    push_start: int = 70
    push_epochs: tuple = (110, 120, 130)
    joint_lr_step_size: int = 30
    joint_lr_decay: float = 0.5
    warm_prototype_lr: float = 3e-3
    secondary_prototype_lr: float = 3e-3
    secondary_feature_lr: float = 1e-3
    joint_prototype_lr: float = 0.05
    joint_feature_lr: float = 1e-3
    joint_last_layer_lr: float = 1e-5
    batch_size: int = 32
    last_layer_max_iters: int = 500
    last_layer_tol: float = 1e-9
    coefficients: LossCoefficients = field(default_factory=LossCoefficients)
    seed: int = 0

    def __post_init__(self):
        for name in ("num_train_epochs", "num_warm_epochs",
                     "num_secondary_warm_epochs", "push_start",
                     "joint_lr_step_size", "batch_size",
                     "last_layer_max_iters", "seed"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
                raise ConfigurationError(f"{name} must be an integer, got {v!r}")
        if self.num_train_epochs < 1:
            raise ConfigurationError("num_train_epochs must be >= 1")
        if self.num_warm_epochs < 0 or self.num_secondary_warm_epochs < 0:
            raise ConfigurationError("warm epoch counts must be >= 0")
        if self.num_warm_epochs + self.num_secondary_warm_epochs > self.num_train_epochs:
            raise ConfigurationError(
                "num_warm_epochs + num_secondary_warm_epochs "
                f"({self.num_warm_epochs}+{self.num_secondary_warm_epochs}) "
                f"exceeds num_train_epochs ({self.num_train_epochs})")
        if self.push_start < 0:
            raise ConfigurationError("push_start must be >= 0")
        pushes = tuple(self.push_epochs)
        if not pushes:
            raise ConfigurationError("push_epochs must name at least one epoch")
        if any(not isinstance(e, (int, np.integer)) for e in pushes):
            raise ConfigurationError("push_epochs must be integers")
        if list(pushes) != sorted(set(int(e) for e in pushes)):
            raise ConfigurationError("push_epochs must be strictly increasing")
        if pushes[0] <= self.push_start:
            raise ConfigurationError(
                f"push epoch {pushes[0]} is not after push_start {self.push_start}")
        if pushes[-1] != self.num_train_epochs:
            raise ConfigurationError(
                f"final push epoch {pushes[-1]} must equal "
                f"num_train_epochs {self.num_train_epochs}")
        if self.joint_lr_step_size < 1:
            raise ConfigurationError("joint_lr_step_size must be >= 1")
        if not (0.0 < self.joint_lr_decay <= 1.0):
            raise ConfigurationError("joint_lr_decay must be in (0, 1]")
        for name in ("warm_prototype_lr", "secondary_prototype_lr",
                     "secondary_feature_lr", "joint_prototype_lr",
                     "joint_feature_lr", "joint_last_layer_lr"):
            v = float(getattr(self, name))
            if not np.isfinite(v) or v < 0:
                raise ConfigurationError(f"{name} must be finite and >= 0")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if self.last_layer_max_iters < 1:
            raise ConfigurationError("last_layer_max_iters must be >= 1")
        if not (self.last_layer_tol > 0):
            raise ConfigurationError("last_layer_tol must be > 0")
        if not isinstance(self.coefficients, LossCoefficients):
            raise ConfigurationError("coefficients must be LossCoefficients")


def stage_spans(config: TrainConfig) -> dict:
    """Global 1-based epoch range of each gradient stage."""
    w = config.num_warm_epochs
    s = config.num_secondary_warm_epochs
    return {
        "warm": range(1, w + 1),
        "secondary_warm": range(w + 1, w + s + 1),
        "joint": range(w + s + 1, config.num_train_epochs + 1),
    }


def joint_lr_factor(config: TrainConfig, epoch: int) -> float:
    """Decay multiplier for joint learning rates at a global epoch number.

    Offsets are measured from the first joint epoch implied by the config;
    the factor halves (by `joint_lr_decay`) every `joint_lr_step_size` epochs.
    """
    first_joint = config.num_warm_epochs + config.num_secondary_warm_epochs + 1
    offset = epoch - first_joint
    if offset < 0:
        raise ConfigurationError(f"epoch {epoch} precedes the joint stage")
    return config.joint_lr_decay ** (offset // config.joint_lr_step_size)


def _require_nonempty(train) -> None:
    if len(train) == 0:
        raise ConfigurationError("training split is empty")


# ---------------------------------------------------------------------------
# history


@dataclass
class TrainHistory:
    """One record per epoch plus any non-fatal warnings raised on the way."""

    records: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(r, sort_keys=True) for r in self.records)


def _validation_metrics(model: ProtoEEGNet, val):
    if len(val) == 0:
        return None
    out = model.forward_probs(val.values)
    labels = val.votes
    return {
        "cross_entropy": dc.cross_entropy(dc.Tensor(out["logits"]), labels).item(),
        "accuracy": float(np.mean(np.argmax(out["probabilities"], axis=1) == labels)),
    }


def _epoch_pass(model, train, config, opt, lr, rng, latents_cache=None) -> dict:
    """One shuffled gradient epoch at the group rates `lr`; returns
    sample-weighted mean losses."""
    n = len(train)
    perm = rng.permutation(n)
    keys = ("total", "cross_entropy", "cluster", "separation",
            "orthogonality", "l1")
    agg = dict.fromkeys(keys, 0.0)
    for lo in range(0, n, config.batch_size):
        idx = perm[lo:lo + config.batch_size]
        if latents_cache is not None:
            latents = dc.Tensor(latents_cache[idx])
        else:
            latents = model.embed(train.values[idx])
        report = total_loss(latents, train.votes[idx], model.bank,
                            model.head, config.coefficients)
        opt.step(dc.backward(report.tensor), lr)
        model.bank.renormalize()
        for key in keys:
            agg[key] += getattr(report, key) * len(idx)
    return {k: float(v / n) for k, v in agg.items()}


def _record(history, model, val, *, epoch, stage, lr, losses, defer_val) -> None:
    """Append one epoch's record.  Epochs in `defer_val` get ``"val": None``;
    train() validates those after the push and refit that follow them."""
    if history is None:
        return
    history.append({
        "epoch": int(epoch),
        "stage": stage,
        "lr": {k: float(v) for k, v in lr.items()},
        "loss": losses,
        "val": None if epoch in defer_val else _validation_metrics(model, val),
    })


# ---------------------------------------------------------------------------
# gradient stages


# stage -> {parameter group it trains: TrainConfig field of the group's rate}
_STAGE_RATES = {
    "warm": {"prototypes": "warm_prototype_lr"},
    "secondary_warm": {"prototypes": "secondary_prototype_lr",
                       "features": "secondary_feature_lr"},
    "joint": {"prototypes": "joint_prototype_lr",
              "features": "joint_feature_lr",
              "last_layer": "joint_last_layer_lr"},
}


def stage_lr(config: TrainConfig, stage: str, epoch: int) -> dict:
    """Learning rate of each parameter group `stage` trains at global
    `epoch`; joint rates are scaled by :func:`joint_lr_factor`."""
    factor = joint_lr_factor(config, epoch) if stage == "joint" else 1.0
    return {group: getattr(config, name) * factor
            for group, name in _STAGE_RATES[stage].items()}


def run_stage(stage: str, model, train, val, config, epochs=None, *, rng=None,
              history=None, defer_val=(), latents=None) -> ProtoEEGNet:
    """Train the parameter groups of `stage` on the `train` windows over
    `epochs` with one fresh Adam, validating on the `val` windows.

    `epochs` defaults to the stage's whole span and `rng` to a generator
    seeded by ``config.seed``.  Groups outside the stage stay frozen: the
    warm stage moves prototypes only, so it trains on the training split's
    latents, embedded once per call unless `latents` hands it those of the
    current backbone (a push returns them); secondary warm adds the
    backbone; joint adds the head.

    train() calls this once per push segment, so every segment starts from
    zero moments.  That reset is load-bearing: carrying the joint Adam
    across pushes lowered the acceptance run's test AUROC to
    0.8817 / 0.9158, below the 0.90 floor.
    """
    if stage not in _STAGE_RATES:
        raise ConfigurationError(f"unknown training stage {stage!r}")
    _require_nonempty(train)
    if epochs is None:
        epochs = stage_spans(config)[stage]
    if not epochs:
        return model
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    params = {"prototypes": [model.bank.vectors],
              "features": model.backbone_parameters(),
              "last_layer": [model.head]}
    opt = dc.Adam({group: params[group] for group in _STAGE_RATES[stage]})
    cache = None
    if stage == "warm":
        cache = (model.forward_probs(train.values)["latents"]
                 if latents is None else latents)
    for epoch in epochs:
        lr = stage_lr(config, stage, epoch)
        losses = _epoch_pass(model, train, config, opt, lr, rng, latents_cache=cache)
        _record(history, model, val, epoch=epoch, stage=stage, lr=lr,
                losses=losses, defer_val=defer_val)
    return model


# the benchmark's tracer wraps these bindings, in the module and the table
_STAGE_OPS = {stage: functools.partial(run_stage, stage) for stage in _STAGE_RATES}
run_warm_stage = _STAGE_OPS["warm"]
run_secondary_warm_stage = _STAGE_OPS["secondary_warm"]
run_joint_stage = _STAGE_OPS["joint"]


# ---------------------------------------------------------------------------
# prototype projection


def push_prototypes(model, train, *, epoch: int = 0) -> tuple:
    """Snap each prototype onto its most similar same-class training latent.

    One `forward_probs` pass over the `train` windows gives the latents and
    the similarities the classifier scores with.  One argmax runs over the
    rows in ascending sample_id order, each prototype's off-class rows
    masked to -inf, and the first maximum wins, so ties resolve to the
    smallest sample_id.  Prototype rows are overwritten with the winning
    latents byte for byte.

    Returns (records, latents): the training windows' latents in `train`
    order, which the frozen-backbone head refit reuses.
    """
    _require_nonempty(train)
    bank = model.bank
    require_class_coverage(train, bank.num_classes, "to push onto")
    out = model.forward_probs(train.values)
    latents, sims = out["latents"], out["similarities"]
    order = np.argsort(train.sample_id, kind="stable")
    # coverage above leaves no column all -inf, whose argmax would be row 0
    own = own_prototypes(train.votes[order], bank)
    winner = order[np.argmax(np.where(own, sims[order], -np.inf), axis=0)]

    top = np.clip(sims[winner, np.arange(bank.count)], -1.0, 1.0)
    records = [PushRecord(*divmod(j, bank.per_class),
                          source_sample_id=int(train.sample_id[winner[j]]),
                          similarity=float(top[j]), epoch=int(epoch))
               for j in range(bank.count)]
    bank.provenance[:] = records
    bank.vectors.data[:] = latents[winner]
    return records, latents


# ---------------------------------------------------------------------------
# convex last-layer fit


def _objective(logits, weights, labels, off_mask, l1_coef) -> float:
    """Refit objective from the logits ``sims @ weights.T`` already in hand."""
    ce = dc.cross_entropy(dc.Tensor(logits), labels).item()
    return ce + l1_coef * float(np.abs(weights[off_mask]).sum())


def _prox_head_fit(sims, labels, weights0, per_class, l1_coef, max_iters,
                   tol) -> tuple:
    """Proximal-gradient fit of the class-connection matrix.

    Gradient steps on the mean cross-entropy at 1/L (L from the spectral
    norm of the similarity matrix), soft-thresholding off-class entries
    only.  Backtracking halves the step if the composite objective fails
    to decrease, so the trace is monotone by construction.  The accepted
    step's logits carry into the next gradient, so each iteration without
    backtracking computes ``sims @ w.T`` once.
    """
    n, _ = sims.shape
    num_classes = weights0.shape[0]
    off = ~own_class_mask(num_classes, per_class)
    w = weights0.copy()

    sigma = np.linalg.svd(sims, compute_uv=False)[0] if n else 0.0
    lipschitz = max(sigma * sigma / (2.0 * max(n, 1)), 1e-12)
    base_step = 1.0 / lipschitz

    logits = sims @ w.T
    obj = _objective(logits, w, labels, off, l1_coef)
    trace = [obj]
    converged = False
    iterations = 0
    for _ in range(max_iters):
        iterations += 1
        probs = softmax_rows(logits)
        probs[np.arange(n), labels] -= 1.0
        grad = probs.T @ sims / n

        eta = base_step
        while True:
            cand = w - eta * grad
            thr = eta * l1_coef
            cand = np.where(off, np.sign(cand) * np.maximum(np.abs(cand) - thr, 0.0),
                            cand)
            cand_logits = sims @ cand.T
            new_obj = _objective(cand_logits, cand, labels, off, l1_coef)
            if new_obj <= obj:
                break
            if eta <= 1e-18:  # cannot descend further: numerical optimum
                cand, cand_logits, new_obj = w, logits, obj
                break
            eta *= 0.5

        drop = obj - new_obj
        w, logits, obj = cand, cand_logits, new_obj
        trace.append(obj)
        if drop < tol:
            converged = True
            break

    info = {"converged": converged, "iterations": iterations,
            "objective_initial": trace[0], "objective": obj, "trace": trace}
    return w, info


def optimize_last_layer(model, latents, labels, *, l1_coef: float = 0.01,
                        max_iters: int = 500, tol: float = 1e-9) -> tuple:
    """Convex re-fit of the head with backbone and prototypes frozen.

    `latents` are the training windows' latents under the current backbone
    (push_prototypes returns them), row-aligned with `labels`.  Returns
    (model, info); info carries the monotone objective trace and a
    `converged` flag — hitting max_iters is reported, never raised.
    """
    if len(labels) == 0:
        raise ConfigurationError("training split is empty")
    sims = similarities(latents, model.bank)
    weights, info = _prox_head_fit(sims, labels, model.head.data,
                                   model.bank.per_class, l1_coef, max_iters,
                                   tol)
    model.head.data[:] = weights
    return model, info


# ---------------------------------------------------------------------------
# orchestration


def _segments(span, push_set) -> list:
    """Split an epoch range into runs that each end at a push epoch."""
    out, start = [], None
    for e in span:
        if start is None:
            start = e
        if e in push_set:
            out.append(range(start, e + 1))
            start = None
    if start is not None:
        out.append(range(start, span[-1] + 1))
    return out


def train(config: TrainConfig, train, val, model: ProtoEEGNet = None,
          out_dir=None) -> tuple:
    """Full schedule: warm, secondary warm, joint, with push + convex fit
    after every epoch named in `push_epochs`, on the `train` windows and
    validated on the `val` windows (dataset record arrays).

    Returns (model, TrainHistory).  With `out_dir` set, writes
    `history.jsonl` and a checkpoint at every push epoch.
    """
    _require_nonempty(train)
    if model is None:
        model = ProtoEEGNet.initialize(seed=config.seed)
    # every schedule pushes, so a missing class fails here, before epoch 1
    require_class_coverage(train, model.bank.num_classes, "to push onto")
    if out_dir is not None:
        out_dir = Path(out_dir)

    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    history = TrainHistory()
    push_set = set(config.push_epochs)

    for stage, span in stage_spans(config).items():
        if not span:
            continue
        op = _STAGE_OPS[stage]
        latents = None  # the last push's, while the backbone has not moved since
        for seg in _segments(span, push_set):
            op(model, train, val, config, seg, rng=rng, history=history.records,
               defer_val=push_set, latents=latents)
            last = seg[-1]
            if last not in push_set:
                continue
            pushes, latents = push_prototypes(model, train, epoch=last)
            model, info = optimize_last_layer(
                model, latents, train.votes, l1_coef=config.coefficients.l1,
                max_iters=config.last_layer_max_iters,
                tol=config.last_layer_tol)
            if not info["converged"]:
                history.warnings.append(
                    f"last-layer fit hit max_iters={config.last_layer_max_iters} "
                    f"at epoch {last} (objective {info['objective']:.6g})")
            rec = history.records[-1]
            rec["push"] = [asdict(p) for p in pushes]
            rec["convex"] = {"converged": info["converged"],
                             "iterations": info["iterations"],
                             "objective_initial": info["objective_initial"],
                             "objective": info["objective"]}
            rec["val"] = _validation_metrics(model, val)
            if out_dir is not None:
                save_model(model, out_dir / f"checkpoint_epoch{last:03d}.pegm")

    if len(history.records) != config.num_train_epochs:
        raise ConfigurationError(
            f"history covers {len(history.records)} epochs, expected "
            f"{config.num_train_epochs}")
    if out_dir is not None:
        write_atomic(out_dir / "history.jsonl", history.to_jsonl() + "\n")
    return model, history
