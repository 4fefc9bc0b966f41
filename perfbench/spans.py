"""Spans around the calls into protoeeg's layers, recorded from outside.

The tracer replaces each wrapped function with a thin wrapper, wherever the
package holds a reference to it (module attributes, module-level dicts,
class attributes), and restores the originals on exit.  The program itself
is not edited.  Spans live in memory and are written out once, at the end.

A wrapped function that no longer exists is reported as absent: the metrics
that depend on it are left out and the run still completes.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

perf = time.perf_counter

# output channels of each backbone block -> block number (1-based)
_BLOCK_OF_CHANNELS = {16: 1, 32: 2, 64: 3, 128: 4}


class Span:
    __slots__ = ("name", "t0", "t1", "parent", "phase", "attrs", "hidden")

    def __init__(self, name, t0, parent, phase):
        self.name = name
        self.t0 = t0
        self.t1 = t0
        self.parent = parent
        self.phase = phase
        self.attrs = {}
        self.hidden = 0.0  # tracer bookkeeping charged to this span

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class StepClock:
    """Times one optimizer step through the backbone.

    A step runs from the call into ``ProtoEEGNet.embed`` whose latent lands
    on the autodiff tape to the return of the next ``Adam.step``.  Steps on
    cached latents (the warm stage) never call embed and are not counted.
    """

    def __init__(self):
        self.steps = []
        self._pending = None

    def embed(self, t0: float, on_tape: bool) -> None:
        self._pending = t0 if on_tape else None

    def adam_done(self, t1: float) -> None:
        if self._pending is not None:
            self.steps.append(t1 - self._pending)
            self._pending = None

    def install(self):
        """Hook only embed and Adam.step; returns an undo callable."""
        from protoeeg import diffcore, model

        embed = model.ProtoEEGNet.embed
        step = diffcore.Adam.step
        clock = self

        @functools.wraps(embed)
        def timed_embed(*args, **kwargs):
            t0 = perf()
            z = embed(*args, **kwargs)
            clock.embed(t0, bool(getattr(z, "requires_grad", False)))
            return z

        @functools.wraps(step)
        def timed_step(*args, **kwargs):
            out = step(*args, **kwargs)
            clock.adam_done(perf())
            return out

        model.ProtoEEGNet.embed = timed_embed
        diffcore.Adam.step = timed_step

        def undo():
            model.ProtoEEGNet.embed = embed
            diffcore.Adam.step = step
        return undo


# ---------------------------------------------------------------------------
# after-call hooks: counts recorded at the same boundary as the span


def _path_size(p) -> int:
    try:
        return Path(p).stat().st_size
    except (OSError, TypeError):
        return 0


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _file_bytes(index, name):
    def hook(span, args, kwargs, result):
        span.attrs["bytes"] = _path_size(_arg(args, kwargs, index, name))
    return hook


def _kernel_hook(op):
    """Block number and computed flops: 2 * output-map size * ci*kh*kw."""
    def hook(span, args, kwargs, result):
        try:
            if op == "forward":
                out_map, kshape = result, args[1].shape
            elif op == "grad_input":
                out_map, kshape = args[0], args[1].shape
            else:
                out_map, kshape = args[0], result.shape
            span.attrs["block"] = _BLOCK_OF_CHANNELS.get(int(out_map.shape[1]))
            span.attrs["flop"] = 2.0 * out_map.size * kshape[1] * kshape[2] * kshape[3]
        except (AttributeError, IndexError, TypeError):
            pass
    return hook


def _backward_nodes(span, args, kwargs, result):
    root = _arg(args, kwargs, 0, "loss")
    if not hasattr(root, "_parents"):
        return
    seen, stack = {id(root)}, [root]
    while stack:
        node = stack.pop()
        for p in getattr(node, "_parents", ()):
            if getattr(p, "requires_grad", False) and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    span.attrs["nodes"] = len(seen)


def _iterations(span, args, kwargs, result):
    try:
        span.attrs["iterations"] = int(result[1]["iterations"])
    except (TypeError, KeyError, IndexError, ValueError):
        pass


def _rounds(span, args, kwargs, result):
    rounds = getattr(result, "rounds", None)
    if rounds is not None:
        span.attrs["rounds"] = int(rounds)


def _report_bytes(span, args, kwargs, result):
    if isinstance(result, dict):
        span.attrs["bytes"] = sum(_path_size(p) for p in result.values())


# (span name, module, attribute path, after-call hook or None)
TARGETS = (
    ("dataset.generate_synthetic", "protoeeg.dataset", "generate_synthetic", None),
    ("dataset.save", "protoeeg.dataset", "save", None),
    ("dataset.load", "protoeeg.dataset", "load", _file_bytes(0, "path")),
    ("sigproc.preprocess_window", "protoeeg.sigproc", "preprocess_window", None),
    ("kernels.forward", "protoeeg.kernels", "conv2d_forward", _kernel_hook("forward")),
    ("kernels.grad_input", "protoeeg.kernels", "conv2d_backward_input",
     _kernel_hook("grad_input")),
    ("kernels.grad_kernels", "protoeeg.kernels", "conv2d_backward_kernels",
     _kernel_hook("grad_kernels")),
    ("diffcore.layer_norm", "protoeeg.diffcore", "layer_norm", None),
    ("diffcore.elu", "protoeeg.diffcore", "elu", None),
    ("diffcore.backward", "protoeeg.diffcore", "backward", _backward_nodes),
    ("diffcore.adam", "protoeeg.diffcore", "Adam.step", None),
    ("losses.total_loss", "protoeeg.losses", "total_loss", None),
    ("model.embed", "protoeeg.model", "ProtoEEGNet.embed", None),  # hook set by Tracer
    ("model.forward_probs", "protoeeg.model", "ProtoEEGNet.forward_probs", None),
    ("model.save_model", "protoeeg.model", "save_model", _file_bytes(1, "path")),
    ("model.load_model", "protoeeg.model", "load_model", None),
    ("training.stage.warm", "protoeeg.training", "run_warm_stage", None),
    ("training.stage.secondary_warm", "protoeeg.training", "run_secondary_warm_stage", None),
    ("training.stage.joint", "protoeeg.training", "run_joint_stage", None),
    ("training.push_prototypes", "protoeeg.training", "push_prototypes", None),
    ("training.optimize_last_layer", "protoeeg.training", "optimize_last_layer",
     _iterations),
    ("evaluation.score_samples", "protoeeg.evaluation", "score_samples", None),
    ("evaluation.bootstrap_ci", "protoeeg.evaluation", "bootstrap_ci", _rounds),
    ("explain.explain", "protoeeg.explain", "explain", None),
    ("explain.render_report", "protoeeg.explain", "render_report", _report_bytes),
    ("explain.global_prototype_report", "protoeeg.explain", "global_prototype_report",
     None),
)


class Tracer:
    """Records spans while ``phase`` is set; passes calls straight through
    when it is None (set-up bookkeeping, correctness checks)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.phase = None
        self.absent = set()
        self.split_of = {}  # window fingerprint -> split name
        self._undo = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> Span:
        span = Span(name, perf(), self.stack[-1] if self.stack else None, self.phase)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.t1 = perf()
        self.stack.pop()

    def charge(self, seconds: float) -> None:
        """Book tracer work done inside the enclosing span as hidden time."""
        if self.stack:
            self.stack[-1].hidden += seconds

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.phase is None:
                return fn(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if hook is not None:
                h0 = perf()
                hook(span, args, kwargs, result)
                tracer.charge(perf() - h0)
            return result
        return traced

    def _embed_hook(self, span, args, kwargs, result):
        values = np.asarray(_arg(args, kwargs, 1, "values"), dtype=np.float64)
        rows = values[None] if values.ndim == 2 else values
        span.attrs["windows"] = rows.shape[0]
        span.attrs["tape"] = bool(getattr(result, "requires_grad", False))
        splits = {}
        for row in rows:
            key = self.split_of.get(row[0].tobytes(), "other")
            splits[key] = splits.get(key, 0) + 1
        span.attrs["splits"] = splits

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        import importlib

        import protoeeg.cli  # noqa: F401  (loads every layer module)

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "protoeeg" or n.startswith("protoeeg.")]
        for name, modname, attr, hook in TARGETS:
            if name == "model.embed":
                hook = self._embed_hook
            try:
                owner = importlib.import_module(modname)
            except ImportError:
                self.absent.add(name)
                continue
            *cls_path, leaf = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.absent.add(name)
                continue
            wrapper = self._wrap(name, original, hook)
            if cls_path:
                setattr(owner, leaf, wrapper)
                self._undo.append(lambda o=owner, k=leaf, v=original: setattr(o, k, v))
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append(lambda o=mod, k=key, v=original: setattr(o, k, v))
                    elif isinstance(value, dict) and not key.startswith("__"):
                        for dk, dv in list(value.items()):
                            if dv is original:
                                value[dk] = wrapper
                                self._undo.append(
                                    lambda d=value, k=dk, v=original: d.__setitem__(k, v))

    def uninstall(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    # -- output -----------------------------------------------------------------

    def write(self, path: Path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.t0, "end": s.t1,
                    "parent": index.get(id(s.parent)) if s.parent else None,
                    "phase": s.phase, "attrs": s.attrs, "hidden": s.hidden},
                    sort_keys=True) + "\n")


def read(path: Path) -> list:
    """Spans written by :meth:`Tracer.write` (a set-up child's), parents relinked."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            parent = out[rec["parent"]] if rec["parent"] is not None else None
            span = Span(rec["name"], rec["start"], parent, rec["phase"])
            span.t1 = rec["end"]
            span.attrs = rec["attrs"]
            span.hidden = rec["hidden"]
            out.append(span)
    return out


def unit_of(metric: str) -> str:
    if metric.endswith("ms"):
        return "ms"
    if metric.endswith(".bytes"):
        return "bytes"
    if metric.endswith(".gflop"):
        return "GFLOP"
    if metric.endswith("windows_per_s"):
        return "1/s"
    return "count"


def self_times(spans) -> dict:
    """id(span) -> duration minus its children's durations and hidden time."""
    child = {}
    for s in spans:
        if s.parent is not None:
            child[id(s.parent)] = child.get(id(s.parent), 0.0) + s.dur
    return {id(s): s.dur - child.get(id(s), 0.0) - s.hidden for s in spans}


def steps_from_spans(spans) -> list:
    """The StepClock's definition of a backbone step, read off recorded spans."""
    clock = StepClock()
    for s in sorted((s for s in spans if s.phase == "timed"), key=lambda s: s.t0):
        if s.name == "model.embed":
            clock.embed(s.t0, s.attrs.get("tape", False))
        elif s.name == "diffcore.adam":
            clock.adam_done(s.t1)
    return clock.steps


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(tracer: Tracer, *, rounds: int, setups: int, stage_windows: dict,
                  n_val: int) -> tuple[dict, list]:
    """Per-layer figures of one traced run.

    Set-up metrics (generation, dataset save, preprocessing) are per set-up;
    all others are per round of the timed phase.  Returns (metrics, absent).
    """
    timed = [s for s in tracer.spans if s.phase == "timed"]
    setup = [s for s in tracer.spans if s.phase == "setup"]
    selft = self_times(tracer.spans)

    def spans_of(name, pool=timed):
        return [s for s in pool if s.name == name]

    def ms(name, pool=timed, per=rounds):
        return 1e3 * sum(s.dur for s in spans_of(name, pool)) / per

    def self_ms(name):
        return 1e3 * sum(selft[id(s)] for s in spans_of(name)) / rounds

    def total(name, attr, pool=timed, per=rounds):
        return sum(s.attrs.get(attr, 0) for s in spans_of(name, pool)) / per

    def mean_attr(names, attr, pool):
        vals = [s.attrs[attr] for s in pool if s.name in names and attr in s.attrs]
        return statistics.fmean(vals) if vals else 0

    out = {}  # metric -> (value, span names it needs)
    for op in ("forward", "grad_input", "grad_kernels"):
        name = f"kernels.{op}"
        for b in (1, 2, 3, 4):
            out[f"{name}.b{b}.ms"] = (1e3 * sum(
                s.dur for s in spans_of(name) if s.attrs.get("block") == b) / rounds, [name])
        out[f"{name}.calls"] = (len(spans_of(name)) / rounds, [name])
        out[f"{name}.gflop"] = (total(name, "flop") / 1e9, [name])

    for short in ("layer_norm", "elu"):
        out[f"diffcore.{short}.ms"] = (ms(f"diffcore.{short}"), [f"diffcore.{short}"])
    out["diffcore.backward.self_ms"] = (self_ms("diffcore.backward"), ["diffcore.backward"])
    out["diffcore.backward.nodes"] = (total("diffcore.backward", "nodes"),
                                      ["diffcore.backward"])
    out["diffcore.adam.ms"] = (ms("diffcore.adam"), ["diffcore.adam"])
    out["losses.total_loss.ms"] = (ms("losses.total_loss"), ["losses.total_loss"])

    embeds = spans_of("model.embed")
    out["model.embed.self_ms"] = (self_ms("model.embed"), ["model.embed"])
    out["model.embed.windows_tape"] = (
        sum(s.attrs["windows"] for s in embeds if s.attrs.get("tape")) / rounds,
        ["model.embed"])
    off = [s for s in embeds if not s.attrs.get("tape")]
    out["model.embed.windows_off_tape"] = (
        sum(s.attrs["windows"] for s in off) / rounds, ["model.embed"])
    for short in ("forward_probs", "save_model", "load_model"):
        out[f"model.{short}.ms"] = (ms(f"model.{short}"), [f"model.{short}"])
    out["model.checkpoint.bytes"] = (
        mean_attr({"model.save_model"}, "bytes", timed), ["model.save_model"])

    for stage in ("warm", "secondary_warm", "joint"):
        name = f"training.stage.{stage}"
        secs = sum(s.dur for s in spans_of(name))
        windows = stage_windows.get(stage, 0) * rounds
        out[f"{name}.windows_per_s"] = (windows / secs if secs > 0 else 0.0, [name])
    out["training.push_prototypes.ms"] = (ms("training.push_prototypes"),
                                          ["training.push_prototypes"])
    out["training.optimize_last_layer.ms"] = (ms("training.optimize_last_layer"),
                                              ["training.optimize_last_layer"])
    out["training.optimize_last_layer.iterations"] = (
        total("training.optimize_last_layer", "iterations"),
        ["training.optimize_last_layer"])
    val_only = [s for s in off if set(s.attrs["splits"]) == {"val"}]
    out["training.validation.ms"] = (1e3 * sum(s.dur for s in val_only) / rounds,
                                     ["model.embed"])
    val_windows = sum(s.attrs["splits"].get("val", 0) for s in off)
    out["training.validation.passes"] = (
        val_windows / n_val / rounds if n_val else 0.0, ["model.embed"])

    out["evaluation.score_samples.ms"] = (ms("evaluation.score_samples"),
                                          ["evaluation.score_samples"])
    out["evaluation.bootstrap_ci.ms"] = (ms("evaluation.bootstrap_ci"),
                                         ["evaluation.bootstrap_ci"])
    out["evaluation.bootstrap_ci.rounds"] = (total("evaluation.bootstrap_ci", "rounds"),
                                             ["evaluation.bootstrap_ci"])

    for short in ("explain", "render_report", "global_prototype_report"):
        out[f"explain.{short}.ms"] = (ms(f"explain.{short}"), [f"explain.{short}"])
    out["explain.report.bytes"] = (total("explain.render_report", "bytes"),
                                   ["explain.render_report"])

    out["dataset.generate_synthetic.ms"] = (
        ms("dataset.generate_synthetic", setup, setups), ["dataset.generate_synthetic"])
    out["dataset.save.ms"] = (ms("dataset.save", setup, setups), ["dataset.save"])
    out["dataset.load.ms"] = (ms("dataset.load"), ["dataset.load"])
    out["dataset.file.bytes"] = (mean_attr({"dataset.load"}, "bytes", timed),
                                 ["dataset.load"])
    out["sigproc.preprocess_window.ms"] = (
        ms("sigproc.preprocess_window", setup, setups), ["sigproc.preprocess_window"])
    out["sigproc.windows"] = (len(spans_of("sigproc.preprocess_window", setup)) / setups,
                              ["sigproc.preprocess_window"])

    out["cli.self_ms"] = (self_ms("cli.main"), [])
    out["cli.hashed.bytes"] = (total("cli.main", "hashed"), [])

    metrics, absent = {}, []
    for name, (value, needs) in out.items():
        if any(n in tracer.absent for n in needs):
            absent.append(name)
        else:
            metrics[name] = float(value)
    return metrics, absent
