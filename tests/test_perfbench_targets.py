"""The benchmark's tracer wraps protoeeg functions by name.

A traced function that is renamed or deleted is reported by the benchmark
as absent and its metrics silently drop out; these tests fail instead.
The same holds for a hook that reads a field the function no longer
returns.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from protoeeg.cli import main
from protoeeg.dataset import (DatasetManifest, SynthConfig, generate_synthetic,
                              manifest_path)
from protoeeg.evaluation import bootstrap_ci
from protoeeg.model import ProtoEEGNet
from protoeeg.training import optimize_last_layer

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def spans():
    return _perfbench_module("spans")


@pytest.fixture(scope="module")
def workloads():
    return _perfbench_module("workloads")


@pytest.fixture(scope="module")
def targets(spans):
    return spans.TARGETS


def hook_attrs(spans, name, result) -> dict:
    """The attributes the benchmark's hook for `name` records from `result`."""
    hook = {entry[0]: entry[3] for entry in spans.TARGETS}[name]
    span = spans.Span(name, 0.0, None, None)
    hook(span, (), {}, result)
    return span.attrs


def test_every_traced_function_exists(targets):
    assert targets
    for name, module, attr, _ in targets:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{name}: {module}.{attr} is not in the program"


def test_bootstrap_hook_records_rounds(spans):
    ci = bootstrap_ci([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1], rounds=50, seed=0)
    assert hook_attrs(spans, "evaluation.bootstrap_ci", ci) == {"rounds": 50}


def test_refit_hook_records_iterations(spans):
    net = ProtoEEGNet.initialize(seed=0)
    rng = np.random.default_rng(0)
    latents = rng.standard_normal((2 * net.bank.num_classes, net.config.latent_dim))
    latents /= np.linalg.norm(latents, axis=1, keepdims=True)
    labels = np.arange(latents.shape[0]) % net.bank.num_classes
    result = optimize_last_layer(net, latents, labels, max_iters=7)
    assert hook_attrs(spans, "training.optimize_last_layer", result) == \
        {"iterations": result[1]["iterations"]}


def test_workloads_read_the_dataset(workloads, tmp_path):
    # the benchmark's checks read `load`'s result row by row
    assert main(["synth", "--n", "40", "--seed", "2", "--out", str(tmp_path)]) == 0
    data_file = tmp_path / "dataset.peeg"
    manifest = DatasetManifest.from_json(manifest_path(data_file).read_text("utf-8"))
    expected, _ = generate_synthetic(SynthConfig(n_samples=40, seed=2))
    windows, votes, loaded = workloads._load_dataset(data_file)
    assert loaded.splits == manifest.splits
    assert sorted(windows) == sorted(votes) == sorted(manifest.splits) == list(range(40))
    for sid in manifest.splits:
        assert windows[sid].dtype == np.float64
        assert np.array_equal(windows[sid], expected.values[sid])
        assert votes[sid] == int(expected.votes[sid])
    assert workloads._split_sizes(data_file) == {
        name: len(manifest.ids_for(name)) for name in ("train", "val", "test")}
