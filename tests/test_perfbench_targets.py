"""The benchmark's tracer wraps protoeeg functions by name.

A traced function that is renamed or deleted is reported by the benchmark
as absent and its metrics silently drop out; this test fails instead.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def targets():
    sys.path.insert(0, str(PERFBENCH))
    try:
        spans = importlib.import_module("spans")
    finally:
        sys.path.remove(str(PERFBENCH))
    return spans.TARGETS


def test_every_traced_function_exists(targets):
    assert targets
    for name, module, attr, _ in targets:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{name}: {module}.{attr} is not in the program"
