import json

import numpy as np
import pytest

from protoeeg import diffcore as dc
from protoeeg import model as m
from protoeeg.container import read_framed, write_framed
from protoeeg.dataset import make_windows


def fd_gradient(loss_fn, param: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar-valued closure w.r.t. param.

    ``loss_fn`` must recompute the loss from current array contents; the
    array is perturbed in place one coordinate at a time.
    """
    grad = np.zeros_like(param)
    flat = param.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = loss_fn()
        flat[i] = orig - h
        fm = loss_fn()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def assert_grad_matches(analytic: np.ndarray, numeric: np.ndarray,
                        rel: float = 1e-4, abs_floor: float = 1e-7) -> None:
    """Relative error <= rel, falling back to absolute for tiny true values."""
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    assert analytic.shape == numeric.shape
    diff = np.abs(analytic - numeric)
    small = np.abs(numeric) < 1e-3
    bad_small = small & (diff > abs_floor)
    bad_large = ~small & (diff > rel * np.abs(numeric))
    bad = bad_small | bad_large
    if bad.any():
        idx = np.unravel_index(int(np.argmax(diff * bad)), diff.shape)
        raise AssertionError(
            f"gradient mismatch at {idx}: analytic={analytic[idx]!r} "
            f"numeric={numeric[idx]!r} (max diff {diff[bad].max():.3e})"
        )


def gradcheck(build_loss, params: list, h: float = 1e-5) -> None:
    """Compare backward() gradients against central differences.

    ``build_loss(params) -> Tensor`` must rebuild the graph from the
    Tensors' current data on every call.
    """
    for p in params:
        p.zero_grad()
    loss = build_loss(params)
    dc.backward(loss)
    for p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        numeric = fd_gradient(lambda: float(build_loss(params).data), p.data, h=h)
        assert_grad_matches(analytic, numeric)


def train_data(values, labels, ids=None) -> tuple:
    """(train, val): raw train arrays as a dataset record array, so float32
    values, and an empty validation split; ids default to 0..n-1."""
    values = np.asarray(values)
    ids = np.arange(len(labels)) if ids is None else ids
    return (make_windows(ids, labels, values),
            make_windows([], [], np.empty((0,) + values.shape[1:])))


def rewrite_header(path, edit) -> None:
    """Drop (``{"drop": key}``) or replace (``{"set": (key, value)}``) one
    checkpoint header key, map the encoded header to new text
    (``{"text": fn}``) or the parameter bytes after it to new bytes
    (``{"payload": fn}``), and recompute the trailer.  The header is encoded
    as `save_model` encodes it."""
    (header_len,), payload, _ = read_framed(path, m.MODEL_MAGIC, m.MODEL_VERSION, 1, "model")
    header = json.loads(bytes(payload[:header_len]))
    if "drop" in edit:
        del header[edit["drop"]]
    elif "set" in edit:
        key, value = edit["set"]
        header[key] = value
    text = json.dumps(header, sort_keys=True)
    new_header = (edit["text"](text) if "text" in edit else text).encode()
    params = bytes(payload[header_len:])
    write_framed(path, m.MODEL_MAGIC, m.MODEL_VERSION, (len(new_header),),
                 new_header + edit.get("payload", lambda b: b)(params))


def key_path(steps) -> str:
    """The path an error names: ``coefficients.clst``, ``push_epochs[0]``."""
    return "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in steps)[1:]


def same_json_type(value, default) -> bool:
    """Whether JSON `value` has the type of `default`; an int may stand for a float."""
    if isinstance(value, bool) or isinstance(default, bool):
        return type(value) is type(default)
    if isinstance(default, float):  # an int may stand for a float
        return isinstance(value, (int, float))
    return type(value) is type(default)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
