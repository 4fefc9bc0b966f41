"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

A :class:`Tensor` wraps an ndarray.  Ops build a closure-based tape;
:func:`backward` walks it in reverse topological order and returns the
gradient of each leaf it reaches (a tensor that no op produced, such as a
parameter) as a ``{leaf: gradient}`` dict.  Nothing is written on the
tensors, so each backward pass stands alone, and the gradient of an op's
result lives only during the walk.

Only the operations the network needs are provided, each for the batched
layout the network sends it.  Everything runs in float64; inputs of other
dtypes are converted on construction.

Grad mode is per thread: :func:`no_grad` on one thread leaves tape
construction on every other thread as it was, and a new thread starts with
the tape on.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

from . import kernels as _k
from .errors import ConfigurationError, NumericError


class _GradMode(threading.local):
    enabled = True  # each thread's starting value


_GRAD_MODE = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Disable tape construction inside the block (inference mode), on the
    calling thread only; other threads, and threads started inside the
    block, keep their own mode."""
    prev = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = prev


class Tensor:
    """float64 array with reverse-mode gradient tracking.

    ``requires_grad=True`` marks a leaf parameter; results of ops derive it
    from their inputs.
    """

    __slots__ = ("data", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise NumericError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data)

    # operator sugar for weighting and summing losses; scalars and ndarrays
    # are wrapped as constants
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    out = Tensor(data)
    if _GRAD_MODE.enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward_fn
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcasted gradient back to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return np.reshape(grad, shape)


def backward(loss: Tensor) -> dict:
    """Backpropagate from a scalar loss; returns ``{leaf: gradient}`` for
    every grad-requiring leaf the walk reaches.

    Raises NumericError when ``loss`` is not scalar.  The gradients of
    intermediate results are freed as the walk moves past them.  A returned
    array is the walk's own, so two leaves' arrays may share memory: read
    them, do not write them.
    """
    if loss.data.ndim != 0:
        raise NumericError(
            f"backward requires a scalar loss, got shape {loss.data.shape}"
        )

    # reverse topological order over the grad-tracked subgraph
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    grads: dict[Tensor, np.ndarray] = {}
    local: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = local.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            if node.requires_grad:
                grads[node] = g
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is None or not parent.requires_grad:
                continue
            acc = local.get(id(parent))
            local[id(parent)] = pg if acc is None else acc + pg
    return grads


# ---------------------------------------------------------------------------
# elementwise and structural ops


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data
    return _make(data, (a, b), lambda g: (_unbroadcast(g, a.data.shape),
                                          _unbroadcast(g, b.data.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data
    return _make(data, (a, b), lambda g: (_unbroadcast(g, a.data.shape),
                                          _unbroadcast(-g, b.data.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data
    return _make(data, (a, b), lambda g: (_unbroadcast(g * b.data, a.data.shape),
                                          _unbroadcast(g * a.data, b.data.shape)))


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g: (-g,))


def absolute(a: Tensor) -> Tensor:
    sign = np.sign(a.data)
    return _make(np.abs(a.data), (a,), lambda g: (g * sign,))


def reshape(a: Tensor, shape) -> Tensor:
    orig = a.data.shape
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(orig),))


def tsum(a: Tensor) -> Tensor:
    data = np.asarray(a.data.sum())
    return _make(data, (a,), lambda g: (np.full(a.data.shape, float(g)),))


def tmean(a: Tensor) -> Tensor:
    n = a.data.size
    data = np.asarray(a.data.mean())
    return _make(data, (a,), lambda g: (np.full(a.data.shape, float(g) / n),))


def linear(x: Tensor, weight: Tensor) -> Tensor:
    """Apply ``x @ weight.T`` to a batch of rows."""
    w = weight.data
    if w.ndim != 2:
        raise NumericError(f"linear weight must be 2-d, got ndim={w.ndim}")
    xd = x.data
    if xd.ndim != 2:
        raise NumericError(f"linear input must be 2-d, got ndim={xd.ndim}")
    if xd.shape[1] != w.shape[1]:
        raise NumericError(f"linear: weight {w.shape} incompatible with input {xd.shape}")
    data = xd @ w.T
    return _make(data, (x, weight), lambda g: (g @ w, g.T @ xd))


# ---------------------------------------------------------------------------
# nonlinearities and normalizations


def elu(x: Tensor) -> Tensor:
    """ELU as ``max(x, expm1(min(x, 0)))`` in one buffer; the backward takes
    its slope from the output, ``min(out + 1, 1)``."""
    xd = x.data
    out = np.minimum(xd, 0.0)
    np.expm1(out, out=out)
    np.maximum(xd, out, out=out)

    def bwd(g):
        slope = out + 1.0
        np.minimum(slope, 1.0, out=slope)
        slope *= g
        return (slope,)

    return _make(out, (x,), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each sample of an (N, C, H, W) batch over (C, H, W) with
    batch-invariant numpy row reductions, then apply a broadcast affine.

    The rows are the samples in (H, W, C) memory order, a view of a
    channels-last input, and the output and the input gradient keep that
    layout."""
    xd = x.data
    if xd.ndim != 4:
        raise NumericError(f"layer_norm expects 4-d input, got ndim={xd.ndim}")
    n, c, h, w = xd.shape
    # the row length is explicit: -1 cannot be inferred for N = 0
    rows = xd.transpose(0, 2, 3, 1).reshape(n, h * w * c)

    def nchw(r):
        return r.reshape(n, h, w, c).transpose(0, 3, 1, 2)

    xhat = rows - rows.mean(axis=1, keepdims=True)
    sq = np.square(xhat)
    inv = 1.0 / np.sqrt(sq.mean(axis=1, keepdims=True) + eps)
    xhat *= inv
    xhat4 = nchw(xhat)
    try:
        data = np.multiply(gain.data, xhat4, out=nchw(sq))
        data += bias.data
    except ValueError as exc:
        raise NumericError(
            f"layer_norm affine shapes {gain.data.shape}/{bias.data.shape} "
            f"do not broadcast over {xd.shape}"
        ) from exc

    def bwd(g):
        dgain = _unbroadcast(g * xhat4, gain.data.shape)
        dbias = _unbroadcast(g, bias.data.shape)
        dx = np.multiply(g, gain.data).transpose(0, 2, 3, 1).reshape(xhat.shape)
        tmp = dx * xhat
        m2 = tmp.mean(axis=1, keepdims=True)
        dx -= dx.mean(axis=1, keepdims=True)
        dx -= np.multiply(xhat, m2, out=tmp)
        dx *= inv
        return nchw(dx), dgain, dbias

    return _make(data, (x, gain, bias), bwd)


def conv2d_valid(x: Tensor, kernels: Tensor, stride=(1, 1)) -> Tensor:
    """Valid-mode 2-d convolution (cross-correlation), no padding.

    Takes (N, C, H, W) input and (C_out, C_in, kh, kw) kernels.  The heavy
    lifting is delegated to :mod:`protoeeg.kernels`.
    The gradient with respect to an input that does not require grad (the
    raw window into the first block) is not computed.
    """
    sh, sw = int(stride[0]), int(stride[1])
    if sh < 1 or sw < 1:
        raise ConfigurationError(f"conv2d_valid stride must be >= 1, got {stride}")
    kd = kernels.data
    if kd.ndim != 4:
        raise NumericError(f"kernels must be 4-d, got ndim={kd.ndim}")
    xd = x.data
    if xd.ndim != 4:
        raise NumericError(f"conv input must be 4-d, got ndim={xd.ndim}")
    n, ci, h, w = xd.shape
    co, kci, kh, kw = kd.shape
    if kci != ci:
        raise NumericError(f"channel mismatch: input has {ci}, kernels expect {kci}")
    if kh > h or kw > w:
        raise NumericError(f"kernel ({kh},{kw}) larger than input ({h},{w})")

    out = _k.conv2d_forward(xd, kd, sh, sw)

    def bwd(g):
        gk = _k.conv2d_backward_kernels(g, xd, kh, kw, sh, sw)
        if not x.requires_grad:
            return None, gk
        return _k.conv2d_backward_input(g, kd, h, w, sh, sw), gk

    return _make(out, (x, kernels), bwd)


def l2_normalize(v: Tensor) -> Tensor:
    """Scale each row of a matrix to unit L2 norm."""
    vd = v.data
    if vd.ndim != 2:
        raise NumericError(f"l2_normalize expects 2-d input, got ndim={vd.ndim}")
    norms = np.linalg.norm(vd, axis=1, keepdims=True)
    if np.any(norms <= 1e-8):
        bad = int(np.argmin(norms))
        raise NumericError(
            f"cannot normalize row {bad} with norm {float(norms[bad, 0]):.3e}"
        )
    y = vd / norms

    def bwd(g):
        return ((g - y * np.sum(y * g, axis=1, keepdims=True)) / norms,)

    return _make(y, (v,), bwd)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Batch-mean cross-entropy of integer ``labels`` under (N, K) logits.

    The forward is log-sum-exp minus the labelled logit, so no probability
    is clipped; the backward is (softmax - onehot) / N.
    """
    ld = logits.data
    if ld.ndim != 2:
        raise NumericError(f"cross_entropy expects 2-d logits, got ndim={ld.ndim}")
    lab = np.asarray(labels, dtype=np.int64)
    if lab.ndim != 1 or lab.shape[0] != ld.shape[0]:
        raise NumericError(
            f"labels shape {lab.shape} does not match logits {ld.shape}"
        )
    if lab.size and (lab.min() < 0 or lab.max() >= ld.shape[1]):
        raise ConfigurationError(
            f"labels must lie in [0, {ld.shape[1]}), got range "
            f"[{lab.min()}, {lab.max()}]"
        )
    if not np.all(np.isfinite(ld)):
        raise NumericError("cross_entropy received non-finite logits")
    n = ld.shape[0]
    rows = np.arange(n)
    top = ld.max(axis=1)
    e = np.exp(ld - top[:, None])
    s = e.sum(axis=1)
    data = np.asarray(np.mean(np.log(s) + top - ld[rows, lab]))

    def bwd(g):
        gl = e / s[:, None]
        gl[rows, lab] -= 1.0
        return (gl * (float(g) / n),)

    return _make(data, (logits,), bwd)


def masked_rowmax(x: Tensor, mask: np.ndarray) -> Tensor:
    """Per-row maximum of ``x`` restricted to ``mask`` (bool, same shape)."""
    xd = x.data
    mask = np.asarray(mask, dtype=bool)
    if xd.ndim != 2 or mask.shape != xd.shape:
        raise NumericError(
            f"masked_rowmax expects matching 2-d shapes, got {xd.shape} and {mask.shape}"
        )
    if not mask.any(axis=1).all():
        bad = int(np.argmin(mask.any(axis=1)))
        raise ConfigurationError(f"masked_rowmax: row {bad} has an empty mask")
    masked = np.where(mask, xd, -np.inf)
    idx = masked.argmax(axis=1)
    rows = np.arange(xd.shape[0])
    data = masked[rows, idx]

    def bwd(g):
        gx = np.zeros_like(xd)
        gx[rows, idx] = g
        return (gx,)

    return _make(data, (x,), bwd)


# ---------------------------------------------------------------------------
# Adam


class Adam:
    """Bias-corrected Adam over named groups of Tensors: one step counter and
    one pair of moments per parameter; each step brings the gradients and
    every group's rate."""

    beta1, beta2, epsilon = 0.9, 0.999, 1e-8

    def __init__(self, groups: dict):
        self.step_count = 0
        self.groups = {name: [(p, np.zeros_like(p.data), np.zeros_like(p.data))
                              for p in params]
                       for name, params in groups.items()}

    def step(self, grads: dict, lr: dict) -> None:
        """One update of every parameter from its gradient in `grads` (as
        :func:`backward` returns them) at its group's rate in `lr`, mutating
        ``.data`` in place."""
        self.step_count += 1
        b1, b2, eps = self.beta1, self.beta2, self.epsilon
        c1 = 1.0 - b1 ** self.step_count
        c2 = 1.0 - b2 ** self.step_count
        for name, params in self.groups.items():
            for p, m, v in params:
                g = grads[p]
                if p.data.shape != g.shape:
                    raise NumericError(f"Adam: param {p.data.shape} vs grad {g.shape}")
                if not np.all(np.isfinite(g)):
                    raise NumericError("Adam received a non-finite gradient")
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * (g * g)
                p.data -= lr[name] * (m / c1) / (np.sqrt(v / c2) + eps)
