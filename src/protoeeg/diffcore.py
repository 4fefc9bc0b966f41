"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

A :class:`Tensor` wraps an ndarray plus an optional gradient buffer.  Ops
build a closure-based tape; :func:`backward` walks it in reverse
topological order.  Gradients accumulate additively into ``.grad`` until
explicitly reset, so repeated backward passes sum their contributions
(the semantics optimizers rely on for gradient accumulation).

Only the operations the network needs are provided.  Everything runs in
float64; inputs of other dtypes are converted on construction.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from . import kernels as _k
from .errors import (
    ConfigurationError,
    ContractError,
    DegenerateInputError,
    DimensionError,
    NumericError,
)

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable tape construction inside the block (inference mode)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """float64 array with reverse-mode gradient tracking.

    ``grad`` is lazily allocated and zero until a backward pass reaches
    this tensor.  ``requires_grad=True`` marks a leaf parameter; results
    of ops derive it from their inputs.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def backward(self) -> None:
        backward(self)

    # operator sugar; scalars and ndarrays are wrapped as constants
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __neg__(self):
        return neg(self)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise ContractError("tensor/tensor division is not supported")
        return mul(self, _as_tensor(1.0 / float(other)))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
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


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss, accumulating into ``.grad``.

    Raises ContractError when ``loss`` is not scalar.  Each call adds its
    contribution on top of whatever gradients are already stored.
    """
    if loss.data.ndim != 0:
        raise ContractError(
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

    local: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = local.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            node.grad = g.copy() if node.grad is None else node.grad + g
        if node._backward is None:
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is None or not parent.requires_grad:
                continue
            acc = local.get(id(parent))
            local[id(parent)] = pg if acc is None else acc + pg


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


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise DimensionError(f"transpose expects a 2-d tensor, got ndim={a.data.ndim}")
    return _make(np.ascontiguousarray(a.data.T), (a,), lambda g: (g.T,))


def get_rows(a: Tensor, start: int, stop: int) -> Tensor:
    if a.data.ndim != 2:
        raise DimensionError(f"get_rows expects a 2-d tensor, got ndim={a.data.ndim}")
    if not (0 <= start < stop <= a.data.shape[0]):
        raise DimensionError(
            f"row slice [{start}:{stop}] out of range for {a.data.shape[0]} rows"
        )

    def bwd(g):
        full = np.zeros_like(a.data)
        full[start:stop] = g
        return (full,)

    return _make(a.data[start:stop].copy(), (a,), bwd)


def tsum(a: Tensor) -> Tensor:
    data = np.asarray(a.data.sum())
    return _make(data, (a,), lambda g: (np.full(a.data.shape, float(g)),))


def tmean(a: Tensor) -> Tensor:
    n = a.data.size
    data = np.asarray(a.data.mean())
    return _make(data, (a,), lambda g: (np.full(a.data.shape, float(g) / n),))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.ndim not in (1, 2) or bd.ndim not in (1, 2):
        raise DimensionError(
            f"matmul supports 1-d/2-d operands, got {ad.ndim}-d @ {bd.ndim}-d"
        )
    try:
        data = ad @ bd
    except ValueError as exc:
        raise DimensionError(f"matmul shape mismatch {ad.shape} @ {bd.shape}") from exc

    def bwd(g):
        if ad.ndim == 2 and bd.ndim == 2:
            return g @ bd.T, ad.T @ g
        if ad.ndim == 2 and bd.ndim == 1:
            return np.outer(g, bd), ad.T @ g
        if ad.ndim == 1 and bd.ndim == 2:
            return bd @ g, np.outer(ad, g)
        return g * bd, g * ad

    return _make(data, (a, b), bwd)


def linear(x: Tensor, weight: Tensor) -> Tensor:
    """Apply ``weight @ x`` (1-d input) or ``x @ weight.T`` (batched rows)."""
    w = weight.data
    if w.ndim != 2:
        raise DimensionError(f"linear weight must be 2-d, got ndim={w.ndim}")
    xd = x.data
    if xd.ndim == 1:
        if xd.shape[0] != w.shape[1]:
            raise DimensionError(f"linear: weight {w.shape} incompatible with input {xd.shape}")
        data = w @ xd
        return _make(data, (x, weight), lambda g: (w.T @ g, np.outer(g, xd)))
    if xd.ndim == 2:
        if xd.shape[1] != w.shape[1]:
            raise DimensionError(f"linear: weight {w.shape} incompatible with input {xd.shape}")
        data = xd @ w.T
        return _make(data, (x, weight), lambda g: (g @ w, g.T @ xd))
    raise DimensionError(f"linear input must be 1-d or 2-d, got ndim={xd.ndim}")


# ---------------------------------------------------------------------------
# nonlinearities and normalizations


def elu(x: Tensor) -> Tensor:
    xd = x.data
    ex = np.exp(np.minimum(xd, 0.0))
    data = np.where(xd > 0, xd, ex - 1.0)
    slope = np.where(xd > 0, 1.0, ex)
    return _make(data, (x,), lambda g: (g * slope,))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over all non-batch axes, then apply a broadcast affine.

    4-d input is treated as (N, C, H, W) with per-sample normalization;
    3-d input as a single (C, H, W) sample.
    """
    xd = x.data
    if xd.ndim == 4:
        axes = (1, 2, 3)
    elif xd.ndim == 3:
        axes = (0, 1, 2)
    else:
        raise DimensionError(f"layer_norm expects 3-d or 4-d input, got ndim={xd.ndim}")

    mu = xd.mean(axis=axes, keepdims=True)
    xc = xd - mu
    var = np.mean(xc * xc, axis=axes, keepdims=True)
    sigma = np.sqrt(var + eps)
    xhat = xc / sigma
    try:
        data = gain.data * xhat + bias.data
    except ValueError as exc:
        raise DimensionError(
            f"layer_norm affine shapes {gain.data.shape}/{bias.data.shape} "
            f"do not broadcast over {xd.shape}"
        ) from exc

    def bwd(g):
        dgain = _unbroadcast(g * xhat, gain.data.shape)
        dbias = _unbroadcast(g, bias.data.shape)
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=axes, keepdims=True)
        m2 = np.mean(dxhat * xhat, axis=axes, keepdims=True)
        dx = (dxhat - m1 - xhat * m2) / sigma
        return dx, dgain, dbias

    return _make(data, (x, gain, bias), bwd)


def conv2d_valid(x: Tensor, kernels: Tensor, stride=(1, 1)) -> Tensor:
    """Valid-mode 2-d convolution (cross-correlation), no padding.

    Accepts (C, H, W) or (N, C, H, W) input with (C_out, C_in, kh, kw)
    kernels.  The heavy lifting is delegated to :mod:`protoeeg.kernels`.
    The gradient with respect to an input that does not require grad (the
    raw window into the first block) is not computed.
    """
    sh, sw = int(stride[0]), int(stride[1])
    if sh < 1 or sw < 1:
        raise ConfigurationError(f"conv2d_valid stride must be >= 1, got {stride}")
    kd = kernels.data
    if kd.ndim != 4:
        raise DimensionError(f"kernels must be 4-d, got ndim={kd.ndim}")
    xd = x.data
    squeeze = xd.ndim == 3
    if squeeze:
        xd = xd[None]
    if xd.ndim != 4:
        raise DimensionError(f"conv input must be 3-d or 4-d, got ndim={x.data.ndim}")
    n, ci, h, w = xd.shape
    co, kci, kh, kw = kd.shape
    if kci != ci:
        raise DimensionError(f"channel mismatch: input has {ci}, kernels expect {kci}")
    if kh > h or kw > w:
        raise DimensionError(f"kernel ({kh},{kw}) larger than input ({h},{w})")

    xc = np.ascontiguousarray(xd)
    kc = np.ascontiguousarray(kd)
    out = _k.conv2d_forward(xc, kc, sh, sw)

    def bwd(g):
        g4 = np.ascontiguousarray(g[None] if squeeze else g)
        gk = _k.conv2d_backward_kernels(g4, xc, kh, kw, sh, sw)
        if not x.requires_grad:
            return None, gk
        gin = _k.conv2d_backward_input(g4, kc, h, w, sh, sw)
        return (gin[0] if squeeze else gin), gk

    return _make(out[0] if squeeze else out, (x, kernels), bwd)


def l2_normalize(v: Tensor) -> Tensor:
    """Scale a vector (or each row of a matrix) to unit L2 norm."""
    vd = v.data
    if vd.ndim == 1:
        norm = np.linalg.norm(vd)
        if norm <= 1e-8:
            raise DegenerateInputError(f"cannot normalize vector with norm {norm:.3e}")
        y = vd / norm
        return _make(y, (v,), lambda g: ((g - y * np.dot(y, g)) / norm,))
    if vd.ndim == 2:
        norms = np.linalg.norm(vd, axis=1, keepdims=True)
        if np.any(norms <= 1e-8):
            bad = int(np.argmin(norms))
            raise DegenerateInputError(
                f"cannot normalize row {bad} with norm {float(norms[bad, 0]):.3e}"
            )
        y = vd / norms

        def bwd(g):
            return ((g - y * np.sum(y * g, axis=1, keepdims=True)) / norms,)

        return _make(y, (v,), bwd)
    raise DimensionError(f"l2_normalize expects 1-d or 2-d input, got ndim={vd.ndim}")


def cosine_similarity(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.ndim != 1 or bd.ndim != 1 or ad.shape != bd.shape:
        raise DimensionError(
            f"cosine_similarity expects matching 1-d vectors, got {ad.shape} and {bd.shape}"
        )
    na = np.linalg.norm(ad)
    nb = np.linalg.norm(bd)
    if na <= 1e-8 or nb <= 1e-8:
        raise DegenerateInputError(
            f"cosine similarity undefined for norms {na:.3e}, {nb:.3e}"
        )
    c = float(np.dot(ad, bd) / (na * nb))

    def bwd(g):
        ga = g * (bd / (na * nb) - c * ad / (na * na))
        gb = g * (ad / (na * nb) - c * bd / (nb * nb))
        return ga, gb

    return _make(np.asarray(c), (a, b), bwd)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis of a 1-d or 2-d tensor."""
    xd = x.data
    if xd.ndim not in (1, 2):
        raise DimensionError(f"softmax expects 1-d or 2-d input, got ndim={xd.ndim}")
    if not np.all(np.isfinite(xd)):
        raise NumericError("softmax received non-finite input")
    z = xd - xd.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = np.sum(g * p, axis=-1, keepdims=True)
        return (p * (g - dot),)

    return _make(p, (x,), bwd)


def cross_entropy(probs: Tensor, labels) -> Tensor:
    """Negative log-likelihood of ``labels`` under ``probs``.

    1-d probs with an int label gives a single-sample loss; 2-d probs
    with a label vector gives the batch mean.  Probabilities are clamped
    at 1e-12 inside the log.
    """
    pd = probs.data
    if pd.ndim == 1:
        label = int(labels)
        if not 0 <= label < pd.shape[0]:
            raise IndexError(f"label {label} outside [0, {pd.shape[0]})")
        picked = max(float(pd[label]), 1e-12)
        data = np.asarray(-np.log(picked))

        def bwd(g):
            gp = np.zeros_like(pd)
            gp[label] = -float(g) / picked
            return (gp,)

        return _make(data, (probs,), bwd)

    if pd.ndim == 2:
        lab = np.asarray(labels, dtype=np.int64)
        if lab.ndim != 1 or lab.shape[0] != pd.shape[0]:
            raise DimensionError(
                f"labels shape {lab.shape} does not match probs {pd.shape}"
            )
        if lab.size and (lab.min() < 0 or lab.max() >= pd.shape[1]):
            raise IndexError(
                f"labels must lie in [0, {pd.shape[1]}), got range "
                f"[{lab.min()}, {lab.max()}]"
            )
        n = pd.shape[0]
        picked = np.maximum(pd[np.arange(n), lab], 1e-12)
        data = np.asarray(-np.mean(np.log(picked)))

        def bwd(g):
            gp = np.zeros_like(pd)
            gp[np.arange(n), lab] = -float(g) / (n * picked)
            return (gp,)

        return _make(data, (probs,), bwd)

    raise DimensionError(f"cross_entropy expects 1-d or 2-d probs, got ndim={pd.ndim}")


def masked_rowmax(x: Tensor, mask: np.ndarray) -> Tensor:
    """Per-row maximum of ``x`` restricted to ``mask`` (bool, same shape)."""
    xd = x.data
    mask = np.asarray(mask, dtype=bool)
    if xd.ndim != 2 or mask.shape != xd.shape:
        raise DimensionError(
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


@dataclass
class AdamState:
    """Moment buffers for one parameter list."""

    first_moment: list = field(default_factory=list)
    second_moment: list = field(default_factory=list)
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8


def init_adam(params: list, beta1: float = 0.9, beta2: float = 0.999,
              epsilon: float = 1e-8) -> AdamState:
    return AdamState(
        first_moment=[np.zeros_like(p) for p in params],
        second_moment=[np.zeros_like(p) for p in params],
        step=0,
        beta1=beta1,
        beta2=beta2,
        epsilon=epsilon,
    )


def adam_step(params: list, grads: list, state: AdamState, lr: float):
    """One bias-corrected Adam update, mutating ``params`` in place.

    Returns ``(params, state)``.  A zero gradient leaves the matching
    parameter exactly unchanged on the first step.
    """
    if len(params) != len(grads) or len(params) != len(state.first_moment):
        raise DimensionError(
            f"adam_step: got {len(params)} params, {len(grads)} grads, "
            f"{len(state.first_moment)} moment buffers"
        )
    if lr < 0:
        raise ConfigurationError(f"adam_step: negative learning rate {lr}")
    state.step += 1
    b1, b2, eps = state.beta1, state.beta2, state.epsilon
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        if p.shape != g.shape:
            raise DimensionError(f"adam_step: param {p.shape} vs grad {g.shape}")
        if not np.all(np.isfinite(g)):
            raise NumericError("adam_step received a non-finite gradient")
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    return params, state


class Adam:
    """Adam over named parameter groups of Tensors with per-group rates."""

    def __init__(self, groups: list[dict]):
        if not groups:
            raise ConfigurationError("Adam requires at least one parameter group")
        self.groups = []
        for spec in groups:
            params = list(spec["params"])
            lr = float(spec["lr"])
            if lr < 0:
                raise ConfigurationError(f"negative learning rate for group {spec.get('name')}")
            self.groups.append({
                "name": spec.get("name", f"group{len(self.groups)}"),
                "params": params,
                "lr": lr,
                "state": init_adam([p.data for p in params]),
            })

    def set_lr(self, name: str, lr: float) -> None:
        for g in self.groups:
            if g["name"] == name:
                g["lr"] = float(lr)
                return
        raise ConfigurationError(f"no parameter group named {name!r}")

    def lr_of(self, name: str) -> float:
        for g in self.groups:
            if g["name"] == name:
                return g["lr"]
        raise ConfigurationError(f"no parameter group named {name!r}")

    def step(self) -> None:
        for g in self.groups:
            datas = [p.data for p in g["params"]]
            grads = [p.grad if p.grad is not None else np.zeros_like(p.data)
                     for p in g["params"]]
            adam_step(datas, grads, g["state"], g["lr"])

    def zero_grad(self) -> None:
        for g in self.groups:
            for p in g["params"]:
                p.grad = None
