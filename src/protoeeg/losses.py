"""Training losses: cross-entropy plus cluster, separation, orthogonality,
and off-class L1, combined with fixed coefficients.

Sign convention: ``cluster_loss`` carries a leading minus (it returns
minus the mean max same-class similarity), and the ``clst`` coefficient
is stored positive (default 0.1).  The product therefore rewards
same-class similarity: pulling a latent toward its class prototypes
lowers the total.  ``separation_loss`` is the mirror term with positive
sign and ships disabled (coefficient 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor
from .errors import ConfigurationError, DimensionError
from .model import PrototypeBank


@dataclass(frozen=True)
class LossCoefficients:
    crs_ent: float = 1.25
    clst: float = 0.1
    sep: float = 0.0
    ortho: float = 0.5
    l1: float = 0.01

    def __post_init__(self):
        vals = (self.crs_ent, self.clst, self.sep, self.ortho, self.l1)
        if not all(np.isfinite(v) for v in vals):
            raise ConfigurationError("loss coefficients must be finite")
        if self.crs_ent <= 0:
            raise ConfigurationError(f"crs_ent must be positive, got {self.crs_ent}")


@dataclass
class BatchLossReport:
    total: float
    cross_entropy: float
    cluster: float
    separation: float
    orthogonality: float
    l1: float
    tensor: Tensor | None = field(default=None, repr=False, compare=False)


def _as_latent_tensor(latents) -> Tensor:
    t = latents if isinstance(latents, Tensor) else Tensor(latents)
    if t.data.ndim != 2:
        raise DimensionError(f"latents must be (N, d), got shape {t.data.shape}")
    return t


def _check_labels(labels, bank: PrototypeBank) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise DimensionError(f"labels must be 1-d, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= bank.num_classes):
        raise ConfigurationError(
            f"label {int(labels.max())} has no prototypes in a "
            f"{bank.num_classes}-class bank"
        )
    return labels


def cluster_loss(latents, labels, bank: PrototypeBank) -> Tensor:
    """Minus the mean max same-class similarity: lower when latents sit
    near a prototype of their own class."""
    lat = _as_latent_tensor(latents)
    labels = _check_labels(labels, bank)
    sims = dc.matmul(lat, dc.transpose(bank.vectors))
    mask = bank.prototype_classes()[None, :] == labels[:, None]
    return dc.neg(dc.tmean(dc.masked_rowmax(sims, mask)))


def separation_loss(latents, labels, bank: PrototypeBank) -> Tensor:
    """Mean max other-class similarity (positive sign: penalizes overlap)."""
    if bank.num_classes < 2:
        raise ConfigurationError("separation loss needs at least two prototype classes")
    lat = _as_latent_tensor(latents)
    labels = _check_labels(labels, bank)
    sims = dc.matmul(lat, dc.transpose(bank.vectors))
    mask = bank.prototype_classes()[None, :] != labels[:, None]
    return dc.tmean(dc.masked_rowmax(sims, mask))


def orthogonality_loss(bank: PrototypeBank) -> Tensor:
    """Sum over classes of ||P P^T - I||_F^2 for the class's prototype rows."""
    eye = Tensor(np.eye(bank.per_class))
    total = Tensor(np.asarray(0.0))
    for c in range(bank.num_classes):
        sl = bank.class_slice(c)
        rows = dc.get_rows(bank.vectors, sl.start, sl.stop)
        gram = dc.matmul(rows, dc.transpose(rows))
        diff = dc.sub(gram, eye)
        total = dc.add(total, dc.tsum(dc.mul(diff, diff)))
    return total


def l1_offclass(head: Tensor) -> Tensor:
    """Sum of |w| over entries whose prototype class differs from the row class.

    The class layout is inferred from the head shape: row k owns the
    k-th contiguous block of columns.
    """
    k, j = head.data.shape
    if j % k != 0:
        raise DimensionError(f"head shape {head.data.shape} has no per-class block layout")
    per_class = j // k
    proto_class = np.repeat(np.arange(k), per_class)
    off = (proto_class[None, :] != np.arange(k)[:, None]).astype(np.float64)
    return dc.tsum(dc.mul(dc.absolute(head), Tensor(off)))


def total_loss(latents, labels, bank: PrototypeBank, head: Tensor,
               coefs: LossCoefficients = LossCoefficients()) -> BatchLossReport:
    """Weighted combination of all terms; components reported unweighted.

    The returned report carries the scalar graph node in ``.tensor`` for
    backward passes.
    """
    lat = _as_latent_tensor(latents)
    labels = _check_labels(labels, bank)
    sims = dc.matmul(lat, dc.transpose(bank.vectors))
    probs = dc.softmax(dc.linear(sims, head))
    ce = dc.cross_entropy(probs, labels)
    clst = cluster_loss(lat, labels, bank)
    sep = separation_loss(lat, labels, bank)
    orth = orthogonality_loss(bank)
    l1 = l1_offclass(head)

    total = ce * coefs.crs_ent
    total = total + sep * coefs.sep
    total = total + clst * coefs.clst
    total = total + orth * coefs.ortho
    total = total + l1 * coefs.l1

    return BatchLossReport(
        total=total.item(), cross_entropy=ce.item(), cluster=clst.item(),
        separation=sep.item(), orthogonality=orth.item(), l1=l1.item(),
        tensor=total,
    )
