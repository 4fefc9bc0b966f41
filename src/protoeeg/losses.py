"""Training losses: cross-entropy plus cluster, separation, orthogonality,
and off-class L1, combined with fixed coefficients.

Every batch term reads one latent x prototype similarity matrix.  Sign
convention: the cluster term carries a leading minus (it is minus the mean
max same-class similarity), and the ``clst`` coefficient is stored positive
(default 0.1).  The product therefore rewards same-class similarity:
pulling a latent toward its class prototypes lowers the total.  The
separation term is the mirror term with positive sign and ships disabled
(coefficient 0).  Every coefficient is non-negative, so no term can push
the objective without bound below zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor
from .errors import ConfigurationError, DimensionError
from .model import PrototypeBank, own_class_mask, own_prototypes


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
        for name in ("clst", "sep", "ortho", "l1"):
            if getattr(self, name) < 0:
                raise ConfigurationError(
                    f"{name} must be non-negative, got {getattr(self, name)}")


@dataclass
class BatchLossReport:
    total: float
    cross_entropy: float
    cluster: float
    separation: float
    orthogonality: float
    l1: float
    tensor: Tensor | None = field(default=None, repr=False, compare=False)


def orthogonality_loss(bank: PrototypeBank) -> Tensor:
    """Sum over classes of ||P P^T - I||_F^2 for the class's prototype rows:
    one Gram of the whole bank, masked to its same-class blocks."""
    own = own_class_mask(bank.num_classes, bank.per_class)
    same_class = own.T @ own
    gram = dc.mul(dc.linear(bank.vectors, bank.vectors), Tensor(same_class))
    diff = dc.sub(gram, Tensor(np.eye(bank.count)))
    return dc.tsum(dc.mul(diff, diff))


def l1_offclass(head: Tensor) -> Tensor:
    """Sum of |w| over entries whose prototype class differs from the row class.

    The class layout is inferred from the head shape: row k owns the
    k-th contiguous block of columns.
    """
    k, j = head.data.shape
    if j % k != 0:
        raise DimensionError(f"head shape {head.data.shape} has no per-class block layout")
    off = ~own_class_mask(k, j // k)
    return dc.tsum(dc.mul(dc.absolute(head), Tensor(off)))


def total_loss(latents, labels, bank: PrototypeBank, head: Tensor,
               coefs: LossCoefficients = LossCoefficients()) -> BatchLossReport:
    """Weighted combination of all terms; components reported unweighted.

    The returned report carries the scalar graph node in ``.tensor`` for
    backward passes.
    """
    if bank.num_classes < 2:
        raise ConfigurationError("separation loss needs at least two prototype classes")
    lat = latents if isinstance(latents, Tensor) else Tensor(latents)
    labels = np.asarray(labels, dtype=np.int64)
    sims = dc.linear(lat, bank.vectors)
    ce = dc.cross_entropy(dc.linear(sims, head), labels)  # checks the labels
    own = own_prototypes(labels, bank)
    clst = dc.neg(dc.tmean(dc.masked_rowmax(sims, own)))
    sep = dc.tmean(dc.masked_rowmax(sims, ~own))
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
