"""Binary reduction of 9-class outputs, AUROC, and bootstrap intervals.

The vote classes collapse to a binary task at the 4-vote threshold: the
positive score averages the five high-vote class probabilities, the
negative score the four low-vote ones, and a two-way softmax renormalizes
the pair.  AUROC is the Mann-Whitney pair count over per-score counts
(Hanley & McNeil 1982), one expression for the point estimate and for every
bootstrap round, whose counts are one `bincount` of its draws.  It needs
numpy alone, so `eval` loads no scipy module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, ContractError, DimensionError,
                     NumericError, UndefinedMetricError)

POSITIVE_VOTE_THRESHOLD = 4
AMBIGUOUS_VOTES = frozenset({3, 4, 5})
# index draws per bootstrap block: bounds the block's count temporaries
_BOOTSTRAP_BLOCK_DRAWS = 1 << 16


@dataclass(frozen=True)
class BootstrapCI:
    point: float
    lower: float
    upper: float
    rounds: int

    def __post_init__(self):
        if not (self.lower <= self.point <= self.upper):
            raise ContractError(
                f"CI [{self.lower}, {self.upper}] excludes point {self.point}")


def binary_scores(probs) -> np.ndarray:
    """p_pos of each row of an (N, 9) array of class distributions.

    p_pos averages classes 4..8, p_neg classes 0..3, and the pair goes
    through a two-way softmax, so p_neg is 1 - p_pos.  The softmax is
    monotone in the raw difference, so rankings (and AUROC) are unaffected
    by it.  Each row takes the same arithmetic alone or in a batch.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[1] != 9:
        raise ContractError(f"expected rows of 9 class probabilities, got shape {probs.shape}")
    if not np.all(np.isfinite(probs)):
        raise ContractError("class probabilities must be finite")
    if np.any(probs < -1e-12) or np.any(np.abs(probs.sum(axis=1) - 1.0) > 1e-9):
        raise ContractError("class probabilities must be a distribution")
    pos = probs[:, POSITIVE_VOTE_THRESHOLD:].mean(axis=1)
    neg = probs[:, :POSITIVE_VOTE_THRESHOLD].mean(axis=1)
    shift = np.maximum(pos, neg)
    e_pos = np.exp(pos - shift)
    e_neg = np.exp(neg - shift)
    return e_pos / (e_pos + e_neg)


def _score_codes(scores, labels) -> np.ndarray:
    """The checked windows' cells in a flat (n, 2) table of counts: 2 * the
    rank of each score among the distinct scores, ascending, plus its label."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or labels.shape != scores.shape:
        raise DimensionError(
            f"scores {scores.shape} and labels {labels.shape} must be "
            "matching 1-d arrays")
    if not np.all(np.isfinite(scores)):
        raise NumericError("scores contain non-finite values")
    if not np.all(np.isin(labels, (0, 1))):
        raise ContractError("labels must be binary (0 or 1)")
    n_pos = int(labels.sum())
    if not 0 < n_pos < labels.size:
        raise UndefinedMetricError(
            f"AUROC needs both classes (n_pos={n_pos}, n_neg={labels.size - n_pos})")
    return 2 * np.unique(scores, return_inverse=True)[1] + labels.astype(np.int64)


def _counts_auroc(counts) -> np.ndarray:
    """AUROC of each (n, 2) table of negative and positive counts per
    distinct score, ascending, in the last two axes.  2U = sum_k P_k *
    (2 * N_below_k + N_k) counts a positive-negative pair twice, a tie once;
    each term is an integer below 2n^2, so the one division rounds exactly."""
    neg, pos = counts[..., 0], counts[..., 1]
    twice_u = (pos * (2 * np.cumsum(neg, axis=-1) - neg)).sum(axis=-1)
    return twice_u / (2 * pos.sum(axis=-1) * neg.sum(axis=-1))


def auroc(scores, labels) -> float:
    """AUROC of binary labels under real-valued scores (higher = positive)."""
    codes = _score_codes(scores, labels)
    return float(_counts_auroc(np.bincount(codes, minlength=2 * codes.size).reshape(-1, 2)))


def ambiguity_mask(votes) -> np.ndarray:
    """Boolean keep-mask over a votes array: True where the sample survives."""
    votes = np.asarray(votes)
    return ~np.isin(votes, tuple(AMBIGUOUS_VOTES))


def bootstrap_ci(scores, labels, rounds: int = 10000, seed: int = 0) -> BootstrapCI:
    """Percentile bootstrap of the AUROC, deterministic under seed.

    Resamples with replacement; rounds that draw a single class are
    redrawn so exactly `rounds` estimates enter the percentiles.  Rounds
    are drawn in blocks of rows from one generator stream and single-class
    rows are dropped, so the kept rows are the ones a round-by-round loop
    with redraws would keep.  The interval is widened (rarely) to include
    the point estimate, keeping lower <= point <= upper.
    """
    point = auroc(scores, labels)
    if rounds < 1:
        raise ConfigurationError("bootstrap rounds must be >= 1")
    codes = _score_codes(scores, labels)
    n = codes.size
    rows = min(rounds, max(1, _BOOTSTRAP_BLOCK_DRAWS // n))
    offsets = 2 * n * np.arange(rows)[:, None]  # row r's table starts at 2nr
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    blocks = []
    kept = 0
    while kept < rounds:
        cells = codes[rng.integers(0, n, size=(rows, n))] + offsets
        counts = np.bincount(cells.ravel(), minlength=2 * n * rows).reshape(rows, n, 2)
        pos = counts[..., 1].sum(axis=1)
        valid = np.nonzero((pos > 0) & (pos < n))[0][:rounds - kept]
        blocks.append(_counts_auroc(counts[valid]))
        kept += valid.size
    estimates = np.concatenate(blocks)
    lower, upper = np.percentile(estimates, [2.5, 97.5])
    return BootstrapCI(point=point, lower=float(min(lower, point)),
                       upper=float(max(upper, point)), rounds=rounds)


def score_samples(model, windows) -> np.ndarray:
    """p_pos of each window of a dataset record array, in its order."""
    if len(windows) == 0:
        raise ConfigurationError("test split is empty")
    probs = model.forward_probs(windows.values)
    return binary_scores(probs["probabilities"])


def metrics_from_scores(p_pos, votes, rounds: int = 10000, seed: int = 0) -> dict:
    """Unfiltered and filtered AUROC with bootstrap CIs as a JSON-ready dict;
    a window is positive at POSITIVE_VOTE_THRESHOLD votes or more."""
    p_pos = np.asarray(p_pos, dtype=np.float64)
    votes = np.asarray(votes)
    if votes.shape != p_pos.shape:
        raise DimensionError("votes must align with scores")
    labels = (votes >= POSITIVE_VOTE_THRESHOLD).astype(np.int64)

    ci_u = bootstrap_ci(p_pos, labels, rounds=rounds, seed=seed)
    keep = ambiguity_mask(votes)
    ci_f = bootstrap_ci(p_pos[keep], labels[keep], rounds=rounds, seed=seed)
    return {
        "auroc_unfiltered": ci_u.point,
        "ci_unfiltered": [ci_u.lower, ci_u.upper],
        "auroc_filtered": ci_f.point,
        "ci_filtered": [ci_f.lower, ci_f.upper],
        "n_test": int(votes.size),
        "n_filtered": int(keep.sum()),
        "seed": int(seed),
        "rounds": int(rounds),
    }
