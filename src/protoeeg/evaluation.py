"""Binary reduction of 9-class outputs, AUROC, and bootstrap intervals.

The vote classes collapse to a binary task at the 4-vote threshold: the
positive score averages the five high-vote class probabilities, the
negative score the four low-vote ones, and a two-way softmax renormalizes
the pair.  AUROC is the Mann-Whitney statistic over midranks (ties get
half credit), one expression for the point estimate and for every
bootstrap round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from .errors import (ConfigurationError, ContractError, DimensionError,
                     NumericError, UndefinedMetricError)

POSITIVE_VOTE_THRESHOLD = 4
AMBIGUOUS_VOTES = frozenset({3, 4, 5})
# index draws per bootstrap block: bounds the block's rank temporaries
_BOOTSTRAP_BLOCK_DRAWS = 1 << 16


@dataclass(frozen=True)
class BootstrapCI:
    point: float
    lower: float
    upper: float
    rounds: int
    seed: int

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


def _check_score_inputs(scores, labels):
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
    labels = labels.astype(np.int64)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"AUROC needs both classes (n_pos={n_pos}, n_neg={n_neg})")
    return scores, labels, n_pos, n_neg


def _auroc_value(scores, labels, n_pos, n_neg):
    """Mann-Whitney statistic via midranks (ties get half credit).

    Ranks along the last axis, so a block of rows gives one value per row.
    Midranks are half-integers, so the rank sums are exact in float64.
    """
    ranks = rankdata(scores, axis=-1)
    return (((ranks * labels).sum(axis=-1) - n_pos * (n_pos + 1) / 2.0)
            / (n_pos * n_neg))


def auroc(scores, labels) -> float:
    """AUROC of binary labels under real-valued scores (higher = positive)."""
    scores, labels, n_pos, n_neg = _check_score_inputs(scores, labels)
    return float(_auroc_value(scores, labels, n_pos, n_neg))


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
    scores, labels, n_pos, n_neg = _check_score_inputs(scores, labels)
    if rounds < 1:
        raise ConfigurationError("bootstrap rounds must be >= 1")
    point = float(_auroc_value(scores, labels, n_pos, n_neg))
    n = scores.size
    rows = min(rounds, max(1, _BOOTSTRAP_BLOCK_DRAWS // n))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    blocks = []
    kept = 0
    while kept < rounds:
        idx = rng.integers(0, n, size=(rows, n))
        drawn = labels[idx]
        pos = drawn.sum(axis=1)
        valid = np.nonzero((pos > 0) & (pos < n))[0][:rounds - kept]
        idx, drawn, pos = idx[valid], drawn[valid], pos[valid]
        blocks.append(_auroc_value(scores[idx], drawn, pos, n - pos))
        kept += valid.size
    estimates = np.concatenate(blocks)
    lower, upper = np.percentile(estimates, [2.5, 97.5])
    return BootstrapCI(point=point, lower=float(min(lower, point)),
                       upper=float(max(upper, point)), rounds=rounds,
                       seed=seed)


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

    unfiltered = auroc(p_pos, labels)
    ci_u = bootstrap_ci(p_pos, labels, rounds=rounds, seed=seed)
    keep = ambiguity_mask(votes)
    filtered = auroc(p_pos[keep], labels[keep])
    ci_f = bootstrap_ci(p_pos[keep], labels[keep], rounds=rounds, seed=seed)
    return {
        "auroc_unfiltered": unfiltered,
        "ci_unfiltered": [ci_u.lower, ci_u.upper],
        "auroc_filtered": filtered,
        "ci_filtered": [ci_f.lower, ci_f.upper],
        "n_test": int(votes.size),
        "n_filtered": int(keep.sum()),
        "seed": int(seed),
        "rounds": int(rounds),
    }
