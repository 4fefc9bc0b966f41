"""Binary reduction, AUROC oracles, bootstrap determinism, report schema."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import rankdata

from protoeeg import evaluation as ev
from protoeeg import model as m
from protoeeg.dataset import make_windows
from protoeeg.errors import (ConfigurationError, ContractError, DimensionError,
                             NumericError, UndefinedMetricError)


def pairwise_auroc(scores, labels):
    """Brute-force Mann-Whitney: every positive-negative pair, ties at 0.5."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    credit = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                credit += 1.0
            elif p == q:
                credit += 0.5
    return credit / (len(pos) * len(neg))


distributions = st.lists(
    st.lists(st.floats(0.0, 1.0), min_size=9, max_size=9).filter(lambda row: sum(row) > 0),
    min_size=1, max_size=16).map(lambda rows: np.array(rows) / np.sum(rows, axis=1)[:, None])


class TestBinarize:
    def test_uniform_is_even_split(self):
        p_pos = ev.binary_scores(np.full((1, 9), 1.0 / 9.0))
        assert p_pos.tolist() == [0.5]
        assert 1.0 - p_pos[0] == 0.5

    def test_all_mass_on_class_eight(self):
        probs = np.zeros((1, 9))
        probs[0, 8] = 1.0
        expected = math.exp(0.2) / (math.exp(0.2) + 1.0)
        assert abs(ev.binary_scores(probs)[0] - expected) <= 1e-12

    def test_pair_sums_to_one(self, rng):
        p_pos = ev.binary_scores(rng.dirichlet(np.ones(9), size=50))
        assert np.all(np.abs(p_pos + (1.0 - p_pos) - 1.0) <= 1e-12)

    def test_label_threshold_at_four_votes(self):
        # positive at 4 votes: {4, 8} against {0, 3} ranks 3 of 4 pairs right;
        # a threshold of 3 or 5 would give another AUROC
        report = ev.metrics_from_scores([0.6, 0.4, 0.1, 0.9], [3, 4, 0, 8],
                                        rounds=20, seed=0)
        assert report["auroc_unfiltered"] == 0.75

    def test_softmax_preserves_ranking(self, rng):
        probs = rng.dirichlet(np.ones(9), size=1000)
        p_pos = ev.binary_scores(probs)
        raw_diff = probs[:, 4:].mean(axis=1) - probs[:, :4].mean(axis=1)
        assert np.array_equal(np.argsort(p_pos, kind="stable"),
                              np.argsort(raw_diff, kind="stable"))

    def test_rejects_bad_distributions(self):
        with pytest.raises(ContractError):
            ev.binary_scores(np.full((1, 8), 0.125))
        with pytest.raises(ContractError):
            ev.binary_scores(np.full(9, 1.0 / 9.0))  # one row, not an (N, 9) array
        with pytest.raises(ContractError):
            ev.binary_scores(np.full((2, 9), 0.2))  # rows do not sum to 1
        bad = np.full((3, 9), 1.0 / 9.0)
        bad[1, 0] = np.nan
        with pytest.raises(ContractError):
            ev.binary_scores(bad)

    @settings(deadline=None)
    @given(probs=distributions)
    def test_batch_gives_each_row_its_bits_alone(self, probs):
        p_pos = ev.binary_scores(probs)
        assert p_pos.shape == (len(probs),)
        for row, p in zip(probs, p_pos):
            assert ev.binary_scores(row[None]).tobytes() == p.tobytes()
        assert np.all((0.0 < p_pos) & (p_pos < 1.0))
        assert np.all(np.abs(p_pos + (1.0 - p_pos) - 1.0) <= 1e-12)


class TestAuroc:
    def test_worked_example(self):
        assert ev.auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_perfect_separation(self):
        assert ev.auroc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties_is_half(self):
        assert ev.auroc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_matches_pairwise_oracle_with_ties(self, rng):
        for _ in range(200):
            n = int(rng.integers(5, 40))
            scores = rng.integers(0, 5, size=n) / 4.0  # heavy ties
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0], labels[-1] = 0, 1
            got = ev.auroc(scores, labels)
            assert abs(got - pairwise_auroc(scores, labels)) <= 1e-12

    def test_flip_symmetry(self, rng):
        scores = rng.random(40)
        labels = np.r_[np.zeros(20, int), np.ones(20, int)]
        a = ev.auroc(scores, labels)
        b = ev.auroc(-scores, labels)
        assert abs(a + b - 1.0) <= 1e-12

    def test_monotone_transform_invariance(self, rng):
        scores = rng.random(50)
        labels = rng.integers(0, 2, size=50)
        labels[:2] = [0, 1]
        base = ev.auroc(scores, labels)
        assert abs(ev.auroc(np.exp(3 * scores) + 2, labels) - base) <= 1e-12

    def test_error_paths(self):
        with pytest.raises(UndefinedMetricError):
            ev.auroc([0.1, 0.2], [1, 1])
        with pytest.raises(UndefinedMetricError):
            ev.auroc([], [])
        with pytest.raises(DimensionError):
            ev.auroc([0.1, 0.2], [0, 1, 1])
        with pytest.raises(NumericError):
            ev.auroc([0.1, np.nan], [0, 1])
        with pytest.raises(ContractError):
            ev.auroc([0.1, 0.2], [0, 2])


class TestFilteredView:
    def test_mask_matches_view(self):
        votes = np.array([0, 3, 4, 5, 6, 8, 2])
        mask = ev.ambiguity_mask(votes)
        assert mask.tolist() == [True, False, False, False, True, True, True]
        # one sample per vote class: only the borderline 3, 4 and 5 drop out
        assert ev.ambiguity_mask(np.arange(9)).tolist() == \
            [True, True, True, False, False, False, True, True, True]


def reference_bootstrap(scores, labels, rounds, seed):
    """Round-by-round percentile bootstrap: single-class rounds are redrawn."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n = scores.size
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    def midrank_auroc(s, y):
        pos = int(y.sum())
        ranks = rankdata(s)
        return (ranks[y == 1].sum() - pos * (pos + 1) / 2.0) / (pos * (n - pos))

    point = midrank_auroc(scores, labels)
    estimates = np.empty(rounds)
    for r in range(rounds):
        while True:
            idx = rng.integers(0, n, size=n)
            if 0 < labels[idx].sum() < n:
                break
        estimates[r] = midrank_auroc(scores[idx], labels[idx])
    lower, upper = np.percentile(estimates, [2.5, 97.5])
    return point, min(lower, point), max(upper, point)


class TestBootstrap:
    @pytest.mark.parametrize("case", ["3", "150", "all_tied", "one_positive", "2000"])
    def test_matches_round_by_round_reference(self, case):
        n = {"all_tied": 40, "one_positive": 150}.get(case) or int(case)
        rng = np.random.default_rng(n)
        scores = rng.integers(0, 20, size=n) / 19.0  # ties
        labels = rng.integers(0, 2, size=n)
        if case == "3":  # about a third of all draws hold a single class
            scores, labels = np.array([0.3, 0.6, 0.4]), np.array([0, 1, 0])
        elif case == "all_tied":  # every pair is a tie
            scores = np.full(n, 0.5)
        elif case == "one_positive":  # about 37% of all draws miss it
            labels = np.zeros(n, dtype=np.int64)
            labels[n // 3] = 1
        elif case == "2000":
            # 32 rows a block; about 13% of all draws miss both positives, so
            # kept and dropped rows fall on both sides of block edges
            labels = np.zeros(n, dtype=np.int64)
            labels[[5, 1234]] = 1
        ci = ev.bootstrap_ci(scores, labels, rounds=2000, seed=5)
        assert (ci.point, ci.lower, ci.upper) == \
            reference_bootstrap(scores, labels, rounds=2000, seed=5)

    def test_perfect_separation_degenerate_interval(self):
        ci = ev.bootstrap_ci([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1],
                             rounds=200, seed=1)
        assert (ci.lower, ci.point, ci.upper) == (1.0, 1.0, 1.0)

    def test_deterministic_under_seed(self, rng):
        scores = rng.random(80)
        labels = rng.integers(0, 2, size=80)
        labels[:2] = [0, 1]
        a = ev.bootstrap_ci(scores, labels, rounds=300, seed=7)
        b = ev.bootstrap_ci(scores, labels, rounds=300, seed=7)
        assert (a.lower, a.upper) == (b.lower, b.upper)
        c = ev.bootstrap_ci(scores, labels, rounds=300, seed=8)
        assert (a.lower, a.upper) != (c.lower, c.upper)

    def test_point_equals_plain_auroc(self, rng):
        scores = rng.random(50)
        labels = rng.integers(0, 2, size=50)
        labels[:2] = [0, 1]
        ci = ev.bootstrap_ci(scores, labels, rounds=100, seed=0)
        assert ci.point == ev.auroc(scores, labels)

    def test_interval_orders_and_bounds(self, rng):
        scores = rng.random(40)
        labels = rng.integers(0, 2, size=40)
        labels[:2] = [0, 1]
        ci = ev.bootstrap_ci(scores, labels, rounds=250, seed=3)
        assert 0.0 <= ci.lower <= ci.point <= ci.upper <= 1.0

    def test_width_shrinks_with_sample_size(self):
        def synthetic(n, seed):
            rng = np.random.default_rng(seed)
            labels = rng.integers(0, 2, size=n)
            labels[:2] = [0, 1]
            means = np.where(labels == 1, 0.62, 0.38)
            scores = np.clip(rng.normal(means, 0.15), 0.01, 0.99)
            return scores, labels

        widths = {}
        for n in (200, 2000):
            scores, labels = synthetic(n, seed=11)
            ci = ev.bootstrap_ci(scores, labels, rounds=400, seed=2)
            widths[n] = ci.upper - ci.lower
        assert widths[2000] < widths[200]

    def test_tiny_set_redraws_single_class_rounds(self):
        ci = ev.bootstrap_ci([0.3, 0.6, 0.4], [0, 1, 0], rounds=200, seed=4)
        assert 0.0 <= ci.lower <= ci.upper <= 1.0

    def test_rounds_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ev.bootstrap_ci([0.1, 0.9], [0, 1], rounds=0, seed=0)
        # the scores are checked first
        with pytest.raises(UndefinedMetricError):
            ev.bootstrap_ci([0.1, 0.9], [1, 1], rounds=0, seed=0)


TOY_ARCH = m.BackboneConfig(
    blocks=(m.ConvBlock(4, (29, 17), (11, 10)), m.ConvBlock(8, (10, 3), (1, 1))),
    latent_dim=8)


def make_samples(votes_list, seed=0):
    rng = np.random.default_rng(seed)
    n = len(votes_list)
    return make_windows(100 + np.arange(n), votes_list,
                        rng.standard_normal((n, 128, 37)).astype(np.float32))


@pytest.fixture(scope="module")
def nine_class_model():
    return m.ProtoEEGNet.initialize(config=TOY_ARCH, seed=21, num_classes=9,
                                    per_class=2)


def metrics(model, samples, **kw):
    return ev.metrics_from_scores(ev.score_samples(model, samples),
                                  [s.votes for s in samples], **kw)


class TestEvaluate:
    VOTES = [0, 1, 2, 6, 7, 8, 3, 4, 5, 0, 8, 2, 7, 1, 6]

    def test_report_schema(self, nine_class_model):
        samples = make_samples(self.VOTES)
        report = metrics(nine_class_model, samples, rounds=150, seed=9)
        assert set(report) == {"auroc_unfiltered", "ci_unfiltered",
                               "auroc_filtered", "ci_filtered", "n_test",
                               "n_filtered", "seed", "rounds"}
        assert report["n_test"] == 15
        assert report["n_filtered"] == 12
        assert len(report["ci_unfiltered"]) == 2
        assert len(report["ci_filtered"]) == 2
        assert report["rounds"] == 150
        json.dumps(report)

    def test_deterministic(self, nine_class_model):
        samples = make_samples(self.VOTES)
        a = metrics(nine_class_model, samples, rounds=120, seed=3)
        b = metrics(nine_class_model, samples, rounds=120, seed=3)
        assert a == b

    def test_empty_split_rejected(self, nine_class_model):
        with pytest.raises(ConfigurationError):
            ev.score_samples(nine_class_model, [])

    def test_single_class_filtered_subset_rejected(self, nine_class_model):
        # after dropping 3/4/5-vote samples only negatives remain
        samples = make_samples([0, 1, 2, 4, 5])
        with pytest.raises(UndefinedMetricError):
            metrics(nine_class_model, samples, rounds=50, seed=0)
