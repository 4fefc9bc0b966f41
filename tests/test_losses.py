import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from numpy.testing import assert_allclose

from protoeeg import diffcore as dc
from protoeeg.container import decode
from protoeeg import losses as ls
from protoeeg import model as m
from protoeeg.diffcore import Tensor
from protoeeg.errors import ConfigurationError

from conftest import gradcheck


# -- brute-force oracles: explicit loops, nothing shared with the package ----

def _oracle_cos(a, b):
    num = sum(float(x) * float(y) for x, y in zip(a, b))
    na = math.sqrt(sum(float(x) ** 2 for x in a))
    nb = math.sqrt(sum(float(y) ** 2 for y in b))
    return num / (na * nb)


def oracle_cluster(latents, labels, vectors, per_class):
    acc = 0.0
    for i in range(len(latents)):
        best = -math.inf
        for j in range(len(vectors)):
            if j // per_class == labels[i]:
                best = max(best, _oracle_cos(latents[i], vectors[j]))
        acc += best
    return -acc / len(latents)


def oracle_separation(latents, labels, vectors, per_class):
    acc = 0.0
    for i in range(len(latents)):
        best = -math.inf
        for j in range(len(vectors)):
            if j // per_class != labels[i]:
                best = max(best, _oracle_cos(latents[i], vectors[j]))
        acc += best
    return acc / len(latents)


def oracle_ortho(vectors, num_classes, per_class):
    total = 0.0
    for c in range(num_classes):
        for a in range(per_class):
            for b in range(per_class):
                ra = vectors[c * per_class + a]
                rb = vectors[c * per_class + b]
                dot = sum(float(x) * float(y) for x, y in zip(ra, rb))
                target = 1.0 if a == b else 0.0
                total += (dot - target) ** 2
    return total


def oracle_l1(head, per_class):
    total = 0.0
    for k in range(head.shape[0]):
        for j in range(head.shape[1]):
            if j // per_class != k:
                total += abs(float(head[k, j]))
    return total


def oracle_cross_entropy(latents, labels, vectors, head):
    acc = 0.0
    for i in range(len(latents)):
        sims = [_oracle_cos(latents[i], v) * math.sqrt(sum(float(x) ** 2 for x in v))
                * math.sqrt(sum(float(x) ** 2 for x in latents[i]))
                for v in vectors]
        logits = [sum(float(head[k, j]) * sims[j] for j in range(len(sims)))
                  for k in range(head.shape[0])]
        top = max(logits)
        exps = [math.exp(q - top) for q in logits]
        z = sum(exps)
        p = exps[labels[i]] / z
        acc += -math.log(max(p, 1e-12))
    return acc / len(latents)


def terms(latents, labels, bank, head=None):
    """The unweighted loss terms of one batch, from its BatchLossReport."""
    if head is None:
        head = m.init_head(bank.num_classes, bank.per_class)
    return ls.total_loss(latents, labels, bank, head)


def random_batch(rng, n, num_classes=9, per_class=12, dim=16):
    lat = rng.standard_normal((n, dim))
    lat /= np.linalg.norm(lat, axis=1, keepdims=True)
    labels = rng.integers(0, num_classes, size=n)
    bank = m.init_prototypes(rng.integers(0, 2**32), num_classes=num_classes,
                             per_class=per_class, latent_dim=dim)
    head = Tensor(rng.standard_normal((num_classes, num_classes * per_class)),
                  requires_grad=True)
    return lat, labels, bank, head


class TestWorkedExamples:
    def test_cluster_on_own_prototypes(self):
        bank = m.init_prototypes(seed=1, num_classes=3, per_class=2, latent_dim=6)
        lat = bank.vectors.data[[0, 2, 4]]  # first prototype of each class
        assert terms(lat, [0, 1, 2], bank).cluster == pytest.approx(-1.0, abs=1e-12)

    def test_cluster_orthogonal_is_zero(self):
        vecs = np.eye(8)[:6]
        bank = m.PrototypeBank(vectors=Tensor(vecs, requires_grad=True),
                               num_classes=3, per_class=2)
        lat = np.eye(8)[6:8]
        assert terms(lat, [0, 1], bank).cluster == pytest.approx(0.0, abs=1e-15)

    def test_separation_orthogonal_is_zero(self):
        vecs = np.eye(8)[:6]
        bank = m.PrototypeBank(vectors=Tensor(vecs, requires_grad=True),
                               num_classes=3, per_class=2)
        lat = np.eye(8)[6:8]
        assert terms(lat, [0, 1], bank).separation == pytest.approx(0.0, abs=1e-15)

    def test_separation_on_other_class_prototype(self):
        vecs = np.eye(8)[:6]
        bank = m.PrototypeBank(vectors=Tensor(vecs, requires_grad=True),
                               num_classes=3, per_class=2)
        lat = vecs[[2]]  # a class-1 prototype, labeled class 0
        assert terms(lat, [0], bank).separation == pytest.approx(1.0, abs=1e-12)

    def test_ortho_orthonormal_is_zero(self):
        vecs = np.eye(8)[:6]
        bank = m.PrototypeBank(vectors=Tensor(vecs, requires_grad=True),
                               num_classes=3, per_class=2)
        assert ls.orthogonality_loss(bank).item() == pytest.approx(0.0, abs=1e-15)

    def test_ortho_duplicated_prototype_pair(self):
        v = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        bank = m.PrototypeBank(vectors=Tensor(v, requires_grad=True),
                               num_classes=1, per_class=2)
        assert ls.orthogonality_loss(bank).item() == pytest.approx(2.0, abs=1e-12)

    def test_l1_fresh_head_exact(self):
        assert ls.l1_offclass(m.init_head()).item() == 432.0

    def test_l1_ignores_on_class(self):
        head = m.init_head()
        w = head.data.copy()
        for k in range(9):
            w[k, k * 12:(k + 1) * 12] = 1e6  # on-class values irrelevant
        mask = np.repeat(np.arange(9), 12)[None, :] != np.arange(9)[:, None]
        w[mask] = 0.0
        assert ls.l1_offclass(Tensor(w)).item() == 0.0

    def test_only_cross_entropy_when_other_coefs_zero(self, rng):
        lat, labels, bank, head = random_batch(rng, 8)
        coefs = ls.LossCoefficients(crs_ent=1.0, clst=0.0, sep=0.0, ortho=0.0, l1=0.0)
        report = ls.total_loss(lat, labels, bank, head, coefs)
        assert report.total == pytest.approx(report.cross_entropy, abs=1e-12)


class TestOracles:
    def test_components_match_bruteforce(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(2, 17))
            lat, labels, bank, head = random_batch(rng, n)
            vecs = bank.vectors.data
            r = terms(lat, labels, bank, head)
            assert r.cluster == pytest.approx(
                oracle_cluster(lat, labels, vecs, 12), abs=1e-10)
            assert r.separation == pytest.approx(
                oracle_separation(lat, labels, vecs, 12), abs=1e-10)
            assert ls.orthogonality_loss(bank).item() == pytest.approx(
                oracle_ortho(vecs, 9, 12), abs=1e-10)
            assert ls.l1_offclass(head).item() == pytest.approx(
                oracle_l1(head.data, 12), abs=1e-10)

    def test_total_matches_component_recombination(self):
        rng = np.random.default_rng(22)
        coefs = ls.LossCoefficients()
        for _ in range(20):
            lat, labels, bank, head = random_batch(rng, int(rng.integers(2, 17)))
            r = ls.total_loss(lat, labels, bank, head, coefs)
            recomb = (coefs.crs_ent * r.cross_entropy + coefs.sep * r.separation
                      + coefs.clst * r.cluster + coefs.ortho * r.orthogonality
                      + coefs.l1 * r.l1)
            assert r.total == pytest.approx(recomb, abs=1e-12)

    def test_cross_entropy_component_matches_bruteforce(self, rng):
        lat, labels, bank, head = random_batch(rng, 6)
        r = ls.total_loss(lat, labels, bank, head)
        ref = oracle_cross_entropy(lat, labels, bank.vectors.data, head.data)
        assert r.cross_entropy == pytest.approx(ref, abs=1e-10)


class TestGradients:
    def test_total_loss_gradients(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            n, k, l, d = 4, 3, 2, 5
            raw = Tensor(rng.standard_normal((n, d)), requires_grad=True)
            bank = m.init_prototypes(rng.integers(0, 2**32), num_classes=k,
                                     per_class=l, latent_dim=d)
            head = Tensor(rng.standard_normal((k, k * l)), requires_grad=True)
            labels = rng.integers(0, k, size=n)

            def build(ps):
                b = m.PrototypeBank(vectors=ps[1], num_classes=k, per_class=l)
                lat = dc.l2_normalize(ps[0])
                return ls.total_loss(lat, labels, b, ps[2]).tensor

            gradcheck(build, [raw, bank.vectors, head])


class TestProperties:
    def test_bounds(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            lat, labels, bank, head = random_batch(rng, 8)
            r = terms(lat, labels, bank, head)
            assert -1.0 - 1e-12 <= r.cluster <= 1.0 + 1e-12
            assert -1.0 - 1e-12 <= r.separation <= 1.0 + 1e-12
            assert ls.orthogonality_loss(bank).item() >= 0.0
            assert ls.l1_offclass(head).item() >= 0.0

    def test_cluster_sign_sanity(self, rng):
        # lower same-class similarity must raise the clst contribution
        bank = m.init_prototypes(seed=31, num_classes=3, per_class=2, latent_dim=16)
        tight = bank.vectors.data[[0, 2, 4]]
        loose = tight + 0.8 * rng.standard_normal(tight.shape)
        loose /= np.linalg.norm(loose, axis=1, keepdims=True)
        labels = [0, 1, 2]
        coefs = ls.LossCoefficients()
        c_tight = coefs.clst * terms(tight, labels, bank).cluster
        c_loose = coefs.clst * terms(loose, labels, bank).cluster
        assert c_loose > c_tight


class TestErrors:
    def test_label_without_prototypes(self, rng):
        bank = m.init_prototypes(seed=0, num_classes=3, per_class=2, latent_dim=4)
        lat = rng.standard_normal((2, 4))
        with pytest.raises(ConfigurationError):
            terms(lat, [0, 3], bank)
        with pytest.raises(ConfigurationError):
            terms(lat, [-1, 0], bank)

    def test_single_class_separation(self, rng):
        bank = m.init_prototypes(seed=0, num_classes=1, per_class=4, latent_dim=4)
        with pytest.raises(ConfigurationError):
            terms(rng.standard_normal((2, 4)), [0, 0], bank)

    def test_bad_coefficients(self):
        with pytest.raises(ConfigurationError):
            ls.LossCoefficients(crs_ent=0.0)
        with pytest.raises(ConfigurationError):
            ls.LossCoefficients(clst=float("nan"))
        # every coefficient is non-negative (module sign convention); a
        # negative l1 would reward off-class weights without bound
        for name in ("clst", "sep", "ortho", "l1"):
            with pytest.raises(ConfigurationError, match=name):
                ls.LossCoefficients(**{name: -1.0})
        assert ls.LossCoefficients(clst=0.0, sep=0.0, ortho=0.0, l1=0.0).l1 == 0.0

    def test_coef_dict_roundtrip(self):
        c = ls.LossCoefficients(crs_ent=2.0, l1=0.5)
        assert decode(ls.LossCoefficients(), json.loads(json.dumps(asdict(c))),
                      ConfigurationError, "config") == c


def _tape(root):
    """Every grad-tracked node reachable from `root`, root included: the walk
    perfbench's diffcore.backward.nodes metric counts."""
    seen, stack = {id(root): root}, [root]
    while stack:
        for p in stack.pop()._parents:
            if p.requires_grad and id(p) not in seen:
                seen[id(p)] = p
                stack.append(p)
    return list(seen.values())


class TestGraph:
    def _batch_tape(self, num_classes, rng):
        lat, labels, bank, head = random_batch(rng, 32, num_classes=num_classes, dim=128)
        return _tape(ls.total_loss(lat, labels, bank, head).tensor), bank

    def test_node_count_does_not_grow_with_classes(self, rng):
        small, _ = self._batch_tape(3, rng)
        full, _ = self._batch_tape(9, rng)
        assert len(small) == len(full) <= 30

    def test_one_latent_prototype_product(self, rng):
        tape, bank = self._batch_tape(9, rng)
        products = [n for n in tape if n._backward is not None
                    and n._backward.__qualname__.startswith("linear.")
                    and n._parents[1] is bank.vectors
                    and n._parents[0] is not bank.vectors]
        assert len(products) == 1
