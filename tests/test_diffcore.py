import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from protoeeg import diffcore as dc
from protoeeg.diffcore import Tensor
from protoeeg.model import ProtoEEGNet
from protoeeg.errors import (
    ConfigurationError,
    ContractError,
    DegenerateInputError,
    DimensionError,
    NumericError,
    ProtoeegError,
)

from conftest import assert_grad_matches, fd_gradient, gradcheck


def leaf(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


class TestTensorBasics:
    def test_dtype_coercion(self):
        t = Tensor(np.ones((2, 3), dtype=np.float32))
        assert t.data.dtype == np.float64

    def test_item_requires_scalar(self):
        with pytest.raises(ContractError):
            Tensor(np.ones(3)).item()

    def test_backward_requires_scalar(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError):
            dc.backward(t)

    def test_grad_accumulates_until_reset(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        for _ in range(2):
            dc.backward(dc.tsum(dc.mul(x, x)))
        assert_allclose(x.grad, 2 * np.array([2.0, 4.0]))
        x.zero_grad()
        dc.backward(dc.tsum(dc.mul(x, x)))
        assert_allclose(x.grad, np.array([2.0, 4.0]))

    def test_no_grad_suppresses_tape(self):
        x = Tensor(np.ones(4), requires_grad=True)
        with dc.no_grad():
            y = dc.tsum(dc.mul(x, x))
        assert not y.requires_grad
        dc.backward(y)  # no-op
        assert x.grad is None

    def test_no_grad_on_another_thread_leaves_this_one_taping(self):
        x = Tensor(np.ones(4), requires_grad=True)
        inside, release = threading.Event(), threading.Event()

        def hold_no_grad():
            with dc.no_grad():
                inside.set()
                release.wait(10)

        other = threading.Thread(target=hold_no_grad)
        other.start()
        try:
            assert inside.wait(10)
            y = dc.tsum(dc.mul(x, x))
        finally:
            release.set()
            other.join(10)
        assert not other.is_alive()
        assert y.requires_grad
        dc.backward(y)
        assert_allclose(x.grad, 2 * np.ones(4))

    def test_thread_started_inside_no_grad_builds_a_tape(self):
        x = Tensor(np.ones(4), requires_grad=True)
        taped = []

        def build():
            taped.append(dc.tsum(dc.mul(x, x)).requires_grad)

        with dc.no_grad():
            other = threading.Thread(target=build)
            other.start()
            other.join(10)
            assert not other.is_alive()
            assert not dc.tsum(dc.mul(x, x)).requires_grad
        assert taped == [True]

    def test_shared_parent_counted_twice(self):
        # x*x must produce the same gradient as squaring
        x = Tensor(np.array([3.0]), requires_grad=True)
        dc.backward(dc.tsum(dc.mul(x, x)))
        assert_allclose(x.grad, [6.0])

    def test_determinism(self, rng):
        x = rng.standard_normal((5, 7))
        labels = rng.integers(0, 7, size=5)
        runs = []
        for _ in range(2):
            q = Tensor(x, requires_grad=True)
            dc.backward(dc.cross_entropy(q, labels))
            runs.append(q.grad)
        assert np.array_equal(runs[0], runs[1])


class TestElementwiseGradients:
    def test_add_sub_mul_broadcast(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = leaf(rng, 4, 5)
            b = leaf(rng, 5)          # broadcasts against rows
            c = leaf(rng, 4, 1)
            gradcheck(lambda ps: dc.tsum(dc.mul(dc.add(ps[0], ps[1]),
                                                dc.sub(ps[0], ps[2]))), [a, b, c])

    def test_neg_abs_mean(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = Tensor(rng.standard_normal((3, 4)) + np.sign(rng.standard_normal((3, 4))) * 0.2,
                       requires_grad=True)
            gradcheck(lambda ps: dc.tmean(dc.absolute(dc.neg(ps[0]))), [a])

    def test_reshape_gradient(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = leaf(rng, 6, 4)
            w = Tensor(rng.standard_normal((4, 6)))
            gradcheck(lambda ps: dc.tsum(dc.mul(dc.mul(dc.reshape(ps[0], (4, 6)), w),
                                                dc.reshape(ps[0], (4, 6)))), [a])

    def test_elu_gradient_off_kink(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            vals = rng.standard_normal((3, 5))
            vals += np.where(vals >= 0, 0.05, -0.05)
            a = Tensor(vals, requires_grad=True)
            gradcheck(lambda ps: dc.tsum(dc.mul(dc.elu(ps[0]), dc.elu(ps[0]))), [a])

    def test_elu_values(self):
        y = dc.elu(Tensor(np.array([-1.0, 0.0, 2.0])))
        assert_allclose(y.data, [np.expm1(-1.0), 0.0, 2.0])

    def test_elu_is_exact_near_zero(self):
        x = Tensor(np.array([-1e-10, 0.0]), requires_grad=True)
        y = dc.elu(x)
        assert y.data[0] == np.expm1(-1e-10)
        assert y.data[1] == 0.0
        dc.backward(dc.tsum(y))
        assert x.grad[1] == 1.0


class TestLeafGradients:
    def test_no_grad_ops_record_no_backward(self, rng):
        x = leaf(rng, 2, 3, 4, 5)
        gain, bias = leaf(rng, 3, 1, 1), leaf(rng, 3, 1, 1)
        with dc.no_grad():
            outs = [dc.elu(x), dc.layer_norm(x, gain, bias)]
        for out in outs:
            assert out._backward is None
            assert not out.requires_grad

    def test_only_leaves_hold_gradients(self, rng):
        net = ProtoEEGNet.initialize(seed=0)
        z = net.embed(rng.standard_normal((3, 128, 37)))
        dc.backward(dc.tsum(dc.mul(z, z)))
        for p in net.backbone_parameters():
            assert p.grad is not None and p.grad.shape == p.data.shape
        assert z.grad is None


class TestLinearAlgebraGradients:
    def test_linear_vector_and_batch(self):
        # the vector case is a batch of one row
        rng = np.random.default_rng(6)
        for _ in range(20):
            w = leaf(rng, 3, 5)
            x1 = leaf(rng, 1, 5)
            xb = leaf(rng, 4, 5)
            gradcheck(lambda ps: dc.tsum(dc.linear(ps[1], ps[0])), [w, x1])
            gradcheck(lambda ps: dc.tsum(dc.linear(ps[1], ps[0])), [w, xb])

    def test_linear_rejects_bad_shapes(self):
        with pytest.raises(DimensionError):
            dc.linear(Tensor(np.ones((2, 4))), Tensor(np.ones((3, 5))))


class TestNormalizationGradients:
    def test_layer_norm_4d(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = leaf(rng, 2, 3, 4, 3)
            g = Tensor(rng.standard_normal((3, 1, 1)) + 1.5, requires_grad=True)
            b = leaf(rng, 3, 1, 1)
            gradcheck(lambda ps: dc.tsum(dc.mul(dc.layer_norm(ps[0], ps[1], ps[2]),
                                                dc.layer_norm(ps[0], ps[1], ps[2]))),
                      [x, g, b])

    def test_layer_norm_standardizes(self, rng):
        x = Tensor(rng.standard_normal((4, 3, 8, 5)) * 3 + 7)
        y = dc.layer_norm(x, Tensor(np.ones((3, 1, 1))), Tensor(np.zeros((3, 1, 1))))
        m = y.data.mean(axis=(1, 2, 3))
        v = y.data.var(axis=(1, 2, 3))
        assert_allclose(m, 0, atol=1e-12)
        assert_allclose(v, 1, atol=1e-3)  # eps shrinks variance slightly

    def test_layer_norm_is_batch_invariant(self, rng):
        # block 1's activation shape; a non-invariant row reduction (einsum,
        # a BLAS dot) shows here before it reaches the embedding
        shape = (16, 62, 17)
        gain = Tensor(rng.standard_normal((16, 1, 1)) + 1.0)
        bias = Tensor(rng.standard_normal((16, 1, 1)))
        window = rng.standard_normal(shape) * 2.0 + 0.5
        alone = dc.layer_norm(Tensor(window[None]), gain, bias).data[0]
        for size in (1, 7, 75):
            batch = rng.standard_normal((size, *shape))
            positions = sorted({0, size // 2, size - 1})
            batch[positions] = window
            out = dc.layer_norm(Tensor(batch), gain, bias).data
            for pos in positions:
                assert np.array_equal(out[pos], alone), (size, pos)

    def test_l2_normalize_gradients(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            v = leaf(rng, 1, 6)
            m = leaf(rng, 4, 6)
            w = Tensor(rng.standard_normal((1, 6)), requires_grad=False)
            gradcheck(lambda ps: dc.tsum(dc.mul(dc.l2_normalize(ps[0]), Tensor(w.data))), [v])
            gradcheck(lambda ps: dc.tsum(dc.mul(dc.l2_normalize(ps[0]),
                                                Tensor(rng.standard_normal((1, 6)) * 0 + w.data))), [m])

    def test_l2_normalize_degenerate(self):
        with pytest.raises(DegenerateInputError):
            dc.l2_normalize(Tensor(np.zeros((1, 4))))
        with pytest.raises(DegenerateInputError):
            dc.l2_normalize(Tensor(np.vstack([np.ones(4), np.zeros(4)])))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_l2_normalize_unit_norm_property(self, seed):
        v = np.random.default_rng(seed).standard_normal((1, 16)) + 0.01
        y = dc.l2_normalize(Tensor(v)).data
        assert abs(np.linalg.norm(y[0]) - 1.0) < 1e-12


class TestSimilarityGradients:
    def test_masked_rowmax_gradient(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = leaf(rng, 5, 9)
            mask = rng.random((5, 9)) < 0.5
            mask[:, 0] = True  # never an empty row
            gradcheck(lambda ps: dc.tsum(dc.masked_rowmax(ps[0], mask)), [x])

    def test_masked_rowmax_empty_row(self):
        mask = np.ones((2, 3), dtype=bool)
        mask[1] = False
        with pytest.raises(ConfigurationError):
            dc.masked_rowmax(Tensor(np.zeros((2, 3))), mask)


class TestSoftmaxCrossEntropy:
    # cross_entropy takes logits: the softmax is fused into the op

    def test_softmax_nonfinite(self):
        with pytest.raises(NumericError):
            dc.cross_entropy(Tensor(np.array([[1.0, np.nan]])), [0])

    def test_cross_entropy_gradient_through_softmax(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            q = leaf(rng, 4, 6)
            labels = rng.integers(0, 6, size=4)
            gradcheck(lambda ps: dc.cross_entropy(ps[0], labels), [q])

    def test_cross_entropy_is_softmax_negative_log_likelihood(self, rng):
        q = rng.standard_normal((10, 9)) * 5
        labels = rng.integers(0, 9, size=10)
        p = np.exp(q) / np.exp(q).sum(axis=1, keepdims=True)
        logits = Tensor(q, requires_grad=True)
        loss = dc.cross_entropy(logits, labels)
        assert loss.item() == pytest.approx(-np.mean(np.log(p[np.arange(10), labels])),
                                            rel=1e-12)
        dc.backward(loss)
        onehot = np.eye(9)[labels]
        assert_allclose(logits.grad, (p - onehot) / 10, rtol=1e-12, atol=1e-15)

    def test_cross_entropy_has_no_probability_floor(self):
        # log-sum-exp, not a clipped log(p): a hopeless label costs its full margin
        loss = dc.cross_entropy(Tensor(np.array([[0.0, 100.0]])), [0]).item()
        assert loss == pytest.approx(100.0, rel=1e-12)

    def test_cross_entropy_batch_is_mean(self, rng):
        q = rng.standard_normal((6, 4))
        labels = rng.integers(0, 4, size=6)
        batch = dc.cross_entropy(Tensor(q), labels).item()
        singles = [dc.cross_entropy(Tensor(q[i:i + 1]), labels[i:i + 1]).item()
                   for i in range(6)]
        assert batch == pytest.approx(np.mean(singles), rel=1e-12)

    def test_cross_entropy_label_bounds(self):
        logits = Tensor(np.zeros((2, 3)))
        for bad in ([0, 3], [-1, 0]):
            with pytest.raises(ProtoeegError):
                dc.cross_entropy(logits, np.array(bad))


class TestConv2d:
    def test_output_shape_backbone_block(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 128, 37)))
        k = Tensor(rng.standard_normal((16, 1, 5, 5)))
        y = dc.conv2d_valid(x, k, stride=(2, 2))
        assert y.shape == (1, 16, 62, 17)

    def test_gradients_batched(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            x = leaf(rng, 2, 2, 7, 6)
            k = leaf(rng, 3, 2, 3, 2)
            gradcheck(lambda ps: dc.tsum(dc.mul(dc.conv2d_valid(ps[0], ps[1], (2, 1)),
                                                dc.conv2d_valid(ps[0], ps[1], (2, 1)))),
                      [x, k])

    def test_gradients_single_sample_strides(self):
        # a single sample is a batch of one
        rng = np.random.default_rng(15)
        for sh, sw in [(1, 1), (2, 2), (3, 1)]:
            for _ in range(4):
                x = leaf(rng, 1, 2, 9, 5)
                k = leaf(rng, 4, 2, 3, 2)
                gradcheck(lambda ps: dc.tsum(dc.mul(dc.conv2d_valid(ps[0], ps[1], (sh, sw)),
                                                    dc.conv2d_valid(ps[0], ps[1], (sh, sw)))),
                          [x, k])

    def test_constant_input_gets_no_gradient(self, monkeypatch):
        # the raw window into block 1 needs no gradient: only the kernels' is computed
        rng = np.random.default_rng(16)
        x = Tensor(rng.standard_normal((3, 2, 9, 7)))
        k = leaf(rng, 4, 2, 3, 2)

        def loss(ps):
            y = dc.conv2d_valid(x, ps[0], (2, 1))
            return dc.tsum(dc.mul(y, y))

        gradcheck(loss, [k])
        assert x.grad is None
        y = dc.conv2d_valid(x, k, (2, 1))
        monkeypatch.setattr(dc._k, "conv2d_backward_input", None)
        gin, gk = y._backward(np.ones_like(y.data))
        assert gin is None
        assert gk.shape == k.shape

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            dc.conv2d_valid(Tensor(np.zeros((1, 3, 8, 8))), Tensor(np.zeros((2, 4, 3, 3))))

    def test_kernel_too_large(self):
        with pytest.raises(DimensionError):
            dc.conv2d_valid(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((2, 1, 5, 3))))

    def test_zero_stride_rejected(self):
        with pytest.raises(ConfigurationError):
            dc.conv2d_valid(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((2, 1, 2, 2))),
                            stride=(0, 1))

    def test_matches_explicit_loop(self, rng):
        x = rng.standard_normal((2, 2, 7, 6))
        k = rng.standard_normal((3, 2, 3, 2))
        got = dc.conv2d_valid(Tensor(x), Tensor(k), (2, 2)).data
        ref = np.zeros_like(got)
        for n in range(2):
            for co in range(3):
                for oh in range(3):
                    for ow in range(3):
                        patch = x[n, :, oh * 2:oh * 2 + 3, ow * 2:ow * 2 + 2]
                        ref[n, co, oh, ow] = np.sum(patch * k[co])
        assert_allclose(got, ref, rtol=1e-12, atol=1e-14)


def _adam_on(data, grad, lr=0.1):
    """One Adam step on a fresh parameter whose gradient is ``grad``."""
    p = Tensor(np.array(data, dtype=float), requires_grad=True)
    p.grad = None if grad is None else np.asarray(grad, dtype=float)
    dc.Adam([{"name": "p", "params": [p], "lr": lr}]).step()
    return p


class TestAdam:
    def test_zero_gradient_is_identity(self):
        before = np.array([1.0, -2.0, 3.0])
        for grad in (np.zeros(3), None):  # no gradient counts as zero
            assert np.array_equal(_adam_on(before, grad).data, before)

    def test_first_step_moves_by_lr(self):
        p = _adam_on([1.0], [1.0])
        assert p.data[0] == pytest.approx(0.9, abs=1e-8)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            _adam_on(np.zeros(3), np.zeros(4))

    def test_nonfinite_gradient(self):
        with pytest.raises(NumericError):
            _adam_on(np.zeros(2), [1.0, np.inf])

    def test_negative_rate_rejected(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        with pytest.raises(ConfigurationError):
            dc.Adam([{"name": "p", "params": [p], "lr": -0.1}])
        opt = dc.Adam([{"name": "p", "params": [p], "lr": 0.1}])
        with pytest.raises(ConfigurationError):
            opt.set_lr("p", -0.1)
        with pytest.raises(ConfigurationError):
            opt.set_lr("q", 0.1)

    def test_optimizer_groups_and_lr_update(self, rng):
        a = Tensor(rng.standard_normal(4), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        opt = dc.Adam([{"name": "a", "params": [a], "lr": 0.1},
                       {"name": "b", "params": [b], "lr": 0.0}])
        a_before, b_before = a.data.copy(), b.data.copy()
        loss = dc.tsum(dc.mul(a, a)) + dc.tsum(dc.mul(b, b))
        dc.backward(loss)
        opt.step()
        assert np.array_equal(b.data, b_before)  # lr 0 group untouched
        assert np.all(a.grad * (a_before - a.data) > 0)  # a descends
        opt.set_lr("b", 0.05)
        opt.step()  # same gradients, one shared step counter
        assert np.all(b.grad * (b_before - b.data) > 0)

    def test_converges_on_quadratic(self):
        x = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = dc.Adam([{"name": "x", "params": [x], "lr": 0.2}])
        for _ in range(400):
            x.zero_grad()
            dc.backward(dc.tsum(dc.mul(x, x)))
            opt.step()
        assert np.all(np.abs(x.data) < 1e-3)


_ONE = Tensor(np.ones(3))
_REMOVED_LAYOUTS = {
    "conv2d_valid_3d": lambda: dc.conv2d_valid(Tensor(np.zeros((1, 6, 6))),
                                               Tensor(np.zeros((2, 1, 3, 3)))),
    "layer_norm_3d": lambda: dc.layer_norm(Tensor(np.ones((3, 4, 2))),
                                           Tensor(np.ones((3, 1, 1))),
                                           Tensor(np.zeros((3, 1, 1)))),
    "l2_normalize_1d": lambda: dc.l2_normalize(_ONE),
    "linear_1d": lambda: dc.linear(_ONE, Tensor(np.ones((2, 3)))),
    "cross_entropy_1d": lambda: dc.cross_entropy(_ONE, 0),
}


@pytest.mark.parametrize("name", sorted(_REMOVED_LAYOUTS))
def test_single_sample_layout_is_rejected(name):
    # tape ops take the batched layout only; embed and forward_probs batch
    # a single window before any op runs
    with pytest.raises(DimensionError):
        _REMOVED_LAYOUTS[name]()


class TestFdOracleSelfCheck:
    def test_fd_gradient_on_known_function(self):
        # oracle sanity: d/dx sum(x^2) = 2x
        x = np.array([1.0, -2.0, 0.5])
        num = fd_gradient(lambda: float(np.sum(x * x)), x)
        assert_grad_matches(2 * x, num)
