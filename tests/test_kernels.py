import numpy as np
import pytest

from protoeeg import diffcore as dc
from protoeeg import kernels as k
from protoeeg.model import INPUT_CHANNELS, INPUT_TIME, ProtoEEGNet


SHAPES = [
    # (n, ci, h, w), (co, kh, kw), (sh, sw) -- includes the real backbone blocks;
    # n >= 3 so a sample-ordering slip in a batch-merged GEMM shows up
    ((3, 1, 128, 37), (16, 5, 5), (2, 2)),
    ((3, 16, 62, 17), (32, 5, 4), (2, 2)),
    ((3, 32, 29, 7), (64, 10, 3), (2, 2)),
    ((3, 64, 10, 3), (128, 10, 3), (1, 1)),
    ((3, 2, 9, 8), (4, 3, 3), (1, 2)),
    ((3, 3, 6, 6), (2, 6, 6), (1, 1)),  # kernel == input, single output cell
]


def _case(xshape, kspec, stride, rng):
    n, ci, h, w = xshape
    co, kh, kw = kspec
    x = rng.standard_normal(xshape)
    kern = rng.standard_normal((co, ci, kh, kw))
    ho, wo = k.out_shape(h, w, kh, kw, *stride)
    y = rng.standard_normal((n, co, ho, wo))
    return x, kern, y


def _channels_last(a):
    """True when an (N, C, H, W) array lies in (N, H, W, C) memory order."""
    return a.transpose(0, 2, 3, 1).flags.c_contiguous


def _patch(sh, sw, kh, kw, oh, ow):
    return np.s_[:, oh * sh:oh * sh + kh, ow * sw:ow * sw + kw]


def test_out_shape():
    assert k.out_shape(128, 37, 5, 5, 2, 2) == (62, 17)
    assert k.out_shape(10, 3, 10, 3, 1, 1) == (1, 1)


@pytest.mark.parametrize("xshape,kspec,stride", SHAPES)
def test_forward_matches_direct_sum(xshape, kspec, stride, rng):
    n, ci, h, w = xshape
    co, kh, kw = kspec
    sh, sw = stride
    x = rng.standard_normal(xshape)
    kern = rng.standard_normal((co, ci, kh, kw))
    out = k.conv2d_forward(x, kern, sh, sw)
    ho, wo = k.out_shape(h, w, kh, kw, sh, sw)
    assert out.shape == (n, co, ho, wo)
    for s in (0, n - 1):
        for c in (0, co - 1):
            for oh in (0, ho - 1):
                for ow in (0, wo - 1):
                    patch = x[s, :, oh * sh:oh * sh + kh, ow * sw:ow * sw + kw]
                    assert out[s, c, oh, ow] == pytest.approx(np.sum(patch * kern[c]))


@pytest.mark.parametrize("xshape,kspec,stride", SHAPES)
def test_backward_input_matches_loop(xshape, kspec, stride, rng):
    # grad_in[s, :, patch(oh, ow)] += sum_c y[s, c, oh, ow] * kern[c], one sample at a time
    x, kern, y = _case(xshape, kspec, stride, rng)
    _, _, kh, kw = kern.shape
    ref = np.zeros_like(x)
    for s in range(y.shape[0]):
        for oh in range(y.shape[2]):
            for ow in range(y.shape[3]):
                ref[s][_patch(*stride, kh, kw, oh, ow)] += np.tensordot(
                    y[s, :, oh, ow], kern, axes=1)
    got = k.conv2d_backward_input(y, kern, x.shape[2], x.shape[3], *stride)
    assert got.shape == x.shape and _channels_last(got)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("xshape,kspec,stride", SHAPES)
def test_backward_kernels_matches_loop(xshape, kspec, stride, rng):
    # grad_k[c] = sum over samples and output cells of y[s, c, oh, ow] * patch
    x, kern, y = _case(xshape, kspec, stride, rng)
    _, _, kh, kw = kern.shape
    ref = np.zeros_like(kern)
    for s in range(y.shape[0]):
        for oh in range(y.shape[2]):
            for ow in range(y.shape[3]):
                patch = x[s][_patch(*stride, kh, kw, oh, ow)]
                ref += y[s, :, oh, ow][:, None, None, None] * patch
    got = k.conv2d_backward_kernels(y, x, kh, kw, *stride)
    assert got.shape == kern.shape and got.flags.c_contiguous
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("xshape,kspec,stride", SHAPES)
def test_backward_input_is_adjoint(xshape, kspec, stride, rng):
    # <conv(x), y> == <x, conv_bwd_input(y)> for all y
    n, ci, h, w = xshape
    co, kh, kw = kspec
    sh, sw = stride
    x = rng.standard_normal(xshape)
    kern = rng.standard_normal((co, ci, kh, kw))
    out = k.conv2d_forward(x, kern, sh, sw)
    y = rng.standard_normal(out.shape)
    gin = k.conv2d_backward_input(y, kern, h, w, sh, sw)
    assert np.vdot(out, y) == pytest.approx(np.vdot(x, gin), rel=1e-10)


@pytest.mark.parametrize("xshape,kspec,stride", SHAPES)
def test_backward_kernels_is_adjoint(xshape, kspec, stride, rng):
    n, ci, h, w = xshape
    co, kh, kw = kspec
    sh, sw = stride
    x = rng.standard_normal(xshape)
    kern = rng.standard_normal((co, ci, kh, kw))
    out = k.conv2d_forward(x, kern, sh, sw)
    y = rng.standard_normal(out.shape)
    gk = k.conv2d_backward_kernels(y, x, kh, kw, sh, sw)
    assert np.vdot(out, y) == pytest.approx(np.vdot(kern, gk), rel=1e-10)


def test_embedding_is_batch_invariant(rng):
    # push tie-breaks and single-window explanations need a window's latent to be
    # bit-identical wherever it sits in a batch and whatever the batch size
    net = ProtoEEGNet.initialize(seed=3)
    window = rng.standard_normal((INPUT_TIME, INPUT_CHANNELS))
    with dc.no_grad():
        alone = net.embed(window).data
    for size in (7, 75):
        batch = rng.standard_normal((size, INPUT_TIME, INPUT_CHANNELS))
        positions = sorted({0, 1, size // 2, size - 2, size - 1})
        batch[positions] = window
        latents = net.embed(batch).data
        for pos in positions:
            assert np.array_equal(latents[pos], alone), (size, pos)


BLOCKS = SHAPES[:4]  # the four backbone blocks


@pytest.mark.parametrize("xshape,kspec,stride", BLOCKS)
def test_forward_is_batch_invariant(xshape, kspec, stride, rng):
    # samples x output positions form the GEMM's rows, so a sample's output
    # bits do not depend on the batch; batches of 1-4 samples need the
    # zero-padding of short GEMMs
    _, ci, h, w = xshape
    co, kh, kw = kspec
    kern = rng.standard_normal((co, ci, kh, kw))
    for n in (1, 2, 3, 4):
        few = rng.standard_normal((n, ci, h, w))
        alone = k.conv2d_forward(few, kern, *stride)
        for size in (7, 33, 75):
            for pos in (0, size // 2, size - n):
                batch = rng.standard_normal((size, ci, h, w))
                batch[pos:pos + n] = few
                out = k.conv2d_forward(batch, kern, *stride)
                assert np.array_equal(out[pos:pos + n], alone), (n, size, pos)


def test_activations_stay_channels_last(rng):
    # every activation of the backbone is channels-last, so no kernel or op
    # needs a layout copy; a stray ascontiguousarray would break this
    (n, ci, h, w), (co, kh, kw), stride = SHAPES[1]
    kern = rng.standard_normal((co, ci, kh, kw))
    x = k.conv2d_forward(rng.standard_normal((n, ci, h, w)), kern, *stride)
    assert _channels_last(x)
    assert _channels_last(k.conv2d_backward_input(
        rng.standard_normal(x.shape), kern, h, w, *stride))
    xt = dc.Tensor(x, requires_grad=True)
    gain = dc.Tensor(rng.standard_normal((co, 1, 1)), requires_grad=True)
    bias = dc.Tensor(rng.standard_normal((co, 1, 1)), requires_grad=True)
    normed = dc.layer_norm(xt, gain, bias)
    out = dc.elu(normed)
    assert _channels_last(normed.data) and _channels_last(out.data)
    (g_normed,) = out._backward(np.ones_like(out.data))  # ones_like keeps the layout
    assert _channels_last(g_normed)
    assert _channels_last(normed._backward(g_normed)[0])
