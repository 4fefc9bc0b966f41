"""Valid-mode 2-d convolution kernels, the hot inner loops of the network.

One numpy implementation in the im2col/GEMM style (Chellapilla et al.
2006).  Shapes are (N, C, H, W), but activations are channels-last: their
memory order is (N, H, W, C).  Strides are (stride_h, stride_w) with no
padding, so output spatial dims are ``(H - kh)//sh + 1`` by
``(W - kw)//sw + 1``.  Kernels keep their (C_out, C_in, kh, kw) shape.

* ``conv2d_forward`` gathers each receptive field (kh runs of kw*C values)
  into a patch row and runs one GEMM of the (N*ho*wo, kh*kw*C) patch rows
  against the (C_out, kh*kw*C) kernel matrix; the channels-last output is
  a view of the product.  With samples and positions in the GEMM's rows, a
  window's output bits depend neither on its batch nor on the BLAS thread
  count.  That is a property of OpenBLAS's row blocking, not of the
  arithmetic: a GEMM of a few rows takes other code paths and rounds
  differently, so one of fewer than ``MIN_GEMM_ROWS`` rows is zero-padded.
* ``conv2d_backward_kernels`` is one GEMM over the same patch rows.
* ``conv2d_backward_input`` is one GEMM to patch gradients, then one
  product with a 0/1 ``scipy.sparse`` scatter matrix, built once per shape,
  that sums each patch gradient into the positions it was read from
  (col2im) in a fixed order, without BLAS.  ``scipy.sparse`` is imported
  there, on the first backward pass, so inference loads no scipy module.

``conv2d_forward`` and ``conv2d_backward_input`` return channels-last
arrays, and take inputs of any layout, channels-last ones without a copy.
"""

from __future__ import annotations

import functools

import numpy as np

# GEMMs with fewer rows than this are zero-padded to it (see module docstring)
MIN_GEMM_ROWS = 32


def out_shape(h: int, w: int, kh: int, kw: int, sh: int, sw: int) -> tuple[int, int]:
    return (h - kh) // sh + 1, (w - kw) // sw + 1


def _patch_rows(x: np.ndarray, kh: int, kw: int, sh: int, sw: int) -> np.ndarray:
    """(N, C, H, W) -> (N*ho*wo, kh*kw*C) patch rows, columns ordered (i, j, c).
    Each run of kw*C channels-last values is copied as one opaque item, so a
    short run (block 1 has C = 1) costs one copy, not kw*C."""
    n, c, h, w = x.shape
    ho, wo = out_shape(h, w, kh, kw, sh, sw)
    xl = np.ascontiguousarray(x.transpose(0, 2, 3, 1))  # a view when channels-last
    sn, srow, scol, _ = xl.strides
    runs = np.ndarray((n, ho, wo, kh), dtype=np.dtype((np.void, kw * c * xl.itemsize)),
                      buffer=xl, strides=(sn, srow * sh, scol * sw, srow))
    return runs.copy().view(xl.dtype).reshape(n * ho * wo, kh * kw * c)


def _row_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` with ``a`` zero-padded to at least MIN_GEMM_ROWS rows."""
    m = a.shape[0]
    if m < MIN_GEMM_ROWS:
        a = np.concatenate([a, np.zeros((MIN_GEMM_ROWS - m, a.shape[1]))])
    return (a @ b)[:m]


def conv2d_forward(x: np.ndarray, kernels: np.ndarray, sh: int, sw: int) -> np.ndarray:
    n, _, h, w = x.shape
    co, _, kh, kw = kernels.shape
    ho, wo = out_shape(h, w, kh, kw, sh, sw)
    kmat = kernels.transpose(0, 2, 3, 1).reshape(co, -1)  # columns (i, j, c)
    out = _row_gemm(_patch_rows(x, kh, kw, sh, sw), kmat.T)
    return out.reshape(n, ho, wo, co).transpose(0, 3, 1, 2)


@functools.lru_cache(maxsize=16)  # a build costs more than the product
def _scatter_matrix(n: int, h: int, w: int, kh: int, kw: int, sh: int, sw: int):
    """0/1 (N*H*W, N*ho*wo*kh*kw) CSC array whose column for patch entry
    (n, oh, ow, i, j) holds one 1, at input position (n, oh*sh + i, ow*sw + j)."""
    from scipy import sparse
    ho, wo = out_shape(h, w, kh, kw, sh, sw)
    s, oh, ow, i, j = np.ix_(np.arange(n), np.arange(ho), np.arange(wo),
                             np.arange(kh), np.arange(kw))
    target = ((s * h + oh * sh + i) * w + ow * sw + j).ravel()
    return sparse.csc_array(
        (np.ones(target.size), target, np.arange(target.size + 1)),
        shape=(n * h * w, target.size))


def conv2d_backward_input(
    grad_out: np.ndarray, kernels: np.ndarray, h: int, w: int, sh: int, sw: int
) -> np.ndarray:
    n, co = grad_out.shape[:2]
    _, ci, kh, kw = kernels.shape
    gcols = _row_gemm(grad_out.transpose(0, 2, 3, 1).reshape(-1, co),
                      kernels.transpose(0, 2, 3, 1).reshape(co, -1))
    grad_in = _scatter_matrix(n, h, w, kh, kw, sh, sw) @ gcols.reshape(-1, ci)
    return grad_in.reshape(n, h, w, ci).transpose(0, 3, 1, 2)


def conv2d_backward_kernels(
    grad_out: np.ndarray, x: np.ndarray, kh: int, kw: int, sh: int, sw: int
) -> np.ndarray:
    co, ci = grad_out.shape[1], x.shape[1]
    gk = grad_out.transpose(1, 0, 2, 3).reshape(co, -1) @ _patch_rows(x, kh, kw, sh, sw)
    return np.ascontiguousarray(gk.reshape(co, kh, kw, ci).transpose(0, 3, 1, 2))
