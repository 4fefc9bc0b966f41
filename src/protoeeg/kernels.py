"""Valid-mode 2-d convolution kernels, the hot inner loops of the network.

One numpy implementation in the im2col/GEMM style (Chellapilla et al.
2006): an ``as_strided`` view gathers the receptive fields and BLAS does
the contraction.

* ``conv2d_forward`` runs one GEMM per sample (a batched ``matmul``).  A
  window's output therefore does not depend on the other windows in the
  batch or on the batch size, bit for bit; push tie-breaking and
  single-window explanations rely on that.
* ``conv2d_backward_kernels`` and ``conv2d_backward_input`` each run one
  GEMM over the whole batch.  Their results are only summed into parameter
  gradients, so merging the batch there changes the last bits of a
  gradient, never which window gets which latent.

All kernels take and return C-contiguous float64 arrays.  Shapes follow
the (N, C, H, W) convention; strides are (stride_h, stride_w) with no
padding, so output spatial dims are ``(H - kh)//sh + 1`` by
``(W - kw)//sw + 1``.
"""

from __future__ import annotations

import numpy as np


def out_shape(h: int, w: int, kh: int, kw: int, sh: int, sw: int) -> tuple[int, int]:
    return (h - kh) // sh + 1, (w - kw) // sw + 1


def _patches(x: np.ndarray, kh: int, kw: int, sh: int, sw: int) -> np.ndarray:
    """(N, C, H, W) -> read-only (N, C, kh, kw, ho, wo) view of every patch."""
    n, c, h, w = x.shape
    ho, wo = out_shape(h, w, kh, kw, sh, sw)
    sn, sc, srow, scol = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kh, kw, ho, wo),
        strides=(sn, sc, srow, scol, srow * sh, scol * sw),
        writeable=False,
    )


def conv2d_forward(x: np.ndarray, kernels: np.ndarray, sh: int, sw: int) -> np.ndarray:
    n, ci, h, w = x.shape
    co, _, kh, kw = kernels.shape
    ho, wo = out_shape(h, w, kh, kw, sh, sw)
    cols = _patches(x, kh, kw, sh, sw).reshape(n, ci * kh * kw, ho * wo)
    kmat = kernels.reshape(co, ci * kh * kw)
    out = np.matmul(kmat, cols)
    return np.ascontiguousarray(out.reshape(n, co, ho, wo))


def _batch_columns(grad_out: np.ndarray) -> np.ndarray:
    """(N, C_out, ho, wo) -> (C_out, N*ho*wo), the batch merged into columns."""
    n, co, ho, wo = grad_out.shape
    return grad_out.transpose(1, 0, 2, 3).reshape(co, n * ho * wo)


def conv2d_backward_input(
    grad_out: np.ndarray, kernels: np.ndarray, h: int, w: int, sh: int, sw: int
) -> np.ndarray:
    n, co, ho, wo = grad_out.shape
    _, ci, kh, kw = kernels.shape
    # rows ordered (i, j, c) so each kernel offset's block is contiguous
    kmat_t = kernels.transpose(2, 3, 1, 0).reshape(kh * kw * ci, co)
    gcols = (kmat_t @ _batch_columns(grad_out)).reshape(kh, kw, ci, n, ho, wo)
    grad_in = np.zeros((ci, n, h, w))
    for i in range(kh):
        for j in range(kw):
            grad_in[:, :, i : i + ho * sh : sh, j : j + wo * sw : sw] += gcols[i, j]
    return np.ascontiguousarray(grad_in.transpose(1, 0, 2, 3))


def conv2d_backward_kernels(
    grad_out: np.ndarray, x: np.ndarray, kh: int, kw: int, sh: int, sw: int
) -> np.ndarray:
    n, co, ho, wo = grad_out.shape
    ci = x.shape[1]
    cols = _patches(x, kh, kw, sh, sw).transpose(1, 2, 3, 0, 4, 5)
    cols = cols.reshape(ci * kh * kw, n * ho * wo)
    gk = _batch_columns(grad_out) @ cols.T
    return gk.reshape(co, ci, kh, kw)
