"""EEG preprocessing: notch, high-pass, resampling.

All filters run causally along the time axis, one column per channel,
and preserve length.  Defaults follow conventional clinical settings:
60 Hz notch at Q=30 and a 0.5 Hz order-4 Butterworth high-pass.

`preprocess_window` designs the notch and the high-pass once per call as
one cascade of second-order sections, runs the cascade as one `sosfilt`
over a block of windows and resamples with one banded sparse product, so
every column takes the same arithmetic alone or in a batch, and without
BLAS: a window's bits depend on neither batch nor thread count.
`scipy.signal` and `scipy.sparse` are imported inside the functions that
call them, so importing this module loads no scipy module.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError

DEFAULT_NOTCH_HZ = 60.0
DEFAULT_NOTCH_Q = 30.0
DEFAULT_HIGHPASS_HZ = 0.5
DEFAULT_HIGHPASS_ORDER = 4
TARGET_FS = 128.0

_SINC_TAPS_PER_SIDE = 16  # zero crossings per side of the resampling kernel
MIN_FILTER_SAMPLES = 3  # shortest signal the filters accept
PREPROCESS_BLOCK = 32  # windows held in float64 at a time by preprocess_window


def _filter_cascade(fs: float, notch_hz: float, notch_q: float, highpass_hz: float,
                    highpass_order: int) -> np.ndarray:
    """Second-order sections of the notch followed by the Butterworth
    high-pass, stacked so one `sosfilt` runs both; the high-pass's flat
    (b, a) form is ill-conditioned at cutoffs this far below Nyquist."""
    for name, hz in (("notch", notch_hz), ("highpass", highpass_hz)):
        if not 0 < hz < fs / 2:
            raise ConfigurationError(
                f"{name} frequency {hz} Hz must lie in (0, {fs / 2}) Hz, below Nyquist")
    if not notch_q > 0:  # NaN fails too
        raise ConfigurationError(f"notch Q must be positive, got {notch_q}")
    if highpass_order != int(highpass_order) or highpass_order < 1:
        raise ConfigurationError(
            f"highpass order must be an integer >= 1, got {highpass_order}")
    from scipy import signal as sps
    return np.vstack([sps.tf2sos(*sps.iirnotch(notch_hz, notch_q, fs=fs)),
                      sps.butter(int(highpass_order), highpass_hz, btype="highpass",
                                 fs=fs, output="sos")])


def resampled_length(n_in: int, fs_in: float, fs_out: float) -> int:
    if not (0 < fs_in < math.inf and 0 < fs_out < math.inf):  # NaN fails too
        raise ConfigurationError(
            f"sample rates must be positive and finite, got {fs_in}, {fs_out}")
    return int(round(n_in * fs_out / fs_in))


def _resampling_matrix(n_in: int, fs_in: float, fs_out: float):
    """Banded (n_out, n_in) CSR array of Hann-windowed sinc weights, normalized per row;
    taps outside the window or off either end of the signal get weight 0."""
    from scipy import sparse
    ratio = fs_in / fs_out                 # input samples per output sample
    rho = min(1.0, fs_out / fs_in)         # cutoff relative to input Nyquist
    half = _SINC_TAPS_PER_SIDE / rho
    reach = math.ceil(half)
    t = np.arange(resampled_length(n_in, fs_in, fs_out)) * ratio
    taps = np.floor(t).astype(np.int64)[:, None] + np.arange(-reach, reach + 1)
    u = taps - t[:, None]
    hann = 0.5 + 0.5 * np.cos(np.pi * u * rho / _SINC_TAPS_PER_SIDE)
    band = (np.abs(u) <= half) & (taps >= 0) & (taps < n_in)
    weights = np.where(band, np.sinc(rho * u) * hann, 0.0)
    weights /= weights.sum(axis=1, keepdims=True)
    indptr = np.concatenate([[0], np.cumsum(band.sum(axis=1))])
    return sparse.csr_array((weights[band], taps[band], indptr), shape=(len(t), n_in))


def resample(signal_arr, fs_in: float, fs_out: float) -> np.ndarray:
    """Windowed-sinc resampling (Hann window, 16 taps per side) along axis
    0, for any trailing shape.

    Output length is round(n * fs_out / fs_in).  Per-output weight
    normalization makes constant signals come through exactly, and the
    sinc cutoff tracks the lower of the two Nyquist rates so
    downsampling is anti-aliased.  The weights are one banded sparse matrix
    applied to all columns in one product, each output a tap-ordered sum
    without BLAS, so its bits depend on neither batch nor thread count.
    """
    x = np.asarray(signal_arr, dtype=np.float64)
    n_in, trailing = x.shape[0], x.shape[1:]
    n_out = resampled_length(n_in, fs_in, fs_out)
    if fs_in == fs_out:
        return x.copy()
    columns = np.ascontiguousarray(x).reshape(n_in, math.prod(trailing))
    return (_resampling_matrix(n_in, fs_in, fs_out) @ columns).reshape((n_out,) + trailing)


def preprocess_window(values: np.ndarray, fs_in: float,
                      notch_hz: float = DEFAULT_NOTCH_HZ,
                      notch_q: float = DEFAULT_NOTCH_Q,
                      highpass_hz: float = DEFAULT_HIGHPASS_HZ,
                      highpass_order: int = DEFAULT_HIGHPASS_ORDER,
                      fs_out: float = TARGET_FS) -> np.ndarray:
    """Notch, then high-pass, then resample one (time, channel) window or a
    batch (n, time, channel), in float64.  The windows go through
    PREPROCESS_BLOCK at a time, each block converted to float64 on its own."""
    from scipy import signal as sps
    x = np.asarray(values)
    batch = x if x.ndim == 3 else x[None]
    sos = _filter_cascade(fs_in, notch_hz, notch_q, highpass_hz, highpass_order)
    n, n_in, channels = batch.shape
    if n_in < MIN_FILTER_SAMPLES:
        raise ConfigurationError(f"signal too short to filter (length {n_in})")
    out = np.empty((n, resampled_length(n_in, fs_in, fs_out), channels))
    for start in range(0, n, PREPROCESS_BLOCK):
        block = np.ascontiguousarray(  # time first
            np.moveaxis(batch[start:start + PREPROCESS_BLOCK], 1, 0), dtype=np.float64)
        y = resample(sps.sosfilt(sos, block, axis=0), fs_in, fs_out)
        out[start:start + y.shape[1]] = np.moveaxis(y, 0, 1)
    return out if x.ndim == 3 else out[0]
