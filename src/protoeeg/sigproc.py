"""EEG preprocessing: notch, high-pass, resampling.

All filters run causally along the time axis, one column per channel,
and preserve length.  Defaults follow conventional clinical settings:
60 Hz notch at Q=30 and a 0.5 Hz order-4 Butterworth high-pass.

`preprocess_window` designs both filters once per call, runs each as one
`sosfilt` over a block of windows and resamples with one banded sparse
product, so every column takes the same arithmetic alone or in a batch,
and without BLAS: a window's bits depend on neither batch nor thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import signal as sps, sparse

from .errors import ConfigurationError

DEFAULT_NOTCH_HZ = 60.0
DEFAULT_NOTCH_Q = 30.0
DEFAULT_HIGHPASS_HZ = 0.5
DEFAULT_HIGHPASS_ORDER = 4
TARGET_FS = 128.0

_SINC_TAPS_PER_SIDE = 16  # zero crossings per side of the resampling kernel
MIN_FILTER_SAMPLES = 3  # shortest signal the filters accept
PREPROCESS_BLOCK = 32  # windows held in float64 at a time by preprocess_window


@dataclass(frozen=True)
class FilterSpec:
    kind: str  # "notch" | "highpass"
    center_or_cutoff_hz: float
    sample_rate_hz: float
    quality_or_order: float

    def __post_init__(self):
        if self.kind not in ("notch", "highpass"):
            raise ConfigurationError(f"unknown filter kind {self.kind!r}")
        if self.center_or_cutoff_hz <= 0 or self.sample_rate_hz <= 0:
            raise ConfigurationError("filter frequencies must be positive")
        if self.center_or_cutoff_hz >= self.sample_rate_hz / 2:
            raise ConfigurationError(
                f"{self.center_or_cutoff_hz} Hz is at or above Nyquist "
                f"({self.sample_rate_hz / 2} Hz)"
            )
        if self.kind == "notch" and self.quality_or_order <= 0:
            raise ConfigurationError("notch Q must be positive")
        if self.kind == "highpass":
            order = self.quality_or_order
            if order != int(order) or order < 1:
                raise ConfigurationError(f"highpass order must be an integer >= 1, got {order}")


def notch_spec(sample_rate_hz: float, center_hz: float = DEFAULT_NOTCH_HZ,
               q: float = DEFAULT_NOTCH_Q) -> FilterSpec:
    return FilterSpec("notch", center_hz, sample_rate_hz, q)


def highpass_spec(sample_rate_hz: float, cutoff_hz: float = DEFAULT_HIGHPASS_HZ,
                  order: int = DEFAULT_HIGHPASS_ORDER) -> FilterSpec:
    return FilterSpec("highpass", cutoff_hz, sample_rate_hz, order)


def _apply_sos(sos, signal_arr: np.ndarray) -> np.ndarray:
    x = np.asarray(signal_arr, dtype=np.float64)
    if x.shape[0] < MIN_FILTER_SAMPLES:
        raise ConfigurationError(f"signal too short to filter (length {x.shape[0]})")
    return sps.sosfilt(sos, x, axis=0)


def _sos(spec: FilterSpec, kind: str) -> np.ndarray:
    """Second-order sections of a `kind` spec; the high-pass's flat (b, a)
    form is ill-conditioned at cutoffs this far below Nyquist."""
    if spec.kind != kind:
        raise ConfigurationError(f"{kind} filter got a {spec.kind!r} spec")
    if kind == "notch":
        return sps.tf2sos(*sps.iirnotch(spec.center_or_cutoff_hz, spec.quality_or_order,
                                        fs=spec.sample_rate_hz))
    return sps.butter(int(spec.quality_or_order), spec.center_or_cutoff_hz,
                      btype="highpass", fs=spec.sample_rate_hz, output="sos")


def notch_filter(signal_arr, spec: FilterSpec) -> np.ndarray:
    """Second-order IIR notch, causal, per channel (axis 0 = time)."""
    return _apply_sos(_sos(spec, "notch"), signal_arr)


def highpass_filter(signal_arr, spec: FilterSpec) -> np.ndarray:
    """Butterworth high-pass, causal, per channel (axis 0 = time)."""
    return _apply_sos(_sos(spec, "highpass"), signal_arr)


def resampled_length(n_in: int, fs_in: float, fs_out: float) -> int:
    if fs_in <= 0 or fs_out <= 0:
        raise ConfigurationError(f"sample rates must be positive, got {fs_in}, {fs_out}")
    return int(round(n_in * fs_out / fs_in))


def _resampling_matrix(n_in: int, fs_in: float, fs_out: float) -> sparse.csr_array:
    """Banded (n_out, n_in) Hann-windowed sinc weights, normalized per row;
    taps outside the window or off either end of the signal get weight 0."""
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
    x = np.asarray(values)
    batch = x if x.ndim == 3 else x[None]
    notch = _sos(notch_spec(fs_in, notch_hz, notch_q), "notch")
    highpass = _sos(highpass_spec(fs_in, highpass_hz, highpass_order), "highpass")
    n, n_in, channels = batch.shape
    out = np.empty((n, resampled_length(n_in, fs_in, fs_out), channels))
    for start in range(0, n, PREPROCESS_BLOCK):
        block = np.ascontiguousarray(  # time first
            np.moveaxis(batch[start:start + PREPROCESS_BLOCK], 1, 0), dtype=np.float64)
        y = resample(_apply_sos(highpass, _apply_sos(notch, block)), fs_in, fs_out)
        out[start:start + y.shape[1]] = np.moveaxis(y, 0, 1)
    return out if x.ndim == 3 else out[0]
