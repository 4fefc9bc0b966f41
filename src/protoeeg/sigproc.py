"""EEG preprocessing: notch, high-pass, resampling.

All filters run causally along axis 0 (time), one column per channel,
and preserve length.  Defaults follow conventional clinical settings:
60 Hz notch at Q=30 and a 0.5 Hz order-4 Butterworth high-pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import signal as sps

from .errors import ConfigurationError

DEFAULT_NOTCH_HZ = 60.0
DEFAULT_NOTCH_Q = 30.0
DEFAULT_HIGHPASS_HZ = 0.5
DEFAULT_HIGHPASS_ORDER = 4
TARGET_FS = 128.0

_SINC_TAPS_PER_SIDE = 16  # zero crossings per side of the resampling kernel
MIN_FILTER_SAMPLES = 3  # shortest signal the filters accept


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


def notch_filter(signal_arr, spec: FilterSpec) -> np.ndarray:
    """Second-order IIR notch, causal, per channel (axis 0 = time)."""
    if spec.kind != "notch":
        raise ConfigurationError(f"notch_filter got a {spec.kind!r} spec")
    b, a = sps.iirnotch(spec.center_or_cutoff_hz, spec.quality_or_order,
                        fs=spec.sample_rate_hz)
    return _apply_sos(sps.tf2sos(b, a), signal_arr)


def highpass_filter(signal_arr, spec: FilterSpec) -> np.ndarray:
    """Butterworth high-pass, causal, per channel (axis 0 = time).

    Run as cascaded second-order sections; the flat (b, a) form is
    ill-conditioned at cutoffs this far below Nyquist.
    """
    if spec.kind != "highpass":
        raise ConfigurationError(f"highpass_filter got a {spec.kind!r} spec")
    sos = sps.butter(int(spec.quality_or_order), spec.center_or_cutoff_hz,
                     btype="highpass", fs=spec.sample_rate_hz, output="sos")
    return _apply_sos(sos, signal_arr)


def resample(signal_arr, fs_in: float, fs_out: float) -> np.ndarray:
    """Windowed-sinc resampling (Hann window, 16 taps per side).

    Output length is round(n * fs_out / fs_in).  Per-output weight
    normalization makes constant signals come through exactly, and the
    sinc cutoff tracks the lower of the two Nyquist rates so
    downsampling is anti-aliased.
    """
    if fs_in <= 0 or fs_out <= 0:
        raise ConfigurationError(f"sample rates must be positive, got {fs_in}, {fs_out}")
    x = np.asarray(signal_arr, dtype=np.float64)
    one_d = x.ndim == 1
    if one_d:
        x = x[:, None]
    if x.ndim != 2:
        raise ConfigurationError(f"resample expects 1-d or 2-d input, got ndim={x.ndim}")
    n_in = x.shape[0]
    n_out = int(round(n_in * fs_out / fs_in))
    if n_in == 0 or n_out == 0:
        out = np.zeros((n_out, x.shape[1]))
        return out[:, 0] if one_d else out
    if fs_in == fs_out:
        return x[:, 0].copy() if one_d else x.copy()

    ratio = fs_in / fs_out                 # input samples per output sample
    rho = min(1.0, fs_out / fs_in)         # cutoff relative to input Nyquist
    half = _SINC_TAPS_PER_SIDE / rho
    reach = math.ceil(half)
    offsets = np.arange(-reach, reach + 1)

    t = np.arange(n_out) * ratio
    base = np.floor(t).astype(np.int64)
    taps = base[:, None] + offsets[None, :]
    u = taps - t[:, None]
    inside = np.abs(u) <= half
    window = np.where(inside, 0.5 + 0.5 * np.cos(np.pi * u * rho / _SINC_TAPS_PER_SIDE), 0.0)
    weights = np.sinc(rho * u) * window
    weights[(taps < 0) | (taps >= n_in)] = 0.0
    weights /= weights.sum(axis=1, keepdims=True)

    gathered = x[np.clip(taps, 0, n_in - 1)]        # (n_out, n_taps, channels)
    out = np.einsum("ot,otc->oc", weights, gathered)
    return out[:, 0] if one_d else out


def preprocess_window(values: np.ndarray, fs_in: float,
                      notch_hz: float = DEFAULT_NOTCH_HZ,
                      notch_q: float = DEFAULT_NOTCH_Q,
                      highpass_hz: float = DEFAULT_HIGHPASS_HZ,
                      highpass_order: int = DEFAULT_HIGHPASS_ORDER,
                      fs_out: float = TARGET_FS) -> np.ndarray:
    """Notch, then high-pass, then resample one (time x channel) window."""
    y = notch_filter(values, notch_spec(fs_in, notch_hz, notch_q))
    y = highpass_filter(y, highpass_spec(fs_in, highpass_hz, highpass_order))
    return resample(y, fs_in, fs_out)
