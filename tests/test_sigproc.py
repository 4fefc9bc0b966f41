import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import signal as sps

from protoeeg import sigproc as sp
from protoeeg.errors import ConfigurationError


def steady_amplitude(y, discard_frac=0.25):
    tail = y[int(len(y) * discard_frac):]
    return np.sqrt(2.0) * np.sqrt(np.mean(tail ** 2))


def sine(freq, fs, seconds, phase=0.0):
    t = np.arange(int(fs * seconds)) / fs
    return np.sin(2 * np.pi * freq * t + phase)


def filtered(x, fs=256.0, **spec):
    """Notch and high-pass cascade alone: preprocess_window without resampling."""
    return sp.preprocess_window(np.asarray(x).reshape(len(x), -1), fs, fs_out=fs,
                                **spec).reshape(np.shape(x))


class TestFilterSpec:
    """The notch and high-pass settings preprocess_window checks."""

    def test_nyquist_violation(self):
        with pytest.raises(ConfigurationError, match="notch .*Nyquist"):
            filtered(np.zeros(64), fs=100.0)  # the default 60 Hz notch
        for name in ("notch", "highpass"):
            for hz in (128.0, 200.0):
                with pytest.raises(ConfigurationError, match=f"{name} .*Nyquist"):
                    filtered(np.zeros(64), **{f"{name}_hz": hz})

    @pytest.mark.parametrize("spec", [{"notch_hz": 0.0}, {"highpass_hz": -0.5}])
    def test_nonpositive_frequency(self, spec):
        with pytest.raises(ConfigurationError):
            filtered(np.zeros(64), **spec)

    @pytest.mark.parametrize("q", [0.0, -30.0, float("nan")])
    def test_nonpositive_q(self, q):
        with pytest.raises(ConfigurationError, match="Q"):
            filtered(np.zeros(64), notch_q=q)

    def test_noninteger_order(self):
        for order in (0, 2.5):
            with pytest.raises(ConfigurationError, match="order"):
                filtered(np.zeros(64), highpass_order=order)


class TestNotch:
    def test_zero_in_zero_out(self):
        assert_allclose(filtered(np.zeros(256)), 0.0)

    def test_60hz_attenuated(self):
        x = sine(60.0, 256.0, 1.0)
        assert steady_amplitude(filtered(x)) <= 0.1  # >= 20 dB

    def test_10hz_passes(self):
        x = sine(10.0, 256.0, 4.0)
        ripple_db = abs(20 * np.log10(steady_amplitude(filtered(x))))
        assert ripple_db <= 1.0

    def test_length_preserved_2d(self):
        x = np.random.default_rng(0).standard_normal((512, 3))
        assert filtered(x).shape == x.shape

    def test_too_short(self):
        with pytest.raises(ConfigurationError):
            filtered(np.zeros(2))


class TestHighpass:
    def test_dc_removed(self):
        y = filtered(np.ones(int(256 * 30)))
        assert np.max(np.abs(y[-len(y) // 4:])) <= 1e-3

    def test_10hz_passes(self):
        x = sine(10.0, 256.0, 4.0)
        ripple_db = abs(20 * np.log10(steady_amplitude(filtered(x))))
        assert ripple_db <= 1.0

    def test_zero_in_zero_out(self):
        assert_allclose(filtered(np.zeros(64)), 0.0)


class TestLinearity:
    def test_linear_combination(self):
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal(512), rng.standard_normal(512)
        a, b = 2.5, -1.25
        lhs = filtered(a * x + b * y)
        rhs = a * filtered(x) + b * filtered(y)
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_deterministic(self):
        x = np.random.default_rng(2).standard_normal(256)
        assert np.array_equal(filtered(x), filtered(x))


class TestResample:
    def test_length_arithmetic(self):
        assert sp.resample(np.zeros(256), 256.0, 128.0).shape == (128,)
        assert sp.resample(np.zeros(100), 128.0, 256.0).shape == (200,)

    def test_constant_preserved(self):
        y = sp.resample(np.full(256, 1.0), 256.0, 128.0)
        assert np.max(np.abs(y - 1.0)) < 1e-6
        y = sp.resample(np.full(128, -3.5), 128.0, 256.0)
        assert np.max(np.abs(y + 3.5)) < 1e-6

    def test_same_rate_is_copy(self):
        x = np.random.default_rng(3).standard_normal(64)
        assert np.array_equal(sp.resample(x, 128.0, 128.0), x)

    def test_empty_signal(self):
        assert sp.resample(np.zeros(0), 256.0, 128.0).shape == (0,)

    def test_5hz_sine_correlation(self):
        x = sine(5.0, 256.0, 1.0)
        y = sp.resample(x, 256.0, 128.0)
        ref = sine(5.0, 128.0, 1.0)
        interior = slice(8, -8)
        c = np.corrcoef(y[interior], ref[interior])[0, 1]
        assert c >= 0.999

    def test_2d_channels_independent(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((256, 4))
        y = sp.resample(x, 256.0, 128.0)
        assert y.shape == (128, 4)
        for c in range(4):
            assert_allclose(y[:, c], sp.resample(x[:, c], 256.0, 128.0), atol=1e-12)

    def test_bad_rates(self):
        with pytest.raises(ConfigurationError):
            sp.resample(np.zeros(8), 0.0, 128.0)
        for rate in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                sp.resample(np.zeros(8), 256.0, rate)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal(256), rng.standard_normal(256)
        lhs = sp.resample(2.0 * x - 0.5 * y, 256.0, 128.0)
        rhs = 2.0 * sp.resample(x, 256.0, 128.0) - 0.5 * sp.resample(y, 256.0, 128.0)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_preprocess_window_shape():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((256, 37)) * 20
    y = sp.preprocess_window(x, fs_in=256.0)
    assert y.shape == (128, 37)


def _per_window_reference(window, fs_in, fs_out):
    """The per-window path that batching replaced: both filters designed
    for this window, then each output sample's taps gathered into an
    (n_out, taps, channel) array and summed by an einsum."""
    b, a = sps.iirnotch(sp.DEFAULT_NOTCH_HZ, sp.DEFAULT_NOTCH_Q, fs=fs_in)
    y = sps.sosfilt(sps.tf2sos(b, a), window, axis=0)
    y = sps.sosfilt(sps.butter(sp.DEFAULT_HIGHPASS_ORDER, sp.DEFAULT_HIGHPASS_HZ,
                               btype="highpass", fs=fs_in, output="sos"), y, axis=0)
    n_in = y.shape[0]
    n_out = int(round(n_in * fs_out / fs_in))
    if fs_in == fs_out:
        return y
    ratio, rho = fs_in / fs_out, min(1.0, fs_out / fs_in)
    half = 16 / rho
    reach = int(np.ceil(half))
    t = np.arange(n_out) * ratio
    taps = np.floor(t).astype(np.int64)[:, None] + np.arange(-reach, reach + 1)
    u = taps - t[:, None]
    weights = np.sinc(rho * u) * np.where(
        np.abs(u) <= half, 0.5 + 0.5 * np.cos(np.pi * u * rho / 16), 0.0)
    weights[(taps < 0) | (taps >= n_in)] = 0.0
    weights /= weights.sum(axis=1, keepdims=True)
    return np.einsum("ot,otc->oc", weights, y[np.clip(taps, 0, n_in - 1)])


RATES = [(256.0, 128.0), (128.0, 256.0), (250.0, 128.0), (128.0, 128.0)]


class TestBatchedPreprocessing:
    @pytest.mark.parametrize("fs_in,fs_out", RATES)
    @pytest.mark.parametrize("time_steps,channels", [(None, 5), (3, 4)])
    def test_batch_matches_per_window_path(self, fs_in, fs_out, time_steps, channels):
        rng = np.random.default_rng(int(fs_in + fs_out))
        x = 30 * rng.standard_normal((9, time_steps or int(fs_in), channels))
        ref = np.stack([_per_window_reference(w, fs_in, fs_out) for w in x])
        assert np.array_equal(sp.preprocess_window(x, fs_in, fs_out=fs_out), ref)

    @pytest.mark.parametrize("fs_in,fs_out", RATES)
    def test_single_channel_matches_per_window_path(self, fs_in, fs_out):
        # For one channel, the reference's einsum reduces over the taps
        # with numpy's vectorised dot, whose summation order differs from
        # the tap order it uses for two or more channels.  The batched path
        # sums in tap order at any width, so it matches the reference's bits
        # for that column inside a wider window, and the one-channel
        # reference to rounding.
        rng = np.random.default_rng(int(fs_in + 2 * fs_out))
        x = 30 * rng.standard_normal((9, int(fs_in), 1))
        got = sp.preprocess_window(x, fs_in, fs_out=fs_out)
        wide = np.stack([_per_window_reference(np.repeat(w, 2, axis=1), fs_in, fs_out)
                         for w in x])
        assert np.array_equal(got, wide[..., :1])
        alone = np.stack([_per_window_reference(w, fs_in, fs_out) for w in x])
        assert_allclose(got, alone, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("size", [7, 300])
    def test_window_gives_the_same_bits_alone_and_in_a_batch(self, size):
        assert sp.PREPROCESS_BLOCK < 300  # the large batch crosses a block boundary
        x = (20 * np.random.default_rng(size).standard_normal((size, 256, 6))).astype(np.float32)
        batch = sp.preprocess_window(x, 256.0)
        for k in (0, size // 2, size - 1):
            assert np.array_equal(batch[k], sp.preprocess_window(x[k], 256.0))

    def test_resample_is_one_product_for_any_trailing_shape(self):
        x = np.random.default_rng(8).standard_normal((256, 3, 4))
        y = sp.resample(x, 256.0, 128.0)
        assert y.shape == (128, 3, 4)
        assert np.array_equal(y[:, 1], sp.resample(x[:, 1], 256.0, 128.0))
        assert np.array_equal(y[:, 2, 3], sp.resample(x[:, 2, 3], 256.0, 128.0))
