"""Synthetic multi-annotator EEG windows, binary storage, and splits.

The generator mimics the shape of a clinical spike-review dataset:
1-second windows, 37 channels, and a vote count in 0..8 from eight
simulated annotators.  Each window is pink-noise background plus an
alpha rhythm; with probability ``spike_rate`` a spike-and-wave event
with latent salience s in (0, 1] is added, and annotators vote positive
with probability sigmoid(a_j * (s + noise - b_j)).

A dataset in memory is a record array of :func:`record_dtype`, one row per
window with fields ``sample_id``, ``votes`` and ``values``, and so is each
split of it (:func:`split_windows`).  That record is also the stored one:
the container (magic ``PEEG``, framed by :mod:`.container` like a
checkpoint) holds the rows' bytes as they are, so :func:`load` is one
read-only view over the mapped file and :func:`save` one ``tobytes``.  A
JSON manifest sidecar carries the split assignments and the container's
sha256, which :func:`load` checks without another pass.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .container import (decode, loads, read_bytes, read_framed, write_atomic,
                        write_framed)
from .errors import ConfigurationError, DataFormatError, MissingSampleError

CHANNELS = 37
SAMPLE_RATE_HZ = 128.0
NUM_ANNOTATORS = 8
DEFAULT_FRACTIONS = (0.73, 0.12, 0.15)
SPLIT_NAMES = ("train", "val", "test")

MAGIC = b"PEEG"
FORMAT_VERSION = 2


@dataclass(frozen=True)
class AnnotatorModel:
    # steep sigmoids + staggered thresholds: the vote count behaves like an
    # ordinal reading of event salience with a narrow disagreement band
    sensitivities: tuple[float, ...] = (24.0, 26.0, 28.0, 30.0, 32.0, 34.0, 36.0, 38.0)
    biases: tuple[float, ...] = (0.15, 0.24, 0.33, 0.42, 0.50, 0.58, 0.67, 0.78)
    vote_noise: float = 0.02

    def __post_init__(self):
        if len(self.sensitivities) != NUM_ANNOTATORS or len(self.biases) != NUM_ANNOTATORS:
            raise ConfigurationError(
                f"annotator model needs exactly {NUM_ANNOTATORS} sensitivity/bias pairs"
            )
        if self.vote_noise < 0:
            raise ConfigurationError("vote_noise must be >= 0")


@dataclass(frozen=True)
class SynthConfig:
    n_samples: int
    seed: int = 0
    spike_rate: float = 0.55
    noise_exponent: float = 1.0
    background_rms_uv: float = 8.0
    alpha_amplitude_uv: float = 3.0
    sharp_width_ms: tuple[float, float] = (20.0, 70.0)
    slow_width_ms: tuple[float, float] = (150.0, 350.0)
    # narrow gain spread keeps event salience decodable from the waveform
    amplitude_uv: tuple[float, float] = (95.0, 115.0)
    annotators: AnnotatorModel = field(default_factory=AnnotatorModel)
    sample_rate_hz: float = SAMPLE_RATE_HZ  # windows are always 1 second long

    def __post_init__(self):
        if self.n_samples <= 0:
            raise ConfigurationError(f"n_samples must be positive, got {self.n_samples}")
        if not 0.0 <= self.spike_rate <= 1.0:
            raise ConfigurationError(f"spike_rate must lie in [0, 1], got {self.spike_rate}")
        for name in ("sharp_width_ms", "slow_width_ms", "amplitude_uv"):
            lo, hi = getattr(self, name)
            if lo <= 0 or hi < lo:
                raise ConfigurationError(f"{name} range ({lo}, {hi}) is not a positive range")
        if self.sample_rate_hz < 32:
            raise ConfigurationError("sample_rate_hz below 32 cannot hold the event morphology")

    @property
    def time_steps(self) -> int:
        return int(round(self.sample_rate_hz))

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(asdict(self), sort_keys=True).encode()
        ).hexdigest()


def record_dtype(time_steps: int, channels: int) -> np.dtype:
    """One window as stored and held: its id, its vote count, and its
    (time, channel) float32 values in microvolts, packed."""
    try:
        return np.dtype([("sample_id", "<u8"), ("votes", "u1"),
                         ("values", "<f4", (time_steps, channels))])
    except ValueError as exc:  # numpy caps one record at 2 GiB
        raise DataFormatError(
            f"windows of {time_steps} x {channels} values do not fit one record") from exc


def make_windows(ids, votes, values) -> np.recarray:
    """A dataset's windows from an id and a vote count per window and
    `values` (n, time, channel), cast to the stored record."""
    values = np.asarray(values)
    if values.ndim != 3 or not len(ids) == len(votes) == len(values):
        raise DataFormatError(
            f"values of shape {values.shape} do not hold one (time, channel) window "
            f"for each of {len(ids)} ids and {len(votes)} vote counts")
    windows = np.recarray(len(values), dtype=record_dtype(*values.shape[1:]))
    windows.sample_id = ids
    windows.votes = votes
    windows.values = values
    return windows


def rows_of(windows, ids) -> np.ndarray:
    """Row of each id in `windows`, in the order of `ids`; raises
    MissingSampleError naming the first id that no window carries."""
    ids = [int(i) for i in ids]
    row_of = dict(zip(windows.sample_id.tolist(), range(len(windows))))
    missing = next((i for i in ids if i not in row_of), None)
    if missing is not None:
        raise MissingSampleError(f"sample id {missing} is not in the dataset")
    return np.array([row_of[i] for i in ids], dtype=np.intp)


def split_windows(windows, manifest, name: str) -> np.recarray:
    """The windows of split `name` of a dataset record array, as a copy in
    the record dtype, in ascending sample_id order."""
    return windows[rows_of(windows, manifest.ids_for(name))]


def require_class_coverage(train, num_classes: int, purpose: str) -> None:
    """Raise unless every class 0..num_classes-1 votes some window of
    `train`; `purpose` ends the message ("to push onto", "to audit against")."""
    counts = np.bincount(train.votes, minlength=num_classes)
    missing = np.nonzero(counts[:num_classes] == 0)[0]
    if missing.size:
        raise ConfigurationError(
            f"class {int(missing[0])} has no training samples {purpose}")


@dataclass
class DatasetManifest:
    """A dataset's JSON sidecar, written as ``asdict`` and read by
    :func:`.container.decode` against ``_TEMPLATE``, so every field is
    required; its splits are held, and written, in ascending sample id."""

    version: int
    sample_count: int
    channel_count: int
    time_steps: int
    sample_rate_hz: float
    splits: dict  # sample_id (int) -> "train" | "val" | "test"
    seed: int
    config_digest: str
    container_sha256: str = ""  # set by save

    def __post_init__(self):
        if min(self.sample_count, self.channel_count, self.time_steps) < 1:
            raise DataFormatError("manifest counts and dimensions must be >= 1")
        if not 0 < self.sample_rate_hz < math.inf:  # NaN fails too
            raise DataFormatError(f"manifest sample_rate_hz {self.sample_rate_hz!r} "
                                  f"is not a finite positive number")
        for sid, name in self.splits.items():
            if name not in SPLIT_NAMES:
                raise DataFormatError(f"manifest split for sample {sid} is {name!r}")
        self.splits = dict(sorted(self.splits.items()))

    def ids_for(self, split: str) -> list[int]:
        if split not in SPLIT_NAMES:
            raise ConfigurationError(f"unknown split {split!r}")
        return sorted(sid for sid, name in self.splits.items() if name == split)

    @classmethod
    def from_json(cls, text) -> "DatasetManifest":
        return decode(_TEMPLATE, loads(text, DataFormatError, "manifest"),
                      DataFormatError, "manifest")


# the decoder's template: one value of each field's type, and splits keyed by
# an int, so that the manifest's keys are read as sample ids
_TEMPLATE = DatasetManifest(version=FORMAT_VERSION, sample_count=1, channel_count=1,
                            time_steps=1, sample_rate_hz=1.0, splits={0: "train"},
                            seed=0, config_digest="")


# ---------------------------------------------------------------------------
# generation


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def simulate_votes(salience: float, annotators: AnnotatorModel, rng) -> int:
    """Draw one vote count for a window of the given latent salience."""
    a = np.asarray(annotators.sensitivities)
    b = np.asarray(annotators.biases)
    eps = rng.normal(0.0, annotators.vote_noise, size=NUM_ANNOTATORS)
    p = _sigmoid(a * (salience + eps - b))
    return int(np.sum(rng.random(NUM_ANNOTATORS) < p))


def _pink_background(rng, cfg: SynthConfig, n_t: int) -> np.ndarray:
    n_freq = n_t // 2 + 1
    amp = np.zeros(n_freq)
    amp[1:] = np.arange(1, n_freq, dtype=np.float64) ** (-cfg.noise_exponent / 2.0)
    z = rng.standard_normal((CHANNELS, n_freq)) + 1j * rng.standard_normal((CHANNELS, n_freq))
    z[:, 0] = 0.0
    x = np.fft.irfft(z * amp, n=n_t, axis=1).T  # (time, channel)
    rms = np.sqrt(np.mean(x ** 2))
    if rms > 0:
        x *= cfg.background_rms_uv / rms
    # shared alpha rhythm with per-channel amplitude
    f = rng.uniform(8.0, 12.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    ch_amp = rng.uniform(0.3, 1.0, size=CHANNELS) * cfg.alpha_amplitude_uv
    t = np.arange(n_t) / cfg.sample_rate_hz
    x += np.sin(2.0 * np.pi * f * t + phase)[:, None] * ch_amp[None, :]
    return x


def _spike_wave_event(rng, cfg: SynthConfig, salience: float, n_t: int) -> np.ndarray:
    """Sharp triangular transient plus half-sine slow wave on a channel patch."""
    fs = cfg.sample_rate_hz
    sharp_s = rng.uniform(*cfg.sharp_width_ms) / 1000.0
    slow_s = rng.uniform(*cfg.slow_width_ms) / 1000.0
    amp = salience * rng.uniform(*cfg.amplitude_uv)
    center_ch = int(rng.integers(0, CHANNELS))
    halfwidth = int(rng.integers(3, 9))
    onset = int(rng.uniform(0.15, 0.60) * n_t)

    n_sharp = max(3, int(round(sharp_s * fs)))
    n_slow = max(4, int(round(slow_s * fs)))
    peak = max(1, n_sharp // 3)  # fast rise, slower fall
    tri = np.concatenate([
        np.linspace(0.0, -1.0, peak + 1)[1:],
        np.linspace(-1.0, 0.0, n_sharp - peak + 1)[1:],
    ])
    slow = 0.45 * np.sin(np.pi * np.arange(1, n_slow + 1) / (n_slow + 1))
    waveform = amp * np.concatenate([tri, slow])

    spatial = np.maximum(0.0, 1.0 - np.abs(np.arange(CHANNELS) - center_ch) / halfwidth)
    out = np.zeros((n_t, CHANNELS))
    stop = min(n_t, onset + len(waveform))
    out[onset:stop] = waveform[: stop - onset, None] * spatial[None, :]
    return out


def generate_synthetic(config: SynthConfig):
    """Generate windows plus a manifest with the default stratified split.

    Deterministic under ``config.seed``: every window draws from its own
    child generator, so the draw order is part of the format.
    """
    n, n_t = config.n_samples, config.time_steps
    values = np.empty((n, n_t, CHANNELS), dtype=np.float32)
    votes = np.empty(n, dtype=np.int64)
    for i, child in enumerate(np.random.SeedSequence(config.seed).spawn(n)):
        rng = np.random.default_rng(child)
        has_event = rng.random() < config.spike_rate
        salience = float(rng.uniform(0.1, 1.0)) if has_event else 0.0
        window = _pink_background(rng, config, n_t)
        if has_event:
            window += _spike_wave_event(rng, config, salience, n_t)
        values[i] = window
        votes[i] = simulate_votes(salience, config.annotators, rng)
    windows = make_windows(np.arange(n), votes, values)
    manifest = DatasetManifest(
        version=FORMAT_VERSION, sample_count=n, channel_count=CHANNELS,
        time_steps=n_t, sample_rate_hz=config.sample_rate_hz,
        splits=split(windows, fractions=DEFAULT_FRACTIONS, seed=config.seed),
        seed=config.seed, config_digest=config.digest())
    return windows, manifest


# ---------------------------------------------------------------------------
# splitting


def split(windows, fractions=DEFAULT_FRACTIONS, seed: int = 0) -> dict:
    """Stratified-by-vote-class assignment of each sample id to a split
    name, deterministic under seed.

    Within each class sizes follow largest-remainder rounding, and any
    class with >= 3 members lands in every split.
    """
    if len(windows) == 0:
        raise ConfigurationError("cannot split an empty sample collection")
    fractions = tuple(float(f) for f in fractions)
    if len(fractions) != 3 or any(f < 0 for f in fractions):
        raise ConfigurationError(f"fractions must be three non-negative reals, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigurationError(f"fractions must sum to 1, got {sum(fractions)}")

    rng = np.random.default_rng(seed)
    assignments: dict[int, str] = {}
    for votes in np.unique(windows.votes):
        ids = np.sort(windows.sample_id[windows.votes == votes]).astype(np.int64)
        rng.shuffle(ids)
        n = len(ids)
        exact = [f * n for f in fractions]
        counts = [int(np.floor(e)) for e in exact]
        leftover = n - sum(counts)
        order = sorted(range(3), key=lambda i: (-(exact[i] - counts[i]), i))
        for i in range(leftover):
            counts[order[i % 3]] += 1
        if n >= 3 and all(f > 0 for f in fractions):
            # every split must see this class
            while min(counts) == 0:
                counts[counts.index(max(counts))] -= 1
                counts[counts.index(min(counts))] += 1
        pos = 0
        for name, c in zip(SPLIT_NAMES, counts):
            for sid in ids[pos:pos + c]:
                assignments[int(sid)] = name
            pos += c
    return assignments


# ---------------------------------------------------------------------------
# storage


def manifest_path(path) -> Path:
    return Path(path).with_suffix(".manifest.json")


def _check(windows) -> None:
    """Reject non-finite values, votes above NUM_ANNOTATORS, repeated ids."""
    finite = np.isfinite(windows.values).all(axis=(1, 2))
    if not finite.all():
        raise DataFormatError(
            f"sample {windows.sample_id[np.argmin(finite)]}: non-finite values")
    over = windows.votes > NUM_ANNOTATORS
    if over.any():
        row = np.argmax(over)
        raise DataFormatError(f"sample {windows.sample_id[row]}: votes "
                              f"{windows.votes[row]} outside 0..{NUM_ANNOTATORS}")
    ids, counts = np.unique(windows.sample_id, return_counts=True)
    if np.any(counts > 1):
        raise DataFormatError(f"duplicate sample ids {ids[counts > 1][:5].tolist()}")


def save(windows, manifest: DatasetManifest, path) -> None:
    """Write `windows` (a :func:`make_windows` record array), then `manifest`
    naming the written container's sha256."""
    if len(windows) == 0:
        raise ConfigurationError("refusing to save an empty dataset")
    _check(windows)
    digest = write_framed(path, MAGIC, FORMAT_VERSION,
                          (len(windows), *windows.dtype["values"].shape), windows.tobytes())
    write_atomic(manifest_path(path),
                 json.dumps(asdict(replace(manifest, container_sha256=digest)), indent=1))


def load(path):
    """Read a dataset container and its manifest sidecar.

    The windows are a read-only record array over the mapped container; the
    manifest must name the container's sha256 and agree with its windows,
    down to every id its splits name.
    """
    (count, time_steps, channels), payload, digest = read_framed(
        path, MAGIC, FORMAT_VERSION, 3, "dataset",
        lambda n, t, c: n * record_dtype(t, c).itemsize)
    windows = np.frombuffer(payload, record_dtype(time_steps, channels)).view(np.recarray)
    _check(windows)

    mpath = manifest_path(path)
    try:
        blob = read_bytes(mpath, "manifest")
    except OSError as exc:
        raise DataFormatError(f"cannot read manifest sidecar {mpath}: {exc}") from exc
    manifest = DatasetManifest.from_json(blob)
    if manifest.container_sha256 != digest:
        raise DataFormatError(f"manifest {mpath} names a container of sha256 "
                              f"{manifest.container_sha256!r}, not {path} ({digest})")
    for key, value in (("version", FORMAT_VERSION), ("sample_count", count),
                       ("time_steps", time_steps), ("channel_count", channels)):
        if getattr(manifest, key) != value:
            raise DataFormatError(f"manifest {key} {getattr(manifest, key)} != container {value}")
    try:
        rows_of(windows, manifest.splits)
    except MissingSampleError as exc:
        raise DataFormatError(f"manifest splits name an absent window: {exc}") from exc
    return windows, manifest
