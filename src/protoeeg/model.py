"""The prototype network: backbone f, prototype layer g_p, head h.

The backbone maps a 1x128x37 window through four conv blocks (conv ->
LayerNorm -> ELU) into a 128-d latent that is l2-normalized onto the
unit hypersphere.  The prototype layer scores the latent against 108
unit prototypes (9 vote classes x 12 each) by cosine similarity, which
on unit vectors is a plain dot product.  The head is a bias-free 9x108
class-connection matrix, so every logit decomposes exactly into
per-prototype "points contributed".
"""

from __future__ import annotations

import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import diffcore as dc
from .container import decode, loads, read_framed, write_framed
from .diffcore import Tensor
from .errors import ConfigurationError, DataFormatError, NumericError

INPUT_TIME = 128
INPUT_CHANNELS = 37
LATENT_DIM = 128
NUM_CLASSES = 9
PROTOS_PER_CLASS = 12
FINAL_TIME_EXTENT = 10

# rows per off-tape similarity GEMM: every block is exactly this many rows,
# the last one zero-padded, so a window's similarities do not depend on its
# batch (see similarities)
OFF_TAPE_CHUNK = 32
# windows per embed call in off-tape inference: the unit of work a worker
# thread takes.  A latent does not depend on its slice, since the layer
# kernels pad every GEMM below MIN_GEMM_ROWS; small slices keep each
# thread's freed temporaries, and so the peak memory, small
EMBED_SLICE = 8

MODEL_MAGIC = b"PEGM"
MODEL_VERSION = 5


@dataclass(frozen=True)
class ConvBlock:
    out_channels: int
    kernel: tuple[int, int]  # (time, channel)
    stride: tuple[int, int]

    def __post_init__(self):
        if not len(self.kernel) == len(self.stride) == 2 or min(
                self.out_channels, *self.kernel, *self.stride) < 1:
            raise ConfigurationError(f"{self} needs sizes >= 1 and 2-d kernel and stride")


DEFAULT_BLOCKS = (
    ConvBlock(16, (5, 5), (2, 2)),
    ConvBlock(32, (5, 4), (2, 2)),
    ConvBlock(64, (10, 3), (2, 2)),
    ConvBlock(128, (10, 3), (1, 1)),
)


@dataclass(frozen=True)
class BackboneConfig:
    blocks: tuple[ConvBlock, ...] = DEFAULT_BLOCKS
    latent_dim: int = LATENT_DIM

    def __post_init__(self):
        """Check the composed shape arithmetic ends at latent_dim x 1 x 1."""
        if not self.blocks:
            raise ConfigurationError("backbone needs at least one block")
        t, c = INPUT_TIME, INPUT_CHANNELS
        for i, b in enumerate(self.blocks):
            kh, kw = b.kernel
            sh, sw = b.stride
            if kh > t or kw > c:
                raise ConfigurationError(
                    f"block {i}: kernel ({kh},{kw}) exceeds input ({t},{c})"
                )
            t = (t - kh) // sh + 1
            c = (c - kw) // sw + 1
        if (t, c) != (1, 1):
            raise ConfigurationError(
                f"backbone output is {self.blocks[-1].out_channels}x{t}x{c}, "
                f"expected spatial 1x1"
            )
        if self.blocks[-1].out_channels != self.latent_dim:
            raise ConfigurationError(
                f"last block has {self.blocks[-1].out_channels} channels but "
                f"latent_dim is {self.latent_dim}"
            )
        if self.blocks[-1].kernel[0] != FINAL_TIME_EXTENT:
            raise ConfigurationError(
                f"final kernel time extent must be {FINAL_TIME_EXTENT}, "
                f"got {self.blocks[-1].kernel[0]}"
            )


@dataclass
class PushRecord:
    """Where a prototype came from after projection onto a training latent."""

    prototype_class: int
    prototype_index: int  # slot within the class, 0..per_class-1
    source_sample_id: int
    similarity: float
    epoch: int


@dataclass
class PrototypeBank:
    vectors: Tensor  # (num_classes * per_class, latent_dim), unit rows
    num_classes: int = NUM_CLASSES
    per_class: int = PROTOS_PER_CLASS
    provenance: list | None = None  # PushRecord | None per prototype; all None by default

    def __post_init__(self):
        if self.provenance is None:
            self.provenance = [None] * self.count

    @property
    def count(self) -> int:
        return self.num_classes * self.per_class

    def validate(self) -> None:
        if self.vectors.data.ndim != 2 or self.vectors.data.shape[0] != self.count:
            raise ConfigurationError(
                f"prototype matrix is {self.vectors.data.shape}, expected "
                f"({self.count}, latent_dim)"
            )
        if len(self.provenance) != self.count:
            raise ConfigurationError(
                f"provenance length {len(self.provenance)} != {self.count}"
            )
        for j, rec in enumerate(self.provenance):
            if rec is not None and (rec.prototype_class,
                                    rec.prototype_index) != divmod(j, self.per_class):
                raise ConfigurationError(
                    f"provenance entry {j} names prototype ({rec.prototype_class}, "
                    f"{rec.prototype_index}), not {divmod(j, self.per_class)}")
        norms = np.linalg.norm(self.vectors.data, axis=1)
        worst = float(np.max(np.abs(norms - 1.0)))
        if worst > 1e-9:
            raise ConfigurationError(f"prototype norms deviate from 1 by {worst:.3e}")

    def renormalize(self) -> None:
        """Project all prototypes back onto the unit hypersphere in place."""
        self.vectors.data /= np.linalg.norm(self.vectors.data, axis=1, keepdims=True)


def init_prototypes(seed, num_classes: int = NUM_CLASSES,
                    per_class: int = PROTOS_PER_CLASS,
                    latent_dim: int = LATENT_DIM) -> PrototypeBank:
    """Random unit prototypes, deterministic under seed."""
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((num_classes * per_class, latent_dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return PrototypeBank(vectors=Tensor(vecs, requires_grad=True),
                         num_classes=num_classes, per_class=per_class)


def own_class_mask(num_classes: int, per_class: int) -> np.ndarray:
    """(num_classes, num_classes * per_class) bool, True where prototype j
    belongs to class k: row k owns the k-th contiguous block of columns.

    The one statement of the prototype class layout: the head, the losses,
    the refit, the push, the report and explanations all read it.  Its rows
    picked by labels (:func:`own_prototypes`) mark each sample's own-class
    prototypes; ``own.T @ own`` marks the same-class prototype pairs."""
    cols = np.arange(num_classes * per_class) // per_class
    return cols[None, :] == np.arange(num_classes)[:, None]


def own_prototypes(labels, bank: PrototypeBank) -> np.ndarray:
    """(N, count) bool: row i is the :func:`own_class_mask` row of label i,
    and a label past the bank's last class owns no prototype."""
    one_hot = np.asarray(labels)[:, None] == np.arange(bank.num_classes)
    return one_hot @ own_class_mask(bank.num_classes, bank.per_class)


def init_head(num_classes: int = NUM_CLASSES,
              per_class: int = PROTOS_PER_CLASS) -> Tensor:
    """Class-connection matrix: 1 on own-class prototypes, -0.5 elsewhere."""
    return Tensor(np.where(own_class_mask(num_classes, per_class), 1.0, -0.5),
                  requires_grad=True)


def similarities(z: np.ndarray, bank: PrototypeBank) -> np.ndarray:
    """Cosine similarities of (N, latent_dim) unit latents against the bank.

    Rows of ``z`` and all prototypes are assumed unit-norm, so the
    similarity is a dot product.  This is the one off-tape latent x
    prototype product; the training loss builds its one product per batch
    on the autodiff tape.  It runs one GEMM per block of exactly
    ``OFF_TAPE_CHUNK`` rows, the last block zero-padded, because BLAS rounds
    a GEMM with a few rows differently from one with many: with every GEMM
    the same shape, a window's similarities do not depend on its batch.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise NumericError(f"similarities expects (N, latent_dim) latents, got {z.shape}")
    n, dim = z.shape
    padded = np.zeros((-(-n // OFF_TAPE_CHUNK) * OFF_TAPE_CHUNK, dim))
    padded[:n] = z
    blocks = padded.reshape(-1, OFF_TAPE_CHUNK, dim)
    return np.matmul(blocks, bank.vectors.data.T).reshape(-1, bank.count)[:n]


def class_logits(sims: np.ndarray, head: np.ndarray) -> np.ndarray:
    """Bias-free logits of (N, count) similarities as explicit sums of
    per-prototype contributions.

    Computed as sum(head * sims) over the prototype axis so that the
    row sums of :func:`points_contributed` reproduce these logits bit
    for bit (explanation completeness).
    """
    sims = np.asarray(sims)
    if sims.ndim != 2:
        raise NumericError(f"class_logits expects (N, count) sims, got {sims.shape}")
    return np.sum(head[None, :, :] * sims[:, None, :], axis=2)


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of (N, K) logits, shifted by each row's maximum."""
    if not np.all(np.isfinite(logits)):
        raise NumericError("softmax_rows received non-finite logits")
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def points_contributed(sims: np.ndarray, head: np.ndarray) -> np.ndarray:
    """Per-class, per-prototype contribution matrix; rows sum to logits."""
    sims = np.asarray(sims)
    if sims.ndim != 1:
        raise NumericError("points_contributed expects a single 108-vector")
    if head.shape[1] != sims.shape[0]:
        raise NumericError(f"head {head.shape} incompatible with sims {sims.shape}")
    return head * sims[None, :]


def _param_shapes(config: BackboneConfig, num_classes: int,
                  per_class: int) -> list[tuple]:
    """Parameter shapes in checkpoint order: conv kernel, LayerNorm gain and
    bias per block, then the prototypes and the head."""
    # with these, every block is non-empty
    if min(num_classes, per_class, config.latent_dim) < 1:
        raise ConfigurationError(
            f"num_classes {num_classes}, per_class {per_class} and "
            f"latent_dim {config.latent_dim} must each be >= 1")
    shapes, c_in = [], 1
    for b in config.blocks:
        o = b.out_channels
        shapes += [(o, c_in, *b.kernel), (o, 1, 1), (o, 1, 1)]
        c_in = o
    count = num_classes * per_class
    return shapes + [(count, config.latent_dim), (num_classes, count)]


class ProtoEEGNet:
    """Full network with grouped parameters for staged training."""

    def __init__(self, config: BackboneConfig, params: list, num_classes: int,
                 per_class: int, provenance: list | None = None):
        """Build the network from one array per parameter, in
        :func:`_param_shapes` order."""
        self.config = config
        tensors = [Tensor(p, requires_grad=True) for p in params]
        self.conv_kernels = tensors[0:-2:3]
        self.ln_gains = tensors[1:-2:3]
        self.ln_biases = tensors[2:-2:3]
        self.bank = PrototypeBank(vectors=tensors[-2], num_classes=num_classes,
                                  per_class=per_class, provenance=provenance)
        self.head = tensors[-1]
        self.bank.validate()

    @classmethod
    def initialize(cls, config: BackboneConfig = BackboneConfig(), seed: int = 0,
                   num_classes: int = NUM_CLASSES,
                   per_class: int = PROTOS_PER_CLASS) -> "ProtoEEGNet":
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        shapes = _param_shapes(config, num_classes, per_class)[:-2]
        # He init: the fan-in of a kernel is c_in * kh * kw
        kernels = [rng.standard_normal(s) * np.sqrt(2.0 / np.prod(s[1:])) for s in shapes[0::3]]
        params = [p for k, s in zip(kernels, shapes[1::3]) for p in (k, np.ones(s), np.zeros(s))]
        bank = init_prototypes(rng.integers(0, 2**63 - 1), num_classes=num_classes,
                               per_class=per_class, latent_dim=config.latent_dim)
        head = init_head(num_classes=num_classes, per_class=per_class)
        return cls(config, [*params, bank.vectors.data, head.data], num_classes, per_class)

    # -- parameter groups ----------------------------------------------------

    def all_parameters(self) -> list[Tensor]:
        """Every parameter, in :func:`_param_shapes` order."""
        blocks = zip(self.conv_kernels, self.ln_gains, self.ln_biases)
        return [t for block in blocks for t in block] + [self.bank.vectors, self.head]

    def backbone_parameters(self) -> list[Tensor]:
        return self.all_parameters()[:-2]

    # -- forward -------------------------------------------------------------

    @staticmethod
    def _check_input(values: np.ndarray) -> np.ndarray:
        """Promote to (N, T, C) and validate shape and finiteness."""
        if values.ndim == 2:
            values = values[None]
        if values.ndim != 3 or values.shape[1:] != (INPUT_TIME, INPUT_CHANNELS):
            raise NumericError(
                f"expected ({INPUT_TIME}, {INPUT_CHANNELS}) windows, got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise NumericError("embed received non-finite input")
        return values

    def embed(self, values: np.ndarray) -> Tensor:
        """Map (128, 37) or (N, 128, 37) windows to unit latents.

        This is where the network widens window values to float64: callers
        hand on the float32 rows of a dataset record array, which widen
        exactly.
        Stays on the autodiff tape so training losses can backpropagate
        through the backbone.
        """
        vals = np.asarray(values, dtype=np.float64)
        squeeze = vals.ndim == 2
        vals = self._check_input(vals)
        x = Tensor(vals[:, None, :, :])  # (N, 1, T, C)
        for i, b in enumerate(self.config.blocks):
            x = dc.conv2d_valid(x, self.conv_kernels[i], stride=b.stride)
            x = dc.layer_norm(x, self.ln_gains[i], self.ln_biases[i])
            x = dc.elu(x)
        flat = dc.reshape(x, (x.shape[0], self.config.latent_dim))
        z = dc.l2_normalize(flat)
        if squeeze:
            z = dc.reshape(z, (self.config.latent_dim,))
        return z

    def forward_probs(self, values: np.ndarray) -> dict:
        """Inference pass: latents, similarities, logits, probabilities.

        Runs off-tape, handing :meth:`embed` slices of ``EMBED_SLICE``
        windows as given, so only a slice is ever widened to float64.  The
        calling thread and one helper thread per further CPU in the
        process's affinity mask take the slices in turn; each writes its
        latents into its slices' rows, and a helper's exception is raised
        here.  One slice runs on the calling thread alone.
        Every output row is the same bits wherever its window sits in the
        batch, and so at any worker count.  Logits come from
        :func:`class_logits` so they match explanation row sums exactly.
        """
        vals = np.asarray(values)
        squeeze = vals.ndim == 2
        if squeeze:
            vals = vals[None]
        lat = np.empty((vals.shape[0], self.config.latent_dim))
        starts = range(0, vals.shape[0], EMBED_SLICE)
        # the OS has no affinity mask outside Linux: use every CPU there
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        workers = min(cpus, len(starts))
        queue, lock = iter(starts), threading.Lock()

        def embed_slices() -> None:
            # take the next slice until none is left, so a thread that runs
            # slower (a busy core) takes fewer
            with dc.no_grad():  # grad mode is per thread
                while True:
                    with lock:
                        lo = next(queue, None)
                    if lo is None:
                        return
                    chunk = vals[lo:lo + EMBED_SLICE]
                    lat[lo:lo + chunk.shape[0]] = self.embed(chunk).data

        if workers <= 1:
            embed_slices()
        else:
            with ThreadPoolExecutor(workers - 1) as pool:
                helpers = [pool.submit(embed_slices) for _ in range(workers - 1)]
                embed_slices()
            for helper in helpers:
                helper.result()
        sims = similarities(lat, self.bank)
        logits = class_logits(sims, self.head.data)
        probs = softmax_rows(logits)
        if squeeze:
            return {"latents": lat[0], "similarities": sims[0],
                    "logits": logits[0], "probabilities": probs[0]}
        return {"latents": lat, "similarities": sims,
                "logits": logits, "probabilities": probs}


# ---------------------------------------------------------------------------
# checkpoint format: one framed container whose one field is the header
# length.  The payload is the JSON header, then every parameter as
# little-endian float64 in `_param_shapes` order: the architecture the header
# names fixes each block's shape, so the header lists none, and a payload of
# any other size is rejected before anything is allocated.


@dataclass(frozen=True)
class CheckpointHeader:
    """A checkpoint's JSON header, written as ``asdict`` and read by
    :func:`.container.decode` against ``_HEADER``, so every field is required."""

    backbone: BackboneConfig
    num_classes: int
    per_class: int
    provenance: tuple[PushRecord | None, ...]


# the decoder's template: one value of each field's type, and a provenance
# entry that may be null, for a prototype not yet pushed
_HEADER = CheckpointHeader(backbone=BackboneConfig(), num_classes=1, per_class=1,
                           provenance=(PushRecord(0, 0, 0, 0.0, 0), None))


def save_model(model: ProtoEEGNet, path) -> None:
    header = CheckpointHeader(
        backbone=model.config, num_classes=model.bank.num_classes,
        per_class=model.bank.per_class, provenance=tuple(model.bank.provenance))
    header_bytes = json.dumps(asdict(header), sort_keys=True).encode()
    payload = bytearray(header_bytes)
    for t in model.all_parameters():
        payload += np.ascontiguousarray(t.data, dtype="<f8").tobytes()
    write_framed(path, MODEL_MAGIC, MODEL_VERSION, (len(header_bytes),), payload)


def load_model(path) -> ProtoEEGNet:
    """Read a checkpoint, copying its parameters out of the mapped file."""
    (header_len,), payload, _ = read_framed(path, MODEL_MAGIC, MODEL_VERSION, 1, "model")
    if len(payload) < header_len:
        raise DataFormatError("model file truncated: header shorter than declared")
    try:
        header = decode(_HEADER, loads(payload[:header_len], DataFormatError, "model header"),
                        DataFormatError, "model header")
        shapes = _param_shapes(header.backbone, header.num_classes, header.per_class)
    except ConfigurationError as exc:  # a value the dataclasses or the sizes reject
        raise DataFormatError(f"model header holds a bad value: {exc}") from exc
    sizes = [math.prod(s) for s in shapes]
    if 8 * sum(sizes) != len(payload) - header_len:
        raise DataFormatError(
            f"model file holds {len(payload) - header_len} parameter bytes, but the "
            f"architecture its header names needs {8 * sum(sizes)}")
    flat = np.frombuffer(payload, dtype="<f8", offset=header_len).copy()
    params = [block.reshape(s) for block, s in
              zip(np.split(flat, np.cumsum(sizes)[:-1]), shapes)]
    try:
        model = ProtoEEGNet(header.backbone, params, header.num_classes, header.per_class,
                            list(header.provenance))
    except ConfigurationError as exc:
        raise DataFormatError(f"model header disagrees with its blocks: {exc}") from exc
    return model
