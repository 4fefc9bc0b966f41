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

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import diffcore as dc
from .container import read_framed, write_framed
from .diffcore import Tensor
from .errors import (
    ConfigurationError,
    DataFormatError,
    DimensionError,
    NumericError,
)

INPUT_TIME = 128
INPUT_CHANNELS = 37
LATENT_DIM = 128
NUM_CLASSES = 9
PROTOS_PER_CLASS = 12
NUM_PROTOTYPES = NUM_CLASSES * PROTOS_PER_CLASS
FINAL_TIME_EXTENT = 10

# windows per off-tape chunk and rows per similarity GEMM: small chunks are
# faster per window and keep the peak low, and a window's latent does not
# depend on its chunk
OFF_TAPE_CHUNK = 32

MODEL_MAGIC = b"PEGM"
MODEL_VERSION = 1


@dataclass(frozen=True)
class ConvBlock:
    out_channels: int
    kernel: tuple[int, int]
    stride: tuple[int, int]


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

    def validate(self) -> None:
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
            if sh < 1 or sw < 1 or b.out_channels < 1:
                raise ConfigurationError(f"block {i}: non-positive stride or channels")
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

    def to_dict(self) -> dict:
        return {
            "blocks": [[b.out_channels, list(b.kernel), list(b.stride)]
                       for b in self.blocks],
            "latent_dim": self.latent_dim,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "BackboneConfig":
        blocks = tuple(ConvBlock(int(o), (int(k[0]), int(k[1])), (int(s[0]), int(s[1])))
                       for o, k, s in raw["blocks"])
        return cls(blocks=blocks, latent_dim=int(raw["latent_dim"]))


@dataclass
class PushRecord:
    """Where a prototype came from after projection onto a training latent."""

    prototype_class: int
    prototype_index: int  # slot within the class, 0..per_class-1
    source_sample_id: int
    similarity: float
    epoch: int

    @classmethod
    def from_dict(cls, raw) -> "PushRecord":
        return cls(prototype_class=int(raw["prototype_class"]),
                   prototype_index=int(raw["prototype_index"]),
                   source_sample_id=int(raw["source_sample_id"]),
                   similarity=float(raw["similarity"]), epoch=int(raw["epoch"]))


@dataclass
class PrototypeBank:
    vectors: Tensor  # (num_classes * per_class, latent_dim), unit rows
    num_classes: int = NUM_CLASSES
    per_class: int = PROTOS_PER_CLASS
    provenance: list = field(default_factory=list)  # PushRecord | None per prototype

    def __post_init__(self):
        if not self.provenance:
            self.provenance = [None] * self.count

    @property
    def count(self) -> int:
        return self.num_classes * self.per_class

    def class_of(self, j: int) -> int:
        return j // self.per_class

    def class_slice(self, c: int) -> slice:
        return slice(c * self.per_class, (c + 1) * self.per_class)

    def prototype_classes(self) -> np.ndarray:
        return np.repeat(np.arange(self.num_classes), self.per_class)

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
    Indexed by labels it marks each sample's own-class prototypes; indexed
    by prototype classes it marks the same-class prototype pairs."""
    cols = np.arange(num_classes * per_class) // per_class
    return cols[None, :] == np.arange(num_classes)[:, None]


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
        raise DimensionError(f"similarities expects (N, latent_dim) latents, got {z.shape}")
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
        raise DimensionError(f"class_logits expects (N, count) sims, got {sims.shape}")
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
        raise DimensionError("points_contributed expects a single 108-vector")
    if head.shape[1] != sims.shape[0]:
        raise DimensionError(f"head {head.shape} incompatible with sims {sims.shape}")
    return head * sims[None, :]


def _param_shapes(config: BackboneConfig, num_classes: int,
                  per_class: int) -> list[tuple]:
    """Parameter shapes in checkpoint order: conv kernel, LayerNorm gain and
    bias per block, then the prototypes and the head."""
    shapes, c_in = [], 1
    for b in config.blocks:
        o = b.out_channels
        shapes += [(o, c_in, *b.kernel), (o, 1, 1), (o, 1, 1)]
        c_in = o
    count = num_classes * per_class
    return shapes + [(count, config.latent_dim), (num_classes, count)]


class ProtoEEGNet:
    """Full network with grouped parameters for staged training."""

    def __init__(self, config: BackboneConfig, conv_kernels, ln_gains, ln_biases,
                 bank: PrototypeBank, head: Tensor):
        config.validate()
        self.config = config
        self.conv_kernels = conv_kernels
        self.ln_gains = ln_gains
        self.ln_biases = ln_biases
        self.bank = bank
        self.head = head
        bank.validate()
        shapes = _param_shapes(config, bank.num_classes, bank.per_class)
        for (name, t), shape in zip(_param_manifest(self), shapes):
            if t.data.shape != shape:
                raise ConfigurationError(
                    f"parameter {name} has shape {t.data.shape}, the config "
                    f"expects {shape}"
                )

    @classmethod
    def initialize(cls, config: BackboneConfig = BackboneConfig(), seed: int = 0,
                   num_classes: int = NUM_CLASSES,
                   per_class: int = PROTOS_PER_CLASS) -> "ProtoEEGNet":
        config.validate()
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        shapes = _param_shapes(config, num_classes, per_class)[:-2]
        # He init: the fan-in of a kernel is c_in * kh * kw
        conv_kernels = [Tensor(rng.standard_normal(s) * np.sqrt(2.0 / np.prod(s[1:])),
                               requires_grad=True) for s in shapes[0::3]]
        ln_gains = [Tensor(np.ones(s), requires_grad=True) for s in shapes[1::3]]
        ln_biases = [Tensor(np.zeros(s), requires_grad=True) for s in shapes[2::3]]
        bank = init_prototypes(rng.integers(0, 2**63 - 1), num_classes=num_classes,
                               per_class=per_class, latent_dim=config.latent_dim)
        head = init_head(num_classes=num_classes, per_class=per_class)
        return cls(config, conv_kernels, ln_gains, ln_biases, bank, head)

    # -- parameter groups ----------------------------------------------------

    def all_parameters(self) -> list[Tensor]:
        return [t for _, t in _param_manifest(self)]

    def backbone_parameters(self) -> list[Tensor]:
        return self.all_parameters()[:-2]

    def config_digest(self) -> str:
        arch = {
            "backbone": self.config.to_dict(),
            "num_classes": self.bank.num_classes,
            "per_class": self.bank.per_class,
        }
        return hashlib.sha256(json.dumps(arch, sort_keys=True).encode()).hexdigest()

    # -- forward -------------------------------------------------------------

    @staticmethod
    def _check_input(values: np.ndarray) -> np.ndarray:
        """Promote to (N, T, C) and validate shape and finiteness."""
        if values.ndim == 2:
            values = values[None]
        if values.ndim != 3 or values.shape[1:] != (INPUT_TIME, INPUT_CHANNELS):
            raise DimensionError(
                f"expected ({INPUT_TIME}, {INPUT_CHANNELS}) windows, got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise NumericError("embed received non-finite input")
        return values

    def embed(self, values: np.ndarray) -> Tensor:
        """Map (128, 37) or (N, 128, 37) windows to unit latents.

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

        Runs off-tape in chunks of ``OFF_TAPE_CHUNK`` windows, and every
        output row is the same bits wherever its window sits in the batch;
        logits come from :func:`class_logits` so they match explanation row
        sums exactly.
        """
        vals = np.asarray(values, dtype=np.float64)
        squeeze = vals.ndim == 2
        if squeeze:
            vals = vals[None]
        lat = np.empty((vals.shape[0], self.config.latent_dim))
        with dc.no_grad():
            for lo in range(0, vals.shape[0], OFF_TAPE_CHUNK):
                chunk = vals[lo:lo + OFF_TAPE_CHUNK]
                lat[lo:lo + chunk.shape[0]] = self.embed(chunk).data
        sims = similarities(lat, self.bank)
        logits = class_logits(sims, self.head.data)
        probs = softmax_rows(logits)
        if squeeze:
            return {"latents": lat[0], "similarities": sims[0],
                    "logits": logits[0], "probabilities": probs[0]}
        return {"latents": lat, "similarities": sims,
                "logits": logits, "probabilities": probs}


# ---------------------------------------------------------------------------
# checkpoint format: one framed container whose one field is the header length


def _param_manifest(model: ProtoEEGNet) -> list[tuple[str, Tensor]]:
    named = []
    for i, (k, g, b) in enumerate(zip(model.conv_kernels, model.ln_gains,
                                      model.ln_biases)):
        named.extend([(f"conv{i}", k), (f"ln_gain{i}", g), (f"ln_bias{i}", b)])
    named.append(("prototypes", model.bank.vectors))
    named.append(("head", model.head))
    return named


def save_model(model: ProtoEEGNet, path) -> None:
    named = _param_manifest(model)
    header = {
        "format_version": MODEL_VERSION,
        "config_digest": model.config_digest(),
        "backbone": model.config.to_dict(),
        "num_classes": model.bank.num_classes,
        "per_class": model.bank.per_class,
        "parameters": [{"name": n, "shape": list(t.data.shape)} for n, t in named],
        "provenance": [asdict(p) if p is not None else None
                       for p in model.bank.provenance],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    payload = bytearray(header_bytes)
    for _, t in named:
        payload += np.ascontiguousarray(t.data, dtype="<f8").tobytes()
    write_framed(path, MODEL_MAGIC, MODEL_VERSION, (len(header_bytes),), payload)


def load_model(path) -> ProtoEEGNet:
    (header_len,), payload = read_framed(path, MODEL_MAGIC, MODEL_VERSION, 1, "model")
    if len(payload) < header_len:
        raise DataFormatError("model file truncated: header shorter than declared")
    try:
        header = json.loads(bytes(payload[:header_len]).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"model header is not valid JSON: {exc}") from exc

    try:
        config = BackboneConfig.from_dict(header["backbone"])
        num_classes = int(header["num_classes"])
        per_class = int(header["per_class"])
        specs = [(str(spec["name"]), tuple(int(d) for d in spec["shape"]))
                 for spec in header["parameters"]]
        provenance = [PushRecord.from_dict(p) if p is not None else None
                      for p in header["provenance"]]
        config_digest = header["config_digest"]
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise DataFormatError(
            f"model header is missing or has an ill-typed field: {exc!r}") from exc
    offset = header_len
    tensors = {}
    for name, shape in specs:
        if min(shape, default=1) < 1:
            raise DataFormatError(f"model header gives block {name!r} the shape {shape}")
        count = math.prod(shape)
        end = offset + count * 8
        if end > len(payload):
            raise DataFormatError(f"model file truncated inside block {name!r}")
        arr = np.frombuffer(payload, dtype="<f8", count=count,
                            offset=offset).reshape(shape)
        tensors[name] = Tensor(arr.copy(), requires_grad=True)
        offset = end
    if offset != len(payload):
        raise DataFormatError("model file has trailing bytes after parameter blocks")

    n_blocks = len(config.blocks)
    try:
        conv = [tensors[f"conv{i}"] for i in range(n_blocks)]
        gains = [tensors[f"ln_gain{i}"] for i in range(n_blocks)]
        biases = [tensors[f"ln_bias{i}"] for i in range(n_blocks)]
        vectors, head = tensors["prototypes"], tensors["head"]
    except KeyError as exc:
        raise DataFormatError(f"model file lacks parameter block {exc}") from exc
    bank = PrototypeBank(vectors=vectors, num_classes=num_classes,
                         per_class=per_class, provenance=provenance)
    try:
        model = ProtoEEGNet(config, conv, gains, biases, bank, head)
    except ConfigurationError as exc:
        raise DataFormatError(f"model header disagrees with its blocks: {exc}") from exc
    if model.config_digest() != config_digest:
        raise DataFormatError("config digest mismatch in model header")
    return model
