import json
import math
import os
import struct
import sys
import threading
from dataclasses import asdict

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import rewrite_header

from protoeeg import model as m
from protoeeg.container import decode, read_framed, write_framed
from protoeeg.dataset import make_windows
from protoeeg.diffcore import Tensor
from protoeeg.errors import (
    ConfigurationError,
    DataFormatError,
    DegenerateInputError,
    DimensionError,
    NumericError,
)
from protoeeg.evaluation import score_samples
from protoeeg.explain import explain
from protoeeg.training import push_prototypes


@pytest.fixture(scope="module")
def net():
    return m.ProtoEEGNet.initialize(seed=0)


@pytest.fixture(scope="module")
def windows():
    rng = np.random.default_rng(1)
    return rng.standard_normal((10, 128, 37)) * 15


class TestBackboneConfig:
    def test_default_block_table(self):
        cfg = m.BackboneConfig()
        cfg.validate()
        t, c, ch = 128, 37, None
        for b in cfg.blocks:
            t = (t - b.kernel[0]) // b.stride[0] + 1
            c = (c - b.kernel[1]) // b.stride[1] + 1
            ch = b.out_channels
        assert (ch, t, c) == (128, 1, 1)

    def test_wrong_final_time_extent(self):
        blocks = m.DEFAULT_BLOCKS[:3] + (m.ConvBlock(128, (9, 3), (1, 1)),)
        with pytest.raises(ConfigurationError):
            m.BackboneConfig(blocks=blocks).validate()

    def test_nonreducing_table(self):
        with pytest.raises(ConfigurationError):
            m.BackboneConfig(blocks=(m.ConvBlock(128, (10, 5), (2, 2)),)).validate()

    def test_dict_roundtrip(self):
        cfg = m.BackboneConfig(blocks=m.DEFAULT_BLOCKS[:3] + (m.ConvBlock(128, (10, 3), (1, 2)),))
        doc = json.loads(json.dumps(asdict(cfg)))
        assert decode(m.BackboneConfig(), doc, DataFormatError, "model header") == cfg


class TestPrototypeInit:
    def test_unit_norms(self):
        bank = m.init_prototypes(seed=3)
        norms = np.linalg.norm(bank.vectors.data, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-9
        bank.validate()

    def test_count_and_class_layout(self, windows):
        bank = m.init_prototypes(seed=3)
        assert bank.vectors.data.shape == (108, 128)
        own = m.own_class_mask(9, 12)
        assert np.array_equal(np.argmax(own, axis=0), np.repeat(np.arange(9), 12))
        assert (own.sum(axis=0) == 1).all()
        # a push names prototype j by its class and its slot in the class
        net = m.ProtoEEGNet.initialize(seed=3, num_classes=3, per_class=2)
        train = make_windows(np.arange(6) * 5, [2, 0, 1, 0, 2, 1], windows[:6])
        records, _ = push_prototypes(net, train)
        assert [(r.prototype_class, r.prototype_index) for r in records] == [
            (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
        own = m.own_class_mask(3, 2)
        for j, r in enumerate(records):
            assert own[r.prototype_class, j]
            assert train.votes[train.sample_id == r.source_sample_id].tolist() == [r.prototype_class]

    @pytest.mark.parametrize("sizes", [{"per_class": 0}, {"num_classes": -1}])
    def test_empty_class_layout_is_a_config_error(self, sizes):
        with pytest.raises(ConfigurationError, match="must each be >= 1"):
            m.ProtoEEGNet.initialize(**sizes)

    def test_deterministic(self):
        a = m.init_prototypes(seed=9)
        b = m.init_prototypes(seed=9)
        assert np.array_equal(a.vectors.data, b.vectors.data)

    def test_near_orthogonal_in_high_dim(self):
        bank = m.init_prototypes(seed=5)
        g = bank.vectors.data @ bank.vectors.data.T
        off = g[~np.eye(108, dtype=bool)]
        assert np.mean(np.abs(off)) < 0.3

    def test_renormalize_projects(self):
        bank = m.init_prototypes(seed=2)
        bank.vectors.data *= 3.7
        bank.renormalize()
        bank.validate()


class TestHeadInit:
    def test_pattern(self):
        w = m.init_head().data
        assert w[3, 3 * 12] == 1.0
        assert w[3, 7 * 12] == -0.5
        for k in range(9):
            row = w[k]
            assert np.sum(row == 1.0) == 12
            assert np.sum(row == -0.5) == 96

    def test_own_class_entries_are_the_own_class_mask(self):
        # one definition serves the head, the losses and the refit
        assert np.array_equal(m.init_head(4, 3).data == 1.0, m.own_class_mask(4, 3))

    def test_own_prototypes_are_mask_rows(self):
        bank = m.init_prototypes(seed=0, num_classes=3, per_class=2, latent_dim=4)
        own = m.own_prototypes(np.array([2, 0, 5, 1]), bank)
        mask = m.own_class_mask(3, 2)
        assert own.dtype == bool
        assert np.array_equal(own[[0, 1, 3]], mask[[2, 0, 1]])
        assert not own[2].any()  # a label past the last class owns no prototype


class TestSimilarities:
    def test_identical_vector_scores_one(self):
        bank = m.init_prototypes(seed=0)
        z = bank.vectors.data[17:18].copy()
        sims = m.similarities(z, bank)
        assert sims.shape == (1, 108)
        assert sims[0, 17] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_scores_zero(self):
        vecs = np.eye(4)
        bank = m.PrototypeBank(vectors=Tensor(vecs), num_classes=2, per_class=2)
        z = np.array([[0.0, 0.0, 0.0, 0.0]])
        # use a vector orthogonal to the first three prototypes
        z[0, 3] = 1.0
        sims = m.similarities(z, bank)
        assert_allclose(sims[0, :3], 0.0, atol=1e-15)

    def test_matches_pairwise_cosine(self):
        rng = np.random.default_rng(4)
        bank = m.init_prototypes(seed=4)
        z = rng.standard_normal((1, 128))
        z /= np.linalg.norm(z)
        sims = m.similarities(z, bank)
        for j in range(0, 108, 7):
            p = bank.vectors.data[j]
            ref = float(np.dot(z[0], p) / (np.linalg.norm(z[0]) * np.linalg.norm(p)))
            assert sims[0, j] == pytest.approx(ref, abs=1e-12)

    def test_bounded(self):
        rng = np.random.default_rng(5)
        bank = m.init_prototypes(seed=5)
        z = rng.standard_normal((50, 128))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        sims = m.similarities(z, bank)
        assert np.all(np.abs(sims) <= 1.0 + 1e-12)

    def test_padded_last_block(self):
        # 33 rows: one full block of OFF_TAPE_CHUNK and one padded with 31 zero rows
        rng = np.random.default_rng(6)
        bank = m.init_prototypes(seed=6)
        z = rng.standard_normal((m.OFF_TAPE_CHUNK + 1, 128))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        sims = m.similarities(z, bank)
        assert sims.shape == (33, 108)
        assert_allclose(sims, z @ bank.vectors.data.T, rtol=0, atol=1e-15)
        assert np.array_equal(sims[-1:], m.similarities(z[-1:], bank))
        assert np.array_equal(sims[:1], m.similarities(z[:1], bank))

    def test_rejects_single_vector(self):
        bank = m.init_prototypes(seed=0)
        with pytest.raises(DimensionError):
            m.similarities(bank.vectors.data[0], bank)


class TestHeadMath:
    def test_zero_sims_uniform(self):
        p = m.softmax_rows(m.class_logits(np.zeros((1, 108)), m.init_head().data))
        assert_allclose(p, np.full((1, 9), 1 / 9), atol=1e-15)

    def test_one_hot_sim_predicts_that_class(self):
        head = m.init_head().data
        for c in (0, 4, 8):
            sims = np.zeros((1, 108))
            sims[0, c * 12 + 3] = 1.0
            p = m.softmax_rows(m.class_logits(sims, head))
            assert int(np.argmax(p[0])) == c

    def test_logits_match_dense_product(self):
        rng = np.random.default_rng(7)
        head = rng.standard_normal((9, 108))
        sims = rng.uniform(-1, 1, (4, 108))
        q = m.class_logits(sims, head)
        assert_allclose(q, sims @ head.T, atol=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(8)
        p = m.softmax_rows(m.class_logits(rng.uniform(-1, 1, (20, 108)),
                                          rng.standard_normal((9, 108))))
        assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_points_examples(self):
        head = m.init_head().data
        assert_allclose(m.points_contributed(np.zeros(108), head), 0.0)
        assert 0.8 * 1.273 == pytest.approx(1.0184)

    def test_points_row_sums_equal_logits_bitwise(self):
        rng = np.random.default_rng(9)
        head = rng.standard_normal((9, 108))
        sims = rng.uniform(-1, 1, 108)
        points = m.points_contributed(sims, head)
        assert np.array_equal(points.sum(axis=1), m.class_logits(sims[None], head)[0])

    def test_nonfinite_sims_rejected(self):
        sims = np.zeros((1, 108))
        sims[0, 0] = np.inf
        with pytest.raises(NumericError):
            m.softmax_rows(m.class_logits(sims, m.init_head().data))


class TestEmbed:
    def test_unit_norm(self, net, windows):
        z = net.embed(windows).data
        assert np.max(np.abs(np.linalg.norm(z, axis=1) - 1.0)) < 1e-9

    def test_deterministic(self, net, windows):
        a = net.embed(windows[0]).data
        b = net.embed(windows[0]).data
        assert np.array_equal(a, b)

    def test_batch_matches_single(self, net, windows):
        zb = net.embed(windows).data
        for i in (0, 5, 9):
            zi = net.embed(windows[i]).data
            assert_allclose(zb[i], zi, atol=1e-12)

    def test_matches_stepwise_reference(self, net, windows):
        got = net.embed(windows[2]).data
        ref = _reference_embed(net, windows[2])
        assert_allclose(got, ref, rtol=1e-9, atol=1e-12)

    def test_empty_batch(self, net):
        empty = np.empty((0, 128, 37))
        assert net.embed(empty).shape == (0, 128)
        out = net.forward_probs(empty)
        assert out["latents"].shape == (0, 128)
        assert out["similarities"].shape == (0, 108)
        assert out["logits"].shape == out["probabilities"].shape == (0, 9)

    def test_bad_shape(self, net):
        with pytest.raises(DimensionError):
            net.embed(np.zeros((64, 37)))

    def test_nonfinite_input(self, net):
        w = np.zeros((128, 37))
        w[3, 3] = np.nan
        with pytest.raises(NumericError):
            net.embed(w)

    def test_degenerate_latent(self):
        dead = m.ProtoEEGNet.initialize(seed=1)
        dead.conv_kernels[-1].data[:] = 0.0
        with pytest.raises(DegenerateInputError):
            dead.embed(np.zeros((128, 37)))


def test_inference_is_batch_invariant():
    # explain scores one window alone and eval scores it inside a batch; both
    # must report the same similarities, logits and probabilities bit for bit
    net = m.ProtoEEGNet.initialize(seed=3)
    net.bank.provenance = [m.PushRecord(j // 12, j % 12, j, 1.0, 0) for j in range(108)]
    rng = np.random.default_rng(8)
    window = rng.standard_normal((128, 37)).astype(np.float32)
    sample = make_windows([0], [4], window[None])[0]
    alone = net.forward_probs(window)
    p_pos = explain(net, sample).binary["p_pos"]
    for size in (7, 75):
        batch = rng.standard_normal((size, 128, 37)).astype(np.float32)
        positions = sorted({0, 1, size // 2, size - 2, size - 1})
        batch[positions] = window
        out = net.forward_probs(batch)
        scores = score_samples(net, make_windows(np.arange(size), np.full(size, 4), batch))
        for pos in positions:
            for key in ("similarities", "logits", "probabilities"):
                assert np.array_equal(out[key][pos], alone[key]), (size, pos, key)
            assert scores[pos] == p_pos, (size, pos)


def test_float32_rows_score_as_their_widened_copy(net):
    # forward_probs hands record rows to embed as they are stored; widening
    # float32 is exact, so the rows give the bits of a float64 copy
    rng = np.random.default_rng(4)
    rows = make_windows(np.arange(40), np.zeros(40),
                        rng.standard_normal((40, 128, 37)) * 15).values
    assert rows.dtype == np.float32
    for values in (rows[0], rows[3:6], rows):  # one window, a batch, two chunks
        got = net.forward_probs(values)
        want = net.forward_probs(values.astype(np.float64))
        for key in ("latents", "similarities", "logits", "probabilities"):
            assert got[key].dtype == np.float64
            assert got[key].tobytes() == want[key].tobytes(), key


def _cpus(monkeypatch, count):
    """Give forward_probs an affinity mask of ``count`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


class TestWorkers:
    # forward_probs shares its embed slices between the calling thread and
    # one helper per further CPU; the worker count changes no bits

    @pytest.fixture(scope="class")
    def rows(self):
        rng = np.random.default_rng(6)
        return (rng.standard_normal((100, 128, 37)) * 15).astype(np.float32)

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 33, 100])
    def test_bytes_do_not_depend_on_the_worker_count(self, net, rows, n, monkeypatch):
        outs = []
        for cpus in (1, 2, 3):
            _cpus(monkeypatch, cpus)
            outs.append(net.forward_probs(rows[:n]))
        for key in ("latents", "similarities", "logits", "probabilities"):
            assert outs[0][key].shape[0] == n
            for out in outs[1:]:
                assert out[key].tobytes() == outs[0][key].tobytes(), key

    def test_more_workers_than_cores_switching_often(self, net, rows, monkeypatch):
        # 13 slices on 8 workers, the interpreter switching threads every
        # microsecond: a lost or misplaced row would change the bytes
        want = net.forward_probs(rows)["latents"]
        _cpus(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = net.forward_probs(rows)["latents"]
        finally:
            sys.setswitchinterval(interval)
        assert got.tobytes() == want.tobytes()

    def test_without_an_affinity_mask_every_cpu_works(self, net, rows, monkeypatch):
        want = net.forward_probs(rows[:33])["latents"]
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: (started.append(thread), start(thread))[1])
        assert net.forward_probs(rows[:33])["latents"].tobytes() == want.tobytes()
        assert len(started) == 2

    def test_every_row_is_the_one_window_call(self, net, rows, monkeypatch):
        _cpus(monkeypatch, 3)
        batch = net.forward_probs(rows[:33])
        for i in range(33):
            alone = net.forward_probs(rows[i])
            for key in ("latents", "similarities", "logits", "probabilities"):
                assert batch[key][i].tobytes() == alone[key].tobytes(), (i, key)

    def test_one_slice_starts_no_thread(self, net, rows, monkeypatch):
        _cpus(monkeypatch, 3)

        def refuse(thread):
            raise AssertionError("a one-slice call started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        for n in (1, m.EMBED_SLICE):
            assert net.forward_probs(rows[:n])["latents"].shape == (n, 128)
        assert net.forward_probs(rows[0])["latents"].shape == (128,)

    def test_a_helpers_error_is_raised_in_the_caller(self, net, rows, monkeypatch):
        # helpers embed with a NaN planted in their slice; the calling thread
        # holds its first slice until a helper has failed, so every slice but
        # that one is left to the helpers
        _cpus(monkeypatch, 3)
        embed, failed = m.ProtoEEGNet.embed, threading.Event()

        def embed_with_a_nan_off_the_caller(self, values):
            if threading.current_thread() is threading.main_thread():
                assert failed.wait(10)
                return embed(self, values)
            values = values.copy()
            values[0, 5, 5] = np.nan
            try:
                return embed(self, values)
            except NumericError:
                failed.set()
                raise

        monkeypatch.setattr(m.ProtoEEGNet, "embed", embed_with_a_nan_off_the_caller)
        before = threading.active_count()
        with pytest.raises(NumericError):
            net.forward_probs(rows[:3 * m.EMBED_SLICE])
        assert failed.is_set()
        assert threading.active_count() == before


def _reference_embed(net, window):
    """Independent forward pass: explicit loops, no shared conv code."""
    x = np.asarray(window, dtype=np.float64)[None, :, :]  # (C=1, H, W)
    for i, b in enumerate(net.config.blocks):
        k = net.conv_kernels[i].data
        co, _, kh, kw = k.shape
        sh, sw = b.stride
        ho = (x.shape[1] - kh) // sh + 1
        wo = (x.shape[2] - kw) // sw + 1
        out = np.zeros((co, ho, wo))
        for c in range(co):
            for oh in range(ho):
                for ow in range(wo):
                    patch = x[:, oh * sh:oh * sh + kh, ow * sw:ow * sw + kw]
                    out[c, oh, ow] = np.sum(patch * k[c])
        mu = out.mean()
        var = out.var()
        xhat = (out - mu) / np.sqrt(var + 1e-5)
        y = net.ln_gains[i].data * xhat + net.ln_biases[i].data
        x = np.where(y > 0, y, np.expm1(y))
    z = x.reshape(-1)
    return z / np.linalg.norm(z)


# the default table with a final time kernel of 9: the backbone ends at 2x1
NONREDUCING_BACKBONE = asdict(m.BackboneConfig(
    blocks=m.DEFAULT_BLOCKS[:3] + (m.ConvBlock(128, (9, 3), (1, 1)),)))


# the default head block: 9 x 108 little-endian float64
HEAD_BYTES = 8 * m.NUM_CLASSES * m.NUM_CLASSES * m.PROTOS_PER_CLASS


def _first_pushed(**change) -> list:
    """A provenance list whose first prototype has a push record, with
    `change` applied to it, and the others none."""
    return [{**asdict(m.PushRecord(0, 0, 7, 0.5, 2)), **change}] + [None] * 107


class TestCheckpoint:
    def test_roundtrip_forward_identical(self, net, windows, tmp_path):
        path = tmp_path / "model.pegm"
        m.save_model(net, path)
        again = m.load_model(path)
        a = net.forward_probs(windows)
        b = again.forward_probs(windows)
        assert np.array_equal(a["probabilities"], b["probabilities"])
        assert np.array_equal(a["latents"], b["latents"])

    def test_provenance_roundtrip(self, tmp_path):
        net = m.ProtoEEGNet.initialize(seed=3)
        net.bank.provenance[5] = m.PushRecord(prototype_class=0, prototype_index=5,
                                              source_sample_id=77, similarity=0.93,
                                              epoch=110)
        path = tmp_path / "model.pegm"
        m.save_model(net, path)
        again = m.load_model(path)
        rec = again.bank.provenance[5]
        assert rec.source_sample_id == 77
        assert rec.similarity == 0.93
        assert rec.epoch == 110
        assert again.bank.provenance[6] is None

    def test_save_is_deterministic(self, net, tmp_path):
        p1, p2 = tmp_path / "a.pegm", tmp_path / "b.pegm"
        m.save_model(net, p1)
        m.save_model(net, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated(self, net, tmp_path):
        path = tmp_path / "model.pegm"
        m.save_model(net, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 2000])
        with pytest.raises(DataFormatError):
            m.load_model(path)

    def test_wrong_magic(self, net, tmp_path):
        path = tmp_path / "model.pegm"
        m.save_model(net, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="magic"):
            m.load_model(path)

    def test_corrupt_payload(self, net, tmp_path):
        path = tmp_path / "model.pegm"
        m.save_model(net, path)
        blob = bytearray(path.read_bytes())
        blob[5000] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="checksum"):
            m.load_model(path)

    @pytest.mark.parametrize("edit", [
        {"drop": "backbone"}, {"drop": "num_classes"}, {"drop": "per_class"},
        {"set": ("num_classes", "nine")}, {"set": ("backbone", [1, 2])},
        # the parameter table of a version-3 header is an unknown key
        {"set": ("parameters", [{"name": "head", "shape": [9, 108]}])},
        # well-formed headers that disagree with the payload after them
        {"set": ("provenance", [None])},
        {"set": ("backbone", NONREDUCING_BACKBONE)},
        {"set": ("num_classes", 0)}, {"set": ("num_classes", -1)},
        {"set": ("per_class", 0)}, {"set": ("per_class", -1)},
        {"payload": lambda b: b + bytes(24)},  # an extra block of 3 values
        {"payload": lambda b: b + np.full((9, 108), 7.0).tobytes()},  # the head twice
        {"payload": lambda b: b[:-HEAD_BYTES]},  # no head
        # ill-typed values that a reader must not cast
        {"set": ("per_class", 12.0)}, {"set": ("num_classes", "9")},
        {"set": ("backbone", {**asdict(m.BackboneConfig()), "latent_dim": 128.9})},
        {"set": ("provenance", _first_pushed(epoch=2.7))},
        {"set": ("provenance", _first_pushed(similarity="0.5"))},
    ])
    def test_malformed_header_is_format_error(self, net, tmp_path, edit):
        path = tmp_path / "model.pegm"
        m.save_model(net, path)
        rewrite_header(path, edit)
        with pytest.raises(DataFormatError, match="header"):
            m.load_model(path)

    def test_repeated_header_key_is_format_error(self, net, tmp_path):
        path = tmp_path / "model.pegm"
        m.save_model(net, path)
        rewrite_header(path, {"text": lambda t: t.replace("{", '{"per_class": 12, ', 1)})
        with pytest.raises(DataFormatError, match="repeats the key 'per_class'"):
            m.load_model(path)

    def test_file_is_frame_head_header_parameters_and_trailer(self, net, tmp_path):
        path = tmp_path / "model.pegm"
        m.save_model(net, path)
        blob = path.read_bytes()
        magic, version, header_len = struct.unpack_from("<4sII", blob)
        assert (magic, version) == (m.MODEL_MAGIC, m.MODEL_VERSION)
        shapes = m._param_shapes(net.config, net.bank.num_classes, net.bank.per_class)
        assert len(blob) == 12 + header_len + 8 * sum(math.prod(s) for s in shapes) + 32
        assert sorted(json.loads(blob[12:12 + header_len])) == [
            "backbone", "config_digest", "num_classes", "per_class", "provenance"]
        assert blob[12 + header_len:-32] == b"".join(
            t.data.astype("<f8").tobytes() for t in net.all_parameters())

    def test_version_3_is_unsupported(self, net, tmp_path):
        path = tmp_path / "model.pegm"
        m.save_model(net, path)
        (header_len,), payload, _ = read_framed(path, m.MODEL_MAGIC, m.MODEL_VERSION, 1,
                                                "model")
        write_framed(path, m.MODEL_MAGIC, 3, (header_len,), bytes(payload))
        with pytest.raises(DataFormatError, match="unsupported model version 3"):
            m.load_model(path)

    def test_initialize_deterministic(self, tmp_path):
        a = m.ProtoEEGNet.initialize(seed=11)
        b = m.ProtoEEGNet.initialize(seed=11)
        pa, pb = tmp_path / "a.pegm", tmp_path / "b.pegm"
        m.save_model(a, pa)
        m.save_model(b, pb)
        assert pa.read_bytes() == pb.read_bytes()
