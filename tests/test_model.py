import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import rewrite_header

from protoeeg import model as m
from protoeeg.dataset import EEGSample
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
        cfg = m.BackboneConfig()
        assert m.BackboneConfig.from_dict(cfg.to_dict()) == cfg


class TestPrototypeInit:
    def test_unit_norms(self):
        bank = m.init_prototypes(seed=3)
        norms = np.linalg.norm(bank.vectors.data, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-9
        bank.validate()

    def test_count_and_class_layout(self):
        bank = m.init_prototypes(seed=3)
        assert bank.vectors.data.shape == (108, 128)
        assert bank.class_of(0) == 0
        assert bank.class_of(107) == 8
        assert list(bank.prototype_classes()[:13]) == [0] * 12 + [1]

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
    sample = EEGSample(values=window, votes=4, sample_id=0)
    alone = net.forward_probs(window)
    p_pos = explain(net, sample).binary.p_pos
    for size in (7, 75):
        batch = rng.standard_normal((size, 128, 37)).astype(np.float32)
        positions = sorted({0, 1, size // 2, size - 2, size - 1})
        batch[positions] = window
        out = net.forward_probs(batch)
        scores = score_samples(net, [EEGSample(values=v, votes=4, sample_id=i)
                                     for i, v in enumerate(batch)])
        for pos in positions:
            for key in ("similarities", "logits", "probabilities"):
                assert np.array_equal(out[key][pos], alone[key]), (size, pos, key)
            assert scores[pos].p_pos == p_pos, (size, pos)


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


def _shapes_with(name, shape) -> list:
    """The default model's parameter table with one block's shape replaced."""
    net = m.ProtoEEGNet.initialize(seed=0)
    return [{"name": n, "shape": list(shape) if n == name else list(t.data.shape)}
            for n, t in m._param_manifest(net)]


# the default table with a final time kernel of 9: the backbone ends at 2x1
NONREDUCING_BACKBONE = {
    "blocks": [[b.out_channels, list(b.kernel), list(b.stride)]
               for b in m.DEFAULT_BLOCKS[:3]] + [[128, [9, 3], [1, 1]]],
    "latent_dim": 128,
}


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
        {"drop": "parameters"}, {"set": ("num_classes", "nine")},
        {"set": ("parameters", 5)}, {"set": ("backbone", [1, 2])},
        # well-formed headers that disagree with the blocks they describe
        {"set": ("parameters", _shapes_with("head", [108, 9]))},
        {"set": ("parameters", _shapes_with("conv0", [16, 1, 25, 1]))},
        {"set": ("provenance", [None])},
        {"set": ("backbone", NONREDUCING_BACKBONE)},
        {"set": ("parameters", _shapes_with("conv0", [-1, 1, 5, 5]))},
    ])
    def test_malformed_header_is_format_error(self, net, tmp_path, edit):
        path = tmp_path / "model.pegm"
        m.save_model(net, path)
        rewrite_header(path, edit)
        with pytest.raises(DataFormatError, match="header"):
            m.load_model(path)

    def test_initialize_deterministic(self, tmp_path):
        a = m.ProtoEEGNet.initialize(seed=11)
        b = m.ProtoEEGNet.initialize(seed=11)
        pa, pb = tmp_path / "a.pegm", tmp_path / "b.pegm"
        m.save_model(a, pa)
        m.save_model(b, pb)
        assert pa.read_bytes() == pb.read_bytes()
