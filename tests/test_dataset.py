import dataclasses
import hashlib
import json
import struct

import numpy as np
import pytest

from protoeeg import dataset as ds
from protoeeg.cli import resolve_config
from protoeeg.container import decode, read_framed, recording, write_framed
from protoeeg.errors import ConfigurationError, DataFormatError


@pytest.fixture(scope="module")
def small_set():
    cfg = ds.SynthConfig(n_samples=60, seed=3)
    return ds.generate_synthetic(cfg)


class TestSynthConfig:
    def test_bad_spike_rate(self):
        with pytest.raises(ConfigurationError):
            ds.SynthConfig(n_samples=10, spike_rate=1.5)

    def test_bad_widths(self):
        with pytest.raises(ConfigurationError):
            ds.SynthConfig(n_samples=10, sharp_width_ms=(70.0, 20.0))

    def test_nonpositive_n(self):
        with pytest.raises(ConfigurationError):
            ds.SynthConfig(n_samples=0)

    def test_wrong_annotator_count(self):
        with pytest.raises(ConfigurationError):
            ds.AnnotatorModel(sensitivities=(1.0, 2.0), biases=(0.1, 0.2))

    def test_roundtrip_dict(self):
        cfg = ds.SynthConfig(n_samples=5, seed=9, spike_rate=0.3)
        again = decode(ds.SynthConfig(n_samples=1), json.loads(json.dumps(dataclasses.asdict(cfg))),
                       ConfigurationError, "config")
        assert again == cfg

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text(json.dumps({"n_samples": 5, "annotators": {"wavelet": True}}))
        defaults = dataclasses.asdict(ds.SynthConfig(n_samples=1))
        with pytest.raises(ConfigurationError, match="annotators.wavelet"):
            resolve_config(defaults, f, {})


class TestGenerator:
    def test_deterministic(self):
        cfg = ds.SynthConfig(n_samples=12, seed=42)
        a, ma = ds.generate_synthetic(cfg)
        b, mb = ds.generate_synthetic(cfg)
        for x, y in zip(a, b):
            assert x.votes == y.votes
            assert x.values.tobytes() == y.values.tobytes()
        assert ma == mb

    def test_spike_rate_zero_vote_floor(self):
        samples, _ = ds.generate_synthetic(
            ds.SynthConfig(n_samples=1000, seed=1, spike_rate=0.0))
        assert np.mean([s.votes for s in samples]) < 1.0

    def test_full_salience_saturates_votes(self):
        rng = np.random.default_rng(3)
        votes = [ds.simulate_votes(1.0, ds.AnnotatorModel(), rng) for _ in range(1000)]
        assert np.mean(votes) > 7.0

    def test_vote_monotone_in_salience(self):
        rng = np.random.default_rng(4)
        ann = ds.AnnotatorModel()
        means = []
        for s in np.linspace(0.0, 1.0, 10):
            means.append(np.mean([ds.simulate_votes(float(s), ann, rng)
                                  for _ in range(2000)]))
        diffs = np.diff(means)
        assert np.all(diffs > -0.05)  # nondecreasing up to Monte Carlo noise

    def test_sample_shapes_and_ranges(self, small_set):
        samples, _ = small_set
        assert len(samples) == 60
        for s in samples:
            assert s.values.shape == (128, 37)
            assert s.values.dtype == np.float32
            assert 0 <= s.votes <= 8

    def test_event_adds_energy(self):
        base = ds.SynthConfig(n_samples=300, seed=8, spike_rate=0.0)
        spiky = ds.SynthConfig(n_samples=300, seed=8, spike_rate=1.0)
        quiet, _ = ds.generate_synthetic(base)
        loud, _ = ds.generate_synthetic(spiky)
        q = np.mean([np.max(np.abs(s.values)) for s in quiet])
        l = np.mean([np.max(np.abs(s.values)) for s in loud])
        assert l > q


class TestHistogram:
    def test_defaults_populate_every_class(self):
        samples, _ = ds.generate_synthetic(ds.SynthConfig(n_samples=10_000, seed=5))
        hist = np.bincount([s.votes for s in samples], minlength=9)
        assert hist.sum() == 10_000
        assert hist.shape == (9,) and np.all(hist > 0)


def _fake_samples(votes_list):
    n = len(votes_list)
    return ds.make_windows(np.arange(n), votes_list, np.zeros((n, 4, 37), np.float32))


class TestSplit:
    def test_sizes_at_10k(self):
        rng = np.random.default_rng(0)
        samples = _fake_samples(rng.integers(0, 9, size=10_000))
        man = ds.split(samples, seed=0)
        sizes = [len(man[s]) for s in ("train", "val", "test")]
        for got, want in zip(sizes, (7300, 1200, 1500)):
            assert abs(got - want) <= 9  # +-1 per class

    def test_all_train(self):
        samples = _fake_samples([0, 1, 4, 8] * 5)
        man = ds.split(samples, fractions=(1.0, 0.0, 0.0), seed=1)
        assert man == {"train": list(range(20)), "val": [], "test": []}

    def test_deterministic(self):
        samples = _fake_samples(list(range(9)) * 30)
        a = ds.split(samples, seed=5)
        b = ds.split(samples, seed=5)
        assert a == b

    def test_stratified_within_one(self):
        rng = np.random.default_rng(2)
        votes = rng.integers(0, 9, size=3000)
        samples = _fake_samples(votes)
        man = ds.split(samples, seed=3)
        for c in range(9):
            ids = set(samples.sample_id[samples.votes == c].tolist())
            n = len(ids)
            for frac, name in zip((0.73, 0.12, 0.15), ("train", "val", "test")):
                got = len(ids & set(man[name]))
                assert abs(got - frac * n) <= 1

    def test_each_class_in_every_split(self):
        samples = _fake_samples([0] * 3 + [5] * 4 + [8] * 100)
        man = ds.split(samples, seed=7)
        for c in (0, 5, 8):
            ids = set(samples.sample_id[samples.votes == c].tolist())
            assert all(ids & set(man[name]) for name in ("train", "val", "test"))

    def test_every_id_assigned_once(self):
        samples = _fake_samples(list(range(9)) * 10)
        man = ds.split(samples, seed=0)
        assert list(man) == list(ds.SPLIT_NAMES)
        assert all(ids == sorted(ids) for ids in man.values())
        assert sorted(man["train"] + man["val"] + man["test"]) == list(range(90))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ds.split([])

    def test_bad_fractions(self):
        samples = _fake_samples([1, 2, 3])
        with pytest.raises(ConfigurationError):
            ds.split(samples, fractions=(0.5, 0.5, 0.5))

    def test_manifest_records_the_sample_shape(self):
        # the generator builds its manifest around the split, once
        windows, manifest = ds.generate_synthetic(
            ds.SynthConfig(n_samples=3, sample_rate_hz=64.0))
        assert windows.values.shape[1:] == (64, 37)
        assert manifest == ds.DatasetManifest(sample_rate_hz=64.0, **ds.split(windows, seed=0))


class TestStorage:
    def test_roundtrip_bit_exact(self, small_set, tmp_path):
        samples, manifest = small_set
        path = tmp_path / "d.peeg"
        ds.save(samples, manifest, path)
        loaded, man2 = ds.load(path)
        assert len(loaded) == len(samples)
        for a, b in zip(samples, loaded):
            assert a.sample_id == b.sample_id
            assert a.votes == b.votes
            assert a.values.tobytes() == b.values.tobytes()
        assert dataclasses.replace(man2, container_sha256="") == manifest
        assert loaded.tobytes() == samples.tobytes()

    def test_manifest_holds_five_keys(self, small_set, tmp_path):
        samples, manifest = small_set
        path = tmp_path / "d.peeg"
        ds.save(samples, manifest, path)
        raw = json.loads(ds.manifest_path(path).read_text("utf-8"))
        assert list(raw) == ["train", "val", "test", "sample_rate_hz", "container_sha256"]
        assert raw["train"] == manifest.ids_for("train") == sorted(raw["train"])

    def test_payload_is_the_packed_records(self, small_set, tmp_path):
        # per window: u64 id, u8 votes, then float32 (time, channel) values
        samples, manifest = small_set
        path = tmp_path / "d.peeg"
        ds.save(samples, manifest, path)
        _, payload, _ = read_framed(path, ds.MAGIC, ds.FORMAT_VERSION, 3, "dataset")
        expected = b"".join(struct.pack("<QB", int(s.sample_id), int(s.votes))
                            + np.asarray(s.values, "<f4").tobytes() for s in samples)
        assert bytes(payload) == expected

    def test_load_is_a_read_only_view(self, small_set, tmp_path):
        samples, manifest = small_set
        path = tmp_path / "d.peeg"
        ds.save(samples, manifest, path)
        loaded, _ = ds.load(path)
        assert isinstance(loaded, np.recarray) and not loaded.flags.writeable
        with pytest.raises(ValueError):
            loaded.votes[0] = 1

    def test_loaded_windows_outlive_a_replaced_file(self, small_set, tmp_path):
        # the file is replaced by renaming, so the mapping keeps the old bytes
        samples, manifest = small_set
        path = tmp_path / "d.peeg"
        ds.save(samples, manifest, path)
        loaded, _ = ds.load(path)
        other = ds.make_windows(samples.sample_id, samples.votes, samples.values + 1.0)
        ds.save(other, manifest, path)
        assert not loaded.flags.writeable
        assert loaded.tobytes() == samples.tobytes()
        assert ds.load(path)[0].tobytes() == other.tobytes()

    def test_manifest_names_the_container_digest(self, small_set, tmp_path):
        samples, manifest = small_set
        path = tmp_path / "d.peeg"
        ds.save(samples, manifest, path)
        with recording() as (digests, _):
            _, loaded = ds.load(path)
        assert loaded.container_sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
        assert digests == {
            "dataset": (path, loaded.container_sha256),
            "manifest": (ds.manifest_path(path), hashlib.sha256(
                ds.manifest_path(path).read_bytes()).hexdigest())}

    def test_wrong_magic(self, small_set, tmp_path):
        samples, manifest = small_set
        path = tmp_path / "d.peeg"
        ds.save(samples, manifest, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="magic"):
            ds.load(path)

    def test_truncated(self, small_set, tmp_path):
        samples, manifest = small_set
        path = tmp_path / "d.peeg"
        ds.save(samples, manifest, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(DataFormatError, match="truncat"):
            ds.load(path)

    def test_checksum_flip(self, small_set, tmp_path):
        samples, manifest = small_set
        path = tmp_path / "d.peeg"
        ds.save(samples, manifest, path)
        blob = bytearray(path.read_bytes())
        blob[40] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="checksum"):
            ds.load(path)

    def test_missing_manifest(self, small_set, tmp_path):
        samples, manifest = small_set
        path = tmp_path / "d.peeg"
        ds.save(samples, manifest, path)
        ds.manifest_path(path).unlink()
        with pytest.raises(DataFormatError, match="manifest"):
            ds.load(path)

    def test_manifest_naming_an_absent_id(self, small_set, tmp_path):
        samples, manifest = small_set
        test = manifest.ids_for("test")[1:] + [999999]
        path = tmp_path / "d.peeg"
        ds.save(samples, dataclasses.replace(manifest, test=test), path)
        with pytest.raises(DataFormatError, match="manifest splits name an absent window: "
                                                  "sample id 999999 is not in the dataset"):
            ds.load(path)

    def test_window_too_large_for_a_record(self, tmp_path):
        # an empty payload passes the size check whatever the window shape
        path = tmp_path / "d.peeg"
        write_framed(path, ds.MAGIC, ds.FORMAT_VERSION, (0, 2 ** 20, 2 ** 20), b"")
        with pytest.raises(DataFormatError, match="record"):
            ds.load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError):
            ds.load(tmp_path / "nope.peeg")

    def test_duplicate_ids_rejected_on_save(self, small_set, tmp_path):
        samples, manifest = small_set
        twin = samples.copy()
        twin.sample_id[1] = twin.sample_id[0]
        path = tmp_path / "d.peeg"
        with pytest.raises(DataFormatError, match="duplicate"):
            ds.save(twin, manifest, path)
        assert not path.exists()

    @pytest.mark.parametrize("field, match", [("sample_id", "duplicate"),
                                              ("votes", "votes"),
                                              ("values", "non-finite")])
    def test_bad_record_under_valid_checksum(self, small_set, tmp_path, field,
                                             match):
        samples, manifest = small_set
        path = tmp_path / "d.peeg"
        ds.save(samples, manifest, path)
        fields, view, _ = read_framed(path, ds.MAGIC, ds.FORMAT_VERSION, 3, "dataset")
        records = np.frombuffer(view, ds.record_dtype(*fields[1:])).copy()
        bad = {"sample_id": samples[0].sample_id, "votes": 12, "values": np.inf}
        records[field][1] = bad[field]
        write_framed(path, ds.MAGIC, ds.FORMAT_VERSION, fields, records.tobytes())
        with pytest.raises(DataFormatError, match=match):
            ds.load(path)


def _one_window(tmp_path, values, votes=0):
    """Save one window with the given values and votes under a stub manifest."""
    manifest = ds.DatasetManifest(train=[], val=[], test=[], sample_rate_hz=128.0)
    ds.save(ds.make_windows([1], [votes], values[None]), manifest, tmp_path / "d.peeg")


class TestSampleValidation:
    def test_wrong_shape(self):
        with pytest.raises(DataFormatError, match="window"):
            ds.make_windows([1], [0], np.zeros((64, 37), np.float32))
        with pytest.raises(DataFormatError, match="2 ids"):
            ds.make_windows([1, 2], [0, 0], np.zeros((1, 64, 37), np.float32))

    def test_nonfinite(self, tmp_path):
        vals = np.zeros((128, 37), np.float32)
        vals[0, 0] = np.nan
        with pytest.raises(DataFormatError, match="non-finite"):
            _one_window(tmp_path, vals)
        assert not (tmp_path / "d.peeg").exists()

    def test_votes_range(self, tmp_path):
        with pytest.raises(DataFormatError, match="votes 9"):
            _one_window(tmp_path, np.zeros((128, 37), np.float32), votes=9)
        assert not (tmp_path / "d.peeg").exists()


class TestRowsOf:
    def test_rows_follow_the_given_ids(self):
        windows = ds.make_windows([30, 10, 20], [1, 2, 3], np.zeros((3, 4, 5)))
        assert ds.rows_of(windows, [20, 30, 20]).tolist() == [2, 0, 2]
        assert ds.rows_of(windows, []).tolist() == []

    @pytest.mark.parametrize("ids, first", [([10, 7, 8], 7), ([-1, 7], -1),
                                            ([2 ** 64, 10], 2 ** 64)])
    def test_names_the_first_absent_id(self, ids, first):
        windows = ds.make_windows([30, 10, 20], [1, 2, 3], np.zeros((3, 4, 5)))
        with pytest.raises(DataFormatError, match=f"sample id {first} is not in the dataset"):
            ds.rows_of(windows, ids)


def test_split_windows_keep_the_record_in_id_order(small_set):
    samples, manifest = small_set
    by_id = {int(s.sample_id): s.tobytes() for s in samples}
    for name in ds.SPLIT_NAMES:
        part = ds.split_windows(samples[::-1], manifest, name)
        assert part.dtype == samples.dtype and part.values.dtype == np.float32
        assert part.sample_id.tolist() == manifest.ids_for(name)
        assert [row.tobytes() for row in part] == [by_id[i] for i in manifest.ids_for(name)]
