"""End-to-end tests for the command-line interface.

Module behavior (schedules, metrics, reports) is covered by the per-module
suites; these tests pin the wiring: exit codes, config resolution, artifact
layout, and run-to-run determinism.
"""

import ast
import contextlib
import hashlib
import io
import json
import os
import re
import stat
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import rewrite_header
import protoeeg
from protoeeg.cli import _build, main, resolve_config
from protoeeg.dataset import SynthConfig, load
from protoeeg.errors import ConfigurationError, DataFormatError
from protoeeg.losses import LossCoefficients
from protoeeg.model import load_model
from protoeeg.training import TrainConfig

# small but complete schedule: two pushes, convex refits, lr decay
CFG = {"num_train_epochs": 6, "num_warm_epochs": 2, "num_secondary_warm_epochs": 2,
       "push_start": 2, "push_epochs": [4, 6], "joint_lr_step_size": 2,
       "batch_size": 16, "last_layer_max_iters": 120, "seed": 5}
# two epochs, a push after each: quick to train where a bad value slips through
TINY = {"num_train_epochs": 2, "num_warm_epochs": 0, "num_secondary_warm_epochs": 0,
        "push_start": 0, "push_epochs": [1, 2], "batch_size": 16,
        "last_layer_max_iters": 10}


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_data")
    assert main(["synth", "--n", "60", "--seed", "7", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def cfg_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_cfg") / "train.json"
    path.write_text(json.dumps(CFG))
    return path


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, data_dir, cfg_file):
    out = tmp_path_factory.mktemp("cli_run")
    assert main(["train", "--config", str(cfg_file), "--data", str(data_dir),
                 "--out", str(out)]) == 0
    return out


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _copy_with_manifest(data_dir: Path, dest: Path, edit) -> Path:
    """Copy the dataset into dest, passing its manifest dict through edit."""
    dest.mkdir()
    (dest / "dataset.peeg").write_bytes((data_dir / "dataset.peeg").read_bytes())
    raw = json.loads((data_dir / "dataset.manifest.json").read_text())
    edit(raw)
    (dest / "dataset.manifest.json").write_text(json.dumps(raw))
    return dest


class TestParsing:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate", "--out", "x"]) == 1
        err = capsys.readouterr().err
        assert "usage:" in err and "error:" in err

    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "usage:" in capsys.readouterr().err

    def test_missing_out_is_usage_error(self):
        assert main(["synth", "--n", "5"]) == 1

    def test_bad_flag_value_names_the_flag(self, capsys):
        assert main(["train", "--data", "d", "--epochs", "soon", "--out", "x"]) == 1
        assert "--epochs" in capsys.readouterr().err

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0


class TestResolveConfig:
    DEFAULTS = {"alpha": 1, "beta": 0.5, "name": "x", "flags": [1, 2]}

    def test_precedence_defaults_file_flags(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text(json.dumps({"alpha": 2, "beta": 0.25}))
        merged = resolve_config(self.DEFAULTS, f, {"alpha": 3, "name": None})
        assert merged == {"alpha": 3, "beta": 0.25, "name": "x", "flags": [1, 2]}

    def test_unknown_file_key_names_it(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text(json.dumps({"gamma": 1}))
        with pytest.raises(ConfigurationError, match="gamma"):
            resolve_config(self.DEFAULTS, f, {})

    def test_type_mismatch_names_the_key(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text(json.dumps({"alpha": "lots"}))
        with pytest.raises(ConfigurationError, match="alpha"):
            resolve_config(self.DEFAULTS, f, {})

    def test_int_is_acceptable_for_a_float_key(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text(json.dumps({"beta": 2}))
        assert resolve_config(self.DEFAULTS, f, {})["beta"] == 2

    def test_bool_is_not_an_int(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text(json.dumps({"alpha": True}))
        with pytest.raises(ConfigurationError, match="alpha"):
            resolve_config(self.DEFAULTS, f, {})

    def test_non_object_file_is_a_format_error(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text("[1, 2]")
        with pytest.raises(DataFormatError):
            resolve_config(self.DEFAULTS, f, {})

    def test_missing_file_is_a_format_error(self, tmp_path):
        with pytest.raises(DataFormatError):
            resolve_config(self.DEFAULTS, tmp_path / "absent.json", {})


class TestTypedConfig:
    """Every leaf of a config file is checked against its default's JSON type;
    an ill-typed value or a negative seed exits 1 with one line naming it."""

    # subcommand, config file (or None), extra flags, the key the error names
    CASES = {
        "push_epochs_float": ("train", {**TINY, "push_epochs": [1.7, 2]}, [],
                              "push_epochs[0]"),
        "coefficient_string": ("train", {**TINY, "coefficients": {"clst": "0.2"}}, [],
                               "coefficients.clst"),
        "coefficient_bool": ("train", {**TINY, "coefficients": {"ortho": True}}, [],
                             "coefficients.ortho"),
        "vote_noise_string": ("synth", {"n_samples": 5,
                                        "annotators": {"vote_noise": "0.1"}}, [],
                              "annotators.vote_noise"),
        "width_bool": ("synth", {"n_samples": 5, "sharp_width_ms": [True, 70]}, [],
                       "sharp_width_ms[0]"),
        "n_samples_bool": ("synth", {"n_samples": True}, [], "n_samples"),
        "n_samples_float": ("synth", {"n_samples": 5.5}, [], "n_samples"),
        "fraction_string": ("split", {"fractions": [0.7, "a", 0.3]}, [], "fractions[1]"),
        "split_seed_flag": ("split", None, ["--seed", "-1"], "seed"),
        "eval_seed_flag": ("eval", None, ["--seed", "-1", "--rounds", "10"], "seed"),
        "synth_seed_file": ("synth", {"n_samples": 5, "seed": -1}, [], "seed"),
        "train_seed_file": ("train", {**TINY, "seed": -1}, [], "seed"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bad_value_exits_one_naming_the_key(self, case, run_dir, data_dir,
                                                tmp_path, capsys):
        command, doc, flags, key = self.CASES[case]
        args = [command, *flags, "--out", str(tmp_path / "o")]
        if doc is not None:
            (tmp_path / "c.json").write_text(json.dumps(doc))
            args += ["--config", str(tmp_path / "c.json")]
        if command != "synth":
            args += ["--data", str(data_dir)]
        if command == "eval":
            args += ["--model", str(run_dir)]
        capsys.readouterr()
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert f"'{key}'" in err


def _nodes(doc, steps=()):
    """(steps, value) of every value in a JSON document, containers too; a
    step is an object key or a list index."""
    yield steps, doc
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for step, value in items:
        yield from _nodes(value, (*steps, step))


def _key_path(steps) -> str:
    """The path a config error names: ``coefficients.clst``, ``push_epochs[0]``."""
    return "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in steps)[1:]


def _same_json_type(value, default) -> bool:
    if isinstance(value, bool) or isinstance(default, bool):
        return type(value) is type(default)
    if isinstance(default, float):  # an int may stand for a float
        return isinstance(value, (int, float))
    return type(value) is type(default)


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10), st.floats(allow_nan=False),
    st.text(max_size=4), st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2))
CONFIG_FUZZ = settings(max_examples=80, deadline=None)
DEFAULT_CONFIGS = {"train": TrainConfig(), "synth": SynthConfig(n_samples=3)}


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("config_fuzz")


@CONFIG_FUZZ
@given(data=st.data(), which=st.sampled_from(sorted(DEFAULT_CONFIGS)))
def test_ill_typed_leaf_names_its_key_path(config_dir, data, which):
    default = DEFAULT_CONFIGS[which]
    doc = json.loads(json.dumps(asdict(default)))
    steps, old = data.draw(st.sampled_from([n for n in _nodes(doc) if n[0]]))
    node = doc
    for step in steps[:-1]:
        node = node[step]
    node[steps[-1]] = data.draw(JSON_VALUES.filter(lambda v: not _same_json_type(v, old)))
    f = config_dir / "c.json"
    f.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError) as info:
        _build(type(default), resolve_config(asdict(default), f, {}))
    assert f"'{_key_path(steps)}'" in str(info.value)


SEEDS = st.integers(0, 2 ** 32)
POSITIVE = st.floats(0.001, 10.0)


@st.composite
def train_configs(draw):
    epochs = draw(st.integers(3, 40))
    warm = draw(st.integers(0, epochs // 2))
    secondary = draw(st.integers(0, epochs - warm))
    start = draw(st.integers(0, epochs - 1))
    pushes = {e for e in draw(st.sets(st.integers(1, epochs), max_size=3)) if e > start}
    coefficients = LossCoefficients(crs_ent=draw(POSITIVE), clst=draw(POSITIVE),
                                    sep=draw(POSITIVE), ortho=draw(POSITIVE),
                                    l1=draw(POSITIVE))
    return TrainConfig(num_train_epochs=epochs, num_warm_epochs=warm,
                       num_secondary_warm_epochs=secondary, push_start=start,
                       push_epochs=tuple(sorted(pushes | {epochs})),
                       joint_prototype_lr=draw(POSITIVE),
                       batch_size=draw(st.integers(1, 64)),
                       coefficients=coefficients, seed=draw(SEEDS))


@st.composite
def synth_configs(draw):
    lo, hi = sorted(draw(st.lists(POSITIVE, min_size=2, max_size=2)))
    return SynthConfig(n_samples=draw(st.integers(1, 10 ** 6)), seed=draw(SEEDS),
                       spike_rate=draw(st.floats(0.0, 1.0)), sharp_width_ms=(lo, hi))


@CONFIG_FUZZ
@given(cfg=st.one_of(train_configs(), synth_configs()))
def test_valid_config_survives_the_file_round_trip(config_dir, cfg):
    assert _build(type(cfg), json.loads(json.dumps(asdict(cfg)))) == cfg
    f = config_dir / "valid.json"
    f.write_text(json.dumps(asdict(cfg)))
    default = DEFAULT_CONFIGS["train" if isinstance(cfg, TrainConfig) else "synth"]
    assert _build(type(cfg), resolve_config(asdict(default), f, {})) == cfg


class TestSynth:
    def test_artifacts_and_run_record(self, data_dir):
        names = {p.name for p in data_dir.iterdir()}
        assert {"dataset.peeg", "dataset.manifest.json",
                "resolved_config.json"} <= names
        doc = json.loads((data_dir / "resolved_config.json").read_text())
        assert doc["command"] == "synth"
        assert doc["seed"] == 7
        assert doc["config"]["n_samples"] == 60
        # recorded checksums match the artifacts on disk
        for rel, digest in doc["outputs"].items():
            assert _sha(data_dir / rel) == digest

    def test_n_samples_can_come_from_the_config_file(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n_samples": 8, "spike_rate": 1.0}))
        out = tmp_path / "out"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        samples, _ = load(out / "dataset.peeg")
        assert len(samples) == 8 and all(s.votes >= 1 for s in samples)

    def test_missing_n_is_usage_error(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "o")]) == 1
        assert "n_samples" in capsys.readouterr().err

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n_samples": 5, "spoke_rate": 0.5}))
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "spoke_rate" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["afile", "afile/sub"])
    def test_unwritable_out_is_file_error(self, tmp_path, capsys, target):
        # --out names a file (FileExistsError) or a path under one (NotADirectoryError)
        (tmp_path / "afile").touch()
        assert main(["synth", "--n", "3", "--out", str(tmp_path / target)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]
        assert (tmp_path / "afile").read_bytes() == b""

    def test_writes_stay_inside_out(self, tmp_path, monkeypatch):
        scratch = tmp_path / "cwd"
        scratch.mkdir()
        monkeypatch.chdir(scratch)
        assert main(["synth", "--n", "5", "--out", str(tmp_path / "o")]) == 0
        assert list(scratch.iterdir()) == []


class TestPreprocess:
    def test_npz_to_dataset(self, tmp_path):
        rng = np.random.default_rng(0)
        src = tmp_path / "raw.npz"
        np.savez(src, values=rng.normal(size=(4, 256, 37)),
                 sample_rate_hz=np.float64(256.0), votes=np.array([0, 3, 6, 8]))
        out = tmp_path / "prep"
        assert main(["preprocess", "--input", str(src), "--out", str(out)]) == 0
        samples, manifest = load(out / "dataset.peeg")
        assert samples[0].values.shape == (128, 37)
        assert manifest.sample_rate_hz == 128.0
        assert manifest.splits == {}  # splitting is a separate step
        assert [s.votes for s in samples] == [0, 3, 6, 8]

    def test_missing_key_is_format_error(self, tmp_path):
        src = tmp_path / "raw.npz"
        np.savez(src, values=np.zeros((2, 64, 37)))
        assert main(["preprocess", "--input", str(src),
                     "--out", str(tmp_path / "o")]) == 2

    def test_wrong_rank_is_format_error(self, tmp_path):
        src = tmp_path / "raw.npz"
        np.savez(src, values=np.zeros((64, 37)), sample_rate_hz=np.float64(64.0))
        assert main(["preprocess", "--input", str(src),
                     "--out", str(tmp_path / "o")]) == 2

    def test_zero_windows_is_format_error(self, tmp_path):
        src = tmp_path / "raw.npz"
        np.savez(src, values=np.zeros((0, 256, 37)), sample_rate_hz=np.float64(256.0))
        out = tmp_path / "o"
        assert main(["preprocess", "--input", str(src), "--out", str(out)]) == 2
        assert not (out / "dataset.peeg").exists()

    def test_empty_sample_rate_is_format_error(self, tmp_path, capsys):
        src = tmp_path / "raw.npz"
        np.savez(src, values=np.zeros((2, 256, 37)), sample_rate_hz=np.array([]))
        out = tmp_path / "o"
        assert main(["preprocess", "--input", str(src), "--out", str(out)]) == 2
        assert "sample_rate_hz" in capsys.readouterr().err
        assert not (out / "dataset.peeg").exists()

    def test_out_of_range_votes_is_format_error(self, tmp_path):
        src = tmp_path / "raw.npz"
        np.savez(src, values=np.zeros((2, 256, 37)), sample_rate_hz=np.float64(256.0),
                 votes=np.array([0, 12]))
        out = tmp_path / "o"
        assert main(["preprocess", "--input", str(src), "--out", str(out)]) == 2
        assert not (out / "dataset.peeg").exists()

    def test_duplicate_ids_are_format_error(self, tmp_path, capsys):
        src = tmp_path / "raw.npz"
        np.savez(src, values=np.zeros((3, 256, 37)), sample_rate_hz=np.float64(256.0),
                 ids=np.array([5, 5, 6]))
        out = tmp_path / "o"
        assert main(["preprocess", "--input", str(src), "--out", str(out)]) == 2
        assert "duplicate" in capsys.readouterr().err
        assert not (out / "dataset.peeg").exists()


    @pytest.mark.parametrize("arrays", [
        {"values": np.full((2, 256, 37), "a")},
        {"votes": np.array(["a", "b"])},
        {"votes": np.array([1.5, 2.0])},
        {"ids": np.array([-1, 2])},
        {"ids": np.array([2 ** 63, 2], dtype=np.uint64)},
        {"sample_rate_hz": np.float64("nan")},
        {"sample_rate_hz": np.float64(0.0)},
        {"values": np.zeros((2, 2, 37))},
        {"values": np.zeros((2, 256, 0))},
        {"values": np.zeros((2, 8, 37)), "sample_rate_hz": np.float64(4096.0)},
    ], ids=["string_values", "string_votes", "fractional_votes", "negative_id",
            "id_beyond_int64", "nan_sample_rate", "zero_sample_rate", "two_sample_windows",
            "zero_channels", "resamples_to_zero_samples"])
    def test_malformed_archive_is_format_error(self, tmp_path, capsys, arrays):
        src = tmp_path / "raw.npz"
        np.savez(src, **{"values": np.zeros((2, 256, 37)),
                         "sample_rate_hz": np.float64(256.0), **arrays})
        out = tmp_path / "o"
        assert main(["preprocess", "--input", str(src), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert next(iter(arrays)) in err
        assert not (out / "dataset.peeg").exists()

    def test_notch_above_nyquist_stays_a_config_error(self, tmp_path):
        src = tmp_path / "raw.npz"
        np.savez(src, values=np.zeros((2, 256, 37)), sample_rate_hz=np.float64(100.0))
        assert main(["preprocess", "--input", str(src),
                     "--out", str(tmp_path / "o")]) == 1


ENTRIES = {  # element strategy and dtype of each kind of archive array
    "float": (st.floats(-2.0, 10.0) | st.sampled_from([np.nan, np.inf, 0.5]), np.float64),
    "int": (st.integers(-2, 10), np.int64),
    "big": (st.sampled_from([2 ** 63, 2 ** 64 - 1, 7]), np.uint64),
    "str": (st.text(max_size=2), np.str_),
    "bool": (st.booleans(), np.bool_),
}


@st.composite
def archive_arrays(draw, shape):
    """An array of some element kind; one time in four of a shape other than `shape`."""
    if draw(st.integers(0, 3)) == 0:
        shape = tuple(draw(st.lists(st.integers(0, 3), max_size=4)))
    entries, dtype = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
    size = int(np.prod(shape))
    items = draw(st.lists(entries, min_size=size, max_size=size))
    return np.array(items, dtype=dtype).reshape(shape)


@st.composite
def spoilt(draw, whole_numbers):
    """A list of whole numbers with one entry swapped for a fraction, a value
    out of range or a non-finite one."""
    items = draw(whole_numbers)
    items[draw(st.integers(0, len(items) - 1))] = draw(st.sampled_from(
        [0.5, 2.25, 7.9, -1, 9, 2 ** 63, np.nan, np.inf]))
    return np.array(items)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_archive_preprocesses_or_is_a_format_error(data):
    def part(valid, malformed):  # well formed three times in four
        return data.draw(malformed if data.draw(st.integers(0, 3)) == 0 else valid)

    n = data.draw(st.integers(1, 3))
    shape = (n, data.draw(st.sampled_from([3, 8, 256])), data.draw(st.sampled_from([1, 3])))
    whole = st.sampled_from([np.int64, np.uint8, np.float64])
    votes = st.lists(st.integers(0, 8), min_size=n, max_size=n)
    ids = st.lists(st.integers(0, 2 ** 63 - 1), min_size=n, max_size=n, unique=True)
    arrays = {
        "values": part(st.just(np.random.default_rng(n).normal(size=shape)),
                       archive_arrays(shape)),
        # rates below twice the notch frequency are a config error, not a data error
        "sample_rate_hz": part(
            st.floats(121.0, 4096.0).map(np.float64),
            st.sampled_from([np.float64(np.nan), np.float64(np.inf), np.float64(0.0),
                             np.float64(-256.0), np.array([]), np.array(["256"]),
                             np.array([True])])),
        "votes": part(st.tuples(votes, whole).map(lambda v: np.array(v[0], dtype=v[1])),
                      archive_arrays((n,)) | spoilt(votes)),
        "ids": part(ids.map(np.array), archive_arrays((n,)) | spoilt(ids)),
    }
    for name in ("votes", "ids"):  # both are optional
        if data.draw(st.booleans()):
            del arrays[name]
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "raw.npz"
        np.savez(src, **arrays)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["preprocess", "--input", str(src), "--out", f"{tmp}/o"])
        assert code in (0, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 0:  # then every window keeps its votes and id exactly
            samples, _ = load(Path(tmp) / "o" / "dataset.peeg")
            assert [s.votes for s in samples] == list(arrays.get("votes", [0] * n))
            assert [s.sample_id for s in samples] == list(arrays.get("ids", range(n)))


class TestSplit:
    def test_resplit_preserves_acquisition_metadata(self, data_dir, tmp_path):
        out = tmp_path / "resplit"
        assert main(["split", "--data", str(data_dir), "--fractions",
                     "0.6", "0.2", "0.2", "--seed", "3", "--out", str(out)]) == 0
        _, old = load(data_dir / "dataset.peeg")
        samples, new = load(out / "dataset.peeg")
        assert new.sample_rate_hz == old.sample_rate_hz
        assert new.config_digest == old.config_digest
        assert new.seed == 3
        sizes = [len(new.ids_for(s)) for s in ("train", "val", "test")]
        assert sum(sizes) == len(samples) and sizes[0] > sizes[1]

    @pytest.mark.parametrize("edit", [
        lambda raw: raw["splits"].update({"seven": "train"}),
        lambda raw: raw.update(splits=["train", "val"]),
        lambda raw: raw.update(seed="three"),
        lambda raw: raw.update(time_steps=64, channel_count=5),
    ], ids=["non_integer_split_key", "splits_not_an_object", "ill_typed_seed",
            "shape_disagrees_with_container"])
    def test_malformed_manifest_is_format_error(self, data_dir, tmp_path, edit):
        bad = _copy_with_manifest(data_dir, tmp_path / "bad", edit)
        assert main(["split", "--data", str(bad), "--out", str(tmp_path / "o")]) == 2


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    return err


@pytest.fixture(scope="module")
def empty_splits(tmp_path_factory, data_dir):
    """The dataset re-split all-train (empty val) and all-test (empty train)."""
    out = tmp_path_factory.mktemp("cli_empty_splits")
    for name, fractions in (("no_val", "1 0 0"), ("no_train", "0 0 1")):
        assert main(["split", "--data", str(data_dir), "--fractions", *fractions.split(),
                     "--out", str(out / name)]) == 0
    return out


class TestEmptySplits:
    def test_empty_val_trains_without_validation(self, empty_splits, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(TINY))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--data",
                     str(empty_splits / "no_val"), "--out", str(out)]) == 0
        records = [json.loads(line)
                   for line in (out / "history.jsonl").read_text().splitlines()]
        assert len(records) == 2 and all(r["val"] is None for r in records)

    @pytest.mark.parametrize("command", ["train", "push", "report"])
    def test_empty_train_exits_one(self, command, empty_splits, run_dir, tmp_path,
                                   capsys):
        args = [command, "--data", str(empty_splits / "no_train"),
                "--out", str(tmp_path / "o")]
        if command != "train":
            args += ["--model", str(run_dir)]
        capsys.readouterr()
        assert main(args) == 1
        assert "train" in _one_line_error(capsys)


class TestTrain:
    def test_artifacts(self, run_dir):
        names = {p.name for p in run_dir.iterdir()}
        assert {"model.pegm", "history.jsonl", "resolved_config.json",
                "checkpoint_epoch004.pegm", "checkpoint_epoch006.pegm"} <= names
        doc = json.loads((run_dir / "resolved_config.json").read_text())
        assert doc["config"]["num_train_epochs"] == 6
        assert "dataset" in doc["inputs"]

    def test_artifacts_have_the_mode_of_a_plain_open(self, run_dir, data_dir, tmp_path):
        with open(tmp_path / "plain", "wb"):
            pass
        plain = stat.S_IMODE((tmp_path / "plain").stat().st_mode)
        files = [*run_dir.iterdir(), *data_dir.iterdir()]
        assert {stat.S_IMODE(p.stat().st_mode) for p in files} == {plain}
        assert not [p.name for p in files if p.name.startswith(".")]  # no temp file left

    def test_epochs_flag_beats_config_file(self, data_dir, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**CFG, "push_epochs": [4]}))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--data", str(data_dir),
                     "--epochs", "4", "--out", str(out)]) == 0
        lines = (out / "history.jsonl").read_text().strip().splitlines()
        assert len(lines) == 4

    def test_same_invocation_is_bit_identical(self, data_dir, cfg_file, tmp_path):
        digests = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train", "--config", str(cfg_file),
                         "--data", str(data_dir), "--out", str(out)]) == 0
            digests.append({p.name: _sha(p) for p in sorted(out.iterdir())})
        assert digests[0] == digests[1]
        assert "model.pegm" in digests[0]

    def test_unknown_config_key_names_it(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"warm_lr": 0.1}))
        assert main(["train", "--config", str(cfg), "--data", str(data_dir),
                     "--out", str(tmp_path / "o")]) == 1
        assert "warm_lr" in capsys.readouterr().err

    def test_negative_coefficient_exits_one(self, data_dir, tmp_path, capsys):
        # a negative l1 makes the refit objective unbounded below
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**TINY, "coefficients": {"l1": -1}}))
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--data", str(data_dir),
                     "--out", str(tmp_path / "o")]) == 1
        assert "l1" in _one_line_error(capsys)
        assert not (tmp_path / "o" / "model.pegm").exists()

    def test_missing_class_exits_one_before_any_epoch(self, tmp_path, capsys,
                                                      monkeypatch):
        # seed 0's 60 windows hold no class-4 window; the default schedule
        # would train 110 epochs before its first push
        assert main(["synth", "--n", "60", "--seed", "0", "--out", str(tmp_path / "d")]) == 0
        assert main(["split", "--data", str(tmp_path / "d"), "--fractions", "1", "0", "0",
                     "--out", str(tmp_path / "s")]) == 0
        monkeypatch.setattr("protoeeg.training._epoch_pass",
                            lambda *a, **k: pytest.fail("an epoch trained"))
        capsys.readouterr()
        out = tmp_path / "o"
        assert main(["train", "--data", str(tmp_path / "s"), "--out", str(out)]) == 1
        assert "class 4 has no training samples" in _one_line_error(capsys)
        assert not list(out.glob("*.pegm")) and not (out / "history.jsonl").exists()

    def test_missing_dataset_is_format_error(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_manifest_naming_an_absent_sample_is_format_error(self, data_dir, cfg_file,
                                                              tmp_path, capsys):
        bad = _copy_with_manifest(data_dir, tmp_path / "bad",
                                  lambda raw: raw["splits"].update({"4242": "train"}))
        assert main(["train", "--config", str(cfg_file), "--data", str(bad),
                     "--out", str(tmp_path / "o")]) == 2
        assert "4242" in capsys.readouterr().err


class TestEval:
    def test_metrics_and_scores(self, run_dir, data_dir, tmp_path, capsys):
        out = tmp_path / "ev"
        assert main(["eval", "--model", str(run_dir), "--data", str(data_dir),
                     "--rounds", "300", "--out", str(out)]) == 0
        assert "AUROC (unfiltered):" in capsys.readouterr().out
        metrics = json.loads((out / "metrics.json").read_text())
        assert {"auroc_unfiltered", "ci_unfiltered", "auroc_filtered",
                "ci_filtered", "n_test", "n_filtered", "seed",
                "rounds"} <= set(metrics)
        assert metrics["rounds"] == 300
        rows = json.loads((out / "scores.json").read_text())
        assert len(rows) == metrics["n_test"]
        assert {"sample_id", "p_pos", "p_neg", "label", "votes"} <= set(rows[0])

    def test_filtered_flag_changes_headline(self, run_dir, data_dir, tmp_path,
                                            capsys):
        assert main(["eval", "--model", str(run_dir), "--data", str(data_dir),
                     "--rounds", "200", "--filtered",
                     "--out", str(tmp_path / "ev")]) == 0
        assert "AUROC (filtered):" in capsys.readouterr().out

    def test_val_split_selectable(self, run_dir, data_dir, tmp_path):
        out = tmp_path / "ev"
        assert main(["eval", "--model", str(run_dir), "--data", str(data_dir),
                     "--split", "val", "--rounds", "200", "--out", str(out)]) == 0
        _, manifest = load(data_dir / "dataset.peeg")
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["n_test"] == len(manifest.ids_for("val"))

    def test_model_header_without_backbone_is_format_error(self, run_dir, data_dir,
                                                           tmp_path):
        model = tmp_path / "model.pegm"
        model.write_bytes((run_dir / "model.pegm").read_bytes())
        rewrite_header(model, {"drop": "backbone"})
        assert main(["eval", "--model", str(model), "--data", str(data_dir),
                     "--rounds", "200", "--out", str(tmp_path / "ev")]) == 2

    def test_header_disagreeing_with_blocks_is_format_error(self, run_dir, data_dir,
                                                           tmp_path, capsys):
        model = tmp_path / "model.pegm"
        model.write_bytes((run_dir / "model.pegm").read_bytes())
        rewrite_header(model, {"set": ("provenance", [None])})
        assert main(["eval", "--model", str(model), "--data", str(data_dir),
                     "--rounds", "200", "--out", str(tmp_path / "ev")]) == 2
        err = capsys.readouterr().err
        assert "header" in err and "Traceback" not in err

    def test_non_utf8_manifest_is_format_error(self, run_dir, data_dir, tmp_path,
                                              capsys):
        bad = _copy_with_manifest(data_dir, tmp_path / "bad", lambda raw: None)
        (bad / "dataset.manifest.json").write_bytes(b"\xff\xfe{}")
        assert main(["eval", "--model", str(run_dir), "--data", str(bad),
                     "--rounds", "200", "--out", str(tmp_path / "ev")]) == 2
        err = capsys.readouterr().err
        assert "manifest" in err and len(err.splitlines()) == 1

    def test_missing_model_is_format_error(self, data_dir, tmp_path):
        assert main(["eval", "--model", str(tmp_path / "nope.pegm"),
                     "--data", str(data_dir), "--out", str(tmp_path / "o")]) == 2


class TestPush:
    def test_push_records_and_model(self, run_dir, data_dir, tmp_path):
        out = tmp_path / "push"
        assert main(["push", "--model", str(run_dir), "--data", str(data_dir),
                     "--out", str(out)]) == 0
        records = json.loads((out / "push_records.json").read_text())
        model = load_model(out / "model.pegm")
        assert len(records) == model.bank.count
        assert all(rec["similarity"] <= 1.0 for rec in records)
        assert all(rec is not None for rec in model.bank.provenance)


class TestExplain:
    def test_renders_three_formats(self, run_dir, data_dir, tmp_path):
        samples, manifest = load(data_dir / "dataset.peeg")
        sid = manifest.ids_for("test")[0]
        out = tmp_path / "ex"
        assert main(["explain", "--model", str(run_dir), "--data", str(data_dir),
                     "--sample-id", str(sid), "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert {f"explain_{sid}.json", f"explain_{sid}.svg",
                f"explain_{sid}.txt", "resolved_config.json"} == names

    def test_ascii_locale_writes_utf8(self, run_dir, data_dir, tmp_path):
        # the SVG holds non-ASCII text; an ASCII locale must not decide its encoding
        _, manifest = load(data_dir / "dataset.peeg")
        sid = manifest.ids_for("test")[0]
        out = tmp_path / "ex"
        src = str(Path(protoeeg.__file__).resolve().parents[1])
        env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
               "PYTHONUTF8": "0", "PYTHONPATH": src}
        code = ("import sys; from protoeeg.cli import main; "
                "sys.exit(main(sys.argv[1:]))")
        proc = subprocess.run(
            [sys.executable, "-c", code, "explain", "--model", str(run_dir),
             "--data", str(data_dir), "--sample-id", str(sid), "--out", str(out)],
            env=env, capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        svg = (out / f"explain_{sid}.svg").read_bytes().decode("utf-8")
        assert not svg.isascii()

    def test_absent_sample_is_data_error(self, run_dir, data_dir, tmp_path,
                                         capsys):
        assert main(["explain", "--model", str(run_dir), "--data", str(data_dir),
                     "--sample-id", "424242", "--out", str(tmp_path / "o")]) == 2
        assert "424242" in capsys.readouterr().err


class TestReport:
    def test_prototype_report(self, run_dir, data_dir, tmp_path):
        out = tmp_path / "rep"
        assert main(["report", "--model", str(run_dir), "--data", str(data_dir),
                     "--out", str(out)]) == 0
        doc = json.loads((out / "prototype_report.json").read_text())
        model = load_model(run_dir / "model.pegm")
        assert len(doc["prototypes"]) == model.bank.count
        assert set(doc["flagged"]) <= set(range(model.bank.count))


def _write_mode(call: ast.Call) -> bool:
    """Whether an open() call passes a mode that writes (or one not spelt out)."""
    modes = [a for a in call.args if isinstance(a, ast.Constant)
             and isinstance(a.value, str) and re.fullmatch(r"[rwxabt+]+", a.value)]
    modes += [k.value for k in call.keywords if k.arg in ("mode", "flags")]
    for mode in modes:
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
            return True
        if set(mode.value) & set("wax+"):
            return True
    return False


def test_text_io_names_an_encoding():
    """Every read_text call in the package passes an encoding, and only
    container.py writes files or checksums them, so no artifact depends on
    the locale and every artifact is written atomically."""
    package = Path(protoeeg.__file__).resolve().parent
    unnamed, writers = [], []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if path.name != "container.py" and isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = ([a.name for a in node.names] if isinstance(node, ast.Import)
                           else [node.module])
                if "zlib" in modules:
                    writers.append(f"{where} imports zlib")
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "read_text" and not node.args and not any(
                    k.arg == "encoding" for k in node.keywords):
                unnamed.append(where)
            if path.name == "container.py":
                continue
            if name in ("write_text", "write_bytes") or (name == "open" and _write_mode(node)):
                writers.append(f"{where} calls {name}")
    assert not unnamed, f"text I/O without an encoding at {unnamed}"
    assert not writers, f"artifact I/O outside container.py: {writers}"


def _reads_prototypes(node, aliases) -> bool:
    """Whether an expression reads ``<x>.vectors.data`` or a name bound to it."""
    return any((isinstance(n, ast.Attribute) and n.attr == "data"
                and isinstance(n.value, ast.Attribute) and n.value.attr == "vectors")
               or (isinstance(n, ast.Name) and n.id in aliases)
               for n in ast.walk(node))


def test_one_similarity_product():
    """Off the autodiff tape only model.similarities multiplies latents by the
    prototype matrix, so the push, the refit and every report see the bits the
    classifier scores with."""
    package = Path(protoeeg.__file__).resolve().parent
    products = []
    for path in sorted(package.glob("*.py")):
        if path.name == "model.py":
            continue
        tree = ast.parse(path.read_text("utf-8"))
        aliases = set()
        for node in ast.walk(tree):  # names bound to a view such as bank.vectors.data.T
            if (isinstance(node, ast.Assign)
                    and isinstance(node.value, (ast.Attribute, ast.Subscript))
                    and _reads_prototypes(node.value, aliases)):
                aliases |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                operands = [node.left, node.right]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("matmul", "dot")
                  and getattr(node.func.value, "id", None) in ("np", "numpy")):
                operands = node.args
            else:
                continue
            if any(_reads_prototypes(op, aliases) for op in operands):
                products.append(f"{path.name}:{node.lineno}")
    assert not products, f"latent x prototype products outside model.py: {products}"
