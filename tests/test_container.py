"""The framed container, the atomic write, and fuzzing of the readers built
on them: a malformed dataset, checkpoint or manifest raises DataFormatError
and nothing else."""

import builtins
import errno
import hashlib
import json
import struct
import zlib
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from conftest import key_path, rewrite_header, same_json_type
from protoeeg import dataset as ds
from protoeeg import model as m
from protoeeg.cli import main
from protoeeg.container import read_framed, write_atomic, write_framed, write_json
from protoeeg.errors import DataFormatError

FUZZ = settings(max_examples=60, deadline=None)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A valid dataset container (with its sidecar) and a valid checkpoint."""
    root = tmp_path_factory.mktemp("valid")
    samples, manifest = ds.generate_synthetic(ds.SynthConfig(n_samples=6, seed=1))
    ds.save(samples, manifest, root / "d.peeg")
    net = m.ProtoEEGNet.initialize(seed=0)
    net.bank.provenance[0] = m.PushRecord(0, 0, 3, 0.5, 2)  # the others not yet pushed
    m.save_model(net, root / "m.pegm")
    return root


# ---------------------------------------------------------------------------
# writing


def test_framed_roundtrip(tmp_path):
    path = tmp_path / "x.bin"
    write_framed(path, b"TEST", 7, (3, 4), bytearray(b"abcdefghijkl"))
    fields, payload, _ = read_framed(path, b"TEST", 7, 2, "test", lambda a, b: a * b)
    assert fields == (3, 4) and bytes(payload) == b"abcdefghijkl"
    with pytest.raises(DataFormatError, match="truncat"):
        read_framed(path, b"TEST", 7, 2, "test", lambda a, b: a * b + 1)
    with pytest.raises(DataFormatError, match="version"):
        read_framed(path, b"TEST", 8, 2, "test")


def test_trailer_is_the_sha256_of_the_bytes_before_it(tmp_path):
    path = tmp_path / "x.bin"
    digest = write_framed(path, b"TEST", 7, (3,), b"abc")
    blob = path.read_bytes()
    assert blob[-32:] == hashlib.sha256(blob[:-32]).digest()
    assert digest == hashlib.sha256(blob).hexdigest() == read_framed(
        path, b"TEST", 7, 1, "test")[2]


def test_write_atomic_makes_the_directory_and_encodes_text(tmp_path):
    path = tmp_path / "a" / "b" / "x.txt"
    write_atomic(path, "µV ", b"raw")
    assert path.read_bytes() == "µV ".encode("utf-8") + b"raw"
    write_json(path, {"b": 1, "a": [None]})
    assert path.read_text("utf-8") == '{\n  "a": [\n    null\n  ],\n  "b": 1\n}\n'
    assert [p.name for p in path.parent.iterdir()] == ["x.txt"]


def test_save_model_failing_part_way_keeps_the_old_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "model.pegm"
    m.save_model(m.ProtoEEGNet.initialize(seed=0), path)
    old = path.read_bytes()
    newer = m.ProtoEEGNet.initialize(seed=1)
    real_open = builtins.open

    class DiskFull:
        """A file that takes its first write and fails on the next."""

        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes > 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            return self.fh.write(data)

    def flaky_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return DiskFull(fh) if set(mode) & set("wax+") else fh

    with monkeypatch.context() as patch:
        patch.setattr(builtins, "open", flaky_open)
        with pytest.raises(OSError, match="No space"):
            m.save_model(newer, path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["model.pegm"]


# ---------------------------------------------------------------------------
# damaged files through the command line: exit 2 with one line


def _version_1(path, n_fields) -> None:
    """Rewrite a frame as the version-1 format framed it: a CRC32 trailer."""
    blob = path.read_bytes()
    head = struct.Struct(f"<4sI{n_fields}I")
    magic, _, *fields = head.unpack_from(blob)
    payload = blob[head.size:-32]
    path.write_bytes(head.pack(magic, 1, *fields) + payload
                     + struct.pack("<I", zlib.crc32(payload)))


def _flip(offset):
    def edit(path):
        blob = bytearray(path.read_bytes())
        blob[offset] ^= 0x01
        path.write_bytes(bytes(blob))
    return edit


DAMAGE = {
    "header_flip": _flip(9),
    "payload_flip": _flip(100),
    "trailer_flip": _flip(-1),
    "empty": lambda path: path.write_bytes(b""),
}


@pytest.mark.parametrize("damage", sorted(DAMAGE) + ["version_1"])
@pytest.mark.parametrize("which", ["dataset", "model"])
def test_damaged_frame_exits_two(valid, tmp_path, capsys, which, damage):
    for name in ("d.peeg", "d.manifest.json", "m.pegm"):
        (tmp_path / name).write_bytes((valid / name).read_bytes())
    data, model = tmp_path / "d.peeg", tmp_path / "m.pegm"
    path = data if which == "dataset" else model
    if damage == "version_1":
        _version_1(path, 3 if which == "dataset" else 1)
    else:
        DAMAGE[damage](path)
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--data", str(data),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    if damage == "version_1":
        assert f"unsupported {which} version 1" in err
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# fuzzing


def _mutate(data, blob: bytes, hot: int) -> bytes:
    """Truncate, flip one bit, or splice in random bytes; positions favour
    the first `hot` bytes, where the headers live."""
    n = len(blob)
    pos = st.one_of(st.integers(0, min(hot, n - 1)), st.integers(0, n - 1))
    kind = data.draw(st.sampled_from(("truncate", "flip", "splice")))
    if kind == "truncate":
        return blob[:data.draw(pos)]
    if kind == "flip":
        i = data.draw(pos)
        return blob[:i] + bytes([blob[i] ^ 1 << data.draw(st.integers(0, 7))]) + blob[i + 1:]
    lo = data.draw(pos)
    hi = data.draw(st.integers(lo, min(n, lo + 32)))
    return blob[:lo] + data.draw(st.binary(max_size=32)) + blob[hi:]


def _fuzz(data, path, load, magic, version, n_fields, hot):
    """Mutate the file at `path`, either raw or re-framed under a valid trailer
    (with its fields possibly changed), and load it."""
    original = path.read_bytes()
    try:
        if data.draw(st.booleans(), label="reframe"):
            fields, payload, _ = read_framed(path, magic, version, n_fields, "fuzz")
            field = st.one_of(st.integers(0, 300), st.integers(0, 2**32 - 1))
            fields = tuple(data.draw(st.one_of(st.just(f), field)) for f in fields)
            write_framed(path, magic, version, fields, _mutate(data, bytes(payload), hot))
            try:
                load(path)
            except DataFormatError:
                pass
        else:
            mutated = _mutate(data, original, hot)
            path.write_bytes(mutated)
            if mutated != original:  # the frame itself must catch every raw change
                with pytest.raises(DataFormatError):
                    load(path)
    finally:
        path.write_bytes(original)


@FUZZ
@given(data=st.data())
def test_fuzzed_dataset_raises_only_format_errors(valid, data):
    _fuzz(data, valid / "d.peeg", ds.load, ds.MAGIC, ds.FORMAT_VERSION, 3, hot=64)


@FUZZ
@given(data=st.data())
def test_fuzzed_checkpoint_raises_only_format_errors(valid, data):
    header_len = read_framed(valid / "m.pegm", m.MODEL_MAGIC, m.MODEL_VERSION, 1,
                             "model")[0][0]
    _fuzz(data, valid / "m.pegm", m.load_model, m.MODEL_MAGIC, m.MODEL_VERSION, 1,
          hot=header_len)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids,
                                                              max_size=3),
    max_leaves=8)
# values that have broken a field parser: non-finite and huge numbers, wrong shapes
EDGE = st.sampled_from([float("inf"), float("-inf"), float("nan"), 2**70, -1, 1.5, True,
                        None, "", "7", [], {}, {"0": "train"}, {"x": "val"}, {"1": "all"}])


@FUZZ
@given(text=st.one_of(st.text(), JSON.map(json.dumps)))
def test_manifest_from_arbitrary_text(text):
    try:
        ds.DatasetManifest.from_json(text)
    except DataFormatError:
        pass


def _replace_somewhere(data, doc, steps=()):
    """(steps, old value) of one random path inside the object or list `doc`,
    whose value there is replaced in place."""
    key = data.draw(st.sampled_from(sorted(doc) if isinstance(doc, dict)
                                    else range(len(doc))))
    old = doc[key]
    if isinstance(old, (dict, list)) and old and data.draw(st.integers(0, 3)):
        return _replace_somewhere(data, old, (*steps, key))
    doc[key] = data.draw(st.one_of(EDGE, JSON))
    return (*steps, key), old


def _at(doc, steps):
    for step in steps:
        doc = doc[step]
    return doc


def _reads_back_or_names(read, doc, steps, old, nullable=False) -> None:
    """`read()` parses `doc`, whose value at `steps` replaced `old`, and
    returns its own encoding.  A replacement of another JSON type (null is
    of any type where `nullable`) must raise a DataFormatError naming its key
    path; any other must raise one or read back unchanged."""
    new = _at(doc, steps)
    same = same_json_type(new, old) or (nullable and new is None)
    try:
        back = read()
    except DataFormatError as exc:
        assert same or f"'{key_path(steps)}" in str(exc), (steps, new, exc)
        return
    assert same, (steps, new)
    assert _at(back, steps) == (float(new) if isinstance(old, float) else new), (steps, new)


@FUZZ
@given(data=st.data())
def test_manifest_with_one_field_replaced(valid, data):
    raw = json.loads(ds.manifest_path(valid / "d.peeg").read_text("utf-8"))
    key = data.draw(st.sampled_from(sorted(raw)))
    old, raw[key] = raw[key], data.draw(st.one_of(EDGE, JSON))
    _reads_back_or_names(
        lambda: json.loads(json.dumps(asdict(ds.DatasetManifest.from_json(json.dumps(raw))))),
        raw, (key,), old)


def _header(path) -> dict:
    (header_len,), payload, _ = read_framed(path, m.MODEL_MAGIC, m.MODEL_VERSION, 1,
                                            "model")
    return json.loads(bytes(payload[:header_len]))


@FUZZ
@given(data=st.data())
def test_checkpoint_header_with_one_value_replaced(valid, data):
    path = valid / "m.pegm"
    original = path.read_bytes()
    header = _header(path)
    steps, old = _replace_somewhere(data, header)
    try:
        rewrite_header(path, {"set": (steps[0], header[steps[0]])})

        def read():
            m.save_model(m.load_model(path), valid / "again.pegm")
            return _header(valid / "again.pegm")
        # a prototype not yet pushed has a null provenance
        _reads_back_or_names(read, header, steps, old,
                             nullable=len(steps) == 2 and steps[0] == "provenance")
    finally:
        path.write_bytes(original)
