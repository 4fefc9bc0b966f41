"""Artifact I/O: one framed binary container and one atomic write.

Datasets (magic ``PEEG``) and checkpoints (``PEGM``) share one little-endian
frame, ``magic | u32 version | u32 field ... | payload | sha256 of all before``,
whose fields are the format's own header integers.  A reader maps the file
read-only and hashes it once: that hash checks the trailer and, finished with
it, is the file's ``sha256sum`` for the run record.  Every write goes to a
temp file beside the target, renamed over it, so a process that dies or
raises mid-write leaves the old file or the new one, never a truncated one.
Nothing is fsynced: power loss is not covered.  As files are only replaced
by renaming, a mapped file never changes under its reader, and a command may
write over its own input; a file that another program truncates in place
while it is mapped is outside this contract (SIGBUS).

While a record is open (:func:`recording`, one per CLI call), each write adds
its path and sha256 to the record's outputs, and each read its ``what`` and
(path, sha256) to the inputs: digests taken as the bytes moved, never by
reading a file again.  With no record open, nothing is recorded.

Every JSON document read (config, manifest, checkpoint header) goes through
:func:`loads` and :func:`decode`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import mmap
import os
import struct
from contextlib import contextmanager
from pathlib import Path

from .errors import DataFormatError

_TRAILER = hashlib.sha256().digest_size
_record = None  # (inputs, outputs) of the open record, or None


@contextmanager
def recording():
    """Open a record until the block exits; yields its ``(inputs, outputs)``."""
    global _record
    _record = ({}, {})
    try:
        yield _record
    finally:
        _record = None


def _write(path, chunks, digest) -> None:
    """Write `chunks` to a temp file beside `path` and rename it over `path`;
    if a record is open, record ``digest()``, the chunks' sha256 hex digest."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    if _record is not None:
        _record[1][path] = digest()


def write_atomic(path, *chunks) -> None:
    """Write bytes-like or str (as UTF-8) chunks; mode as from ``open(path, "wb")``."""
    chunks = [c.encode("utf-8") if isinstance(c, str) else c for c in chunks]
    _write(path, chunks, lambda: hashlib.sha256(b"".join(chunks)).hexdigest())


def write_json(path, doc) -> None:
    write_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def loads(blob, error, noun: str):
    """The JSON document in `blob`, a str or UTF-8 bytes.  An object that
    repeats a key raises `error` naming the key, since the later value would
    silently replace the earlier; a blob that is not UTF-8 JSON raises
    DataFormatError.  `noun` opens each message."""
    def unique(pairs):
        doc = dict(pairs)
        if len(doc) < len(pairs):
            seen = set()
            key = next(k for k, _ in pairs if k in seen or seen.add(k))
            raise error(f"{noun} repeats the key {key!r}")
        return doc

    try:
        return json.loads(blob if isinstance(blob, str) else str(blob, "utf-8"),
                          object_pairs_hook=unique)
    except ValueError as exc:  # not UTF-8, not JSON, or an int of over 4300 digits
        raise DataFormatError(f"{noun} is not valid JSON: {exc}") from exc


def _key(noun: str, steps) -> str:
    """`noun` and the key path of `steps`: ``config key 'push_epochs[0]'``."""
    path = "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in steps)[1:]
    return f"{noun} key {path!r}" if steps else noun


def decode(template, value, error, noun: str, steps=()):
    """`value`, parsed JSON, checked leaf by leaf against `template` (a
    config's defaults, or an example artifact) and built into its types;
    `error` names the first wrong value by its key path after `noun`.

    Each value needs its template's JSON type: an int may stand for a float
    and is read as one, a bool for no number, NaN or an infinity for
    nothing.  A dataclass needs every field and no other key; its
    ``__post_init__`` checks what a type cannot.  A dict of config defaults
    takes any of its keys; the others keep their defaults.  List elements
    match the template list's first, and may be null if it also holds None
    (an unpushed prototype's provenance).
    """
    if isinstance(template, str):
        want, ok = "a string", isinstance(value, str)
    elif isinstance(template, bool):
        want, ok = "a boolean", isinstance(value, bool)
    elif isinstance(template, int):
        want, ok = "an integer", isinstance(value, int) and not isinstance(value, bool)
    elif isinstance(template, float):
        want = "a number"
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    elif isinstance(template, (list, tuple)):
        want, ok = "a list", isinstance(value, (list, tuple))
    else:  # a dataclass or a dict
        want, ok = "an object", isinstance(value, dict)
    if not ok:
        raise error(f"{_key(noun, steps)} expects {want}, got {type(value).__name__}")
    if isinstance(template, (str, int)):  # a bool is an int
        return value
    if isinstance(template, float):
        try:
            value = float(value)
        except OverflowError:  # an int beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise error(f"{_key(noun, steps)} expects a finite number, got {value}")
        return value
    if isinstance(template, (list, tuple)):
        nullable = None in template
        items = [None if v is None and nullable
                 else decode(template[0], v, error, noun, (*steps, i))
                 for i, v in enumerate(value)]
        return tuple(items) if isinstance(template, tuple) else items
    names = (template.keys() if isinstance(template, dict)
             else [f.name for f in dataclasses.fields(template)])
    for sub in value:
        if sub not in names:
            raise error(f"unknown {_key(noun, (*steps, sub))}")
    if isinstance(template, dict):
        return {**template, **{sub: decode(template[sub], v, error, noun, (*steps, sub))
                               for sub, v in value.items()}}
    for sub in names:
        if sub not in value:
            raise error(f"{_key(noun, (*steps, sub))} is missing")
    kwargs = {sub: decode(getattr(template, sub), value[sub], error, noun, (*steps, sub))
              for sub in names}
    try:
        return type(template)(**kwargs)
    except (TypeError, ValueError) as exc:
        raise error(f"bad {noun} value: {exc}") from exc


def write_framed(path, magic: bytes, version: int, fields, payload) -> str:
    """Write one frame; return the sha256 hex digest of the whole file."""
    head = struct.pack(f"<4sI{len(fields)}I", magic, version, *fields)
    sha = hashlib.sha256(head)
    sha.update(payload)
    trailer = sha.digest()
    sha.update(trailer)
    _write(path, (head, payload, trailer), sha.hexdigest)
    return sha.hexdigest()


def read_bytes(path, what: str) -> bytes:
    """The bytes of `path`, recorded as input `what` if a record is open."""
    blob = Path(path).read_bytes()
    if _record is not None:
        _record[0][what] = (path, hashlib.sha256(blob).hexdigest())
    return blob


def read_framed(path, magic: bytes, version: int, n_fields: int, what: str,
                payload_size=None) -> tuple[tuple[int, ...], memoryview, str]:
    """Check one framed file; return its fields, a read-only view of its
    payload in the mapped file, which must be ``payload_size(*fields)`` bytes
    long if that is given, and the sha256 hex digest of the whole file."""
    try:
        with open(path, "rb") as fh:
            blob = memoryview(mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ))
    except OSError as exc:
        raise DataFormatError(f"cannot read {what} file {path}: {exc.strerror}") from exc
    except ValueError as exc:  # mmap refuses an empty file
        raise DataFormatError(f"{what} file truncated: header incomplete") from exc
    head = struct.Struct(f"<4sI{n_fields}I")
    if len(blob) < head.size + _TRAILER:
        raise DataFormatError(f"{what} file truncated: header incomplete")
    found, found_version, *fields = head.unpack_from(blob)
    if found != magic:
        raise DataFormatError(f"bad magic bytes {found!r}, expected {magic!r}")
    if found_version != version:
        raise DataFormatError(f"unsupported {what} version {found_version}")
    expected = head.size + payload_size(*fields) + _TRAILER if payload_size else len(blob)
    if len(blob) != expected:
        raise DataFormatError(
            f"{what} payload truncated: expected {expected} bytes, got {len(blob)}")
    sha = hashlib.sha256(blob[:-_TRAILER])
    if sha.digest() != blob[-_TRAILER:]:
        raise DataFormatError(f"checksum mismatch in {what} file")
    sha.update(blob[-_TRAILER:])
    if _record is not None:
        _record[0][what] = (path, sha.hexdigest())
    return tuple(fields), blob[head.size:-_TRAILER], sha.hexdigest()
