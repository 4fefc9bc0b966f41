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
"""

from __future__ import annotations

import hashlib
import json
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
