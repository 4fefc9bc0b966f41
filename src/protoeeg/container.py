"""Artifact I/O: one framed binary container and one atomic write.

Datasets (magic ``PEEG``) and checkpoints (``PEGM``) share one little-endian
frame, ``magic | u32 version | u32 field ... | payload | u32 crc32(payload)``,
whose fields are the format's own header integers.  Every artifact goes
through :func:`write_atomic`: a temp file beside the target, renamed over
it, so a process that dies or raises mid-write leaves the old file or the
new one, never a truncated one.  Nothing is fsynced: power loss is not covered.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path

from .errors import DataFormatError

_CRC = struct.Struct("<I")


def write_atomic(path, *chunks) -> None:
    """Write bytes-like or str (as UTF-8) chunks; mode as from ``open(path, "wb")``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            for chunk in chunks:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, doc) -> None:
    write_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_framed(path, magic: bytes, version: int, fields, payload) -> None:
    head = struct.pack(f"<4sI{len(fields)}I", magic, version, *fields)
    write_atomic(path, head, payload, _CRC.pack(zlib.crc32(payload)))


def read_framed(path, magic: bytes, version: int, n_fields: int, what: str,
                payload_size=None, sha=None) -> tuple[tuple[int, ...], memoryview]:
    """Check one framed file; return its fields and a view of its payload,
    which must be ``payload_size(*fields)`` bytes long if that is given.
    A ``hashlib`` object ``sha`` is updated with the file's bytes as read."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise DataFormatError(f"cannot read {what} file {path}: {exc.strerror}") from exc
    if sha is not None:
        sha.update(blob)
    head = struct.Struct(f"<4sI{n_fields}I")
    if len(blob) < head.size + _CRC.size:
        raise DataFormatError(f"{what} file truncated: header incomplete")
    found, found_version, *fields = head.unpack_from(blob)
    if found != magic:
        raise DataFormatError(f"bad magic bytes {found!r}, expected {magic!r}")
    if found_version != version:
        raise DataFormatError(f"unsupported {what} version {found_version}")
    expected = head.size + payload_size(*fields) + _CRC.size if payload_size else len(blob)
    if len(blob) != expected:
        raise DataFormatError(
            f"{what} payload truncated: expected {expected} bytes, got {len(blob)}")
    payload = memoryview(blob)[head.size:-_CRC.size]
    (stored,) = _CRC.unpack_from(blob, len(blob) - _CRC.size)
    if zlib.crc32(payload) != stored:
        raise DataFormatError(f"checksum mismatch in {what} file")
    return tuple(fields), payload
