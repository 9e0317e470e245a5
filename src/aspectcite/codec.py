"""Atomic writes, the one JSON writer, and the checkpoint and state file format.

Every file the package writes goes through `write_atomically`, which opens a
randomly named temp file beside the target with mode 0o666, so the umask
sets its mode as for a plain `open()`, and renames it over the target once
written. Every JSON file goes through `write_json`: sorted keys, indent 1
(None: compact), one trailing newline.

Each artifact is two files:

- the header, one JSON object written by `write_json` (indent 1). A
  top-level "format" marker names the file kind and version, each tensor is
  an entry {"shape": [d0, d1, ...]}, and "sidecar" records the byte length
  and sha256 of the second file;
- the sidecar, named after the header with its suffix replaced by ".bin"
  (checkpoint.json -> checkpoint.bin). It holds the C-order little-endian
  float64 bytes of every tensor, concatenated in the order the writer lists
  them. Its name is derived, not stored, so the header's bytes do not depend
  on the directory or the file name.

A save streams each tensor's bytes into the temp sidecar and into one
sha256, so no joined copy of the tensors is made. A load reads the sidecar
once, into one float64 buffer, checks its length and sha256 against the
header, and returns views into that buffer, one per tensor; the bytes are
swapped in place only on a big-endian host. So a float round-trips bit for
bit, nothing parses one JSON number or base64 character per entry, and no
tensor is copied after the read. A save renames the sidecar
into place before the header, so a crash between the two leaves the old
header beside a new sidecar, which the sha256 check rejects. A header with a
missing or different marker, including the earlier base64 and
one-float-per-entry list formats, is rejected, not converted.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

__all__ = [
    "write_atomically", "write_json", "sidecar_path", "tensor_entry", "write_artifact", "read_payload",
    "read_tensors",
]

_WIRE_DTYPE = np.dtype("<f8")


def write_atomically(path, write) -> None:
    """Call write(tmp) on a fresh temp file beside path, then rename it over path.

    The temp name is unique, so concurrent runs sharing a directory never
    write into each other's files; if write raises, the temp file is removed
    and any existing file at path is left untouched.
    """
    head, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(head, f".{name}.{os.urandom(6).hex()}")
    os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_json(path, payload, indent: int | None = 1) -> None:
    """Write payload as JSON with sorted keys and a trailing newline; indent None is compact."""
    text = json.dumps(payload, sort_keys=True, indent=indent) + "\n"

    def write(tmp: str) -> None:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)

    write_atomically(path, write)


def sidecar_path(path) -> str:
    root, suffix = os.path.splitext(os.fspath(path))
    if suffix == ".bin":
        raise ValueError(f"{path}: a header cannot end in .bin, the suffix of its tensor sidecar")
    return root + ".bin"


def tensor_entry(array) -> dict:
    """The header entry of a tensor whose bytes go into the sidecar."""
    return {"shape": list(np.shape(array))}


def write_artifact(path, fmt: str, payload: dict, tensors) -> None:
    """Write tensors, in order, as the sidecar of path, then payload as its header.

    payload holds each tensor's tensor_entry wherever the format puts it.
    """
    digest, size = hashlib.sha256(), 0

    def write(tmp: str) -> None:
        nonlocal size
        with open(tmp, "wb") as fh:
            for tensor in tensors:
                wire = np.ascontiguousarray(tensor, dtype=_WIRE_DTYPE)
                digest.update(wire)
                fh.write(wire)
                size += wire.nbytes

    write_atomically(sidecar_path(path), write)
    header = {"format": fmt, **payload, "sidecar": {"bytes": size, "sha256": digest.hexdigest()}}
    write_json(path, header)


def read_payload(path, fmt: str) -> dict:
    """Load the JSON header at path; ValueError unless its marker is fmt."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    found = payload.get("format") if isinstance(payload, dict) else None
    if found != fmt:
        raise ValueError(f"{path}: format {found!r}, expected {fmt!r}; re-run train to write one")
    return payload


def _shape(entry) -> list:
    if not isinstance(entry, dict) or set(entry) != {"shape"}:
        raise ValueError("a tensor entry must be an object with exactly the key 'shape'")
    shape = entry["shape"]
    if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
        raise ValueError(f"tensor shape must be a list of nonnegative ints, got {shape!r}")
    return shape


def read_tensors(path, payload: dict, entries) -> list:
    """The tensors that entries (from payload, in sidecar order) describe.

    Each comes back a writable, C-contiguous, native float64 view into one
    buffer that the sidecar is read into; the views do not overlap. Raises
    ValueError unless every shape is a list of nonnegative ints, the sidecar
    exists with the length and sha256 the header records, and it holds
    exactly the bytes the shapes need.
    """
    shapes = [_shape(entry) for entry in entries]
    record = payload.get("sidecar")
    if not isinstance(record, dict) or set(record) != {"bytes", "sha256"}:
        raise ValueError("the header must record its sidecar as an object with the keys 'bytes' and 'sha256'")
    side = sidecar_path(path)
    try:
        with open(side, "rb") as fh:
            length = os.fstat(fh.fileno()).st_size
            flat = np.empty(-(-length // _WIRE_DTYPE.itemsize), dtype=_WIRE_DTYPE)  # whole items, >= length bytes
            raw = memoryview(flat).cast("B")[:length]
            length = fh.readinto(raw)
    except FileNotFoundError:
        raise ValueError(f"tensor sidecar {side} not found; re-run train to write one") from None
    raw = raw[:length]
    if length != record["bytes"] or hashlib.sha256(raw).hexdigest() != record["sha256"]:
        raise ValueError(
            f"tensor sidecar {side} ({length} bytes) does not match the length and sha256 its header "
            f"records: a torn or edited write; re-run train"
        )
    sizes = [math.prod(shape) for shape in shapes]
    expected = _WIRE_DTYPE.itemsize * sum(sizes)
    if length != expected:
        raise ValueError(f"tensor sidecar {side} holds {length} bytes, shapes {shapes} need {expected}")
    if not _WIRE_DTYPE.isnative:  # a big-endian host swaps the little-endian wire bytes once, in place
        flat = flat.byteswap(inplace=True).view(flat.dtype.newbyteorder())
    offsets = np.cumsum([0] + sizes)
    return [flat[start:end].reshape(shape) for start, end, shape in zip(offsets, offsets[1:], shapes)]
