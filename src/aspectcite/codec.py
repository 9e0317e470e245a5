"""The on-disk format of the checkpoint and state artifacts.

Both files are one JSON object written with sorted keys and indent 1. A
top-level "format" marker names the file kind and version. Each tensor is
stored as

    {"shape": [d0, d1, ...], "data": "<base64 of the C-order little-endian float64 bytes>"}

so a float round-trips bit for bit and a file loads without parsing one JSON
number per entry. A file with a missing or different marker, including the
earlier one-float-per-entry list format, is rejected, not converted.
"""

from __future__ import annotations

import base64
import json
import math

import numpy as np

__all__ = ["encode_tensor", "decode_tensor", "write_payload", "read_payload"]

_WIRE_DTYPE = np.dtype("<f8")


def encode_tensor(array) -> dict:
    array = np.asarray(array, dtype=_WIRE_DTYPE)
    return {"shape": list(array.shape), "data": base64.b64encode(array.tobytes(order="C")).decode("ascii")}


def decode_tensor(entry) -> np.ndarray:
    """Inverse of encode_tensor: a writable, C-contiguous, native float64 array.

    Raises ValueError unless entry is a {"shape", "data"} object whose shape is
    a list of nonnegative ints and whose data is strict base64 of exactly
    8 * prod(shape) bytes.
    """
    if not isinstance(entry, dict) or set(entry) != {"shape", "data"}:
        raise ValueError("a tensor must be an object with exactly the keys 'shape' and 'data'")
    shape, data = entry["shape"], entry["data"]
    if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
        raise ValueError(f"tensor shape must be a list of nonnegative ints, got {shape!r}")
    if not isinstance(data, str):
        raise ValueError(f"tensor data must be a base64 string, got {type(data).__name__}")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ValueError(f"tensor data is not valid base64: {exc}") from exc
    expected = _WIRE_DTYPE.itemsize * math.prod(shape)
    if len(raw) != expected:
        raise ValueError(f"tensor data holds {len(raw)} bytes, shape {shape} needs {expected}")
    return np.frombuffer(raw, dtype=_WIRE_DTYPE).astype(np.float64).reshape(shape)


def write_payload(path, fmt: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"format": fmt, **payload}, fh, sort_keys=True, indent=1)
        fh.write("\n")


def read_payload(path, fmt: str) -> dict:
    """Load the JSON object at path; ValueError unless its marker is fmt."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    found = payload.get("format") if isinstance(payload, dict) else None
    if found != fmt:
        raise ValueError(f"{path}: format {found!r}, expected {fmt!r}; re-run train to write one")
    return payload
