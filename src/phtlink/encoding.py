"""The one reader and writer of each encoding the package sends or signs.

Canonical JSON: UTF-8, sorted keys, compact separators, no NaN/Infinity.
Two parties serializing the same logical value must produce identical bytes,
since signatures and AEAD associated data are computed over these encodings.
block_from_dict reads a JSON object into its dataclass, strictly. Binary
payloads, sealed packages and dataset bodies are laid out from fields of a
big-endian length then that many bytes (write_field, read_field).
"""

from __future__ import annotations

import base64
import json
import struct
from dataclasses import MISSING, fields
from typing import Any, Callable

from .errors import DecodeError


def canonical_json_bytes(obj: Any) -> bytes:
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False
    ).encode("utf-8")


def from_json_bytes(data: bytes) -> Any:
    return json.loads(data.decode("utf-8"))


def b64encode(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def b64decode(text: str) -> bytes:
    return base64.b64decode(text.encode("ascii"), validate=True)


def write_field(size: struct.Struct, data: bytes) -> tuple[bytes, bytes]:
    """A length-prefixed field as (length, data), for ``b"".join``."""
    return size.pack(len(data)), data


def read_field(
    view: memoryview, offset: int, size: struct.Struct, expected: int | None = None
) -> tuple[memoryview, int]:
    """The field written by write_field at ``offset``: (its bytes, the offset
    after it). A length that overruns ``view``, or differs from ``expected``,
    is a DecodeError at ``offset``."""
    if offset + size.size > len(view):
        raise DecodeError(offset, "truncated length")
    (length,) = size.unpack_from(view, offset)
    if expected is not None and length != expected:
        raise DecodeError(offset, f"length {length}, expected {expected}")
    end = offset + size.size + length
    if end > len(view):
        raise DecodeError(offset, f"length {length} overruns {len(view)} bytes")
    return view[offset + size.size : end], end


def block_from_dict(cls, doc: Any, given: dict | None = None, **readers: Callable):
    """Read one dataclass from its JSON object.

    ``readers`` convert the value of the field they are named after; a JSON
    array becomes a tuple only where the field is declared a tuple. ``given``
    holds fields that travel outside the object and may not appear in it.
    An absent key takes the dataclass default. An unknown key, or an absent
    one without a default, raises ValueError naming it: a misspelt key fails
    closed instead of quietly leaving a restriction at its default."""
    if not isinstance(doc, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, not {doc!r}")
    values = dict(given or {})
    declared = {f.name: f for f in fields(cls)}
    for key in doc:
        if key not in declared or key in values:
            raise ValueError(f"unknown {cls.__name__} key {key!r}")
    for name, f in declared.items():
        if name in doc:
            value = doc[name]
            if name in readers:
                value = readers[name](value)
            elif isinstance(value, list) and str(f.type).startswith("tuple"):
                value = tuple(value)
            values[name] = value
        elif name not in values and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"missing {cls.__name__} key {name!r}")
    return cls(**values)


# Type checks for values read from JSON: a wrong type is a ValueError, like
# any other invalid value, so one ``except ValueError`` fails it closed.

def is_int(value: Any) -> bool:
    """An int that is not a bool: JSON ``true`` is no count."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def require_strings(name: str, value: Any) -> None:
    """``value`` must be a tuple of strings: a bare string would be iterated
    one character at a time."""
    if not isinstance(value, tuple) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"{name} must be a list of strings, not {value!r}")
