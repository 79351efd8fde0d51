"""The one reader and writer of each encoding the package sends or signs.

Canonical JSON: UTF-8, sorted keys, compact separators, no NaN/Infinity.
Two parties serializing the same logical value must produce identical bytes,
since signatures and AEAD associated data are computed over these encodings.
from_json_bytes is the package's one JSON parser, for frames and files
alike; it refuses what canonical_json_bytes cannot write, so no document
carries a non-finite number. block_from_dict reads a JSON object into its
dataclass, strictly, and check_types checks each field against the type its
dataclass declares.
Binary payloads, sealed packages and dataset bodies are laid out from
fields of a big-endian length then that many bytes (write_field, read_field).
"""

from __future__ import annotations

import base64
import json
import math
import struct
from dataclasses import MISSING, fields, is_dataclass
from functools import cache
from types import UnionType
from typing import Any, Callable, Union, get_args, get_origin, get_type_hints

from .errors import DecodeError


def canonical_json_bytes(obj: Any) -> bytes:
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False
    ).encode("utf-8")


def from_json_bytes(data: bytes) -> Any:
    """The JSON value ``data`` holds, as UTF-8. The NaN, Infinity and
    -Infinity literals, and a number that overflows a float (1e999), raise
    ValueError, as canonical_json_bytes would on writing them."""
    return json.loads(data.decode("utf-8"), parse_constant=_non_finite, parse_float=_finite)


def _non_finite(literal: str):
    raise ValueError(f"non-finite number {literal} is not JSON")


def _finite(literal: str) -> float:
    value = float(literal)
    if math.isinf(value):
        _non_finite(literal)
    return value


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

    ``readers`` convert the value of the field they are named after. Any
    other value is read as its field's type declares: an array as a tuple
    and an object as a dataclass (by block_from_dict) where one is declared,
    and as itself elsewhere. ``given`` holds fields that travel outside the
    object and may not appear in it. An absent key takes the dataclass
    default. An unknown key, or an absent one without a default, raises
    ValueError naming it: a misspelt key fails closed instead of quietly
    leaving a restriction at its default. Every unknown key is named, and
    an error reading a field's value is prefixed with the field's name."""
    if not isinstance(doc, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, not {doc!r}")
    values = dict(given or {})
    declared = {f.name: f for f in fields(cls)}
    unknown = sorted(key for key in doc if key not in declared or key in values)
    if unknown:
        named = f"key {unknown[0]!r}" if len(unknown) == 1 else f"keys {unknown}"
        raise ValueError(f"unknown {cls.__name__} {named}")
    for name, f in declared.items():
        if name in doc:
            value, read = doc[name], readers.get(name)
            try:
                values[name] = read(value) if read else _read_as(value, _hints(cls)[name])
            except ValueError as exc:
                raise ValueError(f"{name!r}: {exc}") from None
        elif name not in values and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"missing {cls.__name__} key {name!r}")
    return cls(**values)


def _read_as(value: Any, hint) -> Any:
    """``value``, as JSON or asdict gives it, read as ``hint`` declares it."""
    for arm in get_args(hint) if get_origin(hint) in _UNIONS else (hint,):
        if is_dataclass(arm) and value is not None:
            return block_from_dict(arm, value)
        if isinstance(value, (list, tuple)) and get_origin(arm) is tuple:
            items = _items(arm, value)
            return tuple(value if items is None else map(_read_as, value, items))
    return value


def check_types(block):
    """Check each field of the dataclass ``block`` against its declared type,
    as JSON delivers values, and return ``block``: a bool is no int, an int
    is also a float, a tuple is checked item by item, so are the keys and
    values of a ``dict[K, V]``, and a nested dataclass, a list or a bare
    dict by its own type only. A mismatch is a ValueError naming the
    field."""
    for name, hint in _hints(type(block)).items():
        value = getattr(block, name)
        if not _is_a(value, hint):
            wanted = hint if get_origin(hint) else hint.__name__
            raise ValueError(f"{type(block).__name__} {name!r} must be {wanted}, not {value!r}")
    return block


#: the declared type of each field of a dataclass
_hints = cache(get_type_hints)
_UNIONS = (Union, UnionType)


def _items(hint, value: tuple | list) -> tuple | None:
    """Each item's type under the tuple type ``hint``; None for a wrong length."""
    args = get_args(hint)
    items = args[:1] * len(value) if args[1:] == (...,) else args
    return items if len(items) == len(value) else None


def _is_a(value: Any, hint) -> bool:
    if get_origin(hint) in _UNIONS:
        return any(_is_a(value, arm) for arm in get_args(hint))
    if get_origin(hint) is tuple:
        items = _items(hint, value) if isinstance(value, tuple) else None
        return items is not None and all(map(_is_a, value, items))
    if get_origin(hint) is dict:
        key, item = get_args(hint)
        return isinstance(value, dict) and all(
            _is_a(k, key) and _is_a(v, item) for k, v in value.items()
        )
    if hint in (int, float):
        return isinstance(value, (int, hint)) and not isinstance(value, bool)
    return isinstance(value, get_origin(hint) or hint)
