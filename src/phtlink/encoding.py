"""Canonical JSON and base64 helpers, and type checks for decoded values.

Canonical form: UTF-8, sorted keys, compact separators, no NaN/Infinity.
Two parties serializing the same logical value must produce identical bytes,
since signatures and AEAD associated data are computed over these encodings.
"""

from __future__ import annotations

import base64
import json
from typing import Any


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
