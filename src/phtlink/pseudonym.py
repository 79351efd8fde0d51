"""Salt-keyed one-way pseudonymization of quasi-identifiers.

Both data stations hash the same canonical fields with the same shared salt,
so equal people yield equal digests without any party revealing raw values.
The analysis side never holds the salt, which is what makes the digests
one-way there: without it, dictionary attacks over the small QID space are
blocked.

Preimage layout (bit-exact interchange contract, UTF-8, "|" separators):

    composite    SHA-512("PHT-COMPOSITE|" zip "|" house "|" gender "|" dob "|" salt)
    per_field[i] SHA-512("PHT-FIELD-i|" value_i "|" salt)        i = 0..3

Field order is zip_code, house_number, gender, date_of_birth. The distinct
prefixes separate hashing domains: equal strings in different fields (or in
the composite) can never produce equal digests.

A station computes only the digests the manifest's linkage mode uses: exact
linkage joins on the composite alone, probabilistic linkage scores the four
per-field digests alone. The analysis side therefore never learns per-field
agreement patterns in exact mode, nor the composite in probabilistic mode.
Without a mode, both parts are computed.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import EntropyUnavailable

if TYPE_CHECKING:  # pragma: no cover
    from .model import QuasiIdentifierSet

SALT_LENGTH = 32
DIGEST_HEX_LENGTH = 128  # SHA-512

COMPOSITE_PREFIX = b"PHT-COMPOSITE|"
FIELD_PREFIX_TEMPLATE = "PHT-FIELD-{index}|"

LINKAGE_MODES = ("exact", "probabilistic")


@dataclass(frozen=True)
class Salt:
    """Shared secret salt, valid for exactly one run."""

    bytes: bytes
    run_id: str

    def __post_init__(self):
        if len(self.bytes) < 16:
            raise ValueError("salt must be at least 16 bytes")
        if not self.run_id:
            raise ValueError("salt requires a run_id")


@dataclass(frozen=True)
class PseudonymVector:
    """Composite and/or per-field salted digests standing in for a QID set.

    Either part may be absent (``composite=None`` or ``per_field=()``) when
    the linkage mode does not use it, but not both.
    """

    composite: str | None
    per_field: tuple[str, ...] = ()

    def __post_init__(self):
        if self.composite is None and not self.per_field:
            raise ValueError("a pseudonym vector needs a composite or per-field digests")
        if self.composite is not None and len(self.composite) != DIGEST_HEX_LENGTH:
            raise ValueError("composite digest must be 128 hex characters")
        if self.per_field and (
            len(self.per_field) != 4
            or any(len(d) != DIGEST_HEX_LENGTH for d in self.per_field)
        ):
            raise ValueError("expected four 128-hex-character per-field digests")


def generate_salt(run_id: str) -> Salt:
    """Fresh 32-byte salt from the OS randomness source."""
    if not run_id:
        raise ValueError("run_id must be non-empty")
    try:
        material = os.urandom(SALT_LENGTH)
    except OSError as exc:  # pragma: no cover - platform failure
        raise EntropyUnavailable(str(exc)) from exc
    return Salt(bytes=material, run_id=run_id)


def pseudonymize(
    qid: "QuasiIdentifierSet", salt: Salt, mode: str | None = None
) -> PseudonymVector:
    """Deterministically hash a canonical QID set under a shared salt.

    ``mode`` is the manifest's linkage mode: "exact" computes the composite
    only, "probabilistic" the per-field digests only, None both.
    """
    if mode is not None and mode not in LINKAGE_MODES:
        raise ValueError(f"unknown linkage mode {mode!r}")
    values = qid.as_tuple()
    composite = None
    per_field: tuple[str, ...] = ()
    if mode != "probabilistic":
        composite_preimage = (
            COMPOSITE_PREFIX
            + "|".join(values).encode("utf-8")
            + b"|"
            + salt.bytes
        )
        composite = hashlib.sha512(composite_preimage).hexdigest()
    if mode != "exact":
        per_field = tuple(
            hashlib.sha512(
                FIELD_PREFIX_TEMPLATE.format(index=i).encode("utf-8")
                + value.encode("utf-8")
                + b"|"
                + salt.bytes
            ).hexdigest()
            for i, value in enumerate(values)
        )
    return PseudonymVector(composite=composite, per_field=per_field)
