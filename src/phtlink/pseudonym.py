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

A data station hashes its whole extract in one pseudonymize_columns call,
which writes raw digests straight into one array. In probabilistic mode that
call hashes each field's distinct values once and reuses the digest for
every other row carrying the same value. The memo is safe: its output is
byte for byte what hashing every row would give; it holds the raw values
only in station memory, which already holds them; and it is a local of the
one call, under the one salt, so nothing of it outlives the call or reaches
another run. pseudonymize, one QID set at a time with hex digests, is the
reference the batch output is tested against.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import EntropyUnavailable

if TYPE_CHECKING:  # pragma: no cover
    from .model import QuasiIdentifierSet

SALT_LENGTH = 32
DIGEST_HEX_LENGTH = 128  # SHA-512

#: One raw digest: SHA-512 output as a fixed-width byte string.
DIGEST_DTYPE = np.dtype(f"S{DIGEST_HEX_LENGTH // 2}")

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


def pseudonymize_columns(
    qids: Sequence["QuasiIdentifierSet"], salt: Salt, mode: str
) -> np.ndarray:
    """Hash a whole extract's canonical QID sets under a shared salt.

    Returns an (len(qids), width) DIGEST_DTYPE array of raw digests, with the
    preimages pseudonymize uses: width 1, each row's composite, in "exact"
    mode; width 4, each row's per-field digests, in "probabilistic" mode.
    Read it back with ``.tobytes()`` (see model.Columns).
    """
    if mode not in LINKAGE_MODES:
        raise ValueError(f"unknown linkage mode {mode!r}")
    sha512 = hashlib.sha512
    tail = b"|" + salt.bytes
    if mode == "exact":
        width = 1
        digests = [
            sha512(COMPOSITE_PREFIX + "|".join(qid.as_tuple()).encode("utf-8") + tail).digest()
            for qid in qids
        ]
    else:
        width = 4
        prefixes = [FIELD_PREFIX_TEMPLATE.format(index=i).encode("utf-8") for i in range(width)]
        memos: list[dict[str, bytes]] = [{} for _ in range(width)]
        digests = []
        for qid in qids:
            for prefix, memo, value in zip(prefixes, memos, qid.as_tuple()):
                digest = memo.get(value)
                if digest is None:
                    digest = memo[value] = sha512(prefix + value.encode("utf-8") + tail).digest()
                digests.append(digest)
    return np.frombuffer(b"".join(digests), DIGEST_DTYPE).reshape(len(qids), width)
