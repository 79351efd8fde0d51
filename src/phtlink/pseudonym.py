"""Salt-keyed one-way pseudonymization of quasi-identifiers.

Both data stations hash the same canonical fields with the same shared salt,
so equal people yield equal digests without any party revealing raw values.
The analysis side never holds the salt, which is what makes the digests
one-way there: without it, dictionary attacks over the small QID space are
blocked. The stations derive the salt from their own keys
(envelope.derive_salt), and each sends only its Salt.check, from which the
analysis side learns whether the two salts are equal and nothing more.

Preimage layout (bit-exact interchange contract, UTF-8, "|" separators):

    composite    SHA-512("PHT-COMPOSITE|" zip "|" house "|" gender "|" dob "|" salt)[:16]
    per_field[i] SHA-512("PHT-FIELD-i|" value_i "|" salt)[:16]        i = 0..3

Field order is zip_code, house_number, gender, date_of_birth. The distinct
prefixes separate hashing domains: equal strings in different fields (or in
the composite) can never produce equal digests.

A digest is the first 16 bytes of the SHA-512 output (32 hex characters);
DIGEST_DTYPE is the one setting of that width, and everything that reads or
writes digests takes it from there. Linkage relies on two properties of a
digest, and both hold at 16 bytes. First, without the secret 256-bit salt
no one can compute a digest or invert one: a 128-bit prefix of SHA-512
keeps 128-bit preimage resistance (NIST SP 800-107 Rev. 1, section 5.1,
approves truncated SHA-512 output), the level of the other primitives here
(X25519, Ed25519, Salt.check). Second, two distinct people almost never
share a digest: for n distinct preimages that chance is at most n^2/2^129,
about 2^-80 for the 2*10^7 people of the Netherlands. Collision resistance,
which a 16-byte prefix holds at only 64 bits, is not relied on: only the two
stations hold the salt, so only they can compute digests, and they choose
their inputs anyway; the analysis side holds no salt. The other 48 bytes of
each SHA-512 output would only be more bytes to seal, send, open, store and
wipe.

A station computes only the digests the manifest's linkage mode uses: exact
linkage joins on the composite alone, probabilistic linkage scores the four
per-field digests alone. The analysis side therefore never learns per-field
agreement patterns in exact mode, nor the composite in probabilistic mode.
Without a mode, both parts are computed.

A data station hashes its whole extract in one pseudonymize_columns call,
which writes raw digests straight into arrays. In probabilistic mode that
call returns the per-field digests dictionary coded (model.FieldCodes): it
hashes each field's distinct values once, in the order of the row where
each first occurs, and indexes every row into them. The dictionary is safe:
expanded through its index it is byte for byte what hashing every row
would give; it holds the raw values only in station memory, which already
holds them; it is a local of the one call, under the one salt, so nothing
of it outlives the call or reaches another run; and its order is first-row
order, never the order of the raw values, so the digests that travel say
nothing of how, say, dates of birth sort. pseudonymize, one QID set at a
time with hex digests, is the reference the batch output is tested against.

The batch digests come from CPython's built-in SHA-512 (_sha512.sha512 on
Python 3.10 and 3.11, _sha2.sha512 from 3.12), bound once at import, and
from hashlib.sha512 where neither exists; every choice gives the same
bytes. hashlib.sha512 goes through OpenSSL 3's EVP interface, which
allocates and initialises a context for each object and copies another for
each digest; for preimages of about 70 bytes that is about a third of each
call. On a 2-core VM with Python 3.11.7 and OpenSSL 3.0.19, 110k composites
took 0.074-0.089 s through the built-in against 0.105-0.132 s through
hashlib. From 3.12 the built-in is HACL*'s and is no faster (seconds for
110k, same VM):

    Python    hashlib.sha512    _sha2.sha512
    3.12.1    0.130-0.146       0.117-0.160
    3.13.0    0.123-0.164       0.133-0.155

The per-row reference pseudonymize stays on hashlib.sha512, so the batch
tests compare two independent SHA-512 implementations. The batch hashes
CHUNK_ROWS preimages at a time, and copies the first DIGEST_DTYPE.itemsize
bytes of each chunk's joined 64-byte digests into one preallocated array:
one C call per row, no cut bytes object per row, and no more than a chunk
of whole digests held at once.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import EntropyUnavailable

try:  # Python 3.12 and later
    from _sha2 import sha512 as BATCH_SHA512
except ImportError:
    try:  # Python 3.10 and 3.11
        from _sha512 import sha512 as BATCH_SHA512
    except ImportError:  # pragma: no cover - an interpreter without either
        BATCH_SHA512 = hashlib.sha512

if TYPE_CHECKING:  # pragma: no cover
    from .model import FieldCodes, QuasiIdentifierSet

SALT_LENGTH = 32

#: One raw digest: the first 16 bytes of SHA-512 output, fixed width. The
#: one width setting: a digest's hex form and every body read it from here.
DIGEST_DTYPE = np.dtype("S16")
DIGEST_HEX_LENGTH = 2 * DIGEST_DTYPE.itemsize
_DIGEST_LENGTH = DIGEST_DTYPE.itemsize
_WHOLE_LENGTH = 64  # a whole SHA-512 digest

#: Preimages pseudonymize_columns hashes before it cuts their digests.
CHUNK_ROWS = 8192

COMPOSITE_PREFIX = b"PHT-COMPOSITE|"
SALT_CHECK_PREFIX = b"PHT-SALT-CHECK|"
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

    @property
    def check(self) -> str:
        """A one-way fingerprint: the first 16 bytes of
        SHA-256("PHT-SALT-CHECK|" + salt), in hex. Equal salts give equal
        checks; a check gives nothing else of its salt."""
        return hashlib.sha256(SALT_CHECK_PREFIX + self.bytes).hexdigest()[:32]


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
            raise ValueError(f"composite digest must be {DIGEST_HEX_LENGTH} hex characters")
        if self.per_field and (
            len(self.per_field) != 4
            or any(len(d) != DIGEST_HEX_LENGTH for d in self.per_field)
        ):
            raise ValueError(
                f"expected four {DIGEST_HEX_LENGTH}-hex-character per-field digests"
            )


def generate_salt(run_id: str) -> Salt:
    """Fresh 32-byte salt from the OS randomness source; Salt refuses an
    empty run_id."""
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
        composite = hashlib.sha512(composite_preimage).hexdigest()[:DIGEST_HEX_LENGTH]
    if mode != "exact":
        per_field = tuple(
            hashlib.sha512(
                FIELD_PREFIX_TEMPLATE.format(index=i).encode("utf-8")
                + value.encode("utf-8")
                + b"|"
                + salt.bytes
            ).hexdigest()[:DIGEST_HEX_LENGTH]
            for i, value in enumerate(values)
        )
    return PseudonymVector(composite=composite, per_field=per_field)


def _cut(n: int, hash_chunk: Callable[[int, int], list[bytes]]) -> np.ndarray:
    """An (n, 1) DIGEST_DTYPE array of the first DIGEST_DTYPE.itemsize
    bytes of n SHA-512 digests; ``hash_chunk(start, stop)`` gives the whole
    digests of rows start to stop, CHUNK_ROWS at most."""
    out = np.empty((n, _DIGEST_LENGTH), np.uint8)
    for start in range(0, n, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, n)
        whole = np.frombuffer(b"".join(hash_chunk(start, stop)), np.uint8)
        out[start:stop] = whole.reshape(stop - start, _WHOLE_LENGTH)[:, :_DIGEST_LENGTH]
    return out.view(DIGEST_DTYPE)


def pseudonymize_columns(
    qids: Sequence["QuasiIdentifierSet"], salt: Salt, mode: str
) -> tuple[np.ndarray, "FieldCodes | None"]:
    """Hash a whole extract's canonical QID sets under a shared salt.

    Returns the digest parts of a model.Columns, with the preimages
    pseudonymize uses: in "exact" mode an (len(qids), 1) DIGEST_DTYPE array
    of each row's composite, and no per-field codes; in "probabilistic"
    mode an (len(qids), 0) array and the four per-field digests, dictionary
    coded. Read the arrays back with ``.tobytes()`` (see model.Columns).
    """
    from .model import code_fields  # here, since model imports this module

    if mode not in LINKAGE_MODES:
        raise ValueError(f"unknown linkage mode {mode!r}")
    sha512 = BATCH_SHA512
    key = salt.bytes
    if mode == "exact":
        head = COMPOSITE_PREFIX.decode("utf-8")

        def composites(start: int, stop: int) -> list[bytes]:
            # the preimage pseudonymize builds, in one f-string: no tuple, no join
            return [
                sha512(
                    f"{head}{q.zip_code}|{q.house_number}|{q.gender}|{q.date_of_birth}|"
                    .encode("utf-8") + key
                ).digest()
                for q in qids[start:stop]
            ]

        return _cut(len(qids), composites), None
    prefixes = [FIELD_PREFIX_TEMPLATE.format(index=i).encode("utf-8") for i in range(4)]
    tail = b"|" + key

    def digests(field: int, values: list[str]) -> np.ndarray:
        prefix = prefixes[field]
        return _cut(len(values), lambda start, stop: [
            sha512(prefix + value.encode("utf-8") + tail).digest()
            for value in values[start:stop]
        ]).reshape(-1)

    fields = code_fields([qid.as_tuple() for qid in qids], digests)
    return np.empty((len(qids), 0), DIGEST_DTYPE), fields
