"""Salt-keyed one-way pseudonymization of quasi-identifiers.

Both data stations pseudonymize the same canonical fields under the same
shared salt, so equal people yield equal digests without any party revealing
raw values. The analysis side never holds the salt, which is what makes the
digests one-way there: without it, dictionary attacks over the small QID
space are blocked. The stations derive the salt from their own keys
(envelope.derive_salt), and each sends only its Salt.check, from which the
analysis side learns whether the two salts are equal and nothing more.

Layout (bit-exact interchange contract, UTF-8, "|" separators):

    fingerprint  SHA-512("PHT-COMPOSITE|" zip "|" house "|" gender "|" dob "|")[:16]
    field fp i   SHA-512("PHT-FIELD-i|" value_i "|")[:16]                 i = 0..3
    K            SHA-256("PHT-PSEUDONYM-KEY|" + salt)       AES-256 key, one per run
    composite    AES-256-ECB_K(fingerprint)
    per_field[i] AES-256-ECB_K(field fp i)

Field order is zip_code, house_number, gender, date_of_birth. The distinct
prefixes separate hashing domains: equal strings in different fields (or in
the composite) can never produce equal fingerprints. A fingerprint is
salt-free, so a station computes every row's once, when it loads its data
(composite_fingerprints, into model.StationTable), and keeps them beside
the raw QIDs they come from; they never leave the station. Each run keys
its digests with one AES-256 call over them. ECB is AES used as a
pseudorandom permutation on independent 16-byte blocks, not as a mode for
long messages: equal fingerprints give equal digests, which is the
equality linkage joins on.
This is the Encrypt-with-Hash shape of deterministic encryption (Bellare,
Boldyreva & O'Neill, CRYPTO 2007).

A digest is 16 bytes (32 hex characters); DIGEST_DTYPE is the one setting
of that width, and everything that reads or writes digests takes it from
there. Linkage relies on two properties of a digest. First, without K,
and so without the secret 256-bit salt, no one can compute a digest or
invert one: AES-256 is a pseudorandom permutation, at the 128-bit level of
the other primitives here (X25519, Ed25519, Salt.check). Second, two
distinct people almost never share a digest: AES is a permutation, so they
do only where their fingerprints collide, and for n distinct preimages that
chance is at most n^2/2^129, about 2^-80 for the 2*10^7 people of the
Netherlands. Collision resistance of a 16-byte fingerprint, 64-bit, is not
relied on: only the two stations hold the salt, so only they can compute
digests, and they choose their inputs anyway; the analysis side holds no
salt.

A station computes only the digests the manifest's linkage mode uses: exact
linkage joins on the composite alone, probabilistic linkage scores the four
per-field digests alone. The analysis side therefore never learns per-field
agreement patterns in exact mode, nor the composite in probabilistic mode.
Without a mode, both parts are computed.

A data station pseudonymizes its whole extract in one pseudonymize_columns
call over the kept rows of its table, which writes raw digests straight
into arrays. In exact mode that is one AES call over the kept rows'
fingerprints: no SHA-512 at all. In probabilistic mode the call returns
the per-field digests dictionary coded (model.FieldCodes): from the
table's coded QID columns (model.code_fields) it finds each field's
distinct values in the order of the row where each first occurs, hashes
each once, keys each field's fingerprints with one AES call, and indexes
every row into them. The dictionary is safe: expanded through its index
it is byte for byte what pseudonymizing every row would give; it holds the
raw values only in station memory, which already holds them; it is a
local of the one call, under the one key, so nothing of it outlives the
call or reaches another run; and its order is first-row order, never the
order of the raw values, so the digests that travel say nothing of how,
say, dates of birth sort.

Fingerprints come from CPython's built-in SHA-512 (_sha512.sha512 on Python
3.10 and 3.11, _sha2.sha512 from 3.12), bound once at import, and from
hashlib.sha512 where neither exists; every choice gives the same bytes. On
3.11 the built-in skips the per-object context set-up of OpenSSL 3's EVP
interface, about a third of a call for preimages this short; from 3.12 it
is HACL*'s and no faster. pseudonymize, one QID set at a time with hex
digests, is the reference the batch output is tested against: it computes
its fingerprints on hashlib.sha512 and never reads a table's, so the
tests compare two independent paths.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, CipherContext, algorithms, modes

from .errors import EntropyUnavailable

try:  # Python 3.12 and later
    from _sha2 import sha512 as BATCH_SHA512
except ImportError:
    try:  # Python 3.10 and 3.11
        from _sha512 import sha512 as BATCH_SHA512
    except ImportError:  # pragma: no cover - an interpreter without either
        BATCH_SHA512 = hashlib.sha512

if TYPE_CHECKING:  # pragma: no cover
    from .model import FieldCodes, QuasiIdentifierSet, StationTable

SALT_LENGTH = 32

#: One raw digest: one 16-byte AES block, fixed width. The one width
#: setting: a digest's hex form and every body read it from here.
DIGEST_DTYPE = np.dtype("S16")
DIGEST_HEX_LENGTH = 2 * DIGEST_DTYPE.itemsize
_DIGEST_LENGTH = DIGEST_DTYPE.itemsize

COMPOSITE_PREFIX = b"PHT-COMPOSITE|"
FIELD_PREFIX_TEMPLATE = "PHT-FIELD-{index}|"
KEY_PREFIX = b"PHT-PSEUDONYM-KEY|"
#: The label names the construction: stations that sent salted SHA-512
#: digests checked under "PHT-SALT-CHECK|", so a station of each gives
#: unequal checks and the analysis side aborts SaltMismatch.
SALT_CHECK_PREFIX = b"PHT-SALT-CHECK-AES|"

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
        """A one-way check: the first 16 bytes of
        SHA-256("PHT-SALT-CHECK-AES|" + salt), in hex. Equal salts give
        equal checks; a check gives nothing else of its salt."""
        return hashlib.sha256(SALT_CHECK_PREFIX + self.bytes).hexdigest()[:32]

    def encryptor(self) -> CipherContext:
        """An AES-256-ECB context under K = SHA-256("PHT-PSEUDONYM-KEY|" +
        salt), which keys every digest of the run."""
        key = hashlib.sha256(KEY_PREFIX + self.bytes).digest()
        return Cipher(algorithms.AES(key), modes.ECB()).encryptor()


@dataclass(frozen=True)
class PseudonymVector:
    """Composite and/or per-field keyed digests standing in for a QID set.

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


def composite_fingerprints(qids: Sequence["QuasiIdentifierSet"]) -> np.ndarray:
    """Each QID set's salt-free composite fingerprint, as one contiguous
    DIGEST_DTYPE array: a station computes them once, when it loads its
    data (model.StationTable), and keeps them beside the raw values."""
    sha512 = BATCH_SHA512
    return np.frombuffer(b"".join([
        sha512(f"PHT-COMPOSITE|{qid.zip_code}|{qid.house_number}|{qid.gender}|"
               f"{qid.date_of_birth}|".encode("utf-8")).digest()[:_DIGEST_LENGTH]
        for qid in qids
    ]), DIGEST_DTYPE)


def pseudonymize(
    qid: "QuasiIdentifierSet", salt: Salt, mode: str | None = None
) -> PseudonymVector:
    """Deterministically pseudonymize a canonical QID set under a shared salt.

    ``mode`` is the manifest's linkage mode: "exact" computes the composite
    only, "probabilistic" the per-field digests only, None both.
    """
    if mode is not None and mode not in LINKAGE_MODES:
        raise ValueError(f"unknown linkage mode {mode!r}")
    values = qid.as_tuple()
    preimages = []
    if mode != "probabilistic":
        preimages.append(COMPOSITE_PREFIX + "|".join(values).encode("utf-8") + b"|")
    if mode != "exact":
        preimages += [
            FIELD_PREFIX_TEMPLATE.format(index=i).encode("utf-8") + value.encode("utf-8") + b"|"
            for i, value in enumerate(values)
        ]
    keyed = salt.encryptor().update(
        b"".join(hashlib.sha512(p).digest()[:_DIGEST_LENGTH] for p in preimages)
    ).hex()
    digests = [keyed[i:i + DIGEST_HEX_LENGTH] for i in range(0, len(keyed), DIGEST_HEX_LENGTH)]
    composite = digests.pop(0) if mode != "probabilistic" else None
    return PseudonymVector(composite=composite, per_field=tuple(digests))


def pseudonymize_columns(
    rows: "StationTable | Sequence[QuasiIdentifierSet]", salt: Salt, mode: str
) -> tuple[np.ndarray, "FieldCodes | None"]:
    """Pseudonymize a whole extract under a shared salt: the rows of a
    station's table, or a list of canonical QID sets, whose columns it
    builds first.

    Returns the digest parts of a model.Columns, as pseudonymize gives
    them: in "exact" mode an (n, 1) DIGEST_DTYPE array of each row's
    composite, and no per-field codes; in "probabilistic" mode an (n, 0)
    array and the four per-field digests, dictionary coded. Read the arrays
    back with ``.tobytes()`` (see model.Columns).
    """
    from .model import StationTable, code_fields, code_qids  # here, since model imports this module

    if mode not in LINKAGE_MODES:
        raise ValueError(f"unknown linkage mode {mode!r}")
    table = rows if isinstance(rows, StationTable) else None
    encrypt = salt.encryptor().update
    if mode == "exact":
        fingerprints = composite_fingerprints(rows) if table is None else table.fingerprints
        return np.frombuffer(encrypt(fingerprints.tobytes()), DIGEST_DTYPE).reshape(-1, 1), None
    sha512 = BATCH_SHA512
    prefixes = [FIELD_PREFIX_TEMPLATE.format(index=i).encode("utf-8") for i in range(4)]

    def digests(field: int, values: list[str]) -> np.ndarray:
        prefix = prefixes[field]
        return np.frombuffer(encrypt(b"".join([
            sha512(prefix + value.encode("utf-8") + b"|").digest()[:_DIGEST_LENGTH]
            for value in values
        ])), DIGEST_DTYPE)

    fields = code_fields(code_qids(rows) if table is None else table.fields, digests)
    return np.empty((fields.n_rows, 0), DIGEST_DTYPE), fields
