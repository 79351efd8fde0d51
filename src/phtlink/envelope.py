"""Sign-then-encrypt hybrid envelopes for station-to-station transport.

A SealedPackage carries a payload that only the intended recipient can read,
and that the recipient can attribute to the sending station and to one run:

    wrapped_content_key   fresh AES-256 content key (plus data nonce), sealed
                          to the recipient's X25519 public key with HPKE
                          (RFC 9180 base mode: DHKEM(X25519, HKDF-SHA256),
                          HKDF-SHA256, AES-256-GCM), 92 bytes
    ciphertext            AES-256-GCM over (payload || inner signature), with
                          the canonical header JSON as associated data
    outer_auth_tag        the GCM tag over the ciphertext + header

The inner signature is Ed25519 over (payload, run_id, sender station id), so
a package replayed into another run fails inner verification even though its
ciphertext is intact.

The header holds the sender's station id, the run id and ALGORITHMS, and
no key id. On the wire (SealedPackage.to_bytes) a package is binary: a
4-byte length and the canonical header JSON (the very bytes used as
associated data), a 2-byte length and the wrapped key, a 2-byte length and
the tag, then the ciphertext up to the end of the buffer. Every
length-prefixed field is written and read by encoding.write_field and
encoding.read_field.
SealedPackage.from_bytes reads the header strictly (encoding.block_from_dict
and check_types) and accepts it only if it is byte for byte the header seal
writes for those fields, so the AAD open_package authenticates is exactly
the header received.

A key id is ``scope:kind:`` and the first 8 hex digits of SHA-256 over the
raw public key (derive_key_id); the scope is the run a key is bound to, or
"static" for a key read from a file; seal and derive_salt refuse a key
bound to another run.

derive_salt gives the two data stations of a run the salt they hash
under, from the same static X25519 keys: each computes it from its own
private key and the other's public key, so the salt never travels.

Opening runs the three phases in order and attributes failures to the phase
that rejected: outer integrity (tampered ciphertext, tag, or header), content
key unwrap / decryption (wrong private key, tampered wrap), inner signature
(wrong sender key, wrong run). No partial plaintext ever escapes a failure.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives import hashes, hpke, serialization
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from .encoding import (
    block_from_dict, canonical_json_bytes, check_types, from_json_bytes, read_field, write_field,
)
from .errors import (
    DecodeError,
    DecryptionFailure,
    EntropyUnavailable,
    InnerSignatureFailure,
    OuterIntegrityFailure,
    RunMismatch,
)
from .pseudonym import SALT_LENGTH, Salt

ALGORITHMS = {
    "kem": "HPKE-X25519-SHA256",
    "aead": "AES-256-GCM",
    "sig": "Ed25519",
}

_GCM_TAG_LEN = 16
_GCM_NONCE_LEN = 12
_SIG_LEN = 64
# HPKE encapsulated X25519 key + sealed (content key + data nonce) + tag
_WRAPPED_KEY_LEN = 32 + 32 + _GCM_NONCE_LEN + _GCM_TAG_LEN
_U64 = struct.Struct(">Q")
_U32 = struct.Struct(">I")
_U16 = struct.Struct(">H")
_HPKE = hpke.Suite(hpke.KEM.X25519, hpke.KDF.HKDF_SHA256, hpke.AEAD.AES_256_GCM)
# a fixed label: the header is authenticated as the body's AAD, so a header
# tamper stays an outer-integrity failure rather than a failed unwrap
_WRAP_INFO = b"phtlink-envelope-key"
_SALT_INFO = b"PHT-SALT|"

STATIC_SCOPE = "static"


def _random_bytes(n: int) -> bytes:
    try:
        return os.urandom(n)
    except OSError as exc:  # pragma: no cover - platform failure
        raise EntropyUnavailable(str(exc)) from exc


def derive_key_id(public: bytes, kind: str, run_id: str | None = None) -> str:
    """The key id of a raw public key, bound to ``run_id`` or static."""
    return f"{run_id or STATIC_SCOPE}:{kind}:{hashlib.sha256(public).hexdigest()[:8]}"


@dataclass(frozen=True)
class KeyPair:
    """X25519 encryption keypair; the private half never enters a message."""

    public_encryption_key: bytes
    private_decryption_key: bytes
    key_id: str

    def public_only(self) -> "PublicEncryptionKey":
        return PublicEncryptionKey(self.public_encryption_key, self.key_id)


@dataclass(frozen=True)
class PublicEncryptionKey:
    """Distributable half of a KeyPair."""

    public_encryption_key: bytes
    key_id: str


@dataclass(frozen=True)
class SigningKeys:
    """Ed25519 signature pair; the verification key alone cannot sign."""

    signing_key: bytes
    verification_key: bytes
    key_id: str


@dataclass(frozen=True)
class SealedPackage:
    """A sealed payload. Its header names the sender and the run, which the
    inner signature is checked against, and no key: HPKE binds the wrap to
    the recipient's key and the inner signature to the sender's."""

    sender_station_id: str
    run_id: str
    wrapped_content_key: bytes
    ciphertext: bytes
    outer_auth_tag: bytes

    def header(self) -> dict:
        """The authenticated header: its canonical JSON is the AEAD's AAD."""
        return _header(self.sender_station_id, self.run_id)

    def to_bytes(self) -> bytes:
        return b"".join(
            (
                *write_field(_U32, canonical_json_bytes(self.header())),
                *write_field(_U16, self.wrapped_content_key),
                *write_field(_U16, self.outer_auth_tag),
                self.ciphertext,
            )
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "SealedPackage":
        """Parse to_bytes output; any length that does not fit the buffer, or
        a key or tag length other than the algorithms fix, is a DecodeError
        at the offset of the bad field. So is a header that is not exactly
        the canonical header seal writes for its fields."""
        view = memoryview(data)
        header, offset = read_field(view, 0, _U32)
        wrapped, offset = read_field(view, offset, _U16, _WRAPPED_KEY_LEN)
        tag, offset = read_field(view, offset, _U16, _GCM_TAG_LEN)
        given = dict(wrapped_content_key=bytes(wrapped), ciphertext=bytes(view[offset:]),
                     outer_auth_tag=bytes(tag))
        try:
            doc = from_json_bytes(bytes(header))
            # the algorithms are fixed: the byte comparison holds them to ALGORITHMS
            doc = {key: value for key, value in doc.items() if key != "algorithms"}
            pkg = check_types(block_from_dict(cls, doc, given))
            if canonical_json_bytes(pkg.header()) != header:
                raise ValueError("not the canonical header of its fields")
        except (AttributeError, ValueError) as exc:
            raise DecodeError(_U32.size, f"bad sealed package header: {exc}") from None
        return pkg


def _header(sender_station_id: str, run_id: str) -> dict:
    return {"sender_station_id": sender_station_id, "run_id": run_id, "algorithms": ALGORITHMS}


def generate_encryption_keypair(run_id: str | None = None) -> KeyPair:
    """Fresh X25519 keypair, optionally bound to one run via its key id."""
    return _encryption_keypair(X25519PrivateKey.generate(), run_id)


def generate_signing_keys(run_id: str | None = None) -> SigningKeys:
    """Fresh Ed25519 pair, optionally bound to one run via its key id."""
    return _signing_keys(Ed25519PrivateKey.generate(), run_id)


def _encryption_keypair(private: X25519PrivateKey, run_id: str | None) -> KeyPair:
    public = _raw_public(private.public_key())
    return KeyPair(public, _raw_private(private), derive_key_id(public, "enc", run_id))


def _signing_keys(private: Ed25519PrivateKey, run_id: str | None) -> SigningKeys:
    public = _raw_public(private.public_key())
    return SigningKeys(_raw_private(private), public, derive_key_id(public, "sig", run_id))


def _raw_private(key) -> bytes:
    return key.private_bytes(
        serialization.Encoding.Raw,
        serialization.PrivateFormat.Raw,
        serialization.NoEncryption(),
    )


def _raw_public(key) -> bytes:
    return key.public_bytes(
        serialization.Encoding.Raw, serialization.PublicFormat.Raw
    )


def _inner_signed_payload(plaintext: bytes, run_id: str, sender_id: str) -> bytes:
    return b"".join(
        (
            *write_field(_U64, plaintext),
            *write_field(_U16, run_id.encode("utf-8")),
            *write_field(_U16, sender_id.encode("utf-8")),
        )
    )


def sign_payload(signing_key: bytes, payload: bytes) -> bytes:
    return Ed25519PrivateKey.from_private_bytes(signing_key).sign(payload)


def verify_payload(verification_key: bytes, payload: bytes, signature: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(verification_key).verify(signature, payload)
        return True
    except (InvalidSignature, ValueError):
        return False


def _hkdf(shared: bytes, info: bytes, length: int = 32) -> bytes:
    return HKDF(algorithm=hashes.SHA256(), length=length, salt=None, info=info).derive(shared)


def _check_run_scope(key_id: str, run_id: str) -> None:
    scope = key_id.split(":", 1)[0]
    if scope != STATIC_SCOPE and scope != run_id:
        raise RunMismatch(f"key {key_id} is bound to run {scope!r}, not {run_id!r}")


def derive_salt(
    own: KeyPair, peer: PublicEncryptionKey, run_id: str, manifest_bytes: bytes
) -> Salt:
    """The run's salt, which each data station computes on its own.

    HKDF-SHA-256 over the X25519 secret of the station's own static key and
    its peer's public key (static-static key agreement, NIST SP 800-56A
    Rev. 3, section 6.3), with info "PHT-SALT|" + run_id + SHA-256 of the
    signed manifest's ``manifest_bytes``. Both stations of a run get the
    same salt; a party that holds neither private key cannot compute it.
    A key bound to another run raises RunMismatch, as in seal."""
    _check_run_scope(own.key_id, run_id)
    _check_run_scope(peer.key_id, run_id)
    try:
        shared = X25519PrivateKey.from_private_bytes(own.private_decryption_key).exchange(
            X25519PublicKey.from_public_bytes(peer.public_encryption_key)
        )
    except ValueError as exc:
        raise DecryptionFailure(f"salt key agreement failed: {exc}") from None
    info = _SALT_INFO + run_id.encode("utf-8") + hashlib.sha256(manifest_bytes).digest()
    return Salt(_hkdf(shared, info, SALT_LENGTH), run_id)


def seal(
    plaintext: bytes,
    run_id: str,
    sender_id: str,
    recipient_pub: KeyPair | PublicEncryptionKey,
    signer: SigningKeys,
) -> SealedPackage:
    """Sign plaintext for this run, then hybrid-encrypt to the recipient."""
    _check_run_scope(recipient_pub.key_id, run_id)
    _check_run_scope(signer.key_id, run_id)

    inner_sig = sign_payload(
        signer.signing_key, _inner_signed_payload(plaintext, run_id, sender_id)
    )
    inner = plaintext + inner_sig

    aad = canonical_json_bytes(_header(sender_id, run_id))

    content_key = _random_bytes(32)
    data_nonce = _random_bytes(_GCM_NONCE_LEN)
    sealed = AESGCM(content_key).encrypt(data_nonce, inner, aad)
    ciphertext, tag = sealed[:-_GCM_TAG_LEN], sealed[-_GCM_TAG_LEN:]

    wrapped = _HPKE.encrypt(
        content_key + data_nonce,
        X25519PublicKey.from_public_bytes(recipient_pub.public_encryption_key),
        info=_WRAP_INFO,
    )

    return SealedPackage(
        sender_station_id=sender_id,
        run_id=run_id,
        wrapped_content_key=wrapped,
        ciphertext=ciphertext,
        outer_auth_tag=tag,
    )


def open_package(
    pkg: SealedPackage,
    recipient_priv: KeyPair,
    sender_verif: bytes,
    expected_run_id: str | None = None,
) -> bytes:
    """Verification-decryption-verification opening of a sealed package.

    Phases, in order: outer authentication (GCM tag over header + ciphertext),
    content key unwrap + decrypt, inner signature binding the plaintext to the
    run and the sender. Each phase raises its own failure and nothing is
    returned unless all three pass. Passing expected_run_id rejects packages
    signed for a different run.
    """
    try:
        unwrapped = _HPKE.decrypt(
            pkg.wrapped_content_key,
            X25519PrivateKey.from_private_bytes(recipient_priv.private_decryption_key),
            info=_WRAP_INFO,
        )
    except (InvalidTag, ValueError) as exc:
        raise DecryptionFailure(f"content key unwrap failed: {exc}") from None
    if len(unwrapped) != 32 + _GCM_NONCE_LEN:
        raise DecryptionFailure("unwrapped content key has wrong length")
    content_key, data_nonce = unwrapped[:32], unwrapped[32:]

    aad = canonical_json_bytes(pkg.header())
    try:
        inner = AESGCM(content_key).decrypt(
            data_nonce, pkg.ciphertext + pkg.outer_auth_tag, aad
        )
    except InvalidTag:
        raise OuterIntegrityFailure("outer authentication tag rejected") from None

    if len(inner) < _SIG_LEN:
        raise InnerSignatureFailure("payload too short to carry a signature")
    plaintext, inner_sig = inner[:-_SIG_LEN], inner[-_SIG_LEN:]

    bound_run = expected_run_id if expected_run_id is not None else pkg.run_id
    signed = _inner_signed_payload(plaintext, bound_run, pkg.sender_station_id)
    if not verify_payload(sender_verif, signed, inner_sig):
        raise InnerSignatureFailure(
            f"inner signature rejected for run {bound_run!r}, sender {pkg.sender_station_id!r}"
        )
    return plaintext


# ---------------------------------------------------------------------------
# PEM persistence for key files
# ---------------------------------------------------------------------------

def encryption_keypair_to_pem(kp: KeyPair) -> tuple[bytes, bytes]:
    private = X25519PrivateKey.from_private_bytes(kp.private_decryption_key)
    return _private_pem(private), _public_pem(private.public_key())


def signing_keys_to_pem(sk: SigningKeys) -> tuple[bytes, bytes]:
    private = Ed25519PrivateKey.from_private_bytes(sk.signing_key)
    return _private_pem(private), _public_pem(private.public_key())


def _private_key_from_pem(private_pem: bytes):
    """An unencrypted private key PEM's key; an encrypted one raises
    ValueError, like any other key file that cannot be used."""
    try:
        return serialization.load_pem_private_key(private_pem, password=None)
    except TypeError:  # what cryptography raises for a missing password
        raise ValueError("encrypted private keys are not supported") from None


def encryption_keypair_from_pem(private_pem: bytes) -> KeyPair:
    """A static keypair from its private key PEM, with its derived key id."""
    key = _private_key_from_pem(private_pem)
    if not isinstance(key, X25519PrivateKey):
        raise ValueError("expected an X25519 private key")
    return _encryption_keypair(key, None)


def signing_keys_from_pem(private_pem: bytes) -> SigningKeys:
    """A static signing pair from its private key PEM, with its derived key id."""
    key = _private_key_from_pem(private_pem)
    if not isinstance(key, Ed25519PrivateKey):
        raise ValueError("expected an Ed25519 private key")
    return _signing_keys(key, None)


def public_key_from_pem(pem: bytes) -> bytes:
    """Raw bytes of an X25519 or Ed25519 public key PEM."""
    key = serialization.load_pem_public_key(pem)
    if not isinstance(key, (X25519PublicKey, Ed25519PublicKey)):
        raise ValueError("expected an X25519 or Ed25519 public key")
    return _raw_public(key)


def _private_pem(key) -> bytes:
    return key.private_bytes(
        serialization.Encoding.PEM,
        serialization.PrivateFormat.PKCS8,
        serialization.NoEncryption(),
    )


def _public_pem(key) -> bytes:
    return key.public_bytes(
        serialization.Encoding.PEM, serialization.PublicFormat.SubjectPublicKeyInfo
    )
