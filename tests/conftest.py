"""Shared test helpers: scenario builder, pseudonymization shortcut, the
row-major form of dictionary-coded per-field digests, a body header
rewriter, the content key wrap
built from RFC 9180 alone and as the previous version wrapped it, a package
sealed under the previous format's header, and the
independent brute-force linkage oracle used to check link() output."""

from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np
from cryptography.hazmat.primitives import hashes, hpke
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey, X25519PublicKey
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from phtlink.analysis import AnalysisSpec, DisclosurePolicy, ResultTable
from phtlink.encoding import canonical_json_bytes
from phtlink.envelope import (
    KeyPair, SealedPackage, generate_encryption_keypair, generate_signing_keys,
)
from phtlink.linkage import LinkageParams
from phtlink.manifest import DataRequest, PoolFilter, TrainManifest, sign_manifest
from phtlink.model import QID_FIELDS, Dataset, FieldCodes, Record, dataset_from_bytes
from phtlink.network import RunSetup
from phtlink.pseudonym import Salt, pseudonymize
from phtlink.stations import DataStationConfig, TseConfig
from phtlink.synth import GroundTruth


def pseudonymized(ds: Dataset, salt: Salt) -> Dataset:
    """Station-side transform: replace QIDs with pseudonym vectors."""
    rows = [
        Record(payload=dict(r.payload), pseudonym=pseudonymize(r.qid, salt))
        for r in ds.rows
    ]
    return dataclasses.replace(ds, rows=rows)


def per_row_digests(fields: FieldCodes) -> np.ndarray:
    """The per-field digests of each row, (rows, 4): every field's
    dictionary expanded through its index. Read back with ``.tobytes()``."""
    return np.stack([d[i] for d, i in zip(fields.dictionaries, fields.index)], axis=1)


def row_major_body(body: bytes) -> bytes:
    """A dataset body as stations sent it before per-field digests were
    dictionary coded: the header names the part "per_field" and holds every
    payload column as a JSON array, and each row's composite and four
    per-field digests follow, row after row."""
    cols = dataset_from_bytes(body, "A")
    header_len = int.from_bytes(body[:4], "big")
    header = json.loads(body[4 : 4 + header_len])
    header["digests"] = ["per_field" if p == "field_codes" else p for p in header["digests"]]
    header["columns"] = [c.tolist() if isinstance(c, np.ndarray) else c for c in cols.payload]
    doc = canonical_json_bytes(header)
    rows = np.concatenate((cols.digests, per_row_digests(cols.fields)), axis=1)
    return len(doc).to_bytes(4, "big") + doc + rows.tobytes()


def with_header(body: bytes, **changes) -> bytes:
    """A dataset body with its header's keys set as ``changes`` gives them,
    and what follows the header unchanged."""
    header_len = int.from_bytes(body[:4], "big")
    doc = json.dumps({**json.loads(body[4 : 4 + header_len]), **changes}).encode()
    return len(doc).to_bytes(4, "big") + doc + body[4 + header_len :]


#: the content key wrap as RFC 9180 defines it (base mode, single shot), built
#: without phtlink.envelope, and the fixed ``info`` label a package's wrap uses
HPKE = hpke.Suite(hpke.KEM.X25519, hpke.KDF.HKDF_SHA256, hpke.AEAD.AES_256_GCM)
WRAP_INFO = b"phtlink-envelope-key"


def unwrap_content_key(pkg: SealedPackage, recipient: KeyPair) -> bytes:
    """A package's 32-byte content key and 12-byte data nonce, unwrapped by HPKE."""
    private = X25519PrivateKey.from_private_bytes(recipient.private_decryption_key)
    return HPKE.decrypt(pkg.wrapped_content_key, private, info=WRAP_INFO)


def previous_format_package(pkg: SealedPackage, recipient: KeyPair) -> SealedPackage:
    """``pkg`` with its content key wrapped as the previous version wrapped it,
    in 104 bytes: an ephemeral X25519 public key, a 12-byte nonce, then
    AES-GCM under HKDF-SHA256 of the ephemeral-static secret over the content
    key and data nonce, with the ephemeral key as associated data."""
    ephemeral = X25519PrivateKey.generate()
    ephemeral_pub = ephemeral.public_key().public_bytes_raw()
    recipient_pub = recipient.public_encryption_key
    secret = ephemeral.exchange(X25519PublicKey.from_public_bytes(recipient_pub))
    info = b"phtlink-envelope-kek" + ephemeral_pub + recipient_pub
    kek = HKDF(algorithm=hashes.SHA256(), length=32, salt=None, info=info).derive(secret)
    nonce = os.urandom(12)
    wrapped = AESGCM(kek).encrypt(nonce, unwrap_content_key(pkg, recipient), ephemeral_pub)
    return dataclasses.replace(pkg, wrapped_content_key=ephemeral_pub + nonce + wrapped)


@dataclasses.dataclass(frozen=True)
class KeyIdsPackage(SealedPackage):
    """A package of the previous format: its header, and so the AAD its
    ciphertext is sealed under, also names the recipient's encryption key
    id and the sender's signing key id."""

    key_ids: tuple[str, str] = ("", "")

    def header(self) -> dict:
        return {**super().header(), "key_ids": list(self.key_ids)}


def key_ids_package(pkg: SealedPackage, recipient: KeyPair,
                    key_ids: tuple[str, str]) -> KeyIdsPackage:
    """``pkg``'s signed plaintext sealed again as the previous format sealed
    it, under a header that names ``key_ids``, with a fresh content key
    wrapped to ``recipient``: a package that version would have opened."""
    content = unwrap_content_key(pkg, recipient)
    inner = AESGCM(content[:32]).decrypt(
        content[32:], pkg.ciphertext + pkg.outer_auth_tag, canonical_json_bytes(pkg.header()))
    old = KeyIdsPackage(**dataclasses.asdict(pkg), key_ids=key_ids)
    key, nonce = os.urandom(32), os.urandom(12)
    sealed = AESGCM(key).encrypt(nonce, inner, canonical_json_bytes(old.header()))
    public = X25519PublicKey.from_public_bytes(recipient.public_encryption_key)
    return dataclasses.replace(
        old, wrapped_content_key=HPKE.encrypt(key + nonce, public, info=WRAP_INFO),
        ciphertext=sealed[:-16], outer_auth_tag=sealed[-16:])


@dataclasses.dataclass
class Scenario:
    setup: RunSetup
    manifest: TrainManifest
    ds_a: Dataset
    ds_b: Dataset
    truth: GroundTruth | None
    anchor: object
    tse_enc: object


def make_scenario(
    ds_a: Dataset,
    ds_b: Dataset,
    truth: GroundTruth | None = None,
    run_id: str = "run-0001",
    variables_a: tuple[str, ...] = ("age",),
    variables_b: tuple[str, ...] = ("income",),
    pool_a: PoolFilter | None = None,
    pool_b: PoolFilter | None = None,
    analysis: AnalysisSpec | None = None,
    disclosure: DisclosurePolicy | None = None,
    linkage: LinkageParams | None = None,
    expiry: str = "2099-01-01T00:00:00Z",
    fault_a: str | None = None,
    fault_b: str | None = None,
    reuse_salt_a: Salt | None = None,
    allowed_a: tuple[str, ...] | None = None,
    allowed_b: tuple[str, ...] | None = None,
) -> Scenario:
    """Wire up a complete two-station + TSE + researcher run.

    ``reuse_salt_a`` is a salt both stations use instead of the one they
    would derive."""
    anchor = generate_signing_keys()
    tse_enc = generate_encryption_keypair(run_id)
    a_enc = generate_encryption_keypair(run_id)
    b_enc = generate_encryption_keypair(run_id)
    a_sign = generate_signing_keys(run_id)
    b_sign = generate_signing_keys(run_id)

    manifest = sign_manifest(
        TrainManifest(
            train_id="train-test",
            run_id=run_id,
            researcher_id="researcher",
            tse_station_id="TSE",
            data_requests=(
                DataRequest("A", variables_a, pool_a),
                DataRequest("B", variables_b, pool_b),
            ),
            analysis=analysis
            or AnalysisSpec(
                kind="binned_association", variables=("age", "income"), bin_width=10
            ),
            disclosure=disclosure or DisclosurePolicy(k_min=5),
            linkage=linkage or LinkageParams(mode="exact"),
            tse_public_encryption_key=tse_enc.public_encryption_key,
            tse_encryption_key_id=tse_enc.key_id,
            station_verification_keys=(
                ("A", a_sign.verification_key),
                ("B", b_sign.verification_key),
            ),
            expiry=expiry,
        ),
        anchor,
    )

    setup = RunSetup(
        manifest=manifest,
        stations=[
            DataStationConfig(
                station_id="A",
                dataset=ds_a,
                allowed_variables=allowed_a if allowed_a is not None else variables_a,
                trust_anchor_verify=anchor.verification_key,
                enc_keys=a_enc,
                sign_keys=a_sign,
                peer_encryption_keys={"B": b_enc.public_only()},
                fault=fault_a,
                reuse_salt=reuse_salt_a,
            ),
            DataStationConfig(
                station_id="B",
                dataset=ds_b,
                allowed_variables=allowed_b if allowed_b is not None else variables_b,
                trust_anchor_verify=anchor.verification_key,
                enc_keys=b_enc,
                sign_keys=b_sign,
                peer_encryption_keys={"A": a_enc.public_only()},
                fault=fault_b,
                reuse_salt=reuse_salt_a,
            ),
        ],
        tse=TseConfig(
            station_id="TSE",
            trust_anchor_verify=anchor.verification_key,
            enc_keys=tse_enc,
        ),
    )
    return Scenario(setup, manifest, ds_a, ds_b, truth, anchor, tse_enc)


# ---------------------------------------------------------------------------
# Independent brute-force linkage oracle
# ---------------------------------------------------------------------------

def oracle_link(pseudos_a, pseudos_b, params: LinkageParams, blocking_fields=()):
    """All-pairs Fellegi-Sunter scorer and greedy one-to-one assigner,
    written independently of the library's candidate/blocking machinery.
    Only pairs whose digests agree on every one of ``blocking_fields`` are
    scored."""
    assert params.u is not None
    blocking = [QID_FIELDS.index(name) for name in blocking_fields]
    scored = []
    for i, pa in enumerate(pseudos_a):
        for j, pb in enumerate(pseudos_b):
            if any(pa.per_field[k] != pb.per_field[k] for k in blocking):
                continue
            weight = 0.0
            for k in range(4):
                if pa.per_field[k] == pb.per_field[k]:
                    weight += math.log2(params.m[k] / params.u[k])
                else:
                    weight += math.log2((1.0 - params.m[k]) / (1.0 - params.u[k]))
            if weight >= params.t_upper:
                scored.append((weight, i, j))
    scored.sort(key=lambda t: (-t[0], t[1], t[2]))
    taken_a, taken_b, accepted = set(), set(), []
    for _, i, j in scored:
        if i in taken_a or j in taken_b:
            continue
        taken_a.add(i)
        taken_b.add(j)
        accepted.append((i, j))
    return sorted(accepted)


def brute_force_u(pseudos_a, pseudos_b):
    """Agreeing-pair fraction over every cross pair, field by field."""
    n = len(pseudos_a) * len(pseudos_b)
    out = []
    for k in range(4):
        agree = 0
        for pa in pseudos_a:
            for pb in pseudos_b:
                if pa.per_field[k] == pb.per_field[k]:
                    agree += 1
        out.append(agree / n)
    return out


# ---------------------------------------------------------------------------
# Disclosure checkers
# ---------------------------------------------------------------------------

def released_counts(table: ResultTable) -> list[int]:
    return [row["count"] for row in table.rows if not isinstance(row["count"], str)]


def assert_no_subtraction_recovery(table: ResultTable) -> None:
    """No crosstab line may have a released total and exactly one suppressed
    member: that member would equal total minus the released cells."""
    meta = table.meta
    if meta.get("kind") != "crosstab":
        return
    total = meta["total_label"]
    cells = {}
    for row in table.rows:
        cells[(row[meta["row_field"]], row[meta["col_field"]])] = row["count"]

    def check_line(members, total_coord):
        if isinstance(cells[total_coord], str):
            return
        hidden = [c for c in members if isinstance(cells[c], str)]
        assert len(hidden) != 1, f"cell {hidden} recoverable from line total {total_coord}"

    for r in list(meta["row_values"]) + [total]:
        check_line([(r, c) for c in meta["col_values"]], (r, total))
    for c in list(meta["col_values"]) + [total]:
        check_line([(r, c) for r in meta["row_values"]], (total, c))
