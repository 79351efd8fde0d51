"""Signed train manifests: the credentialed task package for one run.

A manifest names the run, what each data station must extract (variables and
pool filter), how the analysis side links and analyzes, the disclosure
policy, the analysis-side public encryption key, and each station's
verification key. A trust-anchor signature covers every field, so any
mutation after signing is detectable, and every endpoint checks the
signature, the expiry, and its own authorization before acting.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import asdict, dataclass, replace

from .analysis import AnalysisSpec, DisclosurePolicy
from .encoding import b64decode, b64encode, block_from_dict, canonical_json_bytes, check_types
from .envelope import SigningKeys, sign_payload, verify_payload
from .linkage import LinkageParams

REASON_BAD_SIGNATURE = "BadSignature"
REASON_EXPIRED = "Expired"
REASON_UNAUTHORIZED_VARIABLE = "UnauthorizedVariable"
REASON_INVALID_MANIFEST = "InvalidManifest"


@dataclass(frozen=True)
class PoolFilter:
    """Restriction of the pool of potential matches a station releases."""

    age_min: int | None = None
    age_max: int | None = None
    zip_prefixes: tuple[str, ...] = ()
    #: date the age is computed against, fixed in the manifest so both
    #: stations apply the same cut
    as_of: str = "2026-01-01"

    def validate(self) -> None:
        check_types(self)
        for name in ("age_min", "age_max"):
            age = getattr(self, name)
            if age is not None and age < 0:
                raise ValueError(f"pool {name} must not be negative, not {age}")
        if None not in (self.age_min, self.age_max) and self.age_min > self.age_max:
            raise ValueError("pool age_min must be <= age_max")
        try:
            dt.date.fromisoformat(self.as_of)
        except ValueError:
            raise ValueError(f"pool as_of must be an ISO date, not {self.as_of!r}") from None


@dataclass(frozen=True)
class DataRequest:
    station_id: str
    variables: tuple[str, ...]
    pool: PoolFilter | None = None


@dataclass(frozen=True)
class TrainManifest:
    train_id: str
    run_id: str
    researcher_id: str
    tse_station_id: str
    data_requests: tuple[DataRequest, ...]
    analysis: AnalysisSpec
    disclosure: DisclosurePolicy
    linkage: LinkageParams
    tse_public_encryption_key: bytes
    tse_encryption_key_id: str
    station_verification_keys: tuple[tuple[str, bytes], ...]  # sorted by id
    expiry: str
    credential_signature: bytes | None = None

    def data_station_ids(self) -> tuple[str, ...]:
        return tuple(req.station_id for req in self.data_requests)

    def request_for(self, station_id: str) -> DataRequest | None:
        for req in self.data_requests:
            if req.station_id == station_id:
                return req
        return None

    def verification_key_for(self, station_id: str) -> bytes | None:
        for sid, key in self.station_verification_keys:
            if sid == station_id:
                return key
        return None

    def signable_bytes(self) -> bytes:
        doc = manifest_to_dict(self)
        doc.pop("credential_signature", None)
        return canonical_json_bytes(doc)


@dataclass(frozen=True)
class Validation:
    accepted: bool
    reason: str | None = None
    detail: str = ""


def sign_manifest(manifest: TrainManifest, anchor: SigningKeys) -> TrainManifest:
    return replace(
        manifest,
        credential_signature=sign_payload(anchor.signing_key, manifest.signable_bytes()),
    )


def _parse_when(when: str | dt.datetime) -> dt.datetime:
    if isinstance(when, dt.datetime):
        return when if when.tzinfo else when.replace(tzinfo=dt.timezone.utc)
    parsed = dt.datetime.fromisoformat(when.replace("Z", "+00:00"))
    return parsed if parsed.tzinfo else parsed.replace(tzinfo=dt.timezone.utc)


def validate_train(
    manifest: TrainManifest,
    trust_anchor_verify: bytes,
    now: str | dt.datetime,
    station_id: str | None = None,
    allowed_variables: tuple[str, ...] | None = None,
) -> Validation:
    """Accept iff the credential signature verifies, every field is of its
    declared type, the manifest has not expired, it asks two distinct data
    stations, neither the TSE nor the researcher, for data (linkage is
    pairwise) and holds each one's verification key, its analysis,
    disclosure policy, linkage parameters, requests and pool filters are
    well-typed and in range, and (for a data station) the request touches
    only variables the station is configured to release. A signature
    vouches for who wrote a manifest, not for what it asks, so the contents
    are checked before any data moves."""
    if manifest.credential_signature is None or not verify_payload(
        trust_anchor_verify, manifest.signable_bytes(), manifest.credential_signature
    ):
        return Validation(False, REASON_BAD_SIGNATURE, "credential signature rejected")
    try:
        check_types(manifest)
        if _parse_when(manifest.expiry) <= _parse_when(now):
            return Validation(False, REASON_EXPIRED, f"expired at {manifest.expiry}")
        stations = manifest.data_station_ids()
        roles = {manifest.tse_station_id, manifest.researcher_id}
        if len(set(stations) - roles) != 2 or len(stations) != 2:
            raise ValueError(f"a run links two distinct data stations, neither the TSE "
                             f"nor the researcher, not {list(stations)}")
        unkeyed = [sid for sid in stations if manifest.verification_key_for(sid) is None]
        if unkeyed:
            raise ValueError(f"no verification key for data station {unkeyed[0]!r}")
        manifest.analysis.validate()
        manifest.disclosure.validate()
        manifest.linkage.validate()
        for request in manifest.data_requests:
            check_types(request)
            if request.pool is not None:
                request.pool.validate()
    except ValueError as exc:
        return Validation(False, REASON_INVALID_MANIFEST, str(exc))
    if station_id is not None:
        request = manifest.request_for(station_id)
        if request is None:
            return Validation(
                False, REASON_UNAUTHORIZED_VARIABLE, f"no data request for {station_id}"
            )
        allowed = set(allowed_variables or ())
        refused = [v for v in request.variables if v not in allowed]
        if refused:
            return Validation(
                False,
                REASON_UNAUTHORIZED_VARIABLE,
                f"{station_id} does not release {sorted(refused)}",
            )
    return Validation(True)


# ---------------------------------------------------------------------------
# Dict / JSON conversion (wire format and draft files)
# ---------------------------------------------------------------------------

def manifest_to_dict(manifest: TrainManifest) -> dict:
    """asdict, with the key bytes and the signature in base64."""
    signature = manifest.credential_signature
    return {
        **asdict(manifest),
        "tse_public_encryption_key": b64encode(manifest.tse_public_encryption_key),
        "station_verification_keys": {
            sid: b64encode(key) for sid, key in manifest.station_verification_keys
        },
        "credential_signature": None if signature is None else b64encode(signature),
    }


def manifest_from_dict(doc: dict) -> TrainManifest:
    """Strict inverse of manifest_to_dict: an unknown or missing key, at the
    top or in any block, raises ValueError."""
    return block_from_dict(
        TrainManifest, doc,
        tse_public_encryption_key=b64decode,
        station_verification_keys=lambda keys: tuple(
            sorted((sid, b64decode(key)) for sid, key in keys.items())
        ),
        credential_signature=lambda signature: b64decode(signature) if signature else None,
    )
