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
from dataclasses import MISSING, asdict, dataclass, fields, replace

from .analysis import AnalysisSpec, DisclosurePolicy
from .encoding import b64decode, b64encode, canonical_json_bytes, is_int, require_strings
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
        for name in ("age_min", "age_max"):
            age = getattr(self, name)
            if age is not None and not (is_int(age) and age >= 0):
                raise ValueError(f"pool {name} must be a non-negative integer, not {age!r}")
        if None not in (self.age_min, self.age_max) and self.age_min > self.age_max:
            raise ValueError("pool age_min must be <= age_max")
        require_strings("pool zip_prefixes", self.zip_prefixes)
        try:
            dt.date.fromisoformat(self.as_of)
        except (TypeError, ValueError):
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

    def salt_initiator_id(self) -> str:
        # deterministic designation: lowest data-station id starts the salt exchange
        return min(self.data_station_ids())

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
    """Accept iff the credential signature verifies, the manifest has not
    expired, its analysis, disclosure policy, linkage parameters, requests
    and pool filters are well-typed and in range, and (for a data station)
    the request touches only variables the station is configured to
    release. A signature vouches for who wrote a manifest, not for what it
    asks, so the contents are checked before any data moves."""
    if manifest.credential_signature is None or not verify_payload(
        trust_anchor_verify, manifest.signable_bytes(), manifest.credential_signature
    ):
        return Validation(False, REASON_BAD_SIGNATURE, "credential signature rejected")
    if _parse_when(manifest.expiry) <= _parse_when(now):
        return Validation(False, REASON_EXPIRED, f"expired at {manifest.expiry}")
    try:
        manifest.analysis.validate()
        manifest.disclosure.validate()
        manifest.linkage.validate()
        for request in manifest.data_requests:
            require_strings(f"{request.station_id} variables", request.variables)
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

def block_from_dict(cls, doc):
    """Read one parameter block, a dataclass, from its JSON object.

    An absent key takes the dataclass default and a JSON array becomes a
    tuple. An unknown key, or an absent one without a default, raises
    ValueError naming it: a misspelt key fails closed instead of quietly
    leaving a restriction at its default."""
    if not isinstance(doc, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, not {doc!r}")
    declared = {f.name: f for f in fields(cls)}
    for key in doc:
        if key not in declared:
            raise ValueError(f"unknown {cls.__name__} key {key!r}")
    for name, f in declared.items():
        if name not in doc and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"missing {cls.__name__} key {name!r}")
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()})


def parameters_from_dict(doc: dict) -> dict:
    """A manifest's data requests and parameter blocks, as TrainManifest
    keyword arguments, from a manifest or a draft; an absent disclosure or
    linkage block takes its defaults."""
    requests = []
    for item in doc["data_requests"]:
        request = block_from_dict(DataRequest, item)
        if request.pool is not None:
            request = replace(request, pool=block_from_dict(PoolFilter, request.pool))
        requests.append(request)
    return {
        "data_requests": tuple(requests),
        "analysis": block_from_dict(AnalysisSpec, doc["analysis"]),
        "disclosure": block_from_dict(DisclosurePolicy, doc.get("disclosure", {})),
        "linkage": block_from_dict(LinkageParams, doc.get("linkage", {})),
    }


def manifest_to_dict(manifest: TrainManifest) -> dict:
    return {
        "train_id": manifest.train_id,
        "run_id": manifest.run_id,
        "researcher_id": manifest.researcher_id,
        "tse_station_id": manifest.tse_station_id,
        "data_requests": [asdict(req) for req in manifest.data_requests],
        "analysis": asdict(manifest.analysis),
        "disclosure": asdict(manifest.disclosure),
        "linkage": asdict(manifest.linkage),
        "tse_public_encryption_key": b64encode(manifest.tse_public_encryption_key),
        "tse_encryption_key_id": manifest.tse_encryption_key_id,
        "station_verification_keys": {
            sid: b64encode(key) for sid, key in manifest.station_verification_keys
        },
        "expiry": manifest.expiry,
        "credential_signature": (
            b64encode(manifest.credential_signature)
            if manifest.credential_signature is not None
            else None
        ),
    }


def manifest_from_dict(doc: dict) -> TrainManifest:
    signature = doc.get("credential_signature")
    return TrainManifest(
        **parameters_from_dict(doc),
        train_id=doc["train_id"],
        run_id=doc["run_id"],
        researcher_id=doc["researcher_id"],
        tse_station_id=doc["tse_station_id"],
        tse_public_encryption_key=b64decode(doc["tse_public_encryption_key"]),
        tse_encryption_key_id=doc["tse_encryption_key_id"],
        station_verification_keys=tuple(
            sorted(
                (sid, b64decode(key))
                for sid, key in doc["station_verification_keys"].items()
            )
        ),
        expiry=doc["expiry"],
        credential_signature=b64decode(signature) if signature else None,
    )
