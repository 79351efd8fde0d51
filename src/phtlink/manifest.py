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
from dataclasses import dataclass, replace

from .analysis import AnalysisSpec, DisclosurePolicy
from .encoding import b64decode, b64encode, canonical_json_bytes
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
    expired, its analysis, disclosure policy and linkage parameters are
    well-formed, and (for a data station) the request touches only variables
    the station is configured to release. A signature vouches for who wrote
    a manifest, not for what it asks, so the contents are checked before any
    data moves."""
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

def pool_filter_to_dict(pool: PoolFilter | None) -> dict | None:
    if pool is None:
        return None
    return {
        "age_min": pool.age_min,
        "age_max": pool.age_max,
        "zip_prefixes": list(pool.zip_prefixes),
        "as_of": pool.as_of,
    }


def pool_filter_from_dict(doc: dict | None) -> PoolFilter | None:
    if doc is None:
        return None
    return PoolFilter(
        age_min=doc.get("age_min"),
        age_max=doc.get("age_max"),
        zip_prefixes=tuple(doc.get("zip_prefixes") or ()),
        as_of=doc.get("as_of", "2026-01-01"),
    )


def analysis_spec_to_dict(spec: AnalysisSpec) -> dict:
    return {
        "kind": spec.kind,
        "variables": list(spec.variables),
        "bin_width": spec.bin_width,
        "bin_edges": list(spec.bin_edges) if spec.bin_edges is not None else None,
    }


def analysis_spec_from_dict(doc: dict) -> AnalysisSpec:
    return AnalysisSpec(
        kind=doc["kind"],
        variables=tuple(doc["variables"]),
        bin_width=doc.get("bin_width"),
        bin_edges=tuple(doc["bin_edges"]) if doc.get("bin_edges") is not None else None,
    )


def disclosure_policy_to_dict(policy: DisclosurePolicy) -> dict:
    return {"k_min": policy.k_min, "suppress_marker": policy.suppress_marker}


def disclosure_policy_from_dict(doc: dict) -> DisclosurePolicy:
    return DisclosurePolicy(
        k_min=doc.get("k_min", 10), suppress_marker=doc.get("suppress_marker", "*")
    )


def linkage_params_to_dict(params: LinkageParams) -> dict:
    return {
        "mode": params.mode,
        "m": list(params.m),
        "u": list(params.u) if params.u is not None else None,
        "t_upper": params.t_upper,
        "t_lower": params.t_lower,
        "blocking_fields": list(params.blocking_fields),
    }


def linkage_params_from_dict(doc: dict) -> LinkageParams:
    defaults = LinkageParams()
    return LinkageParams(
        mode=doc.get("mode", defaults.mode),
        m=tuple(doc.get("m", defaults.m)),
        u=tuple(doc["u"]) if doc.get("u") is not None else None,
        t_upper=doc.get("t_upper", defaults.t_upper),
        t_lower=doc.get("t_lower", defaults.t_lower),
        blocking_fields=tuple(
            doc.get("blocking_fields", defaults.blocking_fields)
        ),
    )


def manifest_to_dict(manifest: TrainManifest) -> dict:
    return {
        "train_id": manifest.train_id,
        "run_id": manifest.run_id,
        "researcher_id": manifest.researcher_id,
        "tse_station_id": manifest.tse_station_id,
        "data_requests": [
            {
                "station_id": req.station_id,
                "variables": list(req.variables),
                "pool": pool_filter_to_dict(req.pool),
            }
            for req in manifest.data_requests
        ],
        "analysis": analysis_spec_to_dict(manifest.analysis),
        "disclosure": disclosure_policy_to_dict(manifest.disclosure),
        "linkage": linkage_params_to_dict(manifest.linkage),
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
        train_id=doc["train_id"],
        run_id=doc["run_id"],
        researcher_id=doc["researcher_id"],
        tse_station_id=doc["tse_station_id"],
        data_requests=tuple(
            DataRequest(
                station_id=req["station_id"],
                variables=tuple(req["variables"]),
                pool=pool_filter_from_dict(req.get("pool")),
            )
            for req in doc["data_requests"]
        ),
        analysis=analysis_spec_from_dict(doc["analysis"]),
        disclosure=disclosure_policy_from_dict(doc["disclosure"]),
        linkage=linkage_params_from_dict(doc["linkage"]),
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
