"""Manifest signing, credential checking, dict roundtrip."""

import dataclasses
import hashlib

import pytest

from phtlink.analysis import AnalysisSpec, DisclosurePolicy
from phtlink.envelope import generate_encryption_keypair, generate_signing_keys
from phtlink.linkage import LinkageParams
from phtlink.manifest import (
    DataRequest,
    PoolFilter,
    TrainManifest,
    block_from_dict,
    manifest_from_dict,
    manifest_to_dict,
    sign_manifest,
    validate_train,
)

NOW = "2026-06-01T00:00:00Z"

# SHA-256 of signable_bytes() for the two fixed manifests in TestSignableBytesPinned
PINNED_POOL_U = "e5056d460b3e6aa23e94cb8f3249638237368c5deaef51725ecba6191fdcc609"
PINNED_EDGES_MARKER = "ccc7f48f75fcf3be153ca39c4f8869625ff9734500f23ad7712965456407a3da"


def build_manifest():
    anchor = generate_signing_keys()
    tse_enc = generate_encryption_keypair()
    a_sign, b_sign = generate_signing_keys(), generate_signing_keys()
    manifest = sign_manifest(
        TrainManifest(
            train_id="t1",
            run_id="run-1",
            researcher_id="researcher",
            tse_station_id="TSE",
            data_requests=(
                DataRequest("A", ("age",), PoolFilter(age_min=40, age_max=75)),
                DataRequest("B", ("income",)),
            ),
            analysis=AnalysisSpec("binned_association", ("age", "income"), bin_width=10),
            disclosure=DisclosurePolicy(k_min=10),
            linkage=LinkageParams(mode="exact"),
            tse_public_encryption_key=tse_enc.public_encryption_key,
            tse_encryption_key_id=tse_enc.key_id,
            station_verification_keys=(
                ("A", a_sign.verification_key),
                ("B", b_sign.verification_key),
            ),
            expiry="2027-01-01T00:00:00Z",
        ),
        anchor,
    )
    return manifest, anchor


class TestValidateTrain:
    def test_pristine_manifest_accepted(self):
        manifest, anchor = build_manifest()
        verdict = validate_train(manifest, anchor.verification_key, NOW,
                                 station_id="A", allowed_variables=("age",))
        assert verdict.accepted

    def test_any_field_mutation_breaks_signature(self):
        manifest, anchor = build_manifest()
        tampered = dataclasses.replace(
            manifest,
            data_requests=(
                DataRequest("A", ("age", "income"), manifest.data_requests[0].pool),
                manifest.data_requests[1],
            ),
        )
        verdict = validate_train(tampered, anchor.verification_key, NOW)
        assert not verdict.accepted and verdict.reason == "BadSignature"

    def test_unsigned_manifest_rejected(self):
        manifest, anchor = build_manifest()
        bare = dataclasses.replace(manifest, credential_signature=None)
        verdict = validate_train(bare, anchor.verification_key, NOW)
        assert verdict.reason == "BadSignature"

    def test_wrong_anchor_rejected(self):
        manifest, _ = build_manifest()
        other = generate_signing_keys()
        verdict = validate_train(manifest, other.verification_key, NOW)
        assert verdict.reason == "BadSignature"

    def test_expired_manifest_rejected(self):
        manifest, anchor = build_manifest()
        verdict = validate_train(manifest, anchor.verification_key, "2028-01-01T00:00:00Z")
        assert not verdict.accepted and verdict.reason == "Expired"

    def test_unauthorized_variable_rejected(self):
        manifest, anchor = build_manifest()
        verdict = validate_train(manifest, anchor.verification_key, NOW,
                                 station_id="A", allowed_variables=("height",))
        assert verdict.reason == "UnauthorizedVariable"

    def test_station_without_request_rejected(self):
        manifest, anchor = build_manifest()
        verdict = validate_train(manifest, anchor.verification_key, NOW,
                                 station_id="C", allowed_variables=("age",))
        assert verdict.reason == "UnauthorizedVariable"


    @pytest.mark.parametrize("stations", [
        (), ("A",), ("A", "B", "C"), ("A", "A"), ("A", "TSE"), ("researcher", "B"),
    ], ids=["none", "one", "three", "one_twice", "tse", "researcher"])
    def test_run_of_other_than_two_data_stations_rejected(self, stations):
        manifest, anchor = build_manifest()
        requests = tuple(DataRequest(sid, ("age",)) for sid in stations)
        manifest = sign_manifest(dataclasses.replace(manifest, data_requests=requests), anchor)
        for station_id in (None, *stations[:1]):
            verdict = validate_train(manifest, anchor.verification_key, NOW,
                                     station_id=station_id, allowed_variables=("age",))
            assert (verdict.accepted, verdict.reason) == (False, "InvalidManifest")
            assert "two distinct data stations" in verdict.detail

    @pytest.mark.parametrize("unkeyed", ["A", "B"])
    def test_data_station_without_a_verification_key_rejected(self, unkeyed):
        manifest, anchor = build_manifest()
        keys = tuple(k for k in manifest.station_verification_keys if k[0] != unkeyed)
        manifest = sign_manifest(
            dataclasses.replace(manifest, station_verification_keys=keys), anchor)
        for station_id in (None, "A"):
            verdict = validate_train(manifest, anchor.verification_key, NOW,
                                     station_id=station_id, allowed_variables=("age",))
            assert (verdict.accepted, verdict.reason, verdict.detail) == (
                False, "InvalidManifest", f"no verification key for data station {unkeyed!r}")


class TestManifestEncoding:
    def test_dict_roundtrip_identity(self):
        manifest, _ = build_manifest()
        assert manifest_from_dict(manifest_to_dict(manifest)) == manifest

    def test_roundtrip_preserves_signature_validity(self):
        manifest, anchor = build_manifest()
        back = manifest_from_dict(manifest_to_dict(manifest))
        assert validate_train(back, anchor.verification_key, NOW).accepted


def _fixed_manifest(**blocks) -> TrainManifest:
    """A manifest built from fixed key bytes only, so its bytes never vary."""
    return TrainManifest(
        train_id="t-pinned",
        run_id="run-pinned",
        researcher_id="researcher",
        tse_station_id="TSE",
        data_requests=blocks.pop("data_requests"),
        tse_public_encryption_key=bytes(range(32)),
        tse_encryption_key_id="static:enc:pinned",
        station_verification_keys=(("A", b"\x0a" * 32), ("B", b"\x0b" * 32)),
        expiry="2099-01-01T00:00:00Z",
        **blocks,
    )


class TestSignableBytesPinned:
    """The bytes a trust anchor signs, pinned: any change to how the
    parameter blocks are written would invalidate every issued signature."""

    def test_pool_and_explicit_u(self):
        manifest = _fixed_manifest(
            data_requests=(
                DataRequest("A", ("age",), PoolFilter(age_min=40, age_max=75,
                                                      zip_prefixes=("6211", "6221"))),
                DataRequest("B", ("income",)),
            ),
            analysis=AnalysisSpec("binned_association", ("age", "income"), bin_width=10),
            disclosure=DisclosurePolicy(k_min=5),
            linkage=LinkageParams(mode="probabilistic", u=(0.01, 0.02, 0.5, 0.001),
                                  blocking_fields=("gender", "zip_code")),
        )
        assert hashlib.sha256(manifest.signable_bytes()).hexdigest() == PINNED_POOL_U

    def test_bin_edges_and_custom_marker(self):
        manifest = _fixed_manifest(
            data_requests=(DataRequest("A", ("age",)), DataRequest("B", ("income",))),
            analysis=AnalysisSpec("binned_association", ("age", "income"),
                                  bin_edges=(0, 40.5, 60, 100)),
            disclosure=DisclosurePolicy(k_min=3, suppress_marker="<3"),
            linkage=LinkageParams(mode="exact", blocking_fields=()),
        )
        assert hashlib.sha256(manifest.signable_bytes()).hexdigest() == PINNED_EDGES_MARKER


class TestBlockFromDict:
    def test_absent_keys_take_the_dataclass_defaults(self):
        assert block_from_dict(DisclosurePolicy, {}) == DisclosurePolicy()
        assert block_from_dict(LinkageParams, {"mode": "exact"}) == LinkageParams(mode="exact")

    def test_arrays_become_tuples(self):
        pool = block_from_dict(PoolFilter, {"age_min": 40, "zip_prefixes": ["6211"]})
        assert pool == PoolFilter(age_min=40, zip_prefixes=("6211",))

    @pytest.mark.parametrize("cls, doc, key", [
        (PoolFilter, {"age_mn": 40}, "age_mn"),
        (DisclosurePolicy, {"kmin": 5}, "kmin"),
        (AnalysisSpec, {"kind": "descriptive", "variables": ["age"], "bins": 3}, "bins"),
        (AnalysisSpec, {"variables": ["age"]}, "kind"),
    ])
    def test_unknown_or_missing_key_is_named(self, cls, doc, key):
        with pytest.raises(ValueError, match=key):
            block_from_dict(cls, doc)

    def test_a_block_must_be_an_object(self):
        with pytest.raises(ValueError):
            block_from_dict(LinkageParams, ["exact"])


class TestBlockValidation:
    """Every block's validate() reports a wrong type or range as ValueError,
    which validate_train turns into InvalidManifest."""

    @pytest.mark.parametrize("block", [
        DisclosurePolicy(k_min="5"),
        DisclosurePolicy(k_min=True),
        DisclosurePolicy(suppress_marker=0),
        DisclosurePolicy(suppress_marker=""),
        AnalysisSpec("binned_association", ("age", "income"), bin_width="10"),
        AnalysisSpec("binned_association", ("age", "income"), bin_edges=("0", "10")),
        AnalysisSpec("descriptive", "ag"),
        LinkageParams(m=(1.0, 0.95, 0.98, 0.97)),
        LinkageParams(u=(0.0, 0.1, 0.1, 0.1)),
        LinkageParams(m=(0.9, 0.9, 0.9)),
        LinkageParams(t_upper="8"),
        LinkageParams(blocking_fields="gender"),
        PoolFilter(age_min="40"),
        PoolFilter(age_min=50, age_max=40),
        PoolFilter(age_max=-1),
        PoolFilter(zip_prefixes="6211"),
        PoolFilter(as_of="garbage"),
    ])
    def test_rejected_as_value_error(self, block):
        with pytest.raises(ValueError):
            block.validate()

    def test_invalid_pool_is_an_invalid_manifest(self):
        manifest, anchor = build_manifest()
        bad = sign_manifest(dataclasses.replace(manifest, data_requests=(
            DataRequest("A", ("age",), PoolFilter(as_of="garbage")),
            DataRequest("B", ("income",)),
        )), anchor)
        verdict = validate_train(bad, anchor.verification_key, NOW)
        assert (verdict.accepted, verdict.reason) == (False, "InvalidManifest")


class TestStrictManifest:
    @pytest.mark.parametrize("key", ["note", "credential"])
    def test_unknown_top_level_key_is_named(self, key):
        manifest, _ = build_manifest()
        doc = {**manifest_to_dict(manifest), key: "x"}
        with pytest.raises(ValueError, match=key):
            manifest_from_dict(doc)

    @pytest.mark.parametrize("key", ["expiry", "linkage", "station_verification_keys"])
    def test_missing_key_without_default_is_named(self, key):
        manifest, _ = build_manifest()
        doc = manifest_to_dict(manifest)
        del doc[key]
        with pytest.raises(ValueError, match=key):
            manifest_from_dict(doc)


class TestBlockFromDictTypes:
    def test_only_tuple_fields_become_tuples(self):
        from phtlink.analysis import ResultTable

        table = block_from_dict(ResultTable, {
            "name": "t", "key_fields": ["bin"], "value_fields": ["count"],
            "rows": [{"bin": "[0,1)", "count": 5}],
        })
        assert table.key_fields == ("bin",) and table.value_fields == ("count",)
        assert table.rows == [{"bin": "[0,1)", "count": 5}]
        assert isinstance(table.rows, list)
        assert table.meta == {}

    def test_a_string_field_given_an_array_keeps_it(self):
        block = block_from_dict(DisclosurePolicy, {"suppress_marker": ["*"]})
        assert block.suppress_marker == ["*"]
        with pytest.raises(ValueError):
            block.validate()

    def test_readers_convert_their_field(self):
        block = block_from_dict(LinkageParams, {"mode": "EXACT"}, mode=str.lower)
        assert block == LinkageParams(mode="exact")

    @pytest.mark.parametrize("doc", [{}, {"mode": "exact"}])
    def test_given_fields_fill_in_and_may_not_be_repeated(self, doc):
        given = {"mode": "probabilistic"}
        if doc:
            with pytest.raises(ValueError, match="mode"):
                block_from_dict(LinkageParams, doc, given)
        else:
            assert block_from_dict(LinkageParams, doc, given) == LinkageParams()
