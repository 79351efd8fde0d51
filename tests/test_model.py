"""Canonicalization rules, record/dataset invariants, CSV interchange."""

import datetime as dt
import json

import pytest
from hypothesis import given, settings, strategies as st

from phtlink.errors import MalformedField
from phtlink.model import (
    QID_FIELDS,
    Dataset,
    DatasetDescriptor,
    QuasiIdentifierSet,
    Record,
    age_on,
    canonicalize,
    dataset_from_bytes,
    dataset_to_bytes,
    make_dataset,
    read_dataset_csv,
    write_dataset_csv,
)
from phtlink.pseudonym import Salt, pseudonymize


def raw(zip_code="6211AB", house="12", gender="F", dob="1960-03-15"):
    return {
        "zip_code": zip_code,
        "house_number": house,
        "gender": gender,
        "date_of_birth": dob,
    }


class TestCanonicalize:
    def test_messy_input_is_normalized(self):
        got = canonicalize(raw(" 6211 ab ", "012", "female", "1960-03-15"))
        assert got == QuasiIdentifierSet("6211AB", "12", "F", "1960-03-15")

    def test_canonical_input_is_fixed_point(self):
        canonical = raw()
        assert canonicalize(canonical).as_tuple() == ("6211AB", "12", "F", "1960-03-15")

    def test_short_zip_rejected(self):
        with pytest.raises(MalformedField) as err:
            canonicalize(raw(zip_code="621AB"))
        assert err.value.field == "zip_code"

    @pytest.mark.parametrize("bad", ["6211A1", "ABCDEF", "62 1 AB2", ""])
    def test_bad_zip_rejected(self, bad):
        with pytest.raises(MalformedField):
            canonicalize(raw(zip_code=bad))

    @pytest.mark.parametrize("bad", ["12a", "0", "-3", "", "twelve"])
    def test_bad_house_number_rejected(self, bad):
        with pytest.raises(MalformedField):
            canonicalize(raw(house=bad))

    def test_non_ascii_digits_rejected(self):
        with pytest.raises(MalformedField):
            canonicalize(raw(house="١٢"))  # Arabic-Indic digits
        with pytest.raises(MalformedField):
            canonicalize(raw(dob="١٩٦٠-03-15"))

    def test_house_number_leading_zeros_stripped(self):
        assert canonicalize(raw(house="00042")).house_number == "42"

    @pytest.mark.parametrize(
        "token,expected",
        [("f", "F"), ("F", "F"), ("female", "F"), ("v", "F"), ("V", "F"),
         ("m", "M"), ("M", "M"), ("male", "M"),
         ("X", "X"), ("x", "X"), ("other", "X")],
    )
    def test_gender_mappings(self, token, expected):
        assert canonicalize(raw(gender=token)).gender == expected

    @pytest.mark.parametrize("bad", ["", "unknown", "w", "fem ale", "3"])
    def test_gender_never_guessed(self, bad):
        with pytest.raises(MalformedField):
            canonicalize(raw(gender=bad))

    def test_dob_day_first_format(self):
        assert canonicalize(raw(dob="15-03-1960")).date_of_birth == "1960-03-15"

    @pytest.mark.parametrize("bad", ["1960/03/15", "31-02-1990", "1899-05-01",
                                     "2150-01-01", "60-03-15", ""])
    def test_bad_dob_rejected(self, bad):
        with pytest.raises(MalformedField):
            canonicalize(raw(dob=bad))

    def test_missing_field_rejected(self):
        with pytest.raises(MalformedField) as err:
            canonicalize({k: "x" for k in QID_FIELDS if k != "gender"})
        assert err.value.field == "gender"

    @given(
        prefix=st.integers(1000, 9999),
        letters=st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=2, max_size=2),
        house=st.integers(1, 9999),
        gender=st.sampled_from(["f", "female", "V", "m", "male", "X", "other"]),
        dob=st.dates(dt.date(1900, 1, 1), dt.date(2020, 12, 31)),
        pad=st.sampled_from(["", " ", "  "]),
    )
    @settings(max_examples=100)
    def test_idempotence(self, prefix, letters, house, gender, dob, pad):
        first = canonicalize(
            {
                "zip_code": f"{pad}{prefix} {letters}{pad}",
                "house_number": f"{pad}{house:04d}{pad}",
                "gender": gender,
                "date_of_birth": dob.isoformat(),
            }
        )
        assert canonicalize(first.field_values()) == first


class TestAgeOn:
    def test_birthday_not_yet_reached(self):
        assert age_on("1960-03-15", "2000-03-14") == 39

    def test_birthday_reached(self):
        assert age_on("1960-03-15", "2000-03-15") == 40


class TestRecordAndDataset:
    def test_qid_and_pseudonym_are_mutually_exclusive(self):
        qid = canonicalize(raw())
        vec = pseudonymize(qid, Salt(b"\x01" * 32, "run-x"))
        with pytest.raises(ValueError):
            Record(payload={}, qid=qid, pseudonym=vec)

    def test_schema_conformance_enforced(self):
        rows = [Record(payload={"age": 40})]
        ds = Dataset("A", (("age", "numeric"), ("income", "numeric")), rows,
                     DatasetDescriptor("t", "2026-01-01T00:00:00Z", 1))
        with pytest.raises(ValueError):
            ds.validate()

    def test_descriptor_row_count_enforced(self):
        rows = [Record(payload={"age": 40})]
        ds = Dataset("A", (("age", "numeric"),), rows,
                     DatasetDescriptor("t", "2026-01-01T00:00:00Z", 2))
        with pytest.raises(ValueError):
            ds.validate()

    def test_type_checks(self):
        ds = Dataset("A", (("age", "numeric"),), [Record(payload={"age": "old"})],
                     DatasetDescriptor("t", "2026-01-01T00:00:00Z", 1))
        with pytest.raises(ValueError):
            ds.validate()


class TestCsvInterchange:
    def _dataset(self):
        rows = [
            Record(payload={"age": 52, "status": "mid"}, qid=canonicalize(raw())),
            Record(
                payload={"age": 61, "status": "low"},
                qid=canonicalize(raw("6229XX", "7", "m", "1950-01-02")),
            ),
        ]
        return make_dataset(
            "A", (("age", "numeric"), ("status", "categorical")), rows,
            extracted_at="2026-01-01T00:00:00Z",
        )

    def test_roundtrip(self, tmp_path):
        ds = self._dataset()
        write_dataset_csv(ds, tmp_path / "a.csv")
        back = read_dataset_csv(tmp_path / "a.csv")
        assert [r.qid for r in back.rows] == [r.qid for r in ds.rows]
        assert [r.payload for r in back.rows] == [r.payload for r in ds.rows]
        assert back.schema == ds.schema

    def test_integer_above_2_53_survives_roundtrip(self, tmp_path):
        big = 2**53 + 1  # 9007199254740993; through a float it reads back ...992
        ds = make_dataset(
            "A", (("count", "numeric"),),
            [Record(payload={"count": big}, qid=canonicalize(raw()))],
        )
        write_dataset_csv(ds, tmp_path / "a.csv")
        assert read_dataset_csv(tmp_path / "a.csv").rows[0].payload == {"count": big}

    def test_header_has_exact_linkage_field_names(self, tmp_path):
        write_dataset_csv(self._dataset(), tmp_path / "a.csv")
        header = (tmp_path / "a.csv").read_text().splitlines()[0]
        assert header == "zip_code,house_number,gender,date_of_birth,age,status"

    def test_sidecar_descriptor_fields(self, tmp_path):
        write_dataset_csv(self._dataset(), tmp_path / "a.csv")
        doc = json.loads((tmp_path / "a.descriptor.json").read_text())
        assert set(doc) == {"station_id", "extracted_at", "row_count", "schema"}
        assert doc["row_count"] == 2


class TestDatasetWireBytes:
    def test_refuses_raw_qids(self):
        ds = make_dataset("A", (("age", "numeric"),),
                          [Record(payload={"age": 40}, qid=canonicalize(raw()))])
        with pytest.raises(ValueError):
            dataset_to_bytes(ds)

    def test_pseudonymized_roundtrip(self):
        salt = Salt(b"\x02" * 32, "run-x")
        vec = pseudonymize(canonicalize(raw()), salt)
        ds = make_dataset("A", (("age", "numeric"),),
                          [Record(payload={"age": 40}, pseudonym=vec)])
        back = dataset_from_bytes(dataset_to_bytes(ds))
        assert back.rows[0].pseudonym == vec
        assert back.rows[0].payload == {"age": 40}
        assert back.station_id == "A"
