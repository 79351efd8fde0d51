"""Canonicalization rules, record/dataset invariants, CSV interchange."""

import dataclasses
import datetime as dt
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import per_row_digests, row_major_body, with_header
from phtlink import linkage
from phtlink.errors import MalformedField
from phtlink.model import (
    LENGTH_DTYPE,
    PAYLOAD_DTYPES,
    QID_FIELDS,
    VARIABLE_TYPES,
    Columns,
    Dataset,
    DatasetDescriptor,
    FieldCodes,
    QuasiIdentifierSet,
    Record,
    age_on,
    canonicalize,
    dataset_from_bytes,
    dataset_to_bytes,
    index_dtype,
    make_dataset,
    read_dataset_csv,
    to_columns,
    write_dataset_csv,
)
from phtlink.pseudonym import DIGEST_DTYPE, Salt, pseudonymize
from phtlink.synth import SyntheticPopulationSpec, generate_population


class _IntSubclass(int):
    pass


def _values(cols: Columns) -> list[list]:
    """Each payload column of ``cols`` as a list of Python values."""
    return [c.tolist() if isinstance(c, np.ndarray) else c for c in cols.payload]


class _StrSubclass(str):
    pass


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

    def test_station_rows_hold_no_instance_dict(self):
        # a station holds a Record and a QuasiIdentifierSet per row: both slotted
        qid = canonicalize(raw())
        for row in (qid, Record(payload={"age": 40}, qid=qid)):
            assert not hasattr(row, "__dict__"), type(row).__name__

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

    def test_unknown_variable_type_refused(self):
        # a column of strings would pass as "blob" if only its values were checked
        rows = [Record(payload={"note": "x"}), Record(payload={"note": "y"})]
        with pytest.raises(ValueError, match="unknown variable type 'blob' for 'note'"):
            make_dataset("A", (("note", "blob"),), rows)
        body = dataset_to_bytes(make_dataset("A", (("note", "categorical"),), rows))
        with pytest.raises(ValueError, match="unknown variable type 'blob' for 'note'"):
            dataset_from_bytes(with_header(body, schema=[["note", "blob"]]), "A")

    @settings(max_examples=200, deadline=None)
    @given(
        vtype=st.sampled_from(VARIABLE_TYPES),
        column=st.lists(st.one_of(
            st.integers(), st.floats(), st.text(max_size=3), st.booleans(), st.none(),
            st.builds(np.float64, st.floats()), st.builds(np.int64, st.integers(-2**63, 2**63 - 1)),
            st.builds(_IntSubclass, st.integers()), st.builds(_StrSubclass, st.text(max_size=3)),
        ), max_size=8),
    )
    def test_type_check_agrees_with_a_walk_value_by_value(self, vtype, column):
        """The exact-type check refuses what an isinstance walk over every
        value refuses, subclasses such as bool and np.float64 included."""
        wanted = (int, float) if vtype == "numeric" else str
        walk_holds = all(isinstance(v, wanted) for v in column)
        ds = Dataset("A", (("v", vtype),), [Record(payload={"v": v}) for v in column],
                     DatasetDescriptor("t", "2026-01-01T00:00:00Z", len(column)))
        if walk_holds:
            ds.validate()
        else:
            with pytest.raises(ValueError, match="does not hold"):
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

    def test_byte_order_mark_is_not_part_of_the_first_column(self, tmp_path):
        # spreadsheet exports often start a UTF-8 CSV with EF BB BF
        csv_path = tmp_path / "a.csv"
        write_dataset_csv(self._dataset(), csv_path)
        plain = read_dataset_csv(csv_path)
        csv_path.write_bytes(b"\xef\xbb\xbf" + csv_path.read_bytes())
        assert read_dataset_csv(csv_path) == plain

    def test_header_has_exact_linkage_field_names(self, tmp_path):
        write_dataset_csv(self._dataset(), tmp_path / "a.csv")
        header = (tmp_path / "a.csv").read_text().splitlines()[0]
        assert header == "zip_code,house_number,gender,date_of_birth,age,status"

    def test_sidecar_descriptor_fields(self, tmp_path):
        write_dataset_csv(self._dataset(), tmp_path / "a.csv")
        doc = json.loads((tmp_path / "a.descriptor.json").read_text())
        assert set(doc) == {"station_id", "extracted_at", "row_count", "schema"}
        assert doc["row_count"] == 2


class TestCsvReadStrictly:
    """A station's CSV and sidecar fail closed, naming the file and line,
    instead of loading a dataset every run would abort on."""

    HEADER = "zip_code,house_number,gender,date_of_birth,age"

    def _files(self, tmp_path, *rows, **sidecar):
        (tmp_path / "a.csv").write_text("\n".join((self.HEADER, *rows)) + "\n")
        doc = {"station_id": "A", "extracted_at": "2026-01-01T00:00:00Z",
               "row_count": len(rows), "schema": [["age", "numeric"]], **sidecar}
        (tmp_path / "a.descriptor.json").write_text(json.dumps(doc))
        return tmp_path / "a.csv"

    @pytest.mark.parametrize("row", [
        "6211AB,12,F,1960-03-15",  # short: the age cell is missing
        "6211AB,12,F,1960-03-15,66,x",  # long: an extra cell
        "6211AB,12,F",
    ])
    def test_row_with_the_wrong_cell_count_names_its_line(self, tmp_path, row):
        path = self._files(tmp_path, "6211AB,12,F,1960-03-15,66", row)
        with pytest.raises(ValueError, match="a.csv line 3: expected the header's 5 cells"):
            read_dataset_csv(path)

    def test_malformed_identifier_names_its_line(self, tmp_path):
        path = self._files(tmp_path, "6211AB,12,F,1960-03-15,66", "6211AB,12,F,1960-31-01,66")
        with pytest.raises(MalformedField) as err:
            read_dataset_csv(path)
        assert err.value.field == "date_of_birth"
        assert str(err.value) == (f"{path} line 3: malformed date_of_birth: '1960-31-01' "
                                  "(month must be in 1..12)")

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
    def test_non_finite_numeric_cell_names_its_line(self, tmp_path, cell):
        path = self._files(tmp_path, f"6211AB,12,F,1960-03-15,{cell}")
        with pytest.raises(ValueError, match="a.csv line 2: .*not a finite number"):
            read_dataset_csv(path)

    @pytest.mark.parametrize("header", [False, True])
    def test_cell_past_the_reader_size_limit_names_its_line(self, tmp_path, header):
        # csv raises its own csv.Error here, which is no ValueError
        big = "9" * 200_000
        rows = ["6211AB,12,F,1960-03-15,66", f"6211AB,12,F,1960-03-15,{big}"]
        path = self._files(tmp_path, *rows)
        if header:
            path.write_text(f"{self.HEADER},{big}\n{rows[0]}\n")
        with pytest.raises(ValueError, match=f"a.csv line {1 if header else 3}: "
                                             "field larger than field limit"):
            read_dataset_csv(path)

    @pytest.mark.parametrize("at", [1, 2, 400])
    def test_byte_that_is_not_utf8_names_its_line(self, tmp_path, at):
        rows = ["6211AB,12,F,1960-03-15,66"] * 400
        path = self._files(tmp_path, *rows)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[at - 1] = lines[at - 1].replace(b",", b"\xff,", 1)
        # behind a byte-order mark, as spreadsheet exports write
        path.write_bytes(b"\xef\xbb\xbf" + b"".join(lines))
        with pytest.raises(ValueError, match=f"a.csv line {at}: byte 0xff is not UTF-8"):
            read_dataset_csv(path)

    @pytest.mark.parametrize("cell, value", [("66", 66), ("66.0", 66), ("1e3", 1000),
                                             ("66.5", 66.5), ("1e308", 1e308)])
    def test_finite_numeric_cells_load(self, tmp_path, cell, value):
        path = self._files(tmp_path, f"6211AB,12,F,1960-03-15,{cell}")
        assert read_dataset_csv(path).rows[0].payload == {"age": value}

    @pytest.mark.parametrize("sidecar, named", [
        ({"sorce": "x"}, "unknown Sidecar key 'sorce'"),
        ({"extra": 1, "sorce": "x"}, r"unknown Sidecar keys \['extra', 'sorce'\]"),
        ({"station_id": 5}, "'station_id'"),
        ({"row_count": 1.0}, "'row_count'"),
        ({"row_count": "1"}, "'row_count'"),
        ({"schema": [["age"]]}, "'schema'"),
        ({"source": 7}, "'source'"),
        ({"row_count": float("nan")}, "non-finite"),
    ])
    def test_sidecar_is_read_strictly(self, tmp_path, sidecar, named):
        path = self._files(tmp_path, "6211AB,12,F,1960-03-15,66", **sidecar)
        with pytest.raises(ValueError, match=f"a.descriptor.json: .*{named}"):
            read_dataset_csv(path)

    @pytest.mark.parametrize("text", ["[1, 2]", "null", '"x"'])
    def test_sidecar_must_be_an_object(self, tmp_path, text):
        path = self._files(tmp_path, "6211AB,12,F,1960-03-15,66")
        (tmp_path / "a.descriptor.json").write_text(text)
        with pytest.raises(ValueError, match="Sidecar must be a JSON object"):
            read_dataset_csv(path)

    def test_sidecar_source_is_kept_and_defaults_to_the_csv_path(self, tmp_path):
        path = self._files(tmp_path, "6211AB,12,F,1960-03-15,66", source="registry 2026")
        assert read_dataset_csv(path).descriptor.source == "registry 2026"
        path = self._files(tmp_path, "6211AB,12,F,1960-03-15,66")
        assert read_dataset_csv(path).descriptor.source == str(path)


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
        back = dataset_from_bytes(dataset_to_bytes(ds), "A")
        assert back.parts == ("composite", "field_codes")
        assert back.digests.tobytes() == bytes.fromhex(vec.composite)
        assert per_row_digests(back.fields).tobytes() == bytes.fromhex("".join(vec.per_field))
        assert back.payload_column("age").tolist() == [40]
        assert back.station_id == "A"


class TestColumnarBody:
    """The binary dataset body: header, raw digests, and its length checks."""

    @staticmethod
    def _dataset(mode, n=3):
        salt = Salt(b"\x03" * 32, "run-x")
        rows = [
            Record(
                payload={"age": 40 + i, "status": f"s{i}", "score": i / 3},
                pseudonym=pseudonymize(canonicalize(raw(house=str(i + 1))), salt, mode),
            )
            for i in range(n)
        ]
        return make_dataset(
            "A", (("age", "numeric"), ("status", "categorical"), ("score", "numeric")), rows,
        )

    @staticmethod
    def _assert_same(back, ds):
        """The decoded columns hold everything the dataset held."""
        assert back.station_id == ds.station_id
        assert back.schema == ds.schema
        assert _values(back) == [ds.payload_column(n) for n in ds.variable_names()]
        vectors = [r.pseudonym for r in ds.rows if r.pseudonym is not None]
        composites = [v.composite for v in vectors if v.composite is not None]
        assert back.digests.tobytes() == bytes.fromhex("".join(composites))
        assert back.digests.shape == (len(ds.rows), len(composites) // max(len(ds.rows), 1))
        per_field = [d for v in vectors for d in v.per_field]
        if per_field:
            assert per_row_digests(back.fields).tobytes() == bytes.fromhex("".join(per_field))
        else:
            assert back.fields is None

    @pytest.mark.parametrize("mode", ["exact", "probabilistic", None])
    def test_roundtrip_per_mode(self, mode):
        ds = self._dataset(mode)
        back = dataset_from_bytes(dataset_to_bytes(ds), "A")
        self._assert_same(back, ds)
        assert back.parts == {"exact": ("composite",), "probabilistic": ("field_codes",),
                              None: ("composite", "field_codes")}[mode]

    def test_roundtrip_without_pseudonyms_or_rows(self):
        merged = make_dataset("A+B", (("age", "numeric"),), [Record(payload={"age": 1})])
        self._assert_same(dataset_from_bytes(dataset_to_bytes(merged), "A+B"), merged)
        empty = make_dataset("A", (("age", "numeric"),), [])
        self._assert_same(dataset_from_bytes(dataset_to_bytes(empty), "A"), empty)

    def test_digests_travel_raw_after_a_length_prefixed_header(self):
        ds = self._dataset("exact")
        body = dataset_to_bytes(ds)
        header_len = int.from_bytes(body[:4], "big")
        header = json.loads(body[4 : 4 + header_len])
        assert header["digests"] == ["composite"]
        assert header["row_count"] == 3
        # the ages are coded, one byte each after the digests; the other
        # columns travel in the header
        assert header["columns"] == ["u1", ["s0", "s1", "s2"], [0.0, 1 / 3, 2 / 3]]
        assert body.endswith(bytes([40, 41, 42]))
        raw_digests = body[4 + header_len : -3]
        assert raw_digests == b"".join(bytes.fromhex(r.pseudonym.composite) for r in ds.rows)
        assert ds.rows[0].pseudonym.composite.encode() not in body

    def test_salt_check_travels_and_is_required(self):
        cols = to_columns(self._dataset("exact"))
        cols.salt_check = Salt(b"\x03" * 32, "run-x").check
        body = dataset_to_bytes(cols)
        assert dataset_from_bytes(body, "A").salt_check == cols.salt_check
        header_len = int.from_bytes(body[:4], "big")
        header = json.loads(body[4 : 4 + header_len])
        del header["salt_check"]
        doc = json.dumps(header).encode()
        with pytest.raises(ValueError, match="salt_check"):
            dataset_from_bytes(len(doc).to_bytes(4, "big") + doc + body[4 + header_len :], "A")

    def test_rows_with_different_digest_parts_refused(self):
        ds = self._dataset("exact")
        other = self._dataset("probabilistic")
        ds.rows[1] = other.rows[1]
        with pytest.raises(ValueError):
            dataset_to_bytes(ds)

    def test_corrupt_lengths_rejected(self):
        body = dataset_to_bytes(self._dataset(None))
        header_len = int.from_bytes(body[:4], "big")
        width = DIGEST_DTYPE.itemsize
        lengths_at = 4 + header_len + 3 * width
        composites = body[4 + header_len : lengths_at]
        wide = b"".join(composites[i : i + width] + b"\xee" * width
                        for i in range(0, 3 * width, width))
        for bad in (
            body[:-1],  # one index byte short
            body + b"\x00",  # one byte too many
            body[: 4 + header_len] + wide + body[lengths_at:],  # composites twice as wide
            (header_len + 1).to_bytes(4, "big") + body[4:],  # header swallows a byte
            (header_len - 1).to_bytes(4, "big") + body[4:],  # header cut short
            (2**32 - 1).to_bytes(4, "big") + body[4:],  # header overruns the body
            body[:3],  # no room for the length itself
            body[:lengths_at + 15],  # no room for the dictionary lengths
        ):
            with pytest.raises(ValueError):
                dataset_from_bytes(bad, "A")

    @pytest.mark.parametrize("length, named", [
        (4, "overrun"),  # a dictionary one digest longer than it is
        (2, "digest bytes"),  # one digest shorter
        (2**32 - 1, "overrun"),  # far past the body
    ])
    def test_dictionary_length_that_does_not_fit_rejected(self, length, named):
        body = bytearray(dataset_to_bytes(self._dataset("probabilistic")))
        lengths_at = 4 + int.from_bytes(body[:4], "big")
        lengths = np.frombuffer(body, LENGTH_DTYPE, 4, lengths_at).copy()
        assert lengths.tolist() == [1, 3, 1, 1]  # the rows differ in house number only
        lengths[1] = length
        body[lengths_at : lengths_at + 16] = lengths.tobytes()
        with pytest.raises(ValueError, match=named):
            dataset_from_bytes(bytes(body), "A")

    @staticmethod
    def _house_numbers_coded(dictionary, index):
        """A probabilistic body whose house-number field carries ``dictionary``,
        built from the three distinct house-number digests by position, and
        ``index``: dataset_to_bytes writes any codes it is given."""
        cols = to_columns(TestColumnarBody._dataset("probabilistic"))
        fields = list(cols.fields.dictionaries)
        fields[1] = np.concatenate((fields[1], [b"\x07" * DIGEST_DTYPE.itemsize]))[dictionary]
        codes = list(cols.fields.index)
        codes[1] = np.array(index, index_dtype(len(fields[1])))
        coded = FieldCodes(tuple(fields), tuple(codes))
        return dataset_to_bytes(dataclasses.replace(cols, fields=coded))

    def test_canonical_codes_accepted(self):
        assert dataset_from_bytes(self._house_numbers_coded([0, 1, 2], [0, 1, 2]), "A").n_rows == 3

    def test_entries_that_share_their_first_bytes_are_no_duplicates(self):
        cols = to_columns(self._dataset("probabilistic"))
        shared = np.array([b"\xab" * 8 + bytes([i]) * (DIGEST_DTYPE.itemsize - 8)
                           for i in range(3)], DIGEST_DTYPE)
        dictionaries = list(cols.fields.dictionaries)
        dictionaries[1] = shared
        coded = FieldCodes(tuple(dictionaries), cols.fields.index)
        back = dataset_from_bytes(dataset_to_bytes(dataclasses.replace(cols, fields=coded)), "A")
        assert back.fields.dictionaries[1].tobytes() == shared.tobytes()

    @pytest.mark.parametrize("dictionary, index, named", [
        ([0, 1, 2], [0, 1, 3], "house_number: index 3 past its dictionary of 3 digests"),
        ([0, 1, 0], [0, 1, 2], "house_number: duplicate dictionary entry"),
        ([0, 1, 2, 3], [0, 1, 2], "house_number: dictionary entry 3 of 4 unused"),
        ([1, 0, 2], [1, 0, 2], "house_number: dictionary entries out of first-row order"),
        ([0, 1, 2], [0, 2, 1], "house_number: dictionary entries out of first-row order"),
    ])
    def test_codes_out_of_canonical_form_rejected(self, dictionary, index, named):
        body = self._house_numbers_coded(dictionary, index)
        with pytest.raises(ValueError, match=named):
            dataset_from_bytes(body, "A")

    @pytest.mark.parametrize("mode", ["probabilistic", None])
    def test_row_major_per_field_body_refused_by_name(self, mode):
        body = row_major_body(dataset_to_bytes(self._dataset(mode)))
        with pytest.raises(ValueError, match=r"unknown digest parts \[.*'per_field'\]"):
            dataset_from_bytes(body, "A")

    @pytest.mark.parametrize("key, value, named", [
        ("extra", "x", "extra"),  # a key the header does not declare
        ("row_count", True, "row_count"),
        ("schema", [["age", 1], ["status", "categorical"], ["score", "numeric"]], "schema"),
        ("digests", "composite", "digests"),
        # keys of the previous format's header
        ("descriptor", {"source": "s", "extracted_at": "t", "row_count": 3},
         "unknown _BodyHeader key 'descriptor'"),
        ("station_id", "A", "unknown _BodyHeader key 'station_id'"),
        ("columns", ["abc", ["s0", "s1", "s2"], [0.0, 0.5, 1.0]], "age"),
        ("salt_check", 7, "salt_check"),
    ])
    def test_header_of_the_wrong_shape_rejected(self, key, value, named):
        body = dataset_to_bytes(self._dataset("exact"))
        header_len = int.from_bytes(body[:4], "big")
        header = {**json.loads(body[4 : 4 + header_len]), key: value}
        doc = json.dumps(header).encode()
        with pytest.raises(ValueError, match=named):
            dataset_from_bytes(len(doc).to_bytes(4, "big") + doc + body[4 + header_len :], "A")

    @pytest.mark.parametrize("mode", [None, "probabilistic"])
    @given(cut=st.integers(0, 400), flip=st.integers(0, 8 * 400 - 1))
    @settings(max_examples=100, deadline=None)
    def test_mangled_body_raises_only_value_error(self, mode, cut, flip):
        body = bytearray(dataset_to_bytes(self._dataset(mode, n=2)))
        body[flip // 8 % len(body)] ^= 1 << (flip % 8)
        try:
            dataset_from_bytes(bytes(body[: len(body) - cut]), "A")
        except ValueError:
            pass


#: payload values at the edges of what a coded column holds, and past them
_EDGE_INTS = [0, 1, -1, 255, 256, -128, -129, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1,
              2**64 - 1, 2**64]
_SCALARS = st.one_of(
    st.integers(), st.sampled_from(_EDGE_INTS), st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 1e308, 5e-324]),
)


class TestPayloadColumns:
    """A non-empty column of exact ints that fits 64 bits travels as one
    little-endian array at the narrowest width its values need; any other
    column as a JSON array. Either way the values and their Python types
    come back, and the TSE accepts only that one form."""

    #: a column's values by kind; "str" is a categorical variable, the rest numeric
    KINDS = {
        "int": st.integers(), "edge": st.sampled_from(_EDGE_INTS), "bool": st.booleans(),
        "float": st.sampled_from([-0.0, 0.0, 1e308, 5e-324, 0.5]),
        "mixed": _SCALARS, "str": st.text(max_size=3),
    }

    @staticmethod
    def _dataset(columns, salt_check="", types=None):
        """A payload-only dataset of one variable per column, numeric
        unless ``types`` says otherwise."""
        n = len(columns[0]) if columns else 0
        types = types or ["numeric"] * len(columns)
        schema = tuple((f"v{k}", vtype) for k, vtype in enumerate(types))
        rows = [Record(payload={name: column[r] for (name, _), column in zip(schema, columns)})
                for r in range(n)]
        cols = to_columns(make_dataset("A", schema, rows))
        return dataclasses.replace(cols, salt_check=salt_check)

    @given(n=st.integers(0, 6), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_values_and_types_round_trip(self, n, data):
        kinds = data.draw(st.lists(st.sampled_from(sorted(self.KINDS)), min_size=1, max_size=3))
        columns = [data.draw(st.lists(self.KINDS[kind], min_size=n, max_size=n)) for kind in kinds]
        types = ["categorical" if kind == "str" else "numeric" for kind in kinds]
        body = dataset_to_bytes(self._dataset(columns, types=types))
        back = dataset_from_bytes(body, "A")
        assert dataset_to_bytes(back) == body  # views encode as the lists did
        got = _values(back)
        assert got == columns
        assert [[type(v) for v in c] for c in got] == [[type(v) for v in c] for c in columns]
        # -0.0 == 0.0, so the sign is checked apart
        assert [[math.copysign(1, v) for v in c if type(v) is float] for c in got] == [
            [math.copysign(1, v) for v in c if type(v) is float] for c in columns]

    @pytest.mark.parametrize("column, vtype", [
        ([], "numeric"), ([True, False], "numeric"), ([1, 2.5], "numeric"),
        ([1.0, 2.0], "numeric"), (["1", "2"], "categorical"),
    ])
    def test_other_columns_travel_as_json_arrays(self, column, vtype):
        body = dataset_to_bytes(self._dataset([column], types=[vtype]))
        header_len = int.from_bytes(body[:4], "big")
        assert json.loads(body[4 : 4 + header_len])["columns"] == [column]
        assert len(body) == 4 + header_len

    @pytest.mark.parametrize("values, marker", [
        ([0, 255], "u1"), ([0, 256], "u2"), ([0, 65535], "u2"), ([0, 65536], "u4"),
        ([0, 2**32 - 1], "u4"), ([0, 2**32], "u8"), ([0, 2**64 - 1], "u8"),
        ([-128, 127], "i1"), ([-129, 0], "i2"), ([-1, 128], "i2"), ([-(2**31), 0], "i4"),
        ([-(2**31) - 1, 0], "i8"), ([-(2**63), 2**63 - 1], "i8"),
        ([-1, 2**63], None), ([0, 2**64], None), ([-(2**63) - 1, 0], None),
    ])
    def test_column_travels_at_the_narrowest_width(self, values, marker):
        # a salt check one character longer moves the column one byte on,
        # so each width is read as a view at an even and at an odd offset
        starts = set()
        column = values + values[::-1] + [values[0]]
        for salt_check in ("s", "ss"):
            body = dataset_to_bytes(self._dataset([column], salt_check))
            header_len = int.from_bytes(body[:4], "big")
            entry = json.loads(body[4 : 4 + header_len])["columns"][0]
            back = dataset_from_bytes(body, "A")
            assert _values(back) == [column]
            if marker is None:
                assert entry == column and isinstance(back.payload[0], list)
                continue
            assert entry == marker
            view = back.payload[0]
            assert view.dtype == np.dtype(f"<{marker}") and not view.flags.writeable
            assert body.endswith(np.array(column, f"<{marker}").tobytes())
            starts.add((len(body) - view.nbytes) % 2)
        assert starts == ({0, 1} if marker else set())

    @pytest.mark.parametrize("sent, named", [
        ("u2", "'v0' travels as u2, where its values take u1"),  # wider than needed
        ("i1", "'v0' travels as i1, where its values take u1"),  # signed, though none is negative
        ("u3", "'v0': unknown width marker 'u3'"),
        ("f8", "'v0': unknown width marker 'f8'"),
        ("abc", "'v0': unknown width marker 'abc'"),
        ("<u1", "'v0': unknown width marker '<u1'"),
    ])
    def test_coded_column_out_of_canonical_form_refused(self, sent, named):
        body = dataset_to_bytes(self._dataset([[1, 2, 3, 4]]))
        values = np.array([1, 2, 3, 4], PAYLOAD_DTYPES.get(sent, "u1")).tobytes()
        with pytest.raises(ValueError, match=named):
            dataset_from_bytes(with_header(body[:-4] + values, columns=[sent]), "A")

    def test_json_column_the_rule_codes_refused(self):
        # a body as stations wrote it before integer columns were coded
        body = dataset_to_bytes(self._dataset([[1, 2, 3]]))
        body = with_header(body[:-3], columns=[[1, 2, 3]])
        named = "'v0' travels as a JSON array, where its values take u1"
        with pytest.raises(ValueError, match=named):
            dataset_from_bytes(body, "A")

    def test_coded_empty_column_refused(self):
        body = with_header(dataset_to_bytes(self._dataset([[]])), columns=["u1"])
        with pytest.raises(ValueError, match="'v0' travels as u1, where its values take a JSON"):
            dataset_from_bytes(body, "A")

    def test_coded_column_of_another_type_refused(self):
        body = dataset_to_bytes(self._dataset([["x"]], types=["categorical"]))
        with pytest.raises(ValueError, match="'v0' of type categorical travels as u1"):
            dataset_from_bytes(with_header(body + b"\x07", columns=["u1"]), "A")

    @pytest.mark.parametrize("cut, named", [(1, "v1"), (3, "v0")])
    def test_coded_column_that_overruns_the_body_refused(self, cut, named):
        body = dataset_to_bytes(self._dataset([[1, 300], [5, 6]]))
        assert body.endswith(np.array([1, 300], "<u2").tobytes() + bytes([5, 6]))
        with pytest.raises(ValueError, match=f"variable '{named}': .* overrun a body"):
            dataset_from_bytes(body[:-cut], "A")

    def test_column_count_that_differs_from_the_schema_refused(self):
        body = with_header(dataset_to_bytes(self._dataset([[1, 2]])), columns=["u1", "u1"])
        with pytest.raises(ValueError, match="payload columns do not match the schema"):
            dataset_from_bytes(body, "A")


class TestIndexWidth:
    """Each field's index travels at the narrowest width that addresses its
    dictionary, on either side of each width's top value. Field 0's
    dictionary holds ``size`` synthetic digests, used in order and then
    again, the top entry among them; the other three hold one digest each."""

    SIZES = [(255, 1), (256, 1), (257, 2), (65535, 2), (65536, 2), (65537, 4)]

    @staticmethod
    def _coded(size, first_uses=None, salt_check="s") -> Columns:
        rng = np.random.default_rng(size)
        dictionary = np.frombuffer(rng.bytes(DIGEST_DTYPE.itemsize * size), DIGEST_DTYPE)
        others = np.frombuffer(rng.bytes(DIGEST_DTYPE.itemsize), DIGEST_DTYPE)
        first_uses = np.arange(size) if first_uses is None else first_uses
        codes = np.concatenate((first_uses, [size - 1, 0, 3, size - 1, 1]))
        n = len(codes)
        index = (codes.astype(index_dtype(size)), *[np.zeros(n, "u1")] * 3)
        fields = FieldCodes((dictionary, others, others, others), index)
        return Columns("A", (), [], np.empty((n, 0), DIGEST_DTYPE), fields, salt_check)

    @staticmethod
    def _as_uint32(fields: FieldCodes) -> FieldCodes:
        return FieldCodes(fields.dictionaries, tuple(i.astype("<u4") for i in fields.index))

    @pytest.mark.parametrize("size, width", SIZES)
    def test_index_round_trips_at_its_width(self, size, width):
        starts = set()
        # a salt check one character longer moves the index one byte on,
        # so each width is read as a view at an even and at an odd offset
        for salt_check in ("s", "ss"):
            cols = self._coded(size, salt_check=salt_check)
            body = dataset_to_bytes(cols)
            back = dataset_from_bytes(body, "A")
            assert [i.dtype.itemsize for i in back.fields.index] == [width, 1, 1, 1]
            # field 0's index, then the other three's, close the body
            codes = cols.fields.index[0].astype(f"<u{width}")
            assert body.endswith(codes.tobytes() + bytes(3 * cols.n_rows))
            starts.add((len(body) - (width + 3) * cols.n_rows) % 2)
            for got, sent in zip(back.fields.index, cols.fields.index):
                assert np.array_equal(got, sent)
            assert back.fields.dictionaries[0].tobytes() == cols.fields.dictionaries[0].tobytes()
        assert starts == {0, 1}

    @pytest.mark.parametrize("size, width", SIZES)
    def test_field_codes_match_the_uint32_index(self, size, width):
        fields_a = dataset_from_bytes(dataset_to_bytes(self._coded(size)), "A").fields
        # B holds A's top entry and its first, in that order, and a digest of its own
        dictionary = fields_a.dictionaries[0]
        fields_b = FieldCodes(
            (np.concatenate((dictionary[[size - 1, 0]], [b"\x07" * DIGEST_DTYPE.itemsize])),
             *fields_a.dictionaries[1:]),
            (np.array([0, 1, 2, 0], "u1"), *[np.zeros(4, "u1")] * 3))
        narrow = linkage._field_codes(fields_a, fields_b)
        wide = linkage._field_codes(self._as_uint32(fields_a), self._as_uint32(fields_b))
        assert np.array_equal(narrow, wide)
        assert narrow[0, -4:].tolist() == [size - 1, 0, size, size - 1]

    @pytest.mark.parametrize("size, width", SIZES)
    def test_index_that_skips_an_entry_to_its_top_refused(self, size, width):
        # the last entry is used before the one ahead of it: at 256 and
        # 65,536 entries, a jump to the width's top value, 255 or 65,535
        first_uses = np.concatenate((np.arange(size - 2), [size - 1, size - 2]))
        body = dataset_to_bytes(self._coded(size, first_uses))
        with pytest.raises(ValueError, match="zip_code: dictionary entries out of first-row order"):
            dataset_from_bytes(body, "A")

    def test_uint32_index_of_a_small_dictionary_refused(self):
        # a body from a station that still writes every index as a uint32
        cols = self._coded(255)
        body = dataset_to_bytes(dataclasses.replace(cols, fields=self._as_uint32(cols.fields)))
        with pytest.raises(ValueError, match="digest bytes"):
            dataset_from_bytes(body, "A")


# SHA-256 of dataset_to_bytes on an 800-row seeded population (seed 23). The
# three pseudonymized pins were derived from the bodies of whole 64-byte
# SHA-512 digests, with each digest cut to its first 32 bytes and the header
# left as it was. Every pin was then moved once more, when the header gained
# its "salt_check" key: the bodies are the earlier ones with exactly
# ',"salt_check":""' added to the header JSON and its length prefix. The
# None and "probabilistic" pins moved when per-field digests became
# dictionary coded; ROW_MAJOR_BODIES keeps their earlier values, which the
# coded bodies still give once their dictionaries are expanded through their
# index and the header names the part "per_field" again. The two coded pins
# moved once more when each field's index narrowed from 4 bytes per row to
# its dictionary's width: the bodies are the earlier ones with the index,
# fields of 691, 196, 2 and 784 digests, rewritten at 2, 1, 1 and 2 bytes.
# All but the empty pin moved when integer payload columns became coded: the
# bodies are the earlier ones with the header's age and income arrays
# replaced by the markers "u1" and "u4", and those values appended after the
# digests as little-endian uint8 and uint32, a rewrite checked with struct
# and json alone. row_major_body writes the columns back as JSON arrays, so
# ROW_MAJOR_BODIES did not move. Every pin, ROW_MAJOR_BODIES too, moved when
# the header lost its "station_id" and "descriptor" keys: the bodies are the
# earlier ones with those two keys deleted from the header JSON, which was
# written again in canonical form, and its length prefix rewritten, a
# rewrite done with struct and json alone. The three pseudonymized pins and
# both ROW_MAJOR_BODIES moved when digests were cut from 32 bytes to 16: the
# bodies are the earlier ones with the last 16 bytes of every composite,
# dictionary entry and row-major digest dropped, the header, lengths, index
# and payload columns unchanged, a rewrite done with struct and json alone.
# The same five pins moved when pseudonyms became AES-256-ECB, under
# SHA-256("PHT-PSEUDONYM-KEY|" + salt), of salt-free SHA-512 fingerprints:
# the bodies are the earlier ones with every composite and dictionary entry,
# and every digest of a row-major body, replaced by the digest the new layout
# gives the same preimage, each computed with hashlib and cryptography's AES
# alone, the header, lengths, index and payload columns unchanged.
PINNED_BODIES = {
    None: "cc9badd7450506735575fc69976e999a575e46a0d6ba51c052554bb4f7eeb0db",
    "exact": "9d0ecb32c771f40de796662375ab80961fb137941a40b8a18438b4a71d222032",
    "probabilistic": "597cf93e4b475475995f9850bac3ea20d85c7c923a62cefcd3ba51c88e845355",
    "payload_only": "75b036059f9ffc31c3304de7b5c48d092a79fa9fa0c40ab9f3c3469ab0e7063a",
    "empty": "655c3812a6154f27c13df6dad4c5dbff3559aaa138cf215f9f083aba7c0a214b",
}
ROW_MAJOR_BODIES = {
    None: "c4962ccbe5b67f6e13526e647fab679f82e12e162b3d63e72a31bb9550decc94",
    "probabilistic": "2f7f9b923a6c3f36c9a4e74249771bdc4e347cf3156dd236c8a4080985b453dd",
}


class TestBodyPinned:
    """Dataset bodies pinned byte for byte, so that a rewrite of the
    serializer cannot move a byte of what travels to the TSE."""

    @staticmethod
    def _population():
        large, _, _ = generate_population(SyntheticPopulationSpec(
            n_large=800, n_small=120, overlap_fraction=0.5, perturbation_rate=0.05, seed=23,
        ))
        return large

    @classmethod
    def _pseudonymized_body(cls, mode) -> bytes:
        large = cls._population()
        salt = Salt(hashlib.sha512(b"pinned body").digest()[:32], "run-pin")
        rows = [
            Record(payload=dict(r.payload), pseudonym=pseudonymize(r.qid, salt, mode))
            for r in large.rows
        ]
        digests = [d for r in rows for d in (r.pseudonym.composite, *r.pseudonym.per_field) if d]
        # numpy strips a trailing NUL from an S16 item: the pin must cover one
        assert any(d.endswith("00") for d in digests)
        return dataset_to_bytes(dataclasses.replace(large, rows=rows))

    @pytest.mark.parametrize("mode", [None, "exact", "probabilistic"])
    def test_pseudonymized_body_pinned(self, mode):
        body = self._pseudonymized_body(mode)
        assert hashlib.sha256(body).hexdigest() == PINNED_BODIES[mode]

    @pytest.mark.parametrize("mode", [None, "probabilistic"])
    def test_coded_body_expands_to_the_row_major_body(self, mode):
        body = row_major_body(self._pseudonymized_body(mode))
        assert hashlib.sha256(body).hexdigest() == ROW_MAJOR_BODIES[mode]

    def test_payload_only_body_pinned(self):
        large = self._population()
        ds = make_dataset(
            "A+B", large.schema, [Record(payload=dict(r.payload)) for r in large.rows],
            source="merged", extracted_at="2026-01-01T00:00:00Z",
        )
        body = dataset_to_bytes(ds)
        assert hashlib.sha256(body).hexdigest() == PINNED_BODIES["payload_only"]

    def test_empty_body_pinned(self):
        body = dataset_to_bytes(make_dataset("A", (("age", "numeric"),), []))
        assert hashlib.sha256(body).hexdigest() == PINNED_BODIES["empty"]


class TestCsvWithoutQids:
    @pytest.mark.parametrize("dropped", QID_FIELDS)
    def test_missing_qid_column_is_refused(self, tmp_path, dropped):
        write_dataset_csv(make_dataset(
            "A", (("age", "numeric"),), [Record(payload={"age": 50}, qid=canonicalize(raw()))]
        ), tmp_path / "a.csv")
        lines = (tmp_path / "a.csv").read_text().splitlines()
        at = QID_FIELDS.index(dropped)
        kept = [",".join(c for k, c in enumerate(line.split(",")) if k != at) for line in lines]
        (tmp_path / "a.csv").write_text("\n".join(kept) + "\n")
        with pytest.raises(MalformedField) as err:
            read_dataset_csv(tmp_path / "a.csv")
        assert err.value.field == dropped
