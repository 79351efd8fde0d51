"""Core data model: quasi-identifiers, records, datasets, file interchange.

Linkage rests on both data stations rendering the same person's identifying
fields into exactly the same canonical strings before hashing, so the
canonicalization rules here are a wire-level contract, not a convenience.

Canonical forms
---------------
zip_code        Dutch format, 4 digits + 2 uppercase letters, no spaces.
house_number    positive integer as a decimal string, no leading zeros,
                no suffixes ("12a" is rejected).
gender          one of "F", "M", "X".
date_of_birth   ISO 8601 "YYYY-MM-DD", year between 1900 and the current year.

A pseudonymized dataset travels to the analysis station as a columnar binary
body (dataset_to_bytes): a length-prefixed canonical JSON header holding the
schema, descriptor and one array per payload column, then the raw 64-byte
digests of every row. In memory a digest stays a 128-character hex string.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from .encoding import canonical_json_bytes
from .errors import MalformedField
from .pseudonym import DIGEST_HEX_LENGTH, PseudonymVector

#: Order of the linkage fields everywhere in the package: CSV columns,
#: pseudonym per-field digests, agreement vectors, m/u parameter vectors.
QID_FIELDS = ("zip_code", "house_number", "gender", "date_of_birth")

#: Payload variable types allowed in a dataset schema.
VARIABLE_TYPES = ("numeric", "categorical", "date")

_ZIP_RE = re.compile(r"^[0-9]{4}[A-Z]{2}$")
_ISO_DATE_RE = re.compile(r"^(\d{4})-(\d{2})-(\d{2})$", re.ASCII)
_DMY_DATE_RE = re.compile(r"^(\d{2})-(\d{2})-(\d{4})$", re.ASCII)

_GENDER_MAP = {
    "f": "F", "v": "F", "female": "F",
    "m": "M", "male": "M",
    "x": "X", "other": "X",
}


@dataclass(frozen=True)
class QuasiIdentifierSet:
    """The four linkage fields in canonical form."""

    zip_code: str
    house_number: str
    gender: str
    date_of_birth: str

    def as_tuple(self) -> tuple[str, str, str, str]:
        return (self.zip_code, self.house_number, self.gender, self.date_of_birth)

    def field_values(self) -> dict[str, str]:
        return dict(zip(QID_FIELDS, self.as_tuple()))


def _canon_zip(raw: str) -> str:
    value = raw.strip().replace(" ", "").upper()
    if not _ZIP_RE.match(value):
        raise MalformedField("zip_code", raw, "expected 4 digits + 2 letters")
    return value


def _canon_house(raw: str) -> str:
    value = raw.strip()
    # ASCII check matters: str.isdigit also accepts e.g. Arabic-Indic digits,
    # which must not silently canonicalize
    if not (value.isascii() and value.isdigit()):
        raise MalformedField("house_number", raw, "expected a positive integer")
    number = int(value)
    if number <= 0:
        raise MalformedField("house_number", raw, "must be positive")
    return str(number)


def _canon_gender(raw: str) -> str:
    token = raw.strip().lower()
    if token in _GENDER_MAP:
        return _GENDER_MAP[token]
    raise MalformedField("gender", raw, "no explicit mapping")


def _canon_dob(raw: str) -> str:
    value = raw.strip()
    match = _ISO_DATE_RE.match(value)
    if match:
        year, month, day = (int(g) for g in match.groups())
    else:
        match = _DMY_DATE_RE.match(value)
        if not match:
            raise MalformedField("date_of_birth", raw, "expected YYYY-MM-DD or DD-MM-YYYY")
        day, month, year = (int(g) for g in match.groups())
    try:
        parsed = dt.date(year, month, day)
    except ValueError as exc:
        raise MalformedField("date_of_birth", raw, str(exc)) from None
    if not 1900 <= parsed.year <= dt.date.today().year:
        raise MalformedField("date_of_birth", raw, "year out of range")
    return parsed.isoformat()


def canonicalize(raw_qid: Mapping[str, str]) -> QuasiIdentifierSet:
    """Canonicalize a mapping of raw quasi-identifier strings.

    Raises MalformedField for anything that cannot be canonicalized; a field
    is never silently guessed.
    """
    for name in QID_FIELDS:
        if name not in raw_qid:
            raise MalformedField(name, None, "field missing")
        if not isinstance(raw_qid[name], str):
            raise MalformedField(name, raw_qid[name], "expected a string")
    return QuasiIdentifierSet(
        zip_code=_canon_zip(raw_qid["zip_code"]),
        house_number=_canon_house(raw_qid["house_number"]),
        gender=_canon_gender(raw_qid["gender"]),
        date_of_birth=_canon_dob(raw_qid["date_of_birth"]),
    )


def age_on(date_of_birth: str, as_of: str) -> int:
    """Whole years between an ISO date of birth and an ISO reference date."""
    born = dt.date.fromisoformat(date_of_birth)
    ref = dt.date.fromisoformat(as_of)
    years = ref.year - born.year
    if (ref.month, ref.day) < (born.month, born.day):
        years -= 1
    return years


@dataclass
class Record:
    """One row: an ordered payload plus either a QID set or a pseudonym.

    The two identifying states are mutually exclusive: a record at a data
    station carries a QuasiIdentifierSet, a pseudonymized record carries a
    PseudonymVector and no QID.
    """

    payload: dict[str, object] = field(default_factory=dict)
    qid: QuasiIdentifierSet | None = None
    pseudonym: PseudonymVector | None = None

    def __post_init__(self):
        if self.qid is not None and self.pseudonym is not None:
            raise ValueError("record cannot carry both a QID set and a pseudonym")


@dataclass
class DatasetDescriptor:
    """Plain provenance block accompanying a dataset."""

    source: str
    extracted_at: str
    row_count: int


@dataclass
class Dataset:
    station_id: str
    schema: tuple[tuple[str, str], ...]  # (variable name, type)
    rows: list[Record]
    descriptor: DatasetDescriptor

    def variable_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.schema)

    def validate(self) -> None:
        """Check every row against the schema and the descriptor row count."""
        names = self.variable_names()
        types = dict(self.schema)
        for name, vtype in self.schema:
            if vtype not in VARIABLE_TYPES:
                raise ValueError(f"unknown variable type {vtype!r} for {name!r}")
        for i, row in enumerate(self.rows):
            if tuple(row.payload.keys()) != names:
                raise ValueError(f"row {i} payload does not match schema {names}")
            for name, value in row.payload.items():
                if types[name] == "numeric" and not isinstance(value, (int, float)):
                    raise ValueError(f"row {i} variable {name!r} is not numeric")
                if types[name] in ("categorical", "date") and not isinstance(value, str):
                    raise ValueError(f"row {i} variable {name!r} is not a string")
        if self.descriptor.row_count != len(self.rows):
            raise ValueError(
                f"descriptor row_count {self.descriptor.row_count} != {len(self.rows)} rows"
            )

    def payload_column(self, name: str) -> list:
        return [row.payload[name] for row in self.rows]


# ---------------------------------------------------------------------------
# Wire encoding of pseudonymized datasets (carried inside sealed packages)
# ---------------------------------------------------------------------------

#: Digest parts a row may carry, in their order within a row's digest block.
_DIGEST_PARTS = ("composite", "per_field")
_DIGEST_BYTES = DIGEST_HEX_LENGTH // 2
_BODY_LEN = struct.Struct(">I")


def _digest_parts(pseudonym: PseudonymVector | None) -> tuple[str, ...]:
    if pseudonym is None:
        return ()
    parts = ("composite",) if pseudonym.composite is not None else ()
    return parts + (("per_field",) if pseudonym.per_field else ())


def dataset_to_bytes(ds: Dataset) -> bytes:
    """Columnar binary body for a pseudonymized dataset.

    Layout: a 4-byte big-endian length, then a canonical JSON header
    (station_id, schema, descriptor, row_count, the digest parts every row
    carries, and one array per payload column in schema order), then each
    row's raw 64-byte digests, concatenated row after row (composite first,
    then the four per-field digests, as far as present).

    Only pseudonymized datasets travel, so QIDs are rejected here: a raw
    identifier must never survive to the serialization boundary.
    """
    parts = _digest_parts(ds.rows[0].pseudonym) if ds.rows else ()
    hex_digests = []
    for row in ds.rows:
        if row.qid is not None:
            raise ValueError("refusing to serialize a dataset that still carries QIDs")
        pseudonym = row.pseudonym
        if _digest_parts(pseudonym) != parts:
            raise ValueError("every row must carry the same pseudonym digest parts")
        if pseudonym is not None:
            if pseudonym.composite is not None:
                hex_digests.append(pseudonym.composite)
            hex_digests.extend(pseudonym.per_field)
    header = canonical_json_bytes(
        {
            "station_id": ds.station_id,
            "schema": [list(pair) for pair in ds.schema],
            "descriptor": {
                "source": ds.descriptor.source,
                "extracted_at": ds.descriptor.extracted_at,
                "row_count": ds.descriptor.row_count,
            },
            "row_count": len(ds.rows),
            "digests": list(parts),
            "columns": [[row.payload[name] for row in ds.rows] for name, _ in ds.schema],
        }
    )
    return b"".join(
        (_BODY_LEN.pack(len(header)), header, bytes.fromhex("".join(hex_digests)))
    )


def dataset_from_bytes(data: bytes) -> Dataset:
    """Inverse of dataset_to_bytes; validates the result. A body whose
    lengths or header do not fit together raises ValueError."""
    try:
        (header_len,) = _BODY_LEN.unpack_from(data)
        start = _BODY_LEN.size + header_len
        if start > len(data):
            raise ValueError(f"header length {header_len} overruns a {len(data)}-byte body")
        doc = json.loads(bytes(data[_BODY_LEN.size : start]).decode("utf-8"))
        schema = tuple((str(n), str(t)) for n, t in doc["schema"])
        names = [n for n, _ in schema]
        n_rows, parts, columns = doc["row_count"], tuple(doc["digests"]), doc["columns"]
        if type(n_rows) is not int or n_rows < 0:
            raise ValueError(f"bad row_count {n_rows!r}")
        if parts not in ((), ("composite",), ("per_field",), _DIGEST_PARTS):
            raise ValueError(f"unknown digest parts {list(parts)}")
        if len(columns) != len(names) or any(len(c) != n_rows for c in columns):
            raise ValueError("payload columns do not match schema and row_count")
        width = (1 if "composite" in parts else 0) + (4 if "per_field" in parts else 0)
        if len(data) - start != n_rows * width * _DIGEST_BYTES:
            raise ValueError(
                f"{len(data) - start} digest bytes for {n_rows} rows of {width} digests"
            )
        station_id = doc["station_id"]
        desc = doc["descriptor"]
        descriptor = DatasetDescriptor(
            source=desc["source"],
            extracted_at=desc["extracted_at"],
            row_count=desc["row_count"],
        )
    except (struct.error, KeyError, TypeError, UnicodeDecodeError) as exc:
        raise ValueError(f"bad dataset body: {exc!r}") from None

    # filled column by column: no per-row tuple or iterator for the collector
    payloads: list[dict] = [{} for _ in range(n_rows)]
    for name, column in zip(names, columns):
        for payload, value in zip(payloads, column):
            payload[name] = value
    pseudonyms = _pseudonyms_from_hex(memoryview(data)[start:].hex(), n_rows, parts, width)
    ds = Dataset(
        station_id=station_id,
        schema=schema,
        rows=[Record(payload=p, pseudonym=v) for p, v in zip(payloads, pseudonyms)],
        descriptor=descriptor,
    )
    ds.validate()
    return ds


def _pseudonyms_from_hex(
    hexed: str, n_rows: int, parts: tuple[str, ...], width: int
) -> list[PseudonymVector | None]:
    """Cut one hex string of row-after-row digests back into vectors."""
    if not parts:
        return [None] * n_rows
    h = DIGEST_HEX_LENGTH
    digests = [hexed[i : i + h] for i in range(0, len(hexed), h)]
    composites = digests[0::width] if "composite" in parts else [None] * n_rows
    if "per_field" in parts:
        first = width - 4
        per_field = zip(*(digests[first + i :: width] for i in range(4)))
    else:
        per_field = [()] * n_rows
    return [PseudonymVector(c, f) for c, f in zip(composites, per_field)]


# ---------------------------------------------------------------------------
# CSV + sidecar descriptor interchange (station-side, QIDs present)
# ---------------------------------------------------------------------------

def write_dataset_csv(ds: Dataset, csv_path: str | Path, descriptor_path: str | Path | None = None) -> None:
    """Write a dataset as UTF-8 CSV plus a canonical JSON sidecar descriptor.

    Linkage fields come first under their exact canonical names, remaining
    columns are payload variables in schema order.
    """
    csv_path = Path(csv_path)
    has_qids = any(row.qid is not None for row in ds.rows)
    header = (list(QID_FIELDS) if has_qids else []) + list(ds.variable_names())
    with csv_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in ds.rows:
            cells = list(row.qid.as_tuple()) if has_qids else []
            cells += [row.payload[name] for name in ds.variable_names()]
            writer.writerow(cells)
    if descriptor_path is None:
        descriptor_path = csv_path.with_suffix(".descriptor.json")
    Path(descriptor_path).write_bytes(
        canonical_json_bytes(
            {
                "station_id": ds.station_id,
                "extracted_at": ds.descriptor.extracted_at,
                "row_count": ds.descriptor.row_count,
                "schema": [list(pair) for pair in ds.schema],
            }
        )
        + b"\n"
    )


def read_dataset_csv(csv_path: str | Path, descriptor_path: str | Path | None = None) -> Dataset:
    """Read a station CSV, canonicalizing linkage fields when present."""
    csv_path = Path(csv_path)
    if descriptor_path is None:
        descriptor_path = csv_path.with_suffix(".descriptor.json")
    meta = json.loads(Path(descriptor_path).read_text(encoding="utf-8"))
    schema = tuple((str(n), str(t)) for n, t in meta["schema"])
    types = dict(schema)

    rows: list[Record] = []
    with csv_path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        fieldnames = reader.fieldnames or []
        has_qids = all(name in fieldnames for name in QID_FIELDS)
        for raw in reader:
            qid = canonicalize({k: raw[k] for k in QID_FIELDS}) if has_qids else None
            payload: dict[str, object] = {}
            for name, _ in schema:
                cell = raw[name]
                payload[name] = _parse_cell(cell, types[name])
            rows.append(Record(payload=payload, qid=qid))
    ds = Dataset(
        station_id=meta["station_id"],
        schema=schema,
        rows=rows,
        descriptor=DatasetDescriptor(
            source=meta.get("source", str(csv_path)),
            extracted_at=meta["extracted_at"],
            row_count=meta["row_count"],
        ),
    )
    ds.validate()
    return ds


def _parse_cell(cell: str, vtype: str) -> object:
    if vtype == "numeric":
        try:
            return int(cell)  # exact at any size; float() rounds above 2**53
        except ValueError:
            value = float(cell)
            return int(value) if value.is_integer() else value
    return cell


def make_dataset(
    station_id: str,
    schema: Iterable[tuple[str, str]],
    rows: list[Record],
    source: str = "in-memory",
    extracted_at: str = "1970-01-01T00:00:00Z",
) -> Dataset:
    """Assemble and validate a dataset with a descriptor derived from rows."""
    ds = Dataset(
        station_id=station_id,
        schema=tuple(schema),
        rows=rows,
        descriptor=DatasetDescriptor(source=source, extracted_at=extracted_at, row_count=len(rows)),
    )
    ds.validate()
    return ds
