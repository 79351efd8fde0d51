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
schema, descriptor, one array per payload column and the Salt.check of the
salt the digests were made under (empty where no station set it), then the
raw 32-byte digests (pseudonym.DIGEST_DTYPE) of every row. The header is
written and read by encoding.write_field and encoding.read_field, the
helpers every length-prefixed field uses. A data station holds Records,
with QIDs. From the extract on, a pseudonymized dataset is held as Columns,
in the body's own layout: one list per payload variable and the raw
digests as one numpy S32 array, which a station's one pseudonymize_columns
call writes directly. A Dataset of Records carrying PseudonymVectors, whose
digests are hex strings, reaches that form through to_columns.

A data station's CSV and its JSON sidecar descriptor (Sidecar) are read
strictly; a fault is a ValueError naming the file, and the line for a row.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import re
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .encoding import (
    block_from_dict, canonical_json_bytes, check_types, from_json_bytes, read_field, write_field,
)
from .errors import MalformedField
from .pseudonym import DIGEST_DTYPE, PseudonymVector

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

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def validate(self) -> None:
        """Check every row against the schema and the descriptor row count."""
        names = self.variable_names()
        for i, row in enumerate(self.rows):
            if tuple(row.payload.keys()) != names:
                raise ValueError(f"row {i} payload does not match schema {names}")
        _check_columns(self, [self.payload_column(name) for name in names])

    def payload_column(self, name: str) -> list:
        return [row.payload[name] for row in self.rows]


def _check_columns(ds: "Dataset | Columns", columns: list[list]) -> None:
    """Every value against its variable's type, and the descriptor row count."""
    if len(columns) != len(ds.schema):
        raise ValueError("payload columns do not match the schema")
    for (name, vtype), column in zip(ds.schema, columns):
        if vtype not in VARIABLE_TYPES:
            raise ValueError(f"unknown variable type {vtype!r} for {name!r}")
        wanted = (int, float) if vtype == "numeric" else str
        held = isinstance(column, list) and all(isinstance(v, wanted) for v in column)
        if not held or len(column) != ds.n_rows:
            raise ValueError(f"variable {name!r} does not hold one {vtype} value per row")
    if ds.descriptor.row_count != ds.n_rows:
        raise ValueError(f"descriptor row_count {ds.descriptor.row_count} != {ds.n_rows} rows")


@dataclass(eq=False)
class Columns:
    """A pseudonymized dataset held column by column, in its body's layout.

    ``payload`` holds one list per variable, in schema order. ``digests`` is
    an (n_rows, width) DIGEST_DTYPE array: each row's composite first, then
    its four per-field digests, as far as present; ``parts`` names them, from
    the width. Read digests back with ``.tobytes()``, never as array items:
    numpy strips the trailing NUL bytes of an S32 item, and about 1 digest in
    256 ends in one.
    """

    station_id: str
    schema: tuple[tuple[str, str], ...]
    descriptor: DatasetDescriptor
    payload: list[list]
    digests: np.ndarray
    salt_check: str = ""  # Salt.check of the salt the digests were made under

    @property
    def n_rows(self) -> int:
        return len(self.digests)

    @property
    def parts(self) -> tuple[str, ...]:
        return _PARTS[self.digests.shape[1]]

    def variable_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.schema)

    def payload_column(self, name: str) -> list:
        return self.payload[self.variable_names().index(name)]

    def validate(self) -> None:
        _check_columns(self, self.payload)


# ---------------------------------------------------------------------------
# Wire encoding of pseudonymized datasets (carried inside sealed packages)
# ---------------------------------------------------------------------------

#: The digest parts a row may carry, in their order within a row's digest
#: block, and the width of that block.
_WIDTH = {(): 0, ("composite",): 1, ("per_field",): 4, ("composite", "per_field"): 5}
_PARTS = {width: parts for parts, width in _WIDTH.items()}
_U32 = struct.Struct(">I")


def _digest_parts(pseudonym: PseudonymVector | None) -> tuple[str, ...]:
    if pseudonym is None:
        return ()
    parts = ("composite",) if pseudonym.composite is not None else ()
    return parts + (("per_field",) if pseudonym.per_field else ())


def to_columns(ds: Dataset | Columns) -> Columns:
    """The columnar form of a pseudonymized dataset: the one way a Dataset of
    Records reaches dataset_to_bytes, link and merge.

    A dataset that still carries QIDs is refused: a raw identifier must never
    get past the data station. Every row must carry the same digest parts."""
    if isinstance(ds, Columns):
        return ds
    if any(row.qid is not None for row in ds.rows):
        raise ValueError("refusing a dataset that still carries QIDs")
    vectors = [row.pseudonym for row in ds.rows]
    parts = _digest_parts(vectors[0]) if vectors else ()
    if any(_digest_parts(vector) != parts for vector in vectors):
        raise ValueError("every row must carry the same pseudonym digest parts")
    hexes = [digest for vector in vectors if vector is not None
             for digest in (vector.composite, *vector.per_field) if digest is not None]
    digests = np.frombuffer(bytes.fromhex("".join(hexes)), DIGEST_DTYPE)
    payload = [ds.payload_column(name) for name in ds.variable_names()]
    return Columns(ds.station_id, ds.schema, ds.descriptor, payload,
                   digests.reshape(len(vectors), _WIDTH[parts]))


@dataclass
class _BodyHeader:
    """The JSON header of a dataset body."""

    station_id: str
    schema: tuple[tuple[str, str], ...]
    descriptor: DatasetDescriptor
    row_count: int
    digests: tuple[str, ...]  # the digest parts every row carries
    columns: list  # one array per payload variable, in schema order
    salt_check: str


def dataset_to_bytes(ds: Dataset | Columns) -> bytes:
    """Columnar binary body for a pseudonymized dataset.

    Layout: a 4-byte big-endian length, then the canonical JSON of a
    _BodyHeader, then each row's raw 32-byte digests (DIGEST_DTYPE),
    concatenated row after row (composite first, then the four per-field
    digests, as far as present).
    """
    cols = to_columns(ds)
    header = _BodyHeader(cols.station_id, cols.schema, cols.descriptor, cols.n_rows,
                         cols.parts, cols.payload, cols.salt_check)
    doc = canonical_json_bytes({**vars(header), "descriptor": asdict(cols.descriptor)})
    return b"".join((*write_field(_U32, doc), cols.digests.tobytes()))


def dataset_from_bytes(data: bytes) -> Columns:
    """Inverse of dataset_to_bytes; validates the result. A body whose
    lengths or header do not fit together raises ValueError, one whose
    digests are whole 64-byte SHA-512 outputs among them. The digests are a
    read-only view into ``data``."""
    doc, start = read_field(memoryview(data), 0, _U32)
    header = check_types(block_from_dict(_BodyHeader, from_json_bytes(bytes(doc))))
    n_rows, parts = header.row_count, header.digests
    check_types(header.descriptor)
    if n_rows < 0:
        raise ValueError(f"bad row_count {n_rows}")
    if parts not in _WIDTH:
        raise ValueError(f"unknown digest parts {list(parts)}")
    width = _WIDTH[parts]
    if len(data) - start != n_rows * width * DIGEST_DTYPE.itemsize:
        raise ValueError(f"{len(data) - start} digest bytes for {n_rows} rows of {width} digests")
    digests = np.frombuffer(data, DIGEST_DTYPE, n_rows * width, start)
    cols = Columns(header.station_id, header.schema, header.descriptor, header.columns,
                   digests.reshape(n_rows, width), header.salt_check)
    cols.validate()
    return cols


# ---------------------------------------------------------------------------
# CSV + sidecar descriptor interchange (station-side, QIDs present)
# ---------------------------------------------------------------------------

@dataclass
class Sidecar:
    """A station CSV's JSON descriptor; an absent ``source`` is the CSV's path."""

    station_id: str
    schema: tuple[tuple[str, str], ...]
    extracted_at: str
    row_count: int
    source: str | None = None


def write_dataset_csv(ds: Dataset, csv_path: str | Path, descriptor_path: str | Path | None = None) -> None:
    """Write a dataset as UTF-8 CSV plus a canonical JSON sidecar descriptor.

    Linkage fields come first under their exact canonical names, remaining
    columns are payload variables in schema order.
    """
    csv_path = Path(csv_path)
    with csv_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        names = ds.variable_names()
        writer.writerow(QID_FIELDS + names)
        for row in ds.rows:
            writer.writerow(row.qid.as_tuple() + tuple(row.payload[name] for name in names))
    if descriptor_path is None:
        descriptor_path = csv_path.with_suffix(".descriptor.json")
    sidecar = Sidecar(ds.station_id, ds.schema, ds.descriptor.extracted_at,
                      ds.descriptor.row_count)
    doc = {name: value for name, value in asdict(sidecar).items() if value is not None}
    Path(descriptor_path).write_bytes(canonical_json_bytes(doc) + b"\n")


def read_dataset_csv(csv_path: str | Path, descriptor_path: str | Path | None = None) -> Dataset:
    """Read a station CSV; every row's linkage fields are canonicalized, and
    a CSV without one of the QID_FIELDS columns raises MalformedField. An
    unknown or ill-typed sidecar key, a row whose cell count differs from
    the header's, or a numeric cell that is not finite, raises ValueError."""
    csv_path = Path(csv_path)
    if descriptor_path is None:
        descriptor_path = csv_path.with_suffix(".descriptor.json")
    try:
        doc = from_json_bytes(Path(descriptor_path).read_bytes())
        meta = check_types(block_from_dict(Sidecar, doc))
    except ValueError as exc:
        raise ValueError(f"{descriptor_path}: {exc}") from None

    rows: list[Record] = []
    # utf-8-sig: a byte-order mark, as spreadsheet exports write, is not
    # part of the first column's name
    with csv_path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        missing = [name for name in QID_FIELDS if name not in (reader.fieldnames or ())]
        if missing:
            raise MalformedField(missing[0], None, f"no such column in {csv_path}")
        for raw in reader:
            try:
                # DictReader files a long row's extra cells under None and
                # fills a short row's missing ones with None
                if None in raw or None in raw.values():
                    raise ValueError(f"expected the header's {len(reader.fieldnames)} cells")
                payload = {name: _parse_cell(raw[name], vtype) for name, vtype in meta.schema}
            except ValueError as exc:
                raise ValueError(f"{csv_path} line {reader.line_num}: {exc}") from None
            qid = canonicalize({k: raw[k] for k in QID_FIELDS})
            rows.append(Record(payload=payload, qid=qid))
    source = str(csv_path) if meta.source is None else meta.source
    descriptor = DatasetDescriptor(source, meta.extracted_at, meta.row_count)
    ds = Dataset(meta.station_id, meta.schema, rows, descriptor)
    ds.validate()
    return ds


def _parse_cell(cell: str, vtype: str) -> object:
    if vtype == "numeric":
        try:
            return int(cell)  # exact at any size; float() rounds above 2**53
        except ValueError:
            value = float(cell)
            if not math.isfinite(value):
                raise ValueError(f"numeric cell {cell!r} is not a finite number") from None
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
