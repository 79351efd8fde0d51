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
schema, the row count, one entry per payload column, the digest parts and
the Salt.check of the salt the digests were made under (empty where no
station set it), then the digests, raw 32-byte values
(pseudonym.DIGEST_DTYPE), then the coded payload columns. The composite
travels once per row. The four per-field digests travel dictionary coded
(FieldCodes): each field's distinct digests once, in the order of the row
where each first occurs, and an index into them per row and field, an
unsigned little-endian integer of the narrowest width that addresses the
field's dictionary (index_dtype): 1 byte up to 256 entries, 2 up to 65,536,
4 above. Most per-field digests repeat, since a field such as gender has a
few values, so this sends about half the bytes of one digest per row and
field. A row's index takes 6 bytes, not 16, where zip code and date of
birth hold up to 65,536 distinct values each and house number and gender up
to 256. First-row order, never the order of the raw values, keeps the
coding a mere re-encoding of the per-row digests. The header is written and
read by encoding.write_field and encoding.read_field, the helpers every
length-prefixed field uses. The body names no station, which the TSE takes
from the sender it authenticated, and carries no provenance descriptor.

A payload column that is non-empty, holds exact ints only (no bool, no
numpy scalar) and fits 64 bits is coded: its header entry is a width marker
(PAYLOAD_DTYPES), and its values follow the digests as one little-endian
array of the narrowest width that holds its least and greatest value,
unsigned where the least is 0 or more (_payload_marker). Every other column
is a JSON array in the header. An age takes 1 byte per row, where its JSON
took 3. That form is canonical too: dataset_from_bytes refuses a coded
column wider than its values need, or of a type other than numeric, and a
JSON column the rule would have coded.

A data station holds Records, with QIDs. From the extract on, a
pseudonymized dataset is held as Columns, in the body's own layout: one list
per payload variable, or a decoded body's integer array, the composites as
one numpy S32 array and the per-field digests as FieldCodes, which a
station's one pseudonymize_columns call writes directly. A Dataset of
Records carrying PseudonymVectors, whose digests are hex strings, reaches
that form through to_columns. code_fields is the one builder of the coded
form.

A data station's CSV and its JSON sidecar descriptor (Sidecar) are read
strictly; a fault is a ValueError, or a MalformedField for a linkage field
that cannot be canonicalized, naming the file, and the line for a row.
"""

from __future__ import annotations

import codecs
import csv
import datetime as dt
import io
import math
import re
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

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


@dataclass(frozen=True, slots=True)
class QuasiIdentifierSet:
    """The four linkage fields in canonical form. Slotted, as is Record: a
    station holds one of each per row."""

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


@dataclass(slots=True)
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
        if self.descriptor.row_count != self.n_rows:
            raise ValueError(f"descriptor row_count {self.descriptor.row_count} != {self.n_rows}")

    def payload_column(self, name: str) -> list:
        return [row.payload[name] for row in self.rows]


def _check_columns(ds: "Dataset | Columns", columns: list) -> None:
    """Every value against its variable's type, one per row."""
    if len(columns) != len(ds.schema):
        raise ValueError("payload columns do not match the schema")
    for (name, vtype), column in zip(ds.schema, columns):
        if vtype not in VARIABLE_TYPES:
            raise ValueError(f"unknown variable type {vtype!r} for {name!r}")
        wanted = (int, float) if vtype == "numeric" else (str,)
        if isinstance(column, np.ndarray):
            # a coded column, as dataset_from_bytes reads it
            held = vtype == "numeric" and column.dtype in PAYLOAD_DTYPES.values()
        else:
            # the exact types first, in C; a subclass such as bool or
            # np.float64 falls back to the walk value by value, so the
            # verdict is the same
            held = isinstance(column, list) and (
                set(map(type, column)).issubset(wanted)
                or all(isinstance(v, wanted) for v in column)
            )
        if not held or len(column) != ds.n_rows:
            raise ValueError(f"variable {name!r} does not hold one {vtype} value per row")


#: A field dictionary's length in a body: a little-endian uint32.
LENGTH_DTYPE = np.dtype("<u4")
_WORDS = DIGEST_DTYPE.itemsize // 8  # 8-byte words per digest

#: A coded payload column's width marker, as its body header names it, and
#: the little-endian dtype its values travel as.
PAYLOAD_DTYPES = {f"{kind}{size}": np.dtype(f"<{kind}{size}")
                  for kind in "ui" for size in (1, 2, 4, 8)}


def _payload_marker(lo: int, hi: int) -> str | None:
    """The marker of the narrowest of PAYLOAD_DTYPES that holds every
    integer from ``lo`` to ``hi``: unsigned where ``lo`` is 0 or more,
    signed otherwise; None where none does."""
    kind, bits = ("u", 0) if lo >= 0 else ("i", 1)
    for size in (1, 2, 4, 8):
        top = 1 << 8 * size - bits
        if -top <= lo and hi < top:
            return f"{kind}{size}"
    return None


def _coded_marker(column: list) -> str | None:
    """The marker ``column`` travels under, or None where it travels as a
    JSON array: only a non-empty column of exact ints that fits 64 bits is
    coded, so a bool, a float or a numpy scalar keeps its type."""
    if not column or set(map(type, column)) != {int}:
        return None
    return _payload_marker(min(column), max(column))


def index_dtype(size: int) -> np.dtype:
    """The dtype of an index into a dictionary of ``size`` entries: the
    narrowest unsigned one of PAYLOAD_DTYPES whose values address every
    entry, by the rule a coded payload column follows; 4 bytes address any
    length a LENGTH_DTYPE can state. The body carries each dictionary's
    length, so the width needs no field of its own."""
    return PAYLOAD_DTYPES[_payload_marker(0, size - 1)]


@dataclass(frozen=True, eq=False)
class FieldCodes:
    """The four per-field digest columns of a dataset, dictionary coded.

    ``dictionaries[k]`` holds field k's distinct digests (DIGEST_DTYPE), once
    each, in the order of the row where each first occurs; ``index[k]`` is a
    1-D array of n_rows entries of ``index_dtype(len(dictionaries[k]))``,
    and ``index[k][r]`` is row r's position in field k's dictionary. Row r's
    digest of field k is therefore ``dictionaries[k][index[k][r]]``. That
    form is canonical: every entry is used, none repeats, and a row never
    skips past an entry no earlier row used; dataset_from_bytes refuses any
    other.
    """

    dictionaries: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    index: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

    @property
    def n_rows(self) -> int:
        return len(self.index[0])


def code_fields(
    rows: Sequence[Sequence], digests: Callable[[int, list], np.ndarray]
) -> FieldCodes:
    """Dictionary code the four fields of ``rows``, four keys per row: each
    field's distinct keys in the order of the row where each first occurs,
    mapped to their raw digests by ``digests(field, keys)``, a DIGEST_DTYPE
    array with one digest per key, and each row's position among them, at
    the width the field's dictionary needs."""
    dictionaries, index = [], []
    for k in range(4):
        positions: dict = {}
        codes = [positions.setdefault(row[k], len(positions)) for row in rows]
        index.append(np.array(codes, index_dtype(len(positions))))
        dictionaries.append(digests(k, list(positions)))
    return FieldCodes(tuple(dictionaries), tuple(index))


def hex_field_codes(per_field: Sequence[Sequence[str]]) -> FieldCodes:
    """code_fields over rows of four hex per-field digests, as a
    PseudonymVector's ``per_field`` holds them."""
    return code_fields(
        per_field, lambda _field, keys: np.frombuffer(bytes.fromhex("".join(keys)), DIGEST_DTYPE)
    )


def _check_field_codes(fields: FieldCodes, n_rows: int) -> None:
    """Refuse per-field codes that are not in FieldCodes's canonical form,
    with a ValueError naming the field and its fault."""
    if len(fields.index) != 4 or any(index.shape != (n_rows,) for index in fields.index):
        raise ValueError(f"per-field codes do not index {n_rows} rows")
    for name, dictionary, index in zip(QID_FIELDS, fields.dictionaries, fields.index):
        size = len(dictionary)
        # the largest entry any row up to this one used, widened so that
        # adding 1 to the top value of a 1- or 2-byte index cannot wrap to 0
        seen = np.maximum.accumulate(index).astype(np.int64)
        top = int(seen[-1]) if n_rows else -1
        if top >= size:
            raise ValueError(f"{name}: index {top} past its dictionary of {size} digests")
        # each row uses an entry an earlier row used, or else the next one
        if n_rows and (index[0] != 0 or (index[1:] > seen[:-1] + 1).any()):
            raise ValueError(f"{name}: dictionary entries out of first-row order")
        if top + 1 < size:
            raise ValueError(f"{name}: dictionary entry {top + 1} of {size} unused")
        # entries that differ in their first 8 bytes differ; only if two
        # share those are the whole digests sorted
        first = np.sort(np.ascontiguousarray(dictionary).view(">u8")[::_WORDS])
        ordered = np.sort(dictionary) if (first[1:] == first[:-1]).any() else first
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError(f"{name}: duplicate dictionary entry")


@dataclass(eq=False)
class Columns:
    """A pseudonymized dataset held column by column, in its body's layout.

    ``station_id`` names the station the rows came from; at the TSE, the
    sender it authenticated, since a body does not carry it.
    ``payload`` holds one column per variable, in schema order: a list, or,
    where dataset_from_bytes read a coded column, a read-only 1-D integer
    array viewing the body (``.tolist()`` gives its Python ints).
    ``digests`` is an (n_rows, 1) DIGEST_DTYPE array of each row's composite, or (n_rows, 0)
    without one; ``fields`` holds the four per-field digests, dictionary
    coded, or None. ``parts`` names the digest parts present. Read digests
    back with ``.tobytes()``, never as array items: numpy strips the
    trailing NUL bytes of an S32 item, and about 1 digest in 256 ends in one.
    """

    station_id: str
    schema: tuple[tuple[str, str], ...]
    payload: list[list | np.ndarray]
    digests: np.ndarray
    fields: FieldCodes | None = None
    salt_check: str = ""  # Salt.check of the salt the digests were made under

    @property
    def n_rows(self) -> int:
        return len(self.digests)

    @property
    def parts(self) -> tuple[str, ...]:
        return (("composite",) if self.digests.shape[1] else ()) + (
            ("field_codes",) if self.fields is not None else ())

    def variable_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.schema)

    def payload_column(self, name: str) -> list | np.ndarray:
        return self.payload[self.variable_names().index(name)]

    def validate(self) -> None:
        _check_columns(self, self.payload)
        if self.fields is not None:
            _check_field_codes(self.fields, self.n_rows)


# ---------------------------------------------------------------------------
# Wire encoding of pseudonymized datasets (carried inside sealed packages)
# ---------------------------------------------------------------------------

#: The digest parts a body may carry, in their order within the body.
_PARTS = ((), ("composite",), ("field_codes",), ("composite", "field_codes"))
_U32 = struct.Struct(">I")


def _digest_parts(pseudonym: PseudonymVector | None) -> tuple[str, ...]:
    if pseudonym is None:
        return ()
    parts = ("composite",) if pseudonym.composite is not None else ()
    return parts + (("field_codes",) if pseudonym.per_field else ())


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
    composites = "".join(vector.composite for vector in vectors) if "composite" in parts else ""
    digests = np.frombuffer(bytes.fromhex(composites), DIGEST_DTYPE)
    fields = (hex_field_codes([vector.per_field for vector in vectors])
              if "field_codes" in parts else None)
    payload = [ds.payload_column(name) for name in ds.variable_names()]
    return Columns(ds.station_id, ds.schema, payload,
                   digests.reshape(len(vectors), int("composite" in parts)), fields)


@dataclass
class _BodyHeader:
    """The JSON header of a dataset body: only what the TSE reads, so an
    earlier header's ``station_id`` or ``descriptor`` is an unknown key."""

    schema: tuple[tuple[str, str], ...]
    row_count: int
    digests: tuple[str, ...]  # the digest parts the body carries, as in _PARTS
    # per payload variable, in schema order: a JSON array, or the width
    # marker of a coded column (PAYLOAD_DTYPES)
    columns: list
    salt_check: str


def dataset_to_bytes(ds: Dataset | Columns) -> bytes:
    """Columnar binary body for a pseudonymized dataset.

    Layout: a 4-byte big-endian length, then the canonical JSON of a
    _BodyHeader, then each row's raw 32-byte composite (DIGEST_DTYPE) where
    the body carries composites. Where it carries per-field codes, the four
    dictionaries' lengths follow as LENGTH_DTYPE, then the four dictionaries'
    raw digests, then the index, field by field, each at the width of its
    field's dictionary (index_dtype). Last, each coded payload column's
    values, in schema order, at the width its header marker names.
    """
    cols = to_columns(ds)
    payload = [c.tolist() if isinstance(c, np.ndarray) else c for c in cols.payload]
    markers = [_coded_marker(column) for column in payload]
    entries = [marker or column for column, marker in zip(payload, markers)]
    header = _BodyHeader(cols.schema, cols.n_rows, cols.parts, entries, cols.salt_check)
    doc = canonical_json_bytes(vars(header))
    chunks = [*write_field(_U32, doc), cols.digests.tobytes()]
    if cols.fields is not None:
        dictionaries = cols.fields.dictionaries
        chunks.append(np.array([len(d) for d in dictionaries], LENGTH_DTYPE).tobytes())
        chunks += [dictionary.tobytes() for dictionary in dictionaries]
        chunks += [index.tobytes() for index in cols.fields.index]
    chunks += [np.array(column, PAYLOAD_DTYPES[marker]).tobytes()
               for column, marker in zip(payload, markers) if marker]
    return b"".join(chunks)


def _take(data, at: int, dtype: np.dtype, count: int) -> tuple[np.ndarray, int]:
    """``count`` items of ``dtype`` from byte ``at`` of ``data``, as a view,
    and the byte after them."""
    end = at + count * dtype.itemsize
    if end > len(data):
        raise ValueError(f"{count} items of {dtype.itemsize} bytes from byte {at} "
                         f"overrun a body of {len(data)} bytes")
    return np.frombuffer(data, dtype, count, at), end


def _take_payload(data, at: int, header: _BodyHeader) -> tuple[list, int]:
    """The payload columns of a body whose coded columns start at byte
    ``at``: each JSON array as the header holds it, each coded column as a
    view; and the byte after them."""
    if len(header.columns) != len(header.schema):
        raise ValueError("payload columns do not match the schema")
    payload = []
    for (name, vtype), column in zip(header.schema, header.columns):
        if isinstance(column, str):
            # a marker is looked up, never parsed: np.dtype would read
            # "f8" or "S4" too, and raises TypeError on "abc"
            dtype = PAYLOAD_DTYPES.get(column)
            if dtype is None:
                raise ValueError(f"variable {name!r}: unknown width marker {column!r}")
            if vtype != "numeric":
                raise ValueError(f"variable {name!r} of type {vtype} travels as {column}")
            try:
                column, at = _take(data, at, dtype, header.row_count)
            except ValueError as exc:
                raise ValueError(f"variable {name!r}: {exc}") from None
        payload.append(column)
    return payload, at


def _check_payload_form(header: _BodyHeader, payload: list) -> None:
    """Refuse a payload column not in the one form dataset_to_bytes gives
    it, with a ValueError naming the variable."""
    for (name, _), entry, column in zip(header.schema, header.columns, payload):
        sent = entry if isinstance(entry, str) else None
        if sent is None:
            need = _coded_marker(column)
        else:  # a view: its least and greatest value, read in numpy
            need = _payload_marker(int(column.min()), int(column.max())) if len(column) else None
        if sent != need:
            raise ValueError(f"variable {name!r} travels as {sent or 'a JSON array'}, "
                             f"where its values take {need or 'a JSON array'}")


def dataset_from_bytes(data: bytes, station_id: str) -> Columns:
    """Inverse of dataset_to_bytes, for the rows of ``station_id``, which
    the caller vouches for; validates the result. A body whose
    lengths or header do not fit together raises ValueError, one whose
    digests are whole 64-byte SHA-512 outputs among them, and so does
    per-field codes or a payload column out of their canonical form (see
    FieldCodes and _payload_marker). The digests, dictionaries, index and
    coded payload columns are read-only views into ``data``."""
    doc, start = read_field(memoryview(data), 0, _U32)
    header = check_types(block_from_dict(_BodyHeader, from_json_bytes(bytes(doc))))
    n_rows, parts = header.row_count, header.digests
    if n_rows < 0:
        raise ValueError(f"bad row_count {n_rows}")
    if parts not in _PARTS:
        raise ValueError(f"unknown digest parts {list(parts)}")
    composite = int("composite" in parts)
    digests, at = _take(data, start, DIGEST_DTYPE, n_rows * composite)
    fields = None
    if "field_codes" in parts:
        lengths, at = _take(data, at, LENGTH_DTYPE, 4)
        sizes = lengths.tolist()
        dictionaries, index = [], []
        for size in sizes:
            dictionary, at = _take(data, at, DIGEST_DTYPE, size)
            dictionaries.append(dictionary)
        for size in sizes:
            entries, at = _take(data, at, index_dtype(size), n_rows)
            index.append(entries)
        fields = FieldCodes(tuple(dictionaries), tuple(index))
    payload, at = _take_payload(data, at, header)
    if at != len(data):
        raise ValueError(f"{len(data) - start} digest bytes for {n_rows} rows of {list(parts)}")
    cols = Columns(station_id, header.schema, payload, digests.reshape(n_rows, composite),
                   fields, header.salt_check)
    cols.validate()
    _check_payload_form(header, payload)
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
    a CSV without one of the QID_FIELDS columns, or a row with a field that
    cannot be canonicalized, raises MalformedField. An unknown or ill-typed
    sidecar key, a byte that is not UTF-8, a fault of the CSV reader itself
    (such as a cell past its size limit), a row whose cell count differs
    from the header's, or a numeric cell that is not finite, raises
    ValueError. Each names the file, and the line for a row."""
    csv_path = Path(csv_path)
    if descriptor_path is None:
        descriptor_path = csv_path.with_suffix(".descriptor.json")
    try:
        doc = from_json_bytes(Path(descriptor_path).read_bytes())
        meta = check_types(block_from_dict(Sidecar, doc))
    except ValueError as exc:
        raise ValueError(f"{descriptor_path}: {exc}") from None

    # a byte-order mark, as spreadsheet exports write, is no part of the first
    # column's name; decoded whole, a byte that is not UTF-8 is found on its line
    data = csv_path.read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line, byte = data.count(b"\n", 0, exc.start) + 1, data[exc.start]
        raise ValueError(f"{csv_path} line {line}: byte {byte:#x} is not UTF-8") from None
    rows: list[Record] = []
    reader = csv.DictReader(io.StringIO(text, newline=""))
    try:
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
                qid = canonicalize({k: raw[k] for k in QID_FIELDS})
            except (ValueError, MalformedField) as exc:
                # the same error, of the same type, prefixed with where it was found
                exc.args = (f"{csv_path} line {reader.line_num}: {exc}",)
                raise exc from None
            rows.append(Record(payload=payload, qid=qid))
    except csv.Error as exc:  # the reader's own; line_num counts only whole lines
        raise ValueError(f"{csv_path} line {reader.line_num + 1}: {exc}") from None
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
