"""Wire protocol: tagged message union and length-prefixed binary framing.

Frame layout (version 2), all integers big-endian:

    magic   4 bytes  "PHT1"
    version 1 byte   0x02
    type    1 byte   message variant tag
    length  4 bytes  payload byte count, unsigned
    payload

The payload of TrainDispatch, Ack, ResultReturn and Abort is canonical JSON,
UTF-8. The payload of DataTransfer is binary: a 4-byte length and a
canonical JSON header (run_id, seq, sender), followed by the sealed package
exactly as SealedPackage.to_bytes lays it out. There is no reader for
version 1. Type byte 0x03 is unassigned: it carried the station-to-station
salt offer, which is gone now that each data station derives the run's salt
itself, so such a frame is refused as an unknown type.

Every message carries run_id, a per-sender monotonically increasing sequence
number, and the sender id. take_frame cuts a stream's bytes into frames and
rejects an oversized length from the header alone; every length inside a
payload is read by encoding.read_field, and whatever does not fit raises
DecodeError. The JSON holds a message's dataclass fields and is read back by
encoding.block_from_dict, so an unknown or missing key, in the message, the
manifest or the result, is a DecodeError too; so is a message field whose
JSON type is not the one its dataclass declares (encoding.check_types), a
non-finite number anywhere in the JSON (encoding.from_json_bytes), and a
TrainDispatch whose run_id is not its manifest's.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields

from .analysis import ValidatedResult
from .encoding import (
    block_from_dict, canonical_json_bytes, check_types, from_json_bytes, read_field, write_field,
)
from .envelope import SealedPackage
from .errors import DecodeError
from .manifest import TrainManifest, manifest_from_dict, manifest_to_dict

MAGIC = b"PHT1"
VERSION = 0x02
HEADER_LEN = 10
MAX_PAYLOAD = 256 * 1024 * 1024

TYPE_TRAIN_DISPATCH = 0x01
TYPE_ACK = 0x02
TYPE_DATA_TRANSFER = 0x04
TYPE_RESULT_RETURN = 0x05
TYPE_ABORT = 0x06


@dataclass(frozen=True)
class TrainDispatch:
    run_id: str
    seq: int
    sender: str
    manifest: TrainManifest
    endpoints: tuple[tuple[str, str], ...]  # (actor id, address), sorted

    def __post_init__(self):
        if self.run_id != self.manifest.run_id:
            raise ValueError(f"dispatch for run {self.run_id!r} carries the manifest "
                             f"of run {self.manifest.run_id!r}")


@dataclass(frozen=True)
class Ack:
    """The TSE's "dispatch accepted", or a data station's "extract sent";
    a refusal travels as an Abort, so an Ack carries nothing but its header."""

    run_id: str
    seq: int
    sender: str


@dataclass(frozen=True)
class DataTransfer:
    run_id: str
    seq: int
    sender: str
    package: SealedPackage


@dataclass(frozen=True)
class ResultReturn:
    run_id: str
    seq: int
    sender: str
    result: ValidatedResult


@dataclass(frozen=True)
class Abort:
    run_id: str
    seq: int
    sender: str
    reason: str


Message = TrainDispatch | Ack | DataTransfer | ResultReturn | Abort

_U32 = struct.Struct(">I")

_TYPE_BY_CLASS = {
    TrainDispatch: TYPE_TRAIN_DISPATCH,
    Ack: TYPE_ACK,
    DataTransfer: TYPE_DATA_TRANSFER,
    ResultReturn: TYPE_RESULT_RETURN,
    Abort: TYPE_ABORT,
}
_CLASS_BY_TYPE = {type_byte: cls for cls, type_byte in _TYPE_BY_CLASS.items()}
# fields whose JSON value is not the field's own
_WRITERS = {"manifest": manifest_to_dict, "endpoints": dict, "result": ValidatedResult.to_dict}
_READERS = {"manifest": manifest_from_dict, "result": ValidatedResult.from_dict,
            "endpoints": lambda endpoints: tuple(sorted(endpoints.items()))}


def _payload_dict(msg: Message) -> dict:
    """Every field of ``msg`` but a DataTransfer's package, as JSON values."""
    doc = {f.name: getattr(msg, f.name) for f in fields(msg)}
    doc.pop("package", None)
    for name in _WRITERS.keys() & doc.keys():
        doc[name] = _WRITERS[name](doc[name])
    return doc


def message_type_name(msg: Message) -> str:
    return type(msg).__name__


def encode(msg: Message) -> bytes:
    payload = [canonical_json_bytes(_payload_dict(msg))]
    if isinstance(msg, DataTransfer):
        payload = [*write_field(_U32, payload[0]), msg.package.to_bytes()]
    length = sum(len(part) for part in payload)
    return b"".join(
        [MAGIC, bytes([VERSION, _TYPE_BY_CLASS[type(msg)]]), _U32.pack(length), *payload]
    )


def check_header(header: bytes) -> tuple[int, int]:
    """Validate a 10-byte frame header; returns (type byte, payload length)."""
    if len(header) < HEADER_LEN:
        raise DecodeError(len(header), "truncated header")
    if header[:4] != MAGIC:
        raise DecodeError(0, f"bad magic {bytes(header[:4])!r}")
    if header[4] != VERSION:
        raise DecodeError(4, f"unsupported version 0x{header[4]:02x}")
    type_byte = header[5]
    if type_byte not in _CLASS_BY_TYPE:
        raise DecodeError(5, f"unknown type byte 0x{type_byte:02x}")
    (length,) = _U32.unpack_from(header, 6)
    if length > MAX_PAYLOAD:
        raise DecodeError(6, f"payload length {length} exceeds limit {MAX_PAYLOAD}")
    return type_byte, length


def decode(frame: bytes) -> Message:
    type_byte, length = check_header(frame[:HEADER_LEN])
    if len(frame) < HEADER_LEN + length:
        raise DecodeError(len(frame), "truncated payload")
    if len(frame) > HEADER_LEN + length:
        raise DecodeError(HEADER_LEN + length, "trailing bytes after frame")
    view = memoryview(frame)
    cls = _CLASS_BY_TYPE[type_byte]
    json_at, doc_bytes, given = HEADER_LEN, view[HEADER_LEN:], None
    if cls is DataTransfer:
        json_at = HEADER_LEN + _U32.size
        doc_bytes, json_end = read_field(view, HEADER_LEN, _U32)
        try:
            given = {"package": SealedPackage.from_bytes(view[json_end:])}
        except DecodeError as exc:
            raise DecodeError(json_end + exc.offset, exc.cause) from None
    try:
        # strict: an unknown or missing key, here or in a manifest or result,
        # or a field of the wrong type, is a ValueError
        doc = from_json_bytes(bytes(doc_bytes))
        return check_types(block_from_dict(cls, doc, given, **_READERS))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise DecodeError(json_at, f"bad payload: {exc}") from exc


def take_frame(buf: bytearray) -> bytearray | None:
    """Take the first whole frame off ``buf``, the bytes a stream delivered so
    far; None until it is all in. A bad header raises as soon as it is in."""
    if len(buf) < HEADER_LEN:
        return None
    _, length = check_header(buf[:HEADER_LEN])
    if len(buf) < HEADER_LEN + length:
        return None
    frame = buf[:HEADER_LEN + length]
    del buf[:HEADER_LEN + length]
    return frame
