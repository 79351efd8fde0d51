"""Framing codec: exact frame layout, roundtrips, decode error offsets."""

import dataclasses
import json
import struct

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_scenario
from phtlink.analysis import ResultTable, ValidatedResult
from phtlink.envelope import generate_encryption_keypair, generate_signing_keys, seal
from phtlink.errors import DecodeError
from phtlink.stations import flip_bit
from phtlink.synth import generate_vertical_demo
from phtlink.wire import (
    Abort,
    Ack,
    DataTransfer,
    HEADER_LEN,
    MAGIC,
    ResultReturn,
    TrainDispatch,
    VERSION,
    check_header,
    decode,
    encode,
    take_frame,
)


def ack(run="run-1", seq=3, sender="A"):
    return Ack(run, seq, sender)


class TestFrameLayout:
    def test_ack_frame_bytes(self):
        frame = encode(ack())
        assert frame[:4] == MAGIC == b"PHT1"
        assert frame[4] == 0x02  # version
        assert frame[5] == 0x02  # Ack type byte
        (length,) = struct.unpack(">I", frame[6:10])
        payload = frame[10:]
        assert len(payload) == length
        assert payload == b'{"run_id":"run-1","sender":"A","seq":3}'

    def test_type_bytes_are_stable(self):
        # wire compatibility: these values are part of the format
        from phtlink import wire

        assert wire.TYPE_TRAIN_DISPATCH == 0x01
        assert wire.TYPE_ACK == 0x02
        assert wire.TYPE_DATA_TRANSFER == 0x04
        assert wire.TYPE_RESULT_RETURN == 0x05
        assert wire.TYPE_ABORT == 0x06


class TestRoundtrip:
    @given(
        run=st.text(min_size=1, max_size=20),
        seq=st.integers(1, 2**31),
        sender=st.text(min_size=1, max_size=10),
    )
    @settings(max_examples=50)
    def test_ack_roundtrip(self, run, seq, sender):
        msg = Ack(run, seq, sender)
        assert decode(encode(msg)) == msg

    @given(reason=st.text(max_size=50))
    @settings(max_examples=30)
    def test_abort_roundtrip(self, reason):
        msg = Abort("run-1", 9, "TSE", reason)
        assert decode(encode(msg)) == msg

    def test_dispatch_roundtrip(self):
        ds_a, ds_b, _ = generate_vertical_demo(5, 2, seed=1)
        scenario = make_scenario(ds_a, ds_b)
        msg = TrainDispatch(
            "run-0001", 1, "researcher", scenario.manifest,
            (("A", "127.0.0.1:1"), ("B", "127.0.0.1:2")),
        )
        assert decode(encode(msg)) == msg

    def test_data_transfer_roundtrip(self):
        kp, sk = generate_encryption_keypair(), generate_signing_keys()
        pkg = seal(b"\x01\x02", "run-1", "A", kp.public_only(), sk)
        transfer = DataTransfer("run-1", 3, "A", pkg)
        assert decode(encode(transfer)) == transfer

    def test_result_return_roundtrip(self):
        result = ValidatedResult(
            tables=[ResultTable("t", ("bin",), ("count",), [{"bin": "[0,1)", "count": 5}], {})],
            audit={"k": 1},
        )
        msg = ResultReturn("run-1", 4, "TSE", result)
        assert decode(encode(msg)) == msg


class TestDecodeErrors:
    def test_bad_magic(self):
        frame = b"XXXX" + encode(ack())[4:]
        with pytest.raises(DecodeError) as err:
            decode(frame)
        assert err.value.offset == 0

    def test_bad_version(self):
        frame = bytearray(encode(ack()))
        frame[4] = 0x99
        with pytest.raises(DecodeError) as err:
            decode(bytes(frame))
        assert err.value.offset == 4

    # 0x03 was the station-to-station salt offer, which no party sends now
    @pytest.mark.parametrize("type_byte", [0x03, 0x7F])
    def test_unknown_type(self, type_byte):
        frame = bytearray(encode(ack()))
        frame[5] = type_byte
        with pytest.raises(DecodeError, match=f"unknown type byte 0x{type_byte:02x}") as err:
            check_header(bytes(frame[:HEADER_LEN]))
        assert err.value.offset == 5
        with pytest.raises(DecodeError) as err:
            decode(bytes(frame))
        assert err.value.offset == 5

    def test_truncated_header(self):
        with pytest.raises(DecodeError) as err:
            decode(encode(ack())[:7])
        assert err.value.offset == 7

    def test_truncated_payload_reports_cut_offset(self):
        frame = encode(ack())
        cut = len(frame) - 5
        with pytest.raises(DecodeError) as err:
            decode(frame[:cut])
        assert err.value.offset == cut

    def test_trailing_bytes_rejected(self):
        with pytest.raises(DecodeError):
            decode(encode(ack()) + b"junk")

    def test_oversized_length_rejected_from_header(self):
        header = MAGIC + bytes([VERSION, 0x02]) + struct.pack(">I", 2**31)
        with pytest.raises(DecodeError) as err:
            decode(header)
        assert err.value.offset == 6

    def test_dispatch_with_an_unknown_block_key_is_a_decode_error(self):
        ds_a, ds_b, _ = generate_vertical_demo(5, 2, seed=1)
        msg = TrainDispatch("run-0001", 1, "researcher", make_scenario(ds_a, ds_b).manifest, ())
        doc = json.loads(encode(msg)[HEADER_LEN:])
        doc["manifest"]["data_requests"][0]["pool"] = {"age_mn": 40}
        payload = json.dumps(doc).encode()
        frame = MAGIC + bytes([VERSION, 0x01]) + struct.pack(">I", len(payload)) + payload
        with pytest.raises(DecodeError, match="age_mn"):
            decode(frame)

    def test_dispatch_whose_run_id_is_not_its_manifests_is_a_decode_error(self):
        msg = _dispatch()
        with pytest.raises(ValueError, match="carries the manifest of run 'run-0001'"):
            dataclasses.replace(msg, run_id="run-REPLAY")
        payload = json.dumps({**_payload(msg), "run_id": "run-REPLAY"}).encode()
        frame = MAGIC + bytes([VERSION, 0x01]) + struct.pack(">I", len(payload)) + payload
        with pytest.raises(DecodeError, match="dispatch for run 'run-REPLAY' carries "
                                              "the manifest of run 'run-0001'"):
            decode(frame)

    def test_garbage_payload(self):
        payload = b"not json"
        frame = MAGIC + bytes([VERSION, 0x02]) + struct.pack(">I", len(payload)) + payload
        with pytest.raises(DecodeError) as err:
            decode(frame)
        assert err.value.offset == HEADER_LEN


class TestTakeFrame:
    def test_takes_whole_frames_one_at_a_time(self):
        frame = encode(ack())
        buf = bytearray(frame + encode(ack(seq=4)))
        assert take_frame(buf) == frame
        assert decode(take_frame(buf)).seq == 4
        assert take_frame(buf) is None and buf == b""

    def test_empty_buffer_gives_none(self):
        assert take_frame(bytearray()) is None

    def test_partial_header_waits(self):
        buf = bytearray(b"PHT1\x02")
        assert take_frame(buf) is None and buf == b"PHT1\x02"

    def test_bad_header_is_error_once_it_is_in(self):
        with pytest.raises(DecodeError):
            take_frame(bytearray(b"PHT1\x01\x02\x00\x00\x00\x00"))

    def test_cut_payload_waits(self):
        frame = encode(ack())
        buf = bytearray(frame[:-3])
        assert take_frame(buf) is None and buf == frame[:-3]
        buf += frame[-3:]
        assert take_frame(buf) == frame

    def test_oversized_frame_rejected_from_header_alone(self):
        header = MAGIC + bytes([VERSION, 0x02]) + struct.pack(">I", 2**30)
        with pytest.raises(DecodeError):
            take_frame(bytearray(header))


def _transfer(plaintext=b"\x05" * 300):
    kp, sk = generate_encryption_keypair(), generate_signing_keys()
    pkg = seal(plaintext, "run-1", "A", kp.public_only(), sk)
    return DataTransfer("run-1", 3, "A", pkg)


_FUZZ_FRAME = encode(_transfer(b"\x09" * 200))


class TestBinaryFrames:
    def test_v1_frame_is_refused_at_the_version_byte(self):
        v1 = bytearray(encode(ack()))
        v1[4] = 0x01
        with pytest.raises(DecodeError) as err:
            decode(bytes(v1))
        assert err.value.offset == 4

    def test_data_transfer_layout(self):
        msg = _transfer()
        frame = encode(msg)
        assert frame[4] == VERSION and frame[5] == 0x04
        (length,) = struct.unpack(">I", frame[6:10])
        assert len(frame) == HEADER_LEN + length
        (json_len,) = struct.unpack(">I", frame[10:14])
        assert json.loads(frame[14 : 14 + json_len]) == {"run_id": "run-1", "seq": 3, "sender": "A"}
        assert frame[14 + json_len :] == msg.package.to_bytes()

    @pytest.mark.parametrize("payload", [b"", b"\x00\x00", b"\x00\x00\x00\x09{}"])
    def test_payload_too_short_for_its_header_is_a_decode_error(self, payload):
        frame = MAGIC + bytes([VERSION, 0x04]) + struct.pack(">I", len(payload)) + payload
        with pytest.raises(DecodeError) as err:
            decode(frame)
        assert err.value.offset == HEADER_LEN

    def test_no_base64_or_json_around_the_package(self):
        msg = _transfer(b"\x00" * 64)
        frame = encode(msg)
        assert msg.package.ciphertext in frame
        assert b"ciphertext" not in frame and b"package" not in frame

    @given(keep=st.integers(0, len(_FUZZ_FRAME) - 1))
    @settings(max_examples=200)
    def test_truncated_data_transfer_raises_only_decode_error(self, keep):
        with pytest.raises(DecodeError):
            decode(_FUZZ_FRAME[:keep])

    def test_every_length_bit_flip_raises_only_decode_error(self):
        frame = _FUZZ_FRAME
        (json_len,) = struct.unpack(">I", frame[10:14])
        package_at = 14 + json_len
        (header_len,) = struct.unpack(">I", frame[package_at : package_at + 4])
        key_at = package_at + 4 + header_len
        tag_at = key_at + 2 + 92
        fields = [(6, 4), (10, 4), (package_at, 4), (key_at, 2), (tag_at, 2)]
        for start, size in fields:
            for bit in range(start * 8, (start + size) * 8):
                with pytest.raises(DecodeError):
                    decode(flip_bit(frame, bit))

    @given(bit=st.integers(0, 8 * len(_FUZZ_FRAME) - 1), cut=st.integers(0, 50))
    @settings(max_examples=300)
    def test_mangled_frame_raises_nothing_but_decode_error(self, bit, cut):
        mangled = flip_bit(_FUZZ_FRAME, bit)[: len(_FUZZ_FRAME) - cut]
        try:
            decode(mangled)
        except DecodeError:
            pass

    def test_take_frame_grows_a_frame_from_short_reads(self):
        frame = encode(_transfer(b"\x07" * 100_000))
        stream, buf, taken = frame + encode(ack()), bytearray(), []
        for at in range(0, len(stream), 777):
            buf += stream[at:at + 777]
            while (got := take_frame(buf)) is not None:
                taken.append(got)
        assert taken[0] == frame and decode(taken[1]) == ack()
        assert len(taken) == 2 and buf == b""



def _json_frame(type_byte, doc):
    payload = json.dumps(doc).encode()
    return MAGIC + bytes([VERSION, type_byte]) + struct.pack(">I", len(payload)) + payload


def _payload(msg):
    return json.loads(encode(msg)[HEADER_LEN:])


def _dispatch():
    ds_a, ds_b, _ = generate_vertical_demo(5, 2, seed=1)
    return TrainDispatch("run-0001", 1, "researcher", make_scenario(ds_a, ds_b).manifest,
                         (("A", "127.0.0.1:1"),))


def _result_return():
    table = ResultTable("t", ("bin",), ("count",), [{"bin": "[0,1)", "count": 5}], {})
    return ResultReturn("run-1", 4, "TSE", ValidatedResult([table], {"k": 1}))


class TestStrictPayloads:
    """Every JSON payload is read strictly: a key the message, its manifest
    or its result does not declare, or a declared key without a default
    that is absent, is a DecodeError at the payload."""

    def _mutated(self, msg, mutate):
        doc = _payload(msg)
        mutate(doc)
        return _json_frame(encode(msg)[5], doc)

    @pytest.mark.parametrize("msg, mutate", [
        (ack(), lambda doc: doc.update(extra=1)),
        (ack(), lambda doc: doc.update(status="OK")),
        (Abort("run-1", 9, "TSE", "Timeout"), lambda doc: doc.update(extra=1)),
        (_dispatch(), lambda doc: doc["manifest"].update(note="hi")),
        (_dispatch(), lambda doc: doc.update(extra=1)),
        (_result_return(), lambda doc: doc["result"].update(x=1)),
        (_result_return(), lambda doc: doc["result"]["tables"][0].update(x=1)),
    ], ids=["ack", "ack-status", "abort", "manifest", "dispatch", "result", "result-table"])
    def test_unknown_key_is_a_decode_error(self, msg, mutate):
        with pytest.raises(DecodeError, match="unknown") as err:
            decode(self._mutated(msg, mutate))
        assert err.value.offset == HEADER_LEN

    @pytest.mark.parametrize("msg, key", [
        (ack(), "sender"),
        (Abort("run-1", 9, "TSE", "Timeout"), "reason"),
        (_dispatch(), "endpoints"),
        (_result_return(), "result"),
    ])
    def test_missing_key_is_a_decode_error(self, msg, key):
        with pytest.raises(DecodeError, match=key):
            decode(self._mutated(msg, lambda doc: doc.pop(key)))

    def _mutated_binary(self, msg, mutate):
        frame = encode(msg)
        (json_len,) = struct.unpack(">I", frame[10:14])
        header = json.loads(frame[14 : 14 + json_len])
        mutate(header)
        doc = json.dumps(header).encode()
        payload = struct.pack(">I", len(doc)) + doc + frame[14 + json_len :]
        return MAGIC + bytes([VERSION, frame[5]]) + struct.pack(">I", len(payload)) + payload

    @pytest.mark.parametrize("msg, key, value", [
        (ack(), "seq", "7"),
        (Abort("run-1", 9, "TSE", "Timeout"), "sender", ["A"]),
        (_dispatch(), "seq", True),
        (_dispatch(), "endpoints", {"A": 1}),
        (_result_return(), "run_id", 5),
        (_transfer(), "seq", 3.0),
    ], ids=["ack", "abort", "dispatch", "dispatch-endpoints", "result", "transfer"])
    def test_wrong_json_type_is_a_decode_error(self, msg, key, value):
        mutated = (self._mutated_binary if isinstance(msg, DataTransfer)
                   else self._mutated)(msg, lambda doc: doc.update({key: value}))
        with pytest.raises(DecodeError, match=key) as err:
            decode(mutated)
        assert err.value.offset == HEADER_LEN + 4 * isinstance(msg, DataTransfer)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
    def test_non_finite_number_in_a_manifest_is_a_decode_error(self, literal):
        """JSON that canonical_json_bytes could not have written is refused
        at the frame, before any signature check sees the manifest."""
        doc = _payload(_dispatch())
        doc["manifest"]["linkage"]["t_upper"] = "LITERAL"

        def frame(text):
            payload = json.dumps(doc).replace('"LITERAL"', text).encode()
            return MAGIC + bytes([VERSION, 0x01]) + struct.pack(">I", len(payload)) + payload

        assert decode(frame("8.5")).manifest.linkage.t_upper == 8.5
        with pytest.raises(DecodeError, match="non-finite") as err:
            decode(frame(literal))
        assert err.value.offset == HEADER_LEN

    def test_wrong_json_type_in_a_result_table_is_a_decode_error(self):
        mutated = self._mutated(
            _result_return(), lambda doc: doc["result"]["tables"][0].update(key_fields="bin")
        )
        with pytest.raises(DecodeError, match="key_fields"):
            decode(mutated)

    def test_binary_header_may_not_name_its_package(self):
        frame = encode(_transfer())
        (json_len,) = struct.unpack(">I", frame[10:14])
        header = json.loads(frame[14 : 14 + json_len])
        header["package"] = "x"
        doc = json.dumps(header).encode()
        payload = struct.pack(">I", len(doc)) + doc + frame[14 + json_len :]
        mangled = MAGIC + bytes([VERSION, 0x04]) + struct.pack(">I", len(payload)) + payload
        with pytest.raises(DecodeError, match="package"):
            decode(mangled)
