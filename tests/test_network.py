"""End-to-end runs over both transports: equality, isolation, failure paths."""

import dataclasses
import datetime as dt
import errno
import hashlib
import json
import logging
import socket
import struct
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import (
    key_ids_package, make_scenario, previous_format_package, row_major_body, with_header,
)
from phtlink.analysis import AnalysisSpec, DisclosurePolicy
from phtlink import linkage, network, stations
from phtlink.encoding import b64encode
from phtlink.envelope import SealedPackage, generate_encryption_keypair, generate_signing_keys
from phtlink.linkage import LinkageParams
from phtlink.manifest import PoolFilter, sign_manifest
from phtlink.model import QID_FIELDS, FieldCodes, dataset_from_bytes
from phtlink.network import Router, TcpNode, run_network
from phtlink.pseudonym import DIGEST_DTYPE, Salt, pseudonymize, pseudonymize_columns
from phtlink.stations import (
    AWAITING_DATA,
    IDLE,
    SENT,
    WIPED,
    DataStationActor,
    Outgoing,
    ResearcherActor,
    TseActor,
    flip_bit,
)
from phtlink.wire import (
    HEADER_LEN,
    MAGIC,
    TYPE_DATA_TRANSFER,
    VERSION,
    Abort,
    Ack,
    DataTransfer,
    ResultReturn,
    TrainDispatch,
    encode,
    message_type_name,
)
from phtlink.synth import generate_population, generate_vertical_demo, SyntheticPopulationSpec


def demo_scenario(seed=4, n_a=80, n_b=25, **kwargs):
    ds_a, ds_b, truth = generate_vertical_demo(n_a, n_b, seed=seed)
    return make_scenario(ds_a, ds_b, truth, **kwargs)


class TestInProcess:
    def test_happy_path_completes_and_wipes(self):
        scn = demo_scenario()
        out = run_network(scn.setup, transport="inproc")
        assert out.completed
        assert out.result.audit["run"]["records_linked"] == len(scn.truth)
        assert out.storage.wiped and out.storage.inventory() == ()

    def test_exactly_one_result_return_in_trace(self):
        scn = demo_scenario()
        out = run_network(scn.setup, transport="inproc")
        returns = [
            entry
            for channel, entries in out.traces.items()
            for entry in entries
            if entry[0] == "ResultReturn"
        ]
        assert len(returns) == 1

    def test_happy_path_message_arrows(self):
        """Every channel carries exactly these frames on both transports, so
        an extra frame fails as a missing one does. Each station derives the
        salt itself, so stations never message each other."""
        for transport in ("inproc", "tcp"):
            scn = demo_scenario()
            out = run_network(scn.setup, transport=transport, tse_timeout=5.0, run_timeout=30.0)
            types = {
                channel: [e[0] for e in entries] for channel, entries in out.traces.items()
            }
            assert types == {
                ("researcher", "TSE"): ["TrainDispatch"],
                ("researcher", "A"): ["TrainDispatch"],
                ("researcher", "B"): ["TrainDispatch"],
                ("TSE", "researcher"): ["Ack", "ResultReturn"],
                ("A", "TSE"): ["DataTransfer"],
                ("B", "TSE"): ["DataTransfer"],
                ("A", "researcher"): ["Ack"],
                ("B", "researcher"): ["Ack"],
            }, transport

    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    @pytest.mark.parametrize("refusal", ["MissingPeerKey(A)", "UnknownVariable(income)"])
    def test_station_refusing_after_validation_sends_no_ack(self, refusal, transport):
        scn = demo_scenario()
        config = scn.setup.stations[1]
        if refusal.startswith("MissingPeerKey"):
            config.peer_encryption_keys = {}
        else:
            config.dataset = dataclasses.replace(config.dataset, schema=(("height", "numeric"),))
        out = run_network(scn.setup, transport=transport, tse_timeout=5.0, run_timeout=30.0)
        assert (out.outcome, out.reason) == ("aborted", refusal)
        assert [t[0] for t in out.traces[("B", "researcher")]] == ["Abort"]
        acks = [e["detail"] for e in out.audit_logs["researcher"] if e["event"] == "ack"]
        assert "B" not in acks and "TSE" in acks

    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    def test_descriptive_run_releases_no_extremes(self, transport):
        # a released max was the exact income of the richest linked person
        ds_a, ds_b, truth = generate_vertical_demo(300, 100, seed=5)
        scn = make_scenario(ds_a, ds_b, truth, disclosure=DisclosurePolicy(k_min=10),
                            analysis=AnalysisSpec("descriptive", ("income",)))
        out = run_network(scn.setup, transport=transport, tse_timeout=5.0, run_timeout=30.0)
        (table,) = out.result.tables
        assert table.value_fields == ("count", "mean", "stddev")
        incomes = {row.payload["income"] for row in ds_b.rows}
        assert not incomes & {v for row in table.rows for v in row.values()}

    def test_per_sender_sequence_numbers_increase(self):
        scn = demo_scenario()
        out = run_network(scn.setup, transport="inproc")
        by_sender: dict[str, list[int]] = {}
        for (sender, _), entries in out.traces.items():
            for _, _, seq in entries:
                by_sender.setdefault(sender, []).append(seq)
        for sender, seqs in by_sender.items():
            assert sorted(set(seqs)) == sorted(seqs), sender

    def test_researcher_sees_only_allowed_message_types(self):
        scn = demo_scenario()
        out = run_network(scn.setup, transport="inproc")
        for (sender, dest), entries in out.traces.items():
            if dest != "researcher":
                continue
            for entry in entries:
                assert entry[0] in ("Ack", "ResultReturn", "Abort")

    def test_tamper_aborts_and_wipes_other_station_data(self):
        scn = demo_scenario(fault_b="tamper")
        out = run_network(scn.setup, transport="inproc")
        assert out.outcome == "aborted"
        assert out.reason == "OuterIntegrityFailure@B"
        assert out.storage.wiped and out.storage.inventory() == ()

    def test_silent_station_hits_simulated_timeout(self):
        scn = demo_scenario(fault_b="no_send")
        out = run_network(scn.setup, transport="inproc")
        assert out.outcome == "aborted" and out.reason == "Timeout"
        assert out.storage.wiped

    def test_expired_manifest_aborts(self):
        scn = demo_scenario(expiry="2000-01-01T00:00:00Z")
        out = run_network(scn.setup, transport="inproc")
        assert out.outcome == "aborted" and out.reason == "Expired"


class TestPartyIsolation:
    def test_station_a_never_receives_station_b_dataset_bytes(self):
        ds_a, ds_b, truth = generate_vertical_demo(80, 25, seed=4)
        ds_b.rows[0].payload["income"] = 31415926  # distinctive canary value
        scn = make_scenario(ds_a, ds_b, truth)
        out = run_network(scn.setup, transport="inproc")
        assert out.completed
        for frame in out.received_bytes["A"]:
            assert b"31415926" not in frame
        types = {c: [e[0] for e in v] for c, v in out.traces.items()}
        assert set(types.get(("B", "A"), [])) <= {"Ack", "Abort"}
        assert all(t[0] in ("TrainDispatch", "Ack") for v in
                   (out.traces.get(("researcher", "A"), []), out.traces.get(("B", "A"), []))
                   for t in v)

    def test_tse_inbox_contains_no_salt_bytes(self):
        salt = Salt(bytes(range(32)), "run-0001")
        scn = demo_scenario(reuse_salt_a=salt)
        out = run_network(scn.setup, transport="inproc")
        assert out.completed
        needles = (salt.bytes, b64encode(salt.bytes).encode(), salt.bytes.hex().encode())
        for frame in out.received_bytes["TSE"]:
            for needle in needles:
                assert needle not in frame

    def test_tse_inbox_contains_no_raw_qid_strings(self):
        scn = demo_scenario()
        out = run_network(scn.setup, transport="inproc")
        assert out.completed
        canaries = []
        for row in scn.ds_a.rows[:10]:
            qid = row.qid
            canaries.append(qid.date_of_birth.encode())
            canaries.append("|".join(qid.as_tuple()).encode())
        blob = b"".join(out.received_bytes["TSE"])
        for canary in canaries:
            assert canary not in blob


class TestSaltAgreement:
    """Each station derives the salt on its own; the TSE compares the two
    salt checks and fails closed where they differ."""

    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    def test_wrong_peer_key_aborts_with_salt_mismatch(self, transport):
        scn = demo_scenario()
        wrong = generate_encryption_keypair(scn.manifest.run_id).public_only()
        scn.setup.stations[0].peer_encryption_keys = {"B": wrong}
        out = run_network(scn.setup, transport=transport, tse_timeout=5.0, run_timeout=30.0)
        assert (out.outcome, out.reason) == ("aborted", "SaltMismatch")
        assert out.result is None and out.result_bytes is None
        assert not any(e[0] == "ResultReturn" for v in out.traces.values() for e in v)
        assert out.storage.wiped and out.storage.inventory() == ()

    def test_mixed_version_run_ends_timeout_with_the_tse_wiped(self, caplog):
        """A station of the earlier protocol sends its peer a salt offer,
        type byte 0x03, and sends no data before the peer acknowledges it.
        This version refuses that frame as undecodable, so the old station
        never sends its data and the run ends "Timeout", the TSE wiped."""
        offer = MAGIC + bytes([VERSION, 0x03]) + struct.pack(">I", 2) + b"{}"
        with caplog.at_level(logging.WARNING, logger="phtlink"):
            assert network._receive("B", Router(), offer, None) == []
        assert "unknown type byte 0x03" in caplog.text
        scn = demo_scenario(fault_a="no_send")  # the old station's data never comes
        out = run_network(scn.setup, transport="inproc")
        assert (out.outcome, out.reason) == ("aborted", "Timeout")
        assert out.storage.wiped and out.storage.inventory() == ()


class TestTcp:
    def test_happy_path_over_sockets(self):
        scn = demo_scenario()
        out = run_network(scn.setup, transport="tcp", tse_timeout=5.0, run_timeout=30.0)
        assert out.completed
        assert out.storage.wiped

    def test_transport_independence_bytes_and_traces(self):
        results = {}
        for transport in ("inproc", "tcp"):
            scn = demo_scenario(seed=9)
            results[transport] = run_network(
                scn.setup, transport=transport, tse_timeout=5.0, run_timeout=30.0
            )
        assert results["inproc"].completed and results["tcp"].completed
        assert results["inproc"].result_bytes == results["tcp"].result_bytes
        assert results["inproc"].logical_trace() == results["tcp"].logical_trace()

    def test_killed_station_aborts_via_timeout(self):
        scn = demo_scenario(fault_b="no_send")
        out = run_network(scn.setup, transport="tcp", tse_timeout=1.0, run_timeout=15.0)
        assert out.outcome == "aborted" and out.reason == "Timeout"
        assert out.storage.wiped

    def test_garbage_connection_is_dropped_and_node_keeps_serving(self):
        import time

        from phtlink.network import TcpNode
        from phtlink.wire import Ack, encode

        seen = []
        node = TcpNode("X", lambda msg: seen.append(msg) or [])
        node.start()
        try:
            host, port = node.address.rsplit(":", 1)
            junk = socket.create_connection((host, int(port)))
            junk.sendall(b"this is not a frame at all")
            junk.close()

            good = socket.create_connection((host, int(port)))
            good.sendall(encode(Ack("run-1", 1, "Y")))
            good.close()
            deadline = time.monotonic() + 5.0
            while not seen and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            node.stop()
        assert seen == [Ack("run-1", 1, "Y")]


class TestProbabilisticEndToEnd:
    def test_perturbed_population_links_probabilistically(self):
        large, small, truth = generate_population(
            SyntheticPopulationSpec(
                n_large=150, n_small=60, overlap_fraction=0.6,
                perturbation_rate=0.1, seed=21,
            )
        )
        scn = make_scenario(
            large, small, truth,
            variables_a=("age",), variables_b=("activity",),
            analysis=AnalysisSpec("binned_association", ("age", "activity"), bin_width=10),
            disclosure=DisclosurePolicy(k_min=2),
            linkage=LinkageParams(mode="probabilistic", blocking_fields=()),
        )
        out = run_network(scn.setup, transport="inproc")
        assert out.completed
        linked = out.result.audit["run"]["records_linked"]
        assert linked >= int(0.8 * len(truth))


class TestCandidateBudgetAtTse:
    def test_over_budget_linkage_aborts_and_wipes(self, monkeypatch):
        monkeypatch.setattr(linkage, "MAX_CANDIDATES", 1)
        scn = demo_scenario(linkage=LinkageParams(mode="probabilistic",
                                                  blocking_fields=("gender",)))
        out = run_network(scn.setup, transport="inproc")
        assert out.outcome == "aborted"
        assert out.reason.startswith("CandidateBudgetExceeded")
        assert out.storage.wiped and out.storage.inventory() == ()
        events = [e["event"] for e in out.audit_logs["TSE"]]
        assert events.count("abort_wiped") == 1


class TestBinBudgetAtTse:
    def test_bin_width_past_the_budget_aborts_and_wipes(self):
        # with no budget, edge-building never ended and the TSE never answered
        scn = demo_scenario(analysis=AnalysisSpec("binned_association", ("age", "income"),
                                                  bin_width=1e-300))
        started = time.monotonic()
        out = run_network(scn.setup, transport="inproc")
        assert time.monotonic() - started < 5.0
        assert out.outcome == "aborted"
        assert out.reason.startswith("BinBudgetExceeded")
        assert out.storage.wiped and out.storage.inventory() == ()
        events = [e["event"] for e in out.audit_logs["TSE"]]
        assert events.count("abort_wiped") == 1


class TestInvalidManifest:
    """A correctly signed manifest whose contents are invalid aborts before
    any data moves, and leaves nothing at the TSE."""

    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    @pytest.mark.parametrize("invalid", [
        dict(disclosure=DisclosurePolicy(k_min=0)),
        dict(analysis=AnalysisSpec("median_of_everything", ("age", "income"))),
        dict(linkage=LinkageParams(mode="probabilistic", t_upper=1.0, t_lower=5.0)),
        dict(linkage=LinkageParams(mode="probabilistic", blocking_fields=("shoe_size",))),
        # each of these used to move data, stall or release too much
        dict(disclosure=DisclosurePolicy(k_min="5")),
        dict(analysis=AnalysisSpec("binned_association", ("age", "income"), bin_width="10")),
        dict(disclosure=DisclosurePolicy(k_min=5, suppress_marker=0)),
        dict(linkage=LinkageParams(mode="probabilistic", m=(1.0, 0.95, 0.98, 0.97))),
        dict(pool_a=PoolFilter(age_min=40, as_of="garbage")),
        dict(pool_a=PoolFilter(zip_prefixes="6211")),
        # a top-level field of the wrong type, once an AttributeError
        dict(expiry=4102444800),
    ], ids=["k_min_0", "unknown_kind", "t_upper_below_t_lower", "unknown_blocking_field",
            "k_min_str", "bin_width_str", "marker_not_str", "m_is_1", "pool_as_of_garbage",
            "pool_zip_prefixes_str", "expiry_int"])
    def test_aborts_with_invalid_manifest_and_wipes(self, transport, invalid):
        scn = demo_scenario(**invalid)
        out = run_network(scn.setup, transport=transport, tse_timeout=5.0, run_timeout=30.0)
        assert out.outcome == "aborted" and out.reason == "InvalidManifest"
        assert out.storage.wiped and out.storage.inventory() == ()
        assert not any(e[0] == "DataTransfer" for v in out.traces.values() for e in v)

    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    def test_manifest_without_a_stations_key_aborts_before_data_moves(self, transport):
        """A signed manifest that holds no verification key for B is refused
        by the TSE as InvalidManifest: the TSE receives only its dispatch."""
        scn = demo_scenario()
        scn.setup.manifest = sign_manifest(dataclasses.replace(
            scn.manifest, station_verification_keys=scn.manifest.station_verification_keys[:1]),
            scn.anchor)
        out = run_network(scn.setup, transport=transport, tse_timeout=5.0, run_timeout=30.0)
        assert (out.outcome, out.reason) == ("aborted", "InvalidManifest")
        assert out.storage.wiped and out.storage.inventory() == ()
        assert [frame[5] for frame in out.received_bytes["TSE"]] == [0x01]
        assert "A" not in out.received_bytes and "B" not in out.received_bytes


class TestRefusalIsAudited:
    """Why a manifest was refused lands in the refusing party's audit; the
    Abort it sends names the bare reason. The TSE is dispatched first, so a
    manifest it refuses never reaches a data station."""

    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    def test_k_min_0_is_named_in_the_refusal_event_of_the_tse(self, transport):
        scn = demo_scenario(disclosure=DisclosurePolicy(k_min=0))
        out = run_network(scn.setup, transport=transport, tse_timeout=5.0, run_timeout=30.0)
        assert (out.outcome, out.reason) == ("aborted", "InvalidManifest")
        refusals = [e["detail"] for e in out.audit_logs["TSE"] if e["event"] == "abort_wiped"]
        assert len(refusals) == 1 and refusals[0].startswith("InvalidManifest: "), refusals
        assert "k_min" in refusals[0]
        assert out.audit_logs["A"] == out.audit_logs["B"] == []

    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    def test_unreleased_variable_is_named_in_the_refusal_event_of_b(self, transport):
        scn = demo_scenario(allowed_b=())
        out = run_network(scn.setup, transport=transport, tse_timeout=5.0, run_timeout=30.0)
        assert (out.outcome, out.reason) == ("aborted", "UnauthorizedVariable")
        refusals = [e["detail"] for e in out.audit_logs["B"] if e["event"] == "abort"]
        assert refusals == ["UnauthorizedVariable: B does not release ['income']"]
        assert out.storage.wiped and out.storage.inventory() == ()


class TestUnreleasableResult:
    """A result JSON cannot carry, here a mean that overflows to inf, is
    refused inside the TSE's handler: the run aborts with a named reason,
    the TSE wipes, and no thread and no caller sees an exception."""

    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    def test_overflowed_mean_aborts_and_wipes(self, monkeypatch, transport):
        raised = []
        monkeypatch.setattr(threading, "excepthook", raised.append)
        ds_a, ds_b, truth = generate_vertical_demo(60, 20, seed=3)
        for row in ds_b.rows:
            row.payload["income"] = 1e308
        scn = make_scenario(ds_a, ds_b, truth,
                            analysis=AnalysisSpec("descriptive", ("income",)))
        out = run_network(scn.setup, transport=transport, tse_timeout=5.0, run_timeout=30.0)
        assert (out.outcome, out.reason) == ("aborted", "UnreleasableResult")
        assert out.storage.wiped and out.storage.inventory() == ()
        assert [e["detail"] for e in out.audit_logs["TSE"] if e["event"] == "abort_wiped"] == [
            "UnreleasableResult: Out of range float values are not JSON compliant"
        ]
        assert not any(e[0] == "ResultReturn" for v in out.traces.values() for e in v)
        assert raised == []


def _tse_router(scn, timeout_s=60.0):
    built = []

    def factory(dispatch):
        built.append(TseActor(scn.setup.tse))
        return built[-1]

    return Router(factory, timeout_s), built


def _dispatch(scn, run_id):
    manifest = sign_manifest(dataclasses.replace(scn.manifest, run_id=run_id), scn.anchor)
    return TrainDispatch(run_id, 1, "researcher", manifest, ())


class TestRouter:
    def test_evicts_finished_runs_and_ignores_a_replayed_dispatch(self):
        scn = demo_scenario()
        router, built = _tse_router(scn)
        first, second = _dispatch(scn, "run-0001"), _dispatch(scn, "run-0002")
        router(first)
        router(Abort("run-0001", 1, "A", "NoData"))  # ends by a station's abort
        router(second)
        assert set(router.actors) == {"run-0002"}
        router.expire()  # ends by its deadline
        assert [a.phase for a in built] == [WIPED, WIPED]
        assert all(a.storage.wiped and not a._packages for a in built)
        assert router.actors == {}
        assert router.finished == {"run-0001", "run-0002"}

        assert router(first) == []
        assert len(built) == 2 and router.actors == {}

    def test_stray_message_before_dispatch_leaves_the_actor_idle(self):
        # run_network installs its prebuilt actors at their own dispatch
        scn = demo_scenario()
        a, tse = DataStationActor(scn.setup.stations[0]), TseActor(scn.setup.tse)
        router_tse = Router(lambda dispatch: tse)
        run_id = scn.manifest.run_id
        transfer = a.handle(TrainDispatch(run_id, 1, "researcher", scn.manifest, ()))[0]
        assert transfer.dest == "TSE"
        assert router_tse(transfer.message) == []
        assert tse.phase == IDLE and router_tse.actors == {}
        router_tse(TrainDispatch(run_id, 2, "researcher", scn.manifest, ()))
        assert tse.phase == AWAITING_DATA

    def test_researcher_cancel_wipes_a_tse_that_missed_the_station_abort(self):
        # a refusing station's Abort to the TSE is lost on the way; the
        # researcher's cancel still ends the run there
        scn = demo_scenario(allowed_b=())
        router, built = _tse_router(scn)
        researcher = ResearcherActor("researcher", scn.manifest, {})
        (tse_dispatch,) = researcher.start()
        (ack,) = router(tse_dispatch.message)
        dispatches = {o.dest: o.message for o in researcher.handle(ack.message)}
        assert built[0].phase == AWAITING_DATA
        refusal = {o.dest: o.message
                   for o in DataStationActor(scn.setup.stations[1]).handle(dispatches["B"])}
        assert set(refusal) == {"researcher", "TSE"}
        cancels = researcher.handle(refusal["researcher"])
        assert [(o.dest, o.message.reason) for o in cancels] == [
            ("TSE", "UnauthorizedVariable"),
        ]
        router(cancels[0].message)
        assert built[0].storage.wiped and router.actors == {}

    def test_station_is_evicted_once_its_extract_is_sent(self):
        """A station derives the salt and sends its extract within the
        dispatch's step, so it never waits on a peer: it is terminal, and
        evicted, as soon as that step returns."""
        scn = demo_scenario()
        b = DataStationActor(scn.setup.stations[1])
        router = Router(lambda dispatch: b, 60.0)
        run_id = scn.manifest.run_id
        out = router(TrainDispatch(run_id, 1, "researcher", scn.manifest, ()))
        assert [(o.dest, message_type_name(o.message)) for o in out] == [
            ("TSE", "DataTransfer"), ("researcher", "Ack"),
        ]
        assert b.phase == SENT and b.terminal
        assert router.actors == {} and router.finished == {run_id}
        assert router.expire() == []

    def test_station_router_drops_the_cancels_around_its_dispatch(self, caplog):
        """A station's router installs its actor at the dispatch and evicts it
        when that step returns, so no cancel ever reaches the actor: one
        that overtook the dispatch, or one that came after it, is dropped."""
        scn = demo_scenario()
        b = DataStationActor(scn.setup.stations[1])
        router = Router(lambda dispatch: b, 60.0)
        run_id = scn.manifest.run_id
        with caplog.at_level(logging.INFO, logger="phtlink"):
            assert router(Abort(run_id, 2, "researcher", "Timeout")) == []
            out = router(TrainDispatch(run_id, 1, "researcher", scn.manifest, ()))
            assert router(Abort(run_id, 3, "researcher", "Timeout")) == []
        assert [message_type_name(o.message) for o in out] == ["DataTransfer", "Ack"]
        assert [(r.levelname, r.message.split("reason=")[1]) for r in caplog.records] == [
            ("INFO", "Abort for an unknown run"), ("INFO", "Abort for a finished run"),
        ]
        assert b.phase == SENT and b.audit.events[-1]["event"] == "data_sent"

    def test_researcher_holding_late_acks_is_evicted_at_its_deadline(self):
        scn = demo_scenario()
        researcher = ResearcherActor("researcher", scn.manifest, {})
        router = Router(timeout_s=60.0)
        run_id = scn.manifest.run_id
        router.add(run_id, researcher)
        researcher.start()
        router(ResultReturn(run_id, 1, "TSE", None))
        assert researcher.done and not researcher.terminal and router.actors
        assert router.expire() == []
        assert router.actors == {} and researcher.outcome == ("completed", None)

    def test_frames_a_run_leaves_late_are_dropped_at_info(self, caplog):
        scn = demo_scenario()
        router, _ = _tse_router(scn)
        first = _dispatch(scn, "run-0001")
        router(first)
        router(Abort("run-0001", 1, "A", "NoData"))
        with caplog.at_level(logging.INFO, logger="phtlink"):
            router(Abort("run-0001", 2, "B", "Timeout"))  # a peer's deadline, after ours
            router(Ack("run-0001", 3, "B"))
            router(Abort("run-0002", 1, "researcher", "Cancel"))  # overtook its dispatch
            router(first)  # a replayed dispatch
            router(Ack("run-0003", 1, "A"))
        assert [(r.levelname, r.message.split("reason=")[1]) for r in caplog.records] == [
            ("INFO", "Abort for a finished run"),
            ("INFO", "Ack for a finished run"),
            ("INFO", "Abort for an unknown run"),
            ("WARNING", "TrainDispatch for a finished run"),
            ("WARNING", "Ack for an unknown run"),
        ]

    def test_frame_for_unknown_run_is_dropped_and_logged(self, caplog):
        scn = demo_scenario()
        router, built = _tse_router(scn)
        with caplog.at_level(logging.WARNING, logger="phtlink"):
            assert router(Ack("run-9999", 1, "A")) == []
        assert built == []
        assert any(
            "run_id=run-9999" in r.message and "sender=A" in r.message
            and "unknown run" in r.message
            for r in caplog.records
        )

    def test_busy_tse_still_times_out(self):
        """A parked run times out on schedule while frames for another run
        keep arriving."""
        scn = demo_scenario()
        router, built = _tse_router(scn, timeout_s=0.5)
        node = TcpNode("TSE", router)
        node.start()
        try:
            host, port = node.address.rsplit(":", 1)
            with socket.create_connection((host, int(port))) as conn:
                conn.sendall(encode(_dispatch(scn, "run-0001")))
                started = time.monotonic()
                seq = 0
                while time.monotonic() - started < 1.5 and not (built and built[0].terminal):
                    seq += 1
                    conn.sendall(encode(Ack("run-other", seq, "A")))
                    time.sleep(0.2)
            assert built and built[0].phase == WIPED, "parked run never timed out"
            assert built[0].storage.wiped and built[0].storage.inventory() == ()
            assert any(
                e["event"] == "abort_wiped" and e["detail"] == "Timeout"
                for e in built[0].audit.events
            )
            assert router.actors == {}
        finally:
            node.stop()


def _wait_until(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)


class TestAddressesFromDispatch:
    """A party sends each run's frames to the addresses that run's dispatch
    named, so a daemon serving runs of several researchers answers each at
    its own address, even where the researchers share an id."""

    def test_station_answers_at_the_addresses_its_dispatch_named(self):
        scn = demo_scenario()
        a = DataStationActor(scn.setup.stations[0])
        endpoints = (("TSE", "10.0.0.3:7003"), ("researcher", "10.0.0.9:7009"))
        out = a.handle(TrainDispatch(scn.manifest.run_id, 1, "researcher", scn.manifest,
                                     endpoints))
        assert [(o.dest, o.address) for o in out] == [
            ("TSE", "10.0.0.3:7003"), ("researcher", "10.0.0.9:7009"),
        ]

    def test_one_tse_serves_two_runs_whose_researchers_share_an_id(self):
        scn = demo_scenario()
        seen = {"run-0001": [], "run-0002": []}
        researchers = {run_id: TcpNode("researcher", lambda msg, got=got: got.append(msg) or [])
                       for run_id, got in seen.items()}
        # wired as cli._serve wires a daemon; each run ends at its deadline
        tse = TcpNode("TSE", Router(lambda dispatch: TseActor(scn.setup.tse), 0.5))
        nodes = [tse, *researchers.values()]
        for node in nodes:
            node.start()
        try:
            host, port = tse.address.rsplit(":", 1)
            with socket.create_connection((host, int(port))) as conn:
                for run_id, node in researchers.items():
                    dispatch = dataclasses.replace(
                        _dispatch(scn, run_id), endpoints=(("researcher", node.address),))
                    conn.sendall(encode(dispatch))
                    _wait_until(lambda: seen[run_id])  # its Ack, before the next dispatch
                _wait_until(lambda: all(len(got) >= 2 for got in seen.values()))
        finally:
            for node in nodes:
                node.stop()
        for run_id, got in seen.items():
            assert sorted((message_type_name(m), m.run_id) for m in got) == [
                ("Abort", run_id), ("Ack", run_id),
            ]

    def test_frames_to_one_address_keep_their_order_across_alternation(self, monkeypatch):
        """Two researchers share an id at two addresses; the TSE's frames to
        each travel on one connection, so they arrive in the order sent."""
        accepted = []
        accept = socket.socket.accept

        def counting_accept(sock):
            pair = accept(sock)
            accepted.append(pair[1])
            return pair

        monkeypatch.setattr(socket.socket, "accept", counting_accept)
        seqs = ([], [])
        researchers = [TcpNode("researcher", lambda msg, got=got: got.append(msg.seq) or [])
                       for got in seqs]
        tse = TcpNode("TSE", lambda msg: [])
        nodes = [tse, *researchers]
        for node in nodes:
            node.start()
        try:
            tse.post([Outgoing("researcher", Ack("run-0001", seq, "TSE"), node.address)
                      for seq in range(1, 21) for node in researchers])
            _wait_until(lambda: all(len(got) == 20 for got in seqs))
        finally:
            for node in nodes:
                node.stop()
        assert seqs == (list(range(1, 21)), list(range(1, 21)))
        assert len(accepted) == 2  # one connection per address


def _no_descriptors(*args, **kwargs):
    raise OSError(errno.EMFILE, "Too many open files")


class TestNodeSurvives:
    def test_handler_exception_does_not_stop_the_node(self, caplog):
        seen = []

        def handler(msg):
            seen.append(msg)
            if len(seen) == 1:
                raise ValueError("bad message")
            return []

        node = TcpNode("X", handler)
        node.start()
        try:
            host, port = node.address.rsplit(":", 1)
            with caplog.at_level(logging.WARNING, logger="phtlink"):
                with socket.create_connection((host, int(port))) as conn:
                    conn.sendall(encode(Ack("run-1", 1, "Y")))
                    conn.sendall(encode(Ack("run-1", 2, "Y")))
                deadline = time.monotonic() + 5.0
                while len(seen) < 2 and time.monotonic() < deadline:
                    time.sleep(0.01)
        finally:
            node.stop()
        assert [m.seq for m in seen] == [1, 2]
        assert any("ValueError" in r.message and "run_id=run-1" in r.message
                   for r in caplog.records)

    def test_malformed_address_is_a_failed_send(self):
        """A send to an address that does not parse is dropped like one that
        is refused; the worker goes on sending."""
        seen = []
        node = TcpNode("X", lambda msg: seen.append(msg) or [])
        addresses = {"A": "127.0.0.1:abc", "B": "no-port", "X": node.address}
        node.start()
        try:
            node.post([Outgoing(dest, Ack("run-1", seq, "X"), addresses[dest])
                       for seq, dest in enumerate(("A", "B", "X"), 1)])
            deadline = time.monotonic() + 5.0
            while not seen and time.monotonic() < deadline:
                time.sleep(0.01)
            assert node._worker.is_alive()
        finally:
            node.stop()
        assert [m.seq for m in seen] == [3]

    def test_socket_that_cannot_be_opened_is_a_failed_send(self, monkeypatch, caplog):
        """Out of descriptors, a connection cannot be opened: that frame is a
        failed send, and the loop goes on serving."""
        seen = []
        node = TcpNode("X", lambda msg: seen.append(msg) or [])
        node.start()
        try:
            with caplog.at_level(logging.WARNING, logger="phtlink"):
                with monkeypatch.context() as patched:
                    patched.setattr(socket, "socket", _no_descriptors)
                    node.post([Outgoing("A", Ack("run-1", 1, "X"), "127.0.0.1:9")])
                    _wait_until(lambda: "send to 'A' failed" in caplog.text)
                node.post([Outgoing("X", Ack("run-1", 2, "X"), node.address)])
                _wait_until(lambda: seen)
        finally:
            node.stop()
        assert "Too many open files" in caplog.text
        assert [m.seq for m in seen] == [2]

    @pytest.mark.parametrize("refusing_b", [False, True], ids=["completes", "b_refuses"])
    def test_tcp_run_waits_for_every_frame_under_fast_thread_switching(self, refusing_b):
        # a run that ended while frames were still in flight (B's Abort to
        # the TSE, say) would trace differently from inproc
        kwargs = dict(seed=5, allowed_b=()) if refusing_b else dict(seed=5)
        expected = run_network(demo_scenario(**kwargs).setup)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                out = run_network(demo_scenario(**kwargs).setup, transport="tcp",
                                  tse_timeout=5.0, run_timeout=30.0)
                assert (out.outcome, out.reason) == (expected.outcome, expected.reason)
                assert out.logical_trace() == expected.logical_trace()
                assert out.storage.wiped and out.storage.inventory() == ()
        finally:
            sys.setswitchinterval(interval)

    def test_tcp_runs_release_their_threads(self):
        baseline = threading.active_count()
        for seed in range(3):
            scn = demo_scenario(seed=seed, n_a=60, n_b=20)
            out = run_network(scn.setup, transport="tcp", tse_timeout=5.0, run_timeout=30.0)
            assert out.completed
        assert threading.active_count() <= baseline


def _big_package() -> SealedPackage:
    """A package far larger than a loopback connection's socket buffers."""
    return SealedPackage("TSE", "run-1", bytes(92), bytes(32 * 2**20), bytes(16))


def _host_port(node: TcpNode) -> tuple[str, int]:
    host, port = node.address.rsplit(":", 1)
    return host, int(port)


class TestOneLoop:
    """A node is one thread: a peer that reads nothing holds up no other,
    and connections, idle or to peers that went away, cost no thread."""

    def test_stuck_peer_holds_up_no_other(self, monkeypatch, caplog):
        monkeypatch.setattr(network, "SEND_TIMEOUT_S", 0.75)
        arrived = []
        healthy = TcpNode("healthy", lambda msg: arrived.append(time.monotonic()) or [])
        node = TcpNode("TSE", lambda msg: [])
        stuck = socket.create_server(("127.0.0.1", 0))  # accepts, and never reads
        stuck.settimeout(5.0)
        stuck_address = "{}:{}".format(*stuck.getsockname())
        big = _big_package()
        healthy.start()
        node.start()
        try:
            with caplog.at_level(logging.WARNING, logger="phtlink"):
                node.post([Outgoing("stuck", DataTransfer("run-1", 1, "TSE", big), stuck_address)])
                with stuck.accept()[0]:
                    time.sleep(0.1)  # the socket buffers fill, and the rest waits
                    sent = time.monotonic()
                    node.post([Outgoing("healthy", Abort("run-2", 1, "TSE", "Cancel"),
                                        healthy.address)])
                    _wait_until(lambda: arrived)
                    still_owed = "'stuck'" not in caplog.text
                    _wait_until(lambda: "'stuck'" in caplog.text)
        finally:
            node.stop()
            healthy.stop()
            stuck.close()
        assert arrived and arrived[0] - sent < 0.5 and still_owed
        assert stuck_address not in node._conns
        assert [r.message for r in caplog.records if "'stuck'" in r.message] == [
            "dropped: run_id=run-1 sender=TSE reason=send to 'stuck' failed: timed out"]

    def test_idle_inbound_connections_start_no_thread(self):
        seen = []
        node = TcpNode("TSE", lambda msg: seen.append(msg) or [])
        node.start()
        threads = threading.active_count()
        host, port = node.address.rsplit(":", 1)
        conns = []
        try:
            conns.extend(socket.create_connection((host, int(port))) for _ in range(50))
            conns[-1].sendall(encode(Ack("run-1", 1, "Y")))  # accepted after the rest
            _wait_until(lambda: seen)
            assert seen and threading.active_count() == threads
        finally:
            for conn in conns:
                conn.close()
            node.stop()

    def test_connections_to_stopped_peers_are_closed(self):
        got = []
        researchers = [TcpNode("researcher", lambda msg: got.append(msg) or [])
                       for _ in range(5)]
        tse = TcpNode("TSE", lambda msg: [])
        tse.start()
        try:
            for node in researchers:
                node.start()
            try:
                tse.post([Outgoing("researcher", Ack(f"run-{i}", 1, "TSE"), node.address)
                          for i, node in enumerate(researchers)])
                _wait_until(lambda: len(got) == 5)
            finally:
                for node in researchers:
                    node.stop()
            _wait_until(lambda: not tse._conns)
            assert len(got) == 5 and not tse._conns
        finally:
            tse.stop()

    def test_posts_from_many_threads_all_leave_in_order(self):
        got = []
        receiver = TcpNode("R", lambda msg: got.append((msg.sender, msg.seq)) or [])
        node = TcpNode("X", lambda msg: [])
        senders = [f"T{i}" for i in range(4)]  # more threads than cores

        def post_all(sender):
            for seq in range(1, 51):
                node.post([Outgoing("R", Ack("run-1", seq, sender), receiver.address)])

        threads = [threading.Thread(target=post_all, args=(sender,)) for sender in senders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        receiver.start()
        node.start()
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
            _wait_until(lambda: len(got) == 200, timeout=10.0)
        finally:
            sys.setswitchinterval(interval)
            node.stop()
            receiver.stop()
        assert not any(thread.is_alive() for thread in threads)
        for sender in senders:
            assert [seq for who, seq in got if who == sender] == list(range(1, 51))

    def test_busy_receiver_still_gets_a_frame_larger_than_the_socket_buffers(self, caplog):
        # the receiver reads nothing for 6 s while its handler runs, as a TSE
        # scoring a full candidate budget does; its sender waits for it
        got = []
        receiver = TcpNode("TSE", lambda msg: time.sleep(6.0) if msg.seq == 1 else got.append(msg))
        node = TcpNode("A", lambda msg: [])
        receiver.start()
        node.start()
        try:
            with caplog.at_level(logging.WARNING, logger="phtlink"):
                node.post([Outgoing("TSE", Ack("run-1", 1, "A"), receiver.address),
                           Outgoing("TSE", DataTransfer("run-1", 2, "A", _big_package()),
                                    receiver.address)])
                _wait_until(lambda: got, timeout=15.0)
        finally:
            node.stop()
            receiver.stop()
        assert [m.seq for m in got] == [2] and "failed" not in caplog.text

    def test_peer_that_drained_while_a_handler_ran_keeps_its_connection(
            self, monkeypatch, caplog):
        # the node owes bytes, then runs a handler past SEND_TIMEOUT_S; the
        # peer takes everything meanwhile, so nothing times out
        monkeypatch.setattr(network, "SEND_TIMEOUT_S", 0.5)
        busy = threading.Event()
        node = TcpNode("A", lambda msg: busy.set() or time.sleep(1.0) or [])
        peer = socket.create_server(("127.0.0.1", 0))
        peer.settimeout(5.0)
        msg = DataTransfer("run-1", 1, "A", _big_package())
        frame = encode(msg)
        read = []

        def read_once_busy(conn):
            busy.wait(timeout=5.0)
            while sum(map(len, read)) < len(frame) and (data := conn.recv(2**20)):
                read.append(data)

        node.start()
        try:
            with caplog.at_level(logging.WARNING, logger="phtlink"):
                node.post([Outgoing("peer", msg, "{}:{}".format(*peer.getsockname()))])
                with peer.accept()[0] as conn:
                    conn.settimeout(10.0)
                    reader = threading.Thread(target=read_once_busy, args=(conn,))
                    reader.start()
                    time.sleep(0.1)  # the socket buffers fill, and the rest waits
                    with socket.create_connection(_host_port(node)) as client:
                        client.sendall(encode(Ack("run-1", 1, "B")))
                        reader.join(timeout=15.0)
        finally:
            node.stop()
            peer.close()
        assert busy.is_set() and b"".join(read) == frame and "failed" not in caplog.text

    def test_stop_sends_what_is_owed_first(self):
        got = []
        receiver = TcpNode("TSE", lambda msg: got.append(msg) or [])
        node = TcpNode("A", lambda msg: [])
        receiver.start()
        node.start()
        try:
            node.post([Outgoing("TSE", DataTransfer("run-1", 1, "A", _big_package()),
                                receiver.address)])
        finally:
            node.stop()  # the frame cannot have left yet
        try:
            _wait_until(lambda: got)
        finally:
            receiver.stop()
        assert [m.seq for m in got] == [1]

    def test_stop_fails_what_a_stuck_peer_is_owed(self, monkeypatch, caplog):
        monkeypatch.setattr(network, "SEND_TIMEOUT_S", 0.5)
        stuck = socket.create_server(("127.0.0.1", 0))  # accepts, and never reads
        node = TcpNode("A", lambda msg: [])
        node.start()
        with caplog.at_level(logging.WARNING, logger="phtlink"):
            node.post([Outgoing("stuck", DataTransfer("run-1", 1, "A", _big_package()),
                                "{}:{}".format(*stuck.getsockname()))])
            with stuck.accept()[0]:
                started = time.monotonic()
                node.stop()
                stopped = time.monotonic() - started
        stuck.close()
        assert 0.4 < stopped < 3.0 and "send to 'stuck' failed: timed out" in caplog.text

    def test_out_of_descriptors_pauses_accepting(self, monkeypatch):
        # the listening socket stays readable while accept() fails, so a
        # node that retried at once would spin a core
        seen, calls, out_of_descriptors = [], [], threading.Event()
        node = TcpNode("TSE", lambda msg: seen.append(msg) or [])
        accept = socket.socket.accept

        def failing_accept(sock):
            if sock is node._server and out_of_descriptors.is_set():
                calls.append(time.monotonic())
                raise OSError(errno.EMFILE, "Too many open files")
            return accept(sock)

        monkeypatch.setattr(socket.socket, "accept", failing_accept)
        out_of_descriptors.set()
        node.start()
        try:
            with socket.create_connection(_host_port(node)) as client:
                client.sendall(encode(Ack("run-1", 1, "B")))
                time.sleep(0.5)
                out_of_descriptors.clear()
                _wait_until(lambda: seen)
        finally:
            node.stop()
        assert 2 <= len(calls) <= 10  # about one try per ACCEPT_PAUSE_S, not thousands
        assert [m.seq for m in seen] == [1]

    def test_claimed_lengths_are_not_allocated_before_they_arrive(self):
        node = TcpNode("TSE", lambda msg: [])
        node.start()
        header = MAGIC + bytes([VERSION, 0x02]) + struct.pack(">I", 200 * 2**20)
        host, port = node.address.rsplit(":", 1)
        tracemalloc.start()
        conns = []
        try:
            conns.extend(socket.create_connection((host, int(port))) for _ in range(3))
            for conn in conns:
                conn.sendall(header)  # and then stall
            time.sleep(0.3)
            _, peak = tracemalloc.get_traced_memory()
            read = [len(key.data.buf) for key in list(node._selector.get_map().values())
                    if key.data is not None]
        finally:
            tracemalloc.stop()
            for conn in conns:
                conn.close()
            node.stop()
        assert read == [HEADER_LEN] * 3 and peak < 2**20


class TestOneOwner:
    def test_every_frame_leaves_from_its_nodes_worker_thread(self, monkeypatch):
        # a frame sent from another thread could overtake one its worker sent
        sent = []
        send = TcpNode._send

        def spy(node, dest, frame):
            sent.append((node.node_id, threading.current_thread() is node._worker))
            return send(node, dest, frame)

        monkeypatch.setattr(TcpNode, "_send", spy)
        out = run_network(demo_scenario().setup, transport="tcp",
                          tse_timeout=5.0, run_timeout=30.0)
        assert out.completed
        assert {node for node, _ in sent} == {"researcher", "A", "B", "TSE"}
        assert [node for node, on_worker in sent if not on_worker] == []

    @pytest.mark.parametrize("mode", ["exact", "probabilistic"])
    def test_tse_links_on_the_buffers_it_wipes(self, monkeypatch, mode):
        linked, held = [], []
        link, wipe = stations.link, stations.TseStorage.wipe

        def spy_link(a, b, params):
            linked.extend((a, b))
            return link(a, b, params)

        def spy_wipe(storage):
            held.append(storage.inventory())
            wipe(storage)

        monkeypatch.setattr(stations, "link", spy_link)
        monkeypatch.setattr(stations.TseStorage, "wipe", spy_wipe)
        scn = demo_scenario(linkage=LinkageParams(mode=mode, blocking_fields=("gender",)))
        out = run_network(scn.setup)
        assert out.completed
        assert held == [("dataset:A", "dataset:B")]
        for columns in linked:
            # what link read: the composites, or the dictionaries and the index
            read = ([columns.digests] if mode == "exact"
                    else [*columns.fields.dictionaries, *columns.fields.index])
            for array in read:
                raw = array.tobytes()
                assert raw and raw == bytes(len(raw)), columns.station_id


class TestWipeEmptiesDecodedPayloads:
    """A coded payload column decoded at the TSE is a view of the storage
    buffer, which the wipe zeroes; a JSON column and every column of the
    merged dataset are Python lists, which the wipe empties. Both hold on
    every exit path."""

    @staticmethod
    def _assert_wiped(columns):
        assert columns.payload, columns.station_id
        for column in columns.payload:
            if isinstance(column, np.ndarray):
                # every row's value, linked or not
                assert len(column) == columns.n_rows > 0, columns.station_id
                assert column.tolist() == [0] * columns.n_rows, columns.station_id
            else:
                assert column == [], columns.station_id

    @pytest.mark.parametrize("fail_at", [None, "link", "run_analysis"])
    def test_payload_is_wiped_after_the_run(self, monkeypatch, fail_at):
        seen = {}
        for name in ("link", "run_analysis"):
            def spy(*args, name=name, real=getattr(stations, name)):
                seen[name] = args
                if name == fail_at:
                    raise RuntimeError("boom")
                return real(*args)

            monkeypatch.setattr(stations, name, spy)
        out = run_network(demo_scenario().setup)
        assert out.completed == (fail_at is None)
        decoded = list(seen["link"][:2])
        merged = list(seen.get("run_analysis", ())[:1])
        assert len(decoded) + len(merged) == (2 if fail_at == "link" else 3)
        # A's 80 ages and B's 25 incomes are coded; 25 rows link
        assert [[type(c) for c in cols.payload] for cols in decoded] == [[np.ndarray]] * 2
        assert [cols.n_rows for cols in decoded] == [80, 25]
        for columns in decoded + merged:
            self._assert_wiped(columns)

    def test_payload_decoded_before_a_bad_dataset_is_wiped(self, monkeypatch):
        decoded, real = [], stations.dataset_from_bytes

        def second_fails(body, station_id):
            if decoded:
                raise ValueError("bad body")
            decoded.append(real(body, station_id))
            return decoded[-1]

        monkeypatch.setattr(stations, "dataset_from_bytes", second_fails)
        out = run_network(demo_scenario().setup)
        assert out.outcome == "aborted" and out.reason.startswith("BadDataset@")
        self._assert_wiped(decoded[0])

    def test_json_payload_column_is_emptied(self, monkeypatch):
        # ages and incomes as floats travel as JSON arrays, decoded to lists
        decoded, to_bytes, link = [], stations.dataset_to_bytes, stations.link

        def as_floats(cols):
            floats = [[float(v) for v in column] for column in cols.payload]
            return to_bytes(dataclasses.replace(cols, payload=floats))

        def spy_link(a, b, params):
            decoded.extend((a, b))
            return link(a, b, params)

        monkeypatch.setattr(stations, "dataset_to_bytes", as_floats)
        monkeypatch.setattr(stations, "link", spy_link)
        out = run_network(demo_scenario().setup)
        assert out.completed
        assert [type(cols.payload[0]) for cols in decoded] == [list, list]
        for columns in decoded:
            assert columns.n_rows and columns.payload == [[]]


class TestAbortReceivedAtTse:
    """A received Abort, a station's refusal or the researcher's cancel,
    wipes the TSE and is audited once as abort_wiped, naming its sender and
    reason. Nothing goes back: the sender already knows."""

    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    def test_station_refusal_logs_one_abort_wiped(self, transport):
        scn = demo_scenario(allowed_b=())
        out = run_network(scn.setup, transport=transport, tse_timeout=5.0, run_timeout=30.0)
        assert (out.outcome, out.reason) == ("aborted", "UnauthorizedVariable")
        assert out.storage.wiped and out.storage.inventory() == ()
        events = [(e["event"], e["detail"]) for e in out.audit_logs["TSE"]]
        wiped = [detail for event, detail in events if event in ("abort_wiped", "wiped")]
        # over TCP, B's Abort can reach the TSE before its dispatch and be dropped
        assert wiped in (["B: UnauthorizedVariable"], ["researcher: UnauthorizedVariable"])
        assert [event for event, _ in events].count("abort_wiped") == 1
        assert [t[0] for t in out.traces[("TSE", "researcher")]] == ["Ack"]

    def test_second_abort_after_the_wipe_is_not_audited_again(self):
        scn = demo_scenario(allowed_b=())
        tse = TseActor(scn.setup.tse)
        run_id = scn.manifest.run_id
        assert tse.handle(_dispatch(scn, run_id))[0].message == Ack(run_id, 1, "TSE")
        assert tse.handle(Abort(run_id, 1, "B", "UnauthorizedVariable")) == []
        assert tse.phase == WIPED and tse.storage.wiped
        assert tse.handle(Abort(run_id, 2, "researcher", "UnauthorizedVariable")) == []
        assert [(e["event"], e["detail"]) for e in tse.audit.events[-2:]] == [
            ("awaiting_data", "A,B"),
            ("abort_wiped", "B: UnauthorizedVariable"),
        ]


def _boom(*args, **kwargs):
    raise RuntimeError("boom")


class TestHandlerRaises:
    """A handler that raises fails its run closed: the Router aborts the
    actor with the exception as the reason and evicts it."""

    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    @pytest.mark.parametrize("where", ["apply_pool_filter", "link", "validate_train"])
    def test_run_aborts_with_the_exception_and_the_tse_wipes(self, monkeypatch, transport,
                                                             where):
        monkeypatch.setattr(stations, where, _boom)
        started = time.monotonic()
        out = run_network(demo_scenario().setup, transport=transport,
                          tse_timeout=5.0, run_timeout=30.0)
        assert (out.outcome, out.reason) == ("aborted", "RuntimeError: boom")
        assert time.monotonic() - started < 2.5, "the run waited for a deadline"
        assert out.storage.wiped and out.storage.inventory() == ()

    @pytest.mark.parametrize("party", ["B", "TSE"])
    def test_daemon_router_evicts_the_actor(self, monkeypatch, party, caplog):
        monkeypatch.setattr(stations, "validate_train", _boom)
        scn = demo_scenario()
        if party == "TSE":
            router = Router(lambda dispatch: TseActor(scn.setup.tse), 60.0)
        else:
            router = Router(lambda dispatch: DataStationActor(scn.setup.stations[1]))
        run_id = scn.manifest.run_id
        with caplog.at_level(logging.WARNING, logger="phtlink"):
            out = router(TrainDispatch(run_id, 1, "researcher", scn.manifest, ()))
        assert {(o.dest, o.message.reason) for o in out} >= {("researcher", "RuntimeError: boom")}
        assert router.actors == {} and router.finished == {run_id}
        assert any("RuntimeError: boom" in r.message for r in caplog.records)


class TestUnroutableStation:
    """A signed manifest may name a data station that no router serves.
    Its one frame, the dispatch, is dropped with a warning, and the run
    aborts, since the station named with it holds no key to derive a salt
    with it."""

    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    def test_run_aborts_and_each_frame_to_it_is_logged(self, caplog, transport):
        scn = demo_scenario()
        first, second = scn.manifest.data_requests
        keys = (*scn.manifest.station_verification_keys,
                ("C", generate_signing_keys().verification_key))
        scn.setup.manifest = sign_manifest(dataclasses.replace(
            scn.manifest, data_requests=(first, dataclasses.replace(second, station_id="C")),
            station_verification_keys=keys), scn.anchor)
        with caplog.at_level(logging.WARNING, logger="phtlink"):
            out = run_network(scn.setup, transport=transport, tse_timeout=5.0, run_timeout=30.0)
        assert (out.outcome, out.reason) == ("aborted", "MissingPeerKey(C)")
        assert out.storage.wiped and out.storage.inventory() == ()
        reason = ("unroutable destination 'C'" if transport == "inproc"
                  else "send to 'C' failed: unroutable destination")
        # the researcher's dispatch to C, and no cancel
        assert [r.message for r in caplog.records if "'C'" in r.message] == [
            f"dropped: run_id={scn.manifest.run_id} sender=researcher reason={reason}"]


# ---------------------------------------------------------------------------
# Every frame of a run lost, duplicated or delayed
# ---------------------------------------------------------------------------

#: the frames an in-process run sends, in order, as (destination, type)
RUN_FRAMES = [
    ("TSE", "TrainDispatch"), ("researcher", "Ack"),  # the TSE's Ack
    ("A", "TrainDispatch"), ("B", "TrainDispatch"),
    ("TSE", "DataTransfer"), ("researcher", "Ack"),  # A's
    ("TSE", "DataTransfer"), ("researcher", "Ack"),  # B's
    ("researcher", "ResultReturn"),
]


_pump_inproc = network._pump_inproc  # the product's pump, which each schedule drives
PARTIES = ("A", "B", "TSE", "researcher")


def _channel(out: Outgoing) -> tuple[str, str]:
    return out.message.sender, out.dest


class _Schedule:
    """A schedule for `network._pump_inproc`, installed in its place. It
    sees each frame once, as it is sent, and keeps as many copies of it in
    flight as ``copies`` says; ``next`` then picks the step. The base
    delivers in send order. It records each frame sent as (destination,
    type), and keeps the routers, to count the actors left in them."""

    def __init__(self):
        self.sent: list[tuple[str, str]] = []
        self.routers: dict[str, Router] = {}
        self._seen = 0  # the entries of the flight this schedule has seen

    def __call__(self, routers, researcher, ledger) -> None:
        self.routers = routers
        _pump_inproc(routers, researcher, ledger, self._pick)

    def _pick(self, flight: list) -> int | str | None:
        new = flight[self._seen:]
        del flight[self._seen:]
        for entry in new:
            flight += [entry] * self.copies(entry)
            self.sent.append((entry[0].dest, message_type_name(entry[0].message)))
        step = self.next(flight)
        self._seen = len(flight) - isinstance(step, int)
        return step

    def copies(self, entry) -> int:
        return 1

    def next(self, flight: list) -> int | str | None:
        return network._in_send_order(flight)


class _OneFault(_Schedule):
    """One fault on the ``k``-th frame sent: "drop" loses it, "duplicate"
    delivers it twice, and "delay" holds it back, with the frames behind it
    on its channel, while any other frame is in flight."""

    def __init__(self, fault: str | None = None, k: int = -1):
        super().__init__()
        self.fault, self.k = fault, k
        self.held: tuple[str, str] | None = None  # the delayed channel

    def copies(self, entry) -> int:
        if len(self.sent) != self.k:
            return 1
        if self.fault == "delay":
            self.held = _channel(entry[0])
        return {"drop": 0, "duplicate": 2}.get(self.fault, 1)

    def next(self, flight: list) -> int | str | None:
        ready = [i for i, (out, _) in enumerate(flight) if _channel(out) != self.held]
        if ready:
            return ready[0]
        self.held = None
        return super().next(flight)


def _assert_every_party_ended(out, schedule: _Schedule) -> None:
    """The run completed or names its reason; a TSE that was dispatched is
    wiped and empty; at most one result is accepted; and no party, the
    researcher included, is left live in its router."""
    assert out.completed or out.reason, (out.outcome, out.reason)
    if out.audit_logs["TSE"]:  # the TSE was dispatched
        assert out.storage.wiped
    assert out.storage.inventory() == ()
    accepted = [e for e in out.audit_logs["researcher"] if e["event"] == "result_returned"]
    assert len(accepted) <= 1
    assert {aid: list(router.actors) for aid, router in schedule.routers.items()} == {
        party: [] for party in PARTIES}


def _fault_scenario(mode: str):
    return make_scenario(*generate_vertical_demo(60, 20, seed=3),
                         linkage=LinkageParams(mode=mode))


class TestFaultMatrix:
    """Each of a run's 9 frames is dropped, duplicated or delayed in turn,
    in both linkage modes, by a schedule of the product's pump. Every run
    ends as `_assert_every_party_ended` asks, since each party ends the run
    at its deadline. A lost station Ack (frames 5 and 7) leaves the run
    completed; a lost ResultReturn (frame 8) ends it "Timeout" at the
    researcher, with the TSE wiped.

    The frames a fault leaves late, such as the aborts parties send to
    others that already ended the run, are expected, so no router logs a
    warning for them. A station ends its run within its dispatch's step, so
    the second copy of a duplicated station dispatch (frames 2 and 3) is a
    replayed dispatch for a finished run: the router refuses it with the one
    warning it gives a replay, and nothing else."""

    @pytest.mark.parametrize("mode", ["exact", "probabilistic"])
    def test_fault_free_run_sends_the_listed_frames(self, monkeypatch, mode):
        schedule = _Schedule()
        monkeypatch.setattr(network, "_pump_inproc", schedule)
        assert run_network(_fault_scenario(mode).setup).completed
        assert schedule.sent == RUN_FRAMES

    @pytest.mark.parametrize("mode", ["exact", "probabilistic"])
    @pytest.mark.parametrize("fault", ["drop", "duplicate", "delay"])
    @pytest.mark.parametrize("k", range(len(RUN_FRAMES)))
    def test_every_party_ends_the_run(self, monkeypatch, caplog, mode, fault, k):
        schedule = _OneFault(fault, k)
        monkeypatch.setattr(network, "_pump_inproc", schedule)
        scn = _fault_scenario(mode)
        with caplog.at_level(logging.INFO, logger="phtlink"):
            out = run_network(scn.setup)

        _assert_every_party_ended(out, schedule)
        # a data station receives its dispatch and nothing else
        assert all(kind == "TrainDispatch" for dest, kind in schedule.sent if dest in ("A", "B"))
        if fault == "drop" and k in (5, 7):
            assert out.completed
        if (fault, k) == ("drop", 8):
            assert (out.outcome, out.reason) == ("aborted", "Timeout")
            assert out.storage.wiped
        replayed = [f"dropped: run_id={scn.manifest.run_id} sender=researcher "
                    "reason=TrainDispatch for a finished run"]
        assert [r.message for r in caplog.records if r.levelno >= logging.WARNING] == (
            replayed if fault == "duplicate" and k in (2, 3) else [])


class _Drawn(_Schedule):
    """A schedule hypothesis draws step by step, for ``steps`` steps, and
    send order after them. Each run first draws which faults it may do
    (swarm testing), so that runs with few kinds of fault, each often, are
    common. Each frame sent may be lost or delivered twice. Each step
    delivers the oldest frame of any channel, lets the TSE's or the
    researcher's deadlines fall due, or first adds a forged Abort to any
    party or a replay of a dispatch already sent."""

    FAULTS = ("drop", "copy", "deadline", "forge", "replay")

    def __init__(self, data, run_id: str, steps: int = 30):
        super().__init__()
        self.data, self.run_id, self.steps = data, run_id, steps
        self.faults = data.draw(st.sets(st.sampled_from(self.FAULTS)))
        self.dispatches: list = []

    def copies(self, entry) -> int:
        if isinstance(entry[0].message, TrainDispatch):
            self.dispatches.append(entry)
        if not self.steps:
            return 1
        return self.data.draw(st.sampled_from(
            (1, 1, 1, 1) + (0,) * ("drop" in self.faults) + (2,) * ("copy" in self.faults)))

    def next(self, flight: list) -> int | str | None:
        if not self.steps:
            return super().next(flight)
        self.steps -= 1
        draw = self.data.draw
        action = draw(st.sampled_from(("deliver",) * 8 + tuple(
            fault for fault in ("deadline", "forge", "replay") if fault in self.faults)))
        if action == "deadline":
            return draw(st.sampled_from(("TSE", "researcher")))
        if action == "forge":
            forged = Abort(self.run_id, 1, draw(st.sampled_from(PARTIES)), "Forged")
            flight.append((Outgoing(draw(st.sampled_from(PARTIES)), forged, None),
                           encode(forged)))
        elif action == "replay" and self.dispatches:
            flight.append(draw(st.sampled_from(self.dispatches)))
        heads: dict[tuple[str, str], int] = {}
        for i, (out, _) in enumerate(flight):
            heads.setdefault(_channel(out), i)
        return draw(st.sampled_from(list(heads.values()))) if heads else None


@pytest.fixture(scope="module", params=["exact", "probabilistic"])
def fault_free(request):
    """A fault-matrix scenario, which every run may reuse, and its result."""
    scn = _fault_scenario(request.param)
    return scn, run_network(scn.setup).result_bytes


@given(data=st.data())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_drawn_schedules_keep_every_invariant(fault_free, data):
    """Several faults in one run, on the product's pump: drops, copies,
    cross-channel reorders, deadlines at any step and in either order, a
    forged Abort and a replayed dispatch. Every run ends as the fault
    matrix asks, and a run that completes releases the fault-free result."""
    scn, expected = fault_free
    schedule = _Drawn(data, scn.manifest.run_id)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "_pump_inproc", schedule)
        out = run_network(scn.setup)
    _assert_every_party_ended(out, schedule)
    if out.completed:
        assert out.result_bytes == expected


# ---------------------------------------------------------------------------
# Signed-but-invalid manifests, fuzzed
# ---------------------------------------------------------------------------

_KINDS = ("descriptive", "crosstab", "binned_association")
_names = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_finite = st.floats(allow_nan=False, allow_infinity=False)

_not_int = st.one_of(st.text(max_size=4), st.booleans(), _finite, st.none(),
                    st.lists(st.integers(), max_size=2))
_not_number = st.one_of(st.text(max_size=4), st.booleans(), st.lists(_finite, max_size=2))


def _not_iso_date(text):
    try:
        dt.date.fromisoformat(text)
    except ValueError:
        return True
    return False


_invalid_disclosure = st.one_of(
    st.builds(DisclosurePolicy, k_min=st.integers(max_value=0)),
    st.builds(DisclosurePolicy, k_min=_not_int),
    st.builds(DisclosurePolicy, k_min=st.just(5),
              suppress_marker=st.one_of(st.just(""), st.integers(), st.booleans(), st.none(),
                                        _finite, st.lists(st.text(max_size=2), max_size=2))),
)
_invalid_analysis = st.one_of(
    st.builds(AnalysisSpec, kind=_names.filter(lambda k: k not in _KINDS),
              variables=st.just(("age", "income"))),
    st.builds(AnalysisSpec, kind=st.sampled_from(_KINDS),
              variables=st.sampled_from([(), ("age", "income", "age")])),
    st.builds(AnalysisSpec, kind=st.sampled_from(_KINDS[1:]), variables=st.just(("age",)),
              bin_width=st.just(10)),
    st.builds(AnalysisSpec, kind=st.just("binned_association"),
              variables=st.just(("age", "income")),
              bin_width=st.one_of(st.integers(max_value=0), _finite.filter(lambda w: w <= 0))),
    st.builds(AnalysisSpec, kind=st.just("binned_association"),
              variables=st.just(("age", "income")),
              bin_edges=st.lists(st.integers(-5, 5), max_size=4).filter(
                  lambda e: len(e) < 2 or any(a >= b for a, b in zip(e, e[1:]))
              ).map(tuple)),
    st.builds(AnalysisSpec, kind=st.just("binned_association"),
              variables=st.just(("age", "income")), bin_width=_not_number),
    st.builds(AnalysisSpec, kind=st.just("binned_association"),
              variables=st.just(("age", "income")),
              bin_edges=st.lists(_not_number, min_size=2, max_size=3).map(tuple)),
    st.builds(AnalysisSpec, kind=st.sampled_from(_KINDS),
              variables=st.sampled_from(["ag", "age", ("age", 1), (None,)])),
    st.just(AnalysisSpec("binned_association", ("age", "income"))),
    st.just(AnalysisSpec("binned_association", ("age", "income"), bin_width=10,
                         bin_edges=(0, 10))),
)
# a probability outside (0, 1) on one field, a wrong count, or a wrong type
_bad_probs = st.one_of(
    st.tuples(st.integers(0, 3), st.one_of(_finite.filter(lambda p: p <= 0 or p >= 1),
                                           _not_number)).map(
        lambda t: tuple(t[1] if i == t[0] else 0.9 for i in range(4))),
    st.lists(st.floats(0.01, 0.99), max_size=5).filter(lambda ps: len(ps) != 4).map(tuple),
)
_invalid_linkage = st.one_of(
    st.builds(LinkageParams, mode=_names.filter(lambda m: m not in ("exact", "probabilistic"))),
    st.tuples(_finite, _finite).filter(lambda t: t[0] < t[1]).map(
        lambda t: LinkageParams(mode="probabilistic", t_upper=t[0], t_lower=t[1])),
    st.lists(_names.filter(lambda f: f not in QID_FIELDS), min_size=1, max_size=2).map(
        lambda fields: LinkageParams(blocking_fields=tuple(fields))),
    _bad_probs.map(lambda m: LinkageParams(mode="probabilistic", m=m)),
    _bad_probs.map(lambda u: LinkageParams(mode="probabilistic", u=u)),
    st.builds(LinkageParams, t_upper=_not_number),
    st.builds(LinkageParams, blocking_fields=st.sampled_from(["gender", ("gender", 0)])),
)
_invalid_pool = st.one_of(
    st.builds(PoolFilter, age_min=_not_int.filter(lambda v: v is not None)),
    st.builds(PoolFilter, age_max=st.integers(max_value=-1)),
    st.tuples(st.integers(0, 120), st.integers(1, 50)).map(
        lambda t: PoolFilter(age_min=t[0] + t[1], age_max=t[0])),
    st.builds(PoolFilter, zip_prefixes=st.one_of(
        st.text(max_size=4),
        st.lists(st.one_of(st.integers(), st.none()), min_size=1, max_size=2).map(tuple))),
    st.builds(PoolFilter, as_of=st.one_of(st.text(max_size=10).filter(_not_iso_date),
                                          st.integers())),
)
_invalid_part = st.one_of(
    _invalid_disclosure.map(lambda d: {"disclosure": d}),
    _invalid_analysis.map(lambda a: {"analysis": a}),
    _invalid_linkage.map(lambda p: {"linkage": p}),
    _invalid_pool.map(lambda p: {"pool_a": p}),
)


@given(invalid=_invalid_part)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
def test_fuzzed_invalid_manifest_aborts_before_data_moves(invalid):
    """Whatever is wrong inside a correctly signed manifest, both transports
    abort with InvalidManifest, the TSE ends wiped and empty, and no
    DataTransfer frame ever reaches it."""
    for transport in ("inproc", "tcp"):
        scn = demo_scenario(seed=3, n_a=30, n_b=10, **invalid)
        out = run_network(scn.setup, transport=transport, tse_timeout=5.0, run_timeout=30.0)
        assert (out.outcome, out.reason) == ("aborted", "InvalidManifest"), (transport, invalid)
        assert out.storage.wiped and out.storage.inventory() == ()
        assert all(frame[5] != TYPE_DATA_TRANSFER for frame in out.received_bytes.get("TSE", []))


# ---------------------------------------------------------------------------
# Mode-scoped payloads: data minimisation and failing closed
# ---------------------------------------------------------------------------

def _opened_plaintexts(monkeypatch, tse_keys) -> list[bytes]:
    """Record every plaintext the TSE opens during a run."""
    opened = []
    original = stations.open_package

    def recording(pkg, recipient, *args, **kwargs):
        plaintext = original(pkg, recipient, *args, **kwargs)
        if recipient is tse_keys:
            opened.append(plaintext)
        return plaintext

    monkeypatch.setattr(stations, "open_package", recording)
    return opened


def _whole_digests(qid, salt) -> list[bytes]:
    """The whole 64-byte SHA-512 of each of a QID set's documented preimages,
    composite first, then the four fields; a pseudonym is the first
    DIGEST_DTYPE.itemsize bytes of each."""
    values, tail = qid.as_tuple(), b"|" + salt.bytes
    preimages = [b"PHT-COMPOSITE|" + "|".join(values).encode() + tail] + [
        f"PHT-FIELD-{i}|{value}".encode() + tail for i, value in enumerate(values)]
    return [hashlib.sha512(preimage).digest() for preimage in preimages]


class TestDataMinimisation:
    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    @pytest.mark.parametrize("mode", ["exact", "probabilistic"])
    def test_tse_receives_only_the_digests_its_mode_uses(self, monkeypatch, transport, mode):
        salt = Salt(bytes(range(100, 132)), "run-0001")
        scn = demo_scenario(seed=6, reuse_salt_a=salt,
                            linkage=LinkageParams(mode=mode, blocking_fields=("gender",)))
        opened = _opened_plaintexts(monkeypatch, scn.setup.tse.enc_keys)
        out = run_network(scn.setup, transport=transport, tse_timeout=5.0, run_timeout=30.0)
        assert out.completed and len(opened) == 2

        whole = [_whole_digests(r.qid, salt) for ds in (scn.ds_a, scn.ds_b) for r in ds.rows]
        used = [w[0] for w in whole] if mode == "exact" else [d for w in whole for d in w[1:]]
        unused = [d for w in whole for d in w[1:]] if mode == "exact" else [w[0] for w in whole]
        plaintext, width = b"".join(opened), DIGEST_DTYPE.itemsize
        # the prefixes the mode links on travel raw inside the sealed extracts ...
        assert all(d[:width] in plaintext for d in used)
        # ... the others travel nowhere, neither raw nor as hex, and no
        # digest's bytes past the prefix travel at all
        seen = [plaintext, *out.received_bytes["TSE"]]
        for part in [d[:width] for d in unused] + [d[width:] for w in whole for d in w]:
            for needle in (part, part.hex().encode()):
                assert not any(needle in blob for blob in seen), mode

    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    def test_composite_only_extract_under_probabilistic_linkage_aborts_and_wipes(
        self, monkeypatch, transport
    ):
        # a station that hashed for exact linkage although the manifest says otherwise
        monkeypatch.setattr(stations, "pseudonymize",
                            lambda qids, salt, mode: pseudonymize_columns(qids, salt, "exact"))
        scn = demo_scenario(linkage=LinkageParams(mode="probabilistic"))
        out = run_network(scn.setup, transport=transport, tse_timeout=5.0, run_timeout=30.0)
        assert out.outcome == "aborted" and out.reason.startswith("MissingPseudonyms")
        assert out.storage.wiped and out.storage.inventory() == ()

    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    @pytest.mark.parametrize("mode", ["exact", "probabilistic"])
    def test_extract_with_both_digest_parts_aborts_and_wipes(self, monkeypatch, transport, mode):
        # stations that hashed for both modes: one part is of no use to the TSE
        monkeypatch.setattr(stations, "pseudonymize", lambda qids, salt, mode: (
            pseudonymize_columns(qids, salt, "exact")[0],
            pseudonymize_columns(qids, salt, "probabilistic")[1]))
        scn = demo_scenario(linkage=LinkageParams(mode=mode))
        out = run_network(scn.setup, transport=transport, tse_timeout=5.0, run_timeout=30.0)
        unused = "per-field" if mode == "exact" else "composite"
        assert (out.outcome, out.reason) == (
            "aborted", f"BadDataset@A: {unused} digests, which {mode} linkage does not use")
        assert out.storage.wiped and out.storage.inventory() == ()

    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    @pytest.mark.parametrize("mode", ["exact", "probabilistic"])
    @pytest.mark.parametrize("width", [32, 64])
    def test_station_sending_wider_digests_aborts_and_wipes(
        self, monkeypatch, transport, mode, width
    ):
        # A cuts its digests as stations did before, to 32 bytes, or before
        # they were cut at all; B as now
        scn = demo_scenario(linkage=LinkageParams(mode=mode, blocking_fields=("gender",)))
        qids_a = [row.qid for row in scn.ds_a.rows]
        dtype = f"S{width}"

        def mixed(qids, salt, mode):
            if qids != qids_a:
                return pseudonymize_columns(qids, salt, mode)
            cut = [[d[:width] for d in _whole_digests(qid, salt)] for qid in qids]
            if mode == "exact":
                return np.frombuffer(b"".join(c[0] for c in cut), dtype).reshape(-1, 1), None
            # the dictionaries hold the wider digests, the index is as a station makes it
            fields = pseudonymize_columns(qids, salt, mode)[1]
            dictionaries = tuple(
                np.frombuffer(b"".join(dict.fromkeys(c[1 + k] for c in cut)), dtype)
                for k in range(4))
            return np.empty((len(qids), 0), dtype), FieldCodes(dictionaries, fields.index)

        monkeypatch.setattr(stations, "pseudonymize", mixed)
        out = run_network(scn.setup, transport=transport, tse_timeout=5.0, run_timeout=30.0)
        assert out.outcome == "aborted" and out.reason.startswith("BadDataset@A")
        assert "digest bytes" in out.reason
        assert out.storage.wiped and out.storage.inventory() == ()

    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    def test_station_sending_row_major_per_field_digests_aborts_and_wipes(
        self, monkeypatch, transport
    ):
        # A sends its body as stations did before per-field digests were
        # dictionary coded; B as now
        original = stations.dataset_to_bytes

        def row_major_at_a(cols):
            body = original(cols)
            return row_major_body(body) if cols.station_id == "A" else body

        monkeypatch.setattr(stations, "dataset_to_bytes", row_major_at_a)
        scn = demo_scenario(linkage=LinkageParams(mode="probabilistic", blocking_fields=("gender",)))
        out = run_network(scn.setup, transport=transport, tse_timeout=5.0, run_timeout=30.0)
        assert out.outcome == "aborted" and out.reason.startswith("BadDataset@A")
        assert "unknown digest parts ['per_field']" in out.reason
        assert out.storage.wiped and out.storage.inventory() == ()

    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    def test_station_sending_uint32_indexes_aborts_and_wipes(self, monkeypatch, transport):
        # A writes every field's index as a uint32, as stations did before
        # each index took the width of its field's dictionary; B as now
        original = stations.dataset_to_bytes

        def uint32_at_a(cols):
            if cols.station_id == "A":
                wide = tuple(index.astype("<u4") for index in cols.fields.index)
                cols = dataclasses.replace(
                    cols, fields=FieldCodes(cols.fields.dictionaries, wide))
            return original(cols)

        monkeypatch.setattr(stations, "dataset_to_bytes", uint32_at_a)
        scn = demo_scenario(linkage=LinkageParams(mode="probabilistic", blocking_fields=("gender",)))
        out = run_network(scn.setup, transport=transport, tse_timeout=5.0, run_timeout=30.0)
        assert out.outcome == "aborted" and out.reason.startswith("BadDataset@A")
        assert "digest bytes" in out.reason
        assert out.storage.wiped and out.storage.inventory() == ()

    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    @pytest.mark.parametrize("form", ["u2", "json"])
    def test_station_sending_ages_out_of_canonical_form_aborts_and_wipes(
        self, monkeypatch, transport, form
    ):
        # A sends its one-byte ages as a uint16 array, or as a JSON array as
        # stations did before integer columns were coded; B as now
        original = stations.dataset_to_bytes

        def ages_at_a(cols):
            body = original(cols)
            if cols.station_id != "A":
                return body
            ages = body[-cols.n_rows :]
            assert ages == np.array(cols.payload[0], "u1").tobytes()
            if form == "u2":
                wide = np.frombuffer(ages, "u1").astype("<u2").tobytes()
                return with_header(body[: -cols.n_rows] + wide, columns=["u2"])
            return with_header(body[: -cols.n_rows], columns=[list(ages)])

        monkeypatch.setattr(stations, "dataset_to_bytes", ages_at_a)
        out = run_network(demo_scenario().setup, transport=transport,
                          tse_timeout=5.0, run_timeout=30.0)
        assert out.outcome == "aborted" and out.reason.startswith("BadDataset@A")
        sent = "u2" if form == "u2" else "a JSON array"
        assert f"variable 'age' travels as {sent}, where its values take u1" in out.reason
        assert out.storage.wiped and out.storage.inventory() == ()

    @pytest.mark.parametrize("mode", ["exact", "probabilistic"])
    def test_pool_that_keeps_no_row_sends_an_empty_extract(self, monkeypatch, mode):
        scn = demo_scenario(pool_a=PoolFilter(age_min=120, as_of="2026-01-01"),
                            linkage=LinkageParams(mode=mode, blocking_fields=("gender",)))
        opened = _opened_plaintexts(monkeypatch, scn.setup.tse.enc_keys)
        out = run_network(scn.setup, transport="inproc")
        assert out.completed
        assert out.result.audit["run"]["records_received"] == {"A": 0, "B": 25}
        assert out.storage.wiped and out.storage.inventory() == ()
        # the TSE opens the packages in the manifest's order, A's first
        extract_a = dataset_from_bytes(opened[0], "A")
        # an empty extract still names the part its mode links on
        assert extract_a.parts == (("composite",) if mode == "exact" else ("field_codes",))
        assert extract_a.n_rows == 0


class TestSealedExtractFormat:
    """A sealed extract carries only what the TSE reads: its body names no
    station and its package no key, and the TSE names each extract by the
    sender whose package it opened. A body or a package of the previous
    format fails closed."""

    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    def test_extract_and_package_hold_only_what_the_tse_reads(self, monkeypatch, transport):
        scn = demo_scenario(seed=5, n_a=300, n_b=100)
        opened = _opened_plaintexts(monkeypatch, scn.setup.tse.enc_keys)
        out = run_network(scn.setup, transport=transport, tse_timeout=5.0, run_timeout=30.0)
        assert out.completed and len(opened) == 2
        assert out.result.audit["run"]["records_received"] == {"A": 300, "B": 100}
        for body in opened:
            header = json.loads(body[4 : 4 + int.from_bytes(body[:4], "big")])
            assert sorted(header) == ["columns", "digests", "row_count", "salt_check", "schema"]
        transfers = [f for f in out.received_bytes["TSE"] if f[5] == TYPE_DATA_TRANSFER]
        assert len(transfers) == 2
        for frame in transfers:
            (json_len,) = struct.unpack(">I", frame[10:14])
            package = frame[14 + json_len :]
            header = json.loads(package[4 : 4 + int.from_bytes(package[:4], "big")])
            assert sorted(header) == ["algorithms", "run_id", "sender_station_id"]

    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    @pytest.mark.parametrize("named", ["A", "B"])
    def test_body_that_names_a_station_aborts_and_wipes(self, monkeypatch, transport, named):
        # A's body header names a station as the previous format's did: its
        # own id, or its peer's, which the TSE once trusted over the sender
        original = stations.dataset_to_bytes

        def naming_at_a(cols):
            body = original(cols)
            return with_header(body, station_id=named) if cols.station_id == "A" else body

        monkeypatch.setattr(stations, "dataset_to_bytes", naming_at_a)
        out = run_network(demo_scenario().setup, transport=transport,
                          tse_timeout=5.0, run_timeout=30.0)
        assert (out.outcome, out.reason) == (
            "aborted", "BadDataset@A: unknown _BodyHeader key 'station_id'")
        assert out.storage.wiped and out.storage.inventory() == ()

    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    def test_package_that_names_its_key_ids_fails_closed(self, monkeypatch, caplog, transport):
        """B seals as the previous format did, naming its key ids in the
        package header: the TSE drops B's DataTransfer as undecodable,
        aborts at its deadline and wipes."""
        scn = demo_scenario()
        original = stations.seal

        def previous_format(plaintext, run_id, sender_id, recipient, signer):
            pkg = original(plaintext, run_id, sender_id, recipient, signer)
            if sender_id != "B":
                return pkg
            return key_ids_package(pkg, scn.tse_enc, (recipient.key_id, signer.key_id))

        monkeypatch.setattr(stations, "seal", previous_format)
        with caplog.at_level(logging.WARNING, logger="phtlink"):
            out = run_network(scn.setup, transport=transport, tse_timeout=1.0, run_timeout=15.0)
        assert (out.outcome, out.reason) == ("aborted", "Timeout")
        assert out.storage.wiped and out.storage.inventory() == ()
        assert ("data_received", "A") in [(e["event"], e["detail"]) for e in out.audit_logs["TSE"]]
        assert "unknown SealedPackage key 'key_ids'" in caplog.text


class TestTseKeyOfAnotherRun:
    def test_station_refuses_to_seal_and_the_tse_wipes(self):
        """A manifest whose TSE key id is bound to another run: each data
        station's seal refuses it, and the run ends RunMismatch."""
        scn = demo_scenario()
        key_id = scn.manifest.tse_encryption_key_id.replace(scn.manifest.run_id, "run-other")
        assert key_id.startswith("run-other:enc:")
        scn.setup.manifest = sign_manifest(
            dataclasses.replace(scn.manifest, tse_encryption_key_id=key_id), scn.anchor)
        out = run_network(scn.setup, transport="inproc")
        assert (out.outcome, out.reason) == ("aborted", "RunMismatch")
        assert out.storage.wiped and out.storage.inventory() == ()
        assert not any(e[0] == "DataTransfer" for v in out.traces.values() for e in v)


def _static_keys(scn):
    """``scn`` with every party's keys bound to no run, as `pht keygen` writes
    them, so no key's scope refuses a run of another id."""
    tse_enc, a_enc, b_enc = (generate_encryption_keypair() for _ in range(3))
    a_sign, b_sign = generate_signing_keys(), generate_signing_keys()
    a, b = scn.setup.stations
    a.enc_keys, a.sign_keys, a.peer_encryption_keys = a_enc, a_sign, {"B": b_enc.public_only()}
    b.enc_keys, b.sign_keys, b.peer_encryption_keys = b_enc, b_sign, {"A": a_enc.public_only()}
    scn.setup.tse.enc_keys = tse_enc
    scn.manifest = scn.setup.manifest = sign_manifest(dataclasses.replace(
        scn.manifest, tse_public_encryption_key=tse_enc.public_encryption_key,
        tse_encryption_key_id=tse_enc.key_id,
        station_verification_keys=(("A", a_sign.verification_key),
                                   ("B", b_sign.verification_key))), scn.anchor)
    return scn


class TestDispatchRunIdIsTheManifests:
    def test_signed_manifest_under_another_run_id_starts_nothing(self, caplog):
        """A completed run's dispatch, replayed with another run id in its
        frame, is refused as undecodable at the TSE and at a station, each
        holding keys that no run's scope binds: no run starts."""
        scn = _static_keys(demo_scenario())
        out = run_network(scn.setup)
        assert out.completed
        new_actor = {"TSE": lambda: TseActor(scn.setup.tse),
                     "A": lambda: DataStationActor(scn.setup.stations[0])}
        for party in ("TSE", "A"):
            frame = out.received_bytes[party][0]
            assert frame[5] == 0x01  # the party's TrainDispatch
            doc = json.loads(frame[HEADER_LEN:])
            payload = json.dumps({**doc, "run_id": "run-REPLAY"}).encode()
            replay = frame[:6] + struct.pack(">I", len(payload)) + payload
            router = Router(lambda dispatch, party=party: new_actor[party](), 60.0)
            with caplog.at_level(logging.WARNING, logger="phtlink"):
                assert network._receive(party, router, replay, None) == []
            assert router.actors == {} and router.finished == set()
            # the frame as it was still starts a run: the keys refuse nothing
            kinds = [message_type_name(o.message)
                     for o in network._receive(party, router, bytes(frame), None)]
            assert kinds == (["Ack"] if party == "TSE" else ["DataTransfer", "Ack"])
        assert [r.message.split("reason=")[1] for r in caplog.records] == [
            f"undecodable frame at {party}: decode error at offset {HEADER_LEN}: bad payload: "
            "dispatch for run 'run-REPLAY' carries the manifest of run 'run-0001'"
            for party in ("TSE", "A")]


class TestUnrequestedVariables:
    """The TSE takes from each station exactly the variables the manifest
    requested of it, in order, whatever the body's own checks allow."""

    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    @pytest.mark.parametrize("change, names", [
        ("extra", "['income', 'secret']"), ("renamed", "['salary']"),
    ])
    def test_body_with_other_variables_aborts_and_wipes(self, monkeypatch, transport,
                                                        change, names):
        original = stations.dataset_to_bytes

        def other_variables_at_b(cols):
            body = original(cols)
            if cols.station_id != "B":
                return body
            header = json.loads(body[4 : 4 + int.from_bytes(body[:4], "big")])
            if change == "renamed":
                return with_header(body, schema=[["salary", "numeric"]])
            # a categorical column travels as JSON, which the codec takes as it is
            return with_header(body, schema=[*header["schema"], ["secret", "categorical"]],
                               columns=[*header["columns"], ["s"] * cols.n_rows])

        monkeypatch.setattr(stations, "dataset_to_bytes", other_variables_at_b)
        out = run_network(demo_scenario().setup, transport=transport,
                          tse_timeout=5.0, run_timeout=30.0)
        assert (out.outcome, out.reason) == (
            "aborted", f"BadDataset@B: variables {names}, not the requested ['income']")
        assert out.storage.wiped and out.storage.inventory() == ()


class TestCorruptPackageBody:
    def test_corrupt_package_length_in_frame_fails_closed(self, monkeypatch, caplog):
        """B's DataTransfer arrives with a bad wrapped-key length: the frame is
        dropped as undecodable, and the TSE, holding A's package, aborts at its
        deadline and wipes."""
        original = network.encode

        def corrupting(msg):
            frame = original(msg)
            if isinstance(msg, DataTransfer) and msg.sender == "B":
                (json_len,) = struct.unpack(">I", frame[10:14])
                package_at = 14 + json_len
                (header_len,) = struct.unpack(">I", frame[package_at : package_at + 4])
                frame = flip_bit(frame, (package_at + 4 + header_len) * 8 + 3)
            return frame

        monkeypatch.setattr(network, "encode", corrupting)
        scn = demo_scenario()
        with caplog.at_level(logging.WARNING, logger="phtlink"):
            out = run_network(scn.setup, transport="inproc")
        assert out.outcome == "aborted" and out.reason == "Timeout"
        assert out.storage.wiped and out.storage.inventory() == ()
        tse_events = [(e["event"], e["detail"]) for e in out.audit_logs["TSE"]]
        assert ("data_received", "A") in tse_events
        assert any("undecodable frame at TSE" in r.message for r in caplog.records)

    def test_previous_format_package_fails_closed(self, monkeypatch, caplog):
        """B seals as the previous version did, wrapping its content key in
        104 bytes: the TSE drops B's DataTransfer as undecodable, aborts at
        its deadline and wipes."""
        scn = demo_scenario()
        original = stations.seal

        def previous_version(plaintext, run_id, sender_id, *args):
            pkg = original(plaintext, run_id, sender_id, *args)
            return previous_format_package(pkg, scn.tse_enc) if sender_id == "B" else pkg

        monkeypatch.setattr(stations, "seal", previous_version)
        with caplog.at_level(logging.WARNING, logger="phtlink"):
            out = run_network(scn.setup, transport="inproc")
        assert out.outcome == "aborted" and out.reason == "Timeout"
        assert out.storage.wiped and out.storage.inventory() == ()
        assert ("data_received", "A") in [(e["event"], e["detail"]) for e in out.audit_logs["TSE"]]
        assert any("undecodable frame at TSE" in r.message for r in caplog.records)

    def test_corrupt_dataset_length_inside_the_seal_aborts_and_wipes(self, monkeypatch):
        """A correctly sealed extract whose inner header length is wrong is
        refused after opening, and the TSE wipes what it held."""
        original = stations.dataset_to_bytes

        def corrupting(ds):
            body = original(ds)
            if ds.station_id == "B":
                body = (int.from_bytes(body[:4], "big") + 1).to_bytes(4, "big") + body[4:]
            return body

        monkeypatch.setattr(stations, "dataset_to_bytes", corrupting)
        scn = demo_scenario()
        out = run_network(scn.setup, transport="inproc")
        assert out.outcome == "aborted" and out.reason.startswith("BadDataset@B")
        assert out.storage.wiped and out.storage.inventory() == ()
