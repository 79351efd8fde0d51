"""End-to-end runs over both transports: equality, isolation, failure paths."""

import dataclasses
import logging
import socket
import sys
import threading
import time

import pytest

from conftest import make_scenario
from phtlink.analysis import AnalysisSpec, DisclosurePolicy
from phtlink.encoding import b64encode
from phtlink.linkage import LinkageParams
from phtlink.manifest import sign_manifest
from phtlink.network import Router, TcpNode, run_network
from phtlink.pseudonym import Salt
from phtlink.stations import IDLE, VALIDATED, WIPED, DataStationActor, TseActor
from phtlink.wire import Abort, Ack, TrainDispatch, encode
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
        scn = demo_scenario()
        out = run_network(scn.setup, transport="inproc")
        types = {
            channel: [e[0] for e in entries] for channel, entries in out.traces.items()
        }
        assert types[("researcher", "A")] == ["TrainDispatch"]
        assert types[("researcher", "B")] == ["TrainDispatch"]
        assert types[("researcher", "TSE")] == ["TrainDispatch"]
        assert types[("A", "B")] == ["SaltOffer"]
        assert types[("B", "A")] == ["Ack"]
        assert types[("A", "TSE")] == ["DataTransfer"]
        assert types[("B", "TSE")] == ["DataTransfer"]
        assert types[("TSE", "researcher")][-1] == "ResultReturn"
        assert "Ack" in types[("A", "researcher")]

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
        node = TcpNode("X", lambda msg: seen.append(msg) or [], {})
        node.start()
        try:
            host, port = node.address.rsplit(":", 1)
            junk = socket.create_connection((host, int(port)))
            junk.sendall(b"this is not a frame at all")
            junk.close()

            good = socket.create_connection((host, int(port)))
            good.sendall(encode(Ack("run-1", 1, "Y", "OK")))
            good.close()
            deadline = time.monotonic() + 5.0
            while not seen and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            node.stop()
        assert len(seen) == 1 and seen[0].status == "OK"


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


class TestInvalidManifest:
    """A correctly signed manifest whose contents are invalid aborts before
    any data moves, and leaves nothing at the TSE."""

    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    @pytest.mark.parametrize("invalid", [
        dict(disclosure=DisclosurePolicy(k_min=0)),
        dict(analysis=AnalysisSpec("median_of_everything", ("age", "income"))),
        dict(linkage=LinkageParams(mode="probabilistic", t_upper=1.0, t_lower=5.0)),
        dict(linkage=LinkageParams(mode="probabilistic", blocking_fields=("shoe_size",))),
    ], ids=["k_min_0", "unknown_kind", "t_upper_below_t_lower", "unknown_blocking_field"])
    def test_aborts_with_invalid_manifest_and_wipes(self, transport, invalid):
        scn = demo_scenario(**invalid)
        out = run_network(scn.setup, transport=transport, tse_timeout=5.0, run_timeout=30.0)
        assert out.outcome == "aborted" and out.reason == "InvalidManifest"
        assert out.storage.wiped and out.storage.inventory() == ()
        assert not any(e[0] == "DataTransfer" for v in out.traces.values() for e in v)


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
        a, b = (DataStationActor(cfg) for cfg in scn.setup.stations)
        router_b = Router(lambda dispatch: b)
        run_id = scn.manifest.run_id
        offer = a.handle(TrainDispatch(run_id, 1, "researcher", scn.manifest, ()))[1]
        assert offer.dest == "B"
        assert router_b(offer.message) == []
        assert b.phase == IDLE and router_b.actors == {}
        router_b(TrainDispatch(run_id, 2, "researcher", scn.manifest, ()))
        assert b.phase == VALIDATED

    def test_frame_for_unknown_run_is_dropped_and_logged(self, caplog):
        scn = demo_scenario()
        router, built = _tse_router(scn)
        with caplog.at_level(logging.WARNING, logger="phtlink"):
            assert router(Ack("run-9999", 1, "A", "OK")) == []
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
        node = TcpNode("TSE", router, {})
        node.start()
        try:
            host, port = node.address.rsplit(":", 1)
            with socket.create_connection((host, int(port))) as conn:
                conn.sendall(encode(_dispatch(scn, "run-0001")))
                started = time.monotonic()
                seq = 0
                while time.monotonic() - started < 1.5 and not (built and built[0].terminal):
                    seq += 1
                    conn.sendall(encode(Ack("run-other", seq, "A", "OK")))
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


class TestNodeSurvives:
    def test_handler_exception_does_not_stop_the_node(self, caplog):
        seen = []

        def handler(msg):
            seen.append(msg)
            if len(seen) == 1:
                raise ValueError("bad message")
            return []

        node = TcpNode("X", handler, {})
        node.start()
        try:
            host, port = node.address.rsplit(":", 1)
            with caplog.at_level(logging.WARNING, logger="phtlink"):
                with socket.create_connection((host, int(port))) as conn:
                    conn.sendall(encode(Ack("run-1", 1, "Y", "OK")))
                    conn.sendall(encode(Ack("run-1", 2, "Y", "OK")))
                deadline = time.monotonic() + 5.0
                while len(seen) < 2 and time.monotonic() < deadline:
                    time.sleep(0.01)
        finally:
            node.stop()
        assert [m.seq for m in seen] == [1, 2]
        assert any("ValueError" in r.message and "run_id=run-1" in r.message
                   for r in caplog.records)

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
                assert out.storage.inventory() == ()
        finally:
            sys.setswitchinterval(interval)

    def test_tcp_runs_release_their_threads(self):
        baseline = threading.active_count()
        for seed in range(3):
            scn = demo_scenario(seed=seed, n_a=60, n_b=20)
            out = run_network(scn.setup, transport="tcp", tse_timeout=5.0, run_timeout=30.0)
            assert out.completed
        assert threading.active_count() <= baseline
