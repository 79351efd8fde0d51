"""Actor-level state machine tests: message-by-message protocol behavior."""

import dataclasses
import datetime as dt

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_scenario
from phtlink import stations
from phtlink.errors import StorageWiped
from phtlink.manifest import PoolFilter
from phtlink.model import QuasiIdentifierSet, Record, age_on, dataset_from_bytes
from phtlink.pseudonym import Salt
from phtlink.envelope import generate_encryption_keypair, open_package
from phtlink.stations import (
    AWAITING_DATA,
    DONE,
    IDLE,
    SENT,
    VALIDATED,
    WIPED,
    apply_pool_filter,
    DataStationActor,
    ResearcherActor,
    TimeoutExpired,
    TseActor,
    TseStorage,
)
from phtlink.synth import generate_vertical_demo
from phtlink.wire import (
    Abort,
    Ack,
    DataTransfer,
    ResultReturn,
    TrainDispatch,
)

ENDPOINTS = (("A", "x"), ("B", "x"), ("TSE", "x"), ("researcher", "x"))


def scenario(**kwargs):
    ds_a, ds_b, truth = generate_vertical_demo(60, 20, seed=4)
    return make_scenario(ds_a, ds_b, truth, **kwargs)


def dispatch(manifest, seq=1):
    return TrainDispatch(manifest.run_id, seq, "researcher", manifest, ENDPOINTS)


def actors(scn):
    a = DataStationActor(scn.setup.stations[0])
    b = DataStationActor(scn.setup.stations[1])
    tse = TseActor(scn.setup.tse)
    return a, b, tse


def types_by_dest(outgoing):
    return [(o.dest, type(o.message).__name__) for o in outgoing]


STATION_FRAMES = [("TSE", "DataTransfer"), ("researcher", "Ack")]


def run_stations(scn, a, b):
    """Dispatch both stations, each of which derives the salt and sends its
    extract at once; returns the DataTransfer messages produced by each."""
    transfers = []
    for station in (a, b):
        outs = station.handle(dispatch(scn.manifest))
        assert types_by_dest(outs) == STATION_FRAMES
        transfers.append(outs[0].message)
    return tuple(transfers)


def opened(scn, transfer):
    plaintext = open_package(
        transfer.package, scn.setup.tse.enc_keys,
        scn.manifest.verification_key_for(transfer.sender), expected_run_id=scn.manifest.run_id,
    )
    return dataset_from_bytes(plaintext)


class TestDataStationHappyPath:
    def test_full_exchange_reaches_sent(self):
        scn = scenario()
        a, b, _ = actors(scn)
        transfer_a, transfer_b = run_stations(scn, a, b)
        assert a.phase == SENT and b.phase == SENT
        assert transfer_a.package.sender_station_id == "A"
        assert transfer_b.package.sender_station_id == "B"

    def test_both_stations_send_the_same_salt_check(self):
        scn = scenario()
        transfer_a, transfer_b = run_stations(scn, *actors(scn)[:2])
        check = opened(scn, transfer_a).salt_check
        assert len(check) == 32 and opened(scn, transfer_b).salt_check == check

    def test_extract_has_pseudonyms_and_requested_variables_only(self):
        scn = scenario()
        a, b, _ = actors(scn)
        transfer_a, _ = run_stations(scn, a, b)
        plaintext = open_package(
            transfer_a.package,
            scn.setup.tse.enc_keys,
            scn.manifest.verification_key_for("A"),
            expected_run_id=scn.manifest.run_id,
        )
        extract = dataset_from_bytes(plaintext)
        assert extract.variable_names() == ("age",)
        # every row carries its composite; Columns hold no QIDs at all
        assert extract.parts == ("composite",)
        assert extract.digests.shape == (len(scn.ds_a.rows), 1)

    def test_pool_filter_drops_out_of_range_rows(self):
        scn = scenario(pool_a=PoolFilter(age_min=50, age_max=60, as_of="2026-01-01"))
        a, b, _ = actors(scn)
        transfer_a, _ = run_stations(scn, a, b)
        plaintext = open_package(
            transfer_a.package, scn.setup.tse.enc_keys,
            scn.manifest.verification_key_for("A"),
            expected_run_id=scn.manifest.run_id,
        )
        extract = dataset_from_bytes(plaintext)
        assert 0 < extract.n_rows < len(scn.ds_a.rows)
        assert all(50 <= age <= 60 for age in extract.payload_column("age"))


class TestDataStationFailures:
    def test_bad_signature_aborts(self):
        scn = scenario()
        a, _, _ = actors(scn)
        tampered = dataclasses.replace(scn.manifest, expiry="2098-01-01T00:00:00Z")
        outs = a.handle(dispatch(tampered))
        assert a.phase == DONE
        reasons = [o.message.reason for o in outs if isinstance(o.message, Abort)]
        assert reasons == ["BadSignature", "BadSignature"]

    def test_unauthorized_variable_aborts(self):
        scn = scenario(allowed_a=("height",))
        a, _, _ = actors(scn)
        outs = a.handle(dispatch(scn.manifest))
        assert any(
            isinstance(o.message, Abort) and o.message.reason == "UnauthorizedVariable"
            for o in outs
        )

    def test_duplicate_dispatch_after_sent_aborts(self):
        scn = scenario()
        a, b, _ = actors(scn)
        run_stations(scn, a, b)
        outs = a.handle(dispatch(scn.manifest, seq=2))
        assert a.phase == DONE
        assert any(
            isinstance(o.message, Abort) and o.message.reason == "DuplicateRun"
            for o in outs
        )

    def test_ack_at_a_station_aborts(self):
        # stations never message each other, so nothing but the researcher's
        # dispatch is addressed to one; before it, the station knows no one
        # to tell
        scn = scenario()
        _, b, _ = actors(scn)
        assert b.handle(Ack(scn.manifest.run_id, 1, "A")) == []
        assert b.phase == DONE
        assert [(e["event"], e["detail"]) for e in b.audit.events] == [
            ("abort", "UnexpectedMessage(Ack)"),
        ]

    def test_cancel_at_a_station_before_its_dispatch_tells_no_one(self):
        scn = scenario()
        _, b, _ = actors(scn)
        assert b.handle(Abort(scn.manifest.run_id, 1, "researcher", "Timeout")) == []
        assert b.phase == DONE and b.terminal
        assert [e["detail"] for e in b.audit.events] == ["UnexpectedMessage(Abort)"]

    def test_missing_peer_key_aborts(self):
        scn = scenario()
        scn.setup.stations[1].peer_encryption_keys = {}
        _, b, _ = actors(scn)
        outs = b.handle(dispatch(scn.manifest))
        assert b.phase == DONE
        reasons = [o.message.reason for o in outs if isinstance(o.message, Abort)]
        assert reasons == ["MissingPeerKey(A)", "MissingPeerKey(A)"]

    @pytest.mark.parametrize("refusal", ["MissingPeerKey(A)", "UnknownVariable(income)"])
    def test_refusal_after_validating_sends_its_two_aborts_and_no_ack(self, refusal):
        """The manifest validates, then the station refuses: it sends an
        Abort to the researcher and the TSE and nothing else, so no Ack
        reports a refusing station as OK."""
        scn = scenario()
        config = scn.setup.stations[1]
        if refusal.startswith("MissingPeerKey"):
            config.peer_encryption_keys = {}
        else:
            # B's extract holds no "income", though the manifest asks for it
            config.dataset = dataclasses.replace(config.dataset, schema=(("height", "numeric"),))
        b = DataStationActor(config)
        outs = b.handle(dispatch(scn.manifest))
        assert [(o.dest, type(o.message).__name__, o.message.reason) for o in outs] == [
            ("researcher", "Abort", refusal), ("TSE", "Abort", refusal),
        ]
        events = [e["event"] for e in b.audit.events]
        assert events[0] == "train_validated" and events[-1] == "abort"

    def test_out_of_order_sequence_aborts(self):
        scn = scenario()
        a, _, _ = actors(scn)
        a.handle(dispatch(scn.manifest))
        outs = a.handle(dispatch(scn.manifest, seq=1))  # seq not increasing
        assert a.phase == DONE

    def test_stale_salt_rejected_at_seal_time(self):
        stale = Salt(b"\x05" * 32, "run-older")
        scn = scenario(reuse_salt_a=stale)
        a, _, _ = actors(scn)
        outs = a.handle(dispatch(scn.manifest))
        assert a.phase == DONE
        reasons = [o.message.reason for o in outs if isinstance(o.message, Abort)]
        assert reasons and all(r == "RunMismatch(salt)" for r in reasons)


class TestTse:
    def drive_happy(self, scn):
        a, b, tse = actors(scn)
        transfer_a, transfer_b = run_stations(scn, a, b)
        outs = tse.handle(dispatch(scn.manifest))
        assert types_by_dest(outs) == [("researcher", "Ack")]
        assert tse.phase == AWAITING_DATA
        assert tse.handle(transfer_a) == []
        return tse, tse.handle(transfer_b)

    def test_happy_path_returns_result_then_wipes(self):
        scn = scenario()
        tse, outs = self.drive_happy(scn)
        assert types_by_dest(outs) == [("researcher", "ResultReturn")]
        assert tse.phase == WIPED
        assert tse.storage.inventory() == ()
        result = outs[0].message.result
        assert result.audit["run"]["records_linked"] == len(scn.truth)

    def test_sealed_packages_are_dropped_once_opened(self, monkeypatch):
        scn = scenario()
        a, b, tse = actors(scn)
        held, link = [], stations.link

        def spy_link(*args):
            held.append(dict(tse._packages))
            return link(*args)

        monkeypatch.setattr(stations, "link", spy_link)
        transfer_a, transfer_b = run_stations(scn, a, b)
        tse.handle(dispatch(scn.manifest))
        tse.handle(transfer_a)
        outs = tse.handle(transfer_b)
        assert types_by_dest(outs) == [("researcher", "ResultReturn")]
        assert held == [{}]

    def test_received_package_is_held_but_not_copied_into_storage(self):
        scn = scenario()
        a, b, tse = actors(scn)
        transfer_a, _ = run_stations(scn, a, b)
        tse.handle(dispatch(scn.manifest))
        assert tse.handle(transfer_a) == []
        assert tse.storage.inventory() == ()
        assert list(tse._packages) == ["A"]
        tse.handle(TimeoutExpired(scn.manifest.run_id))
        assert tse._packages == {} and tse.storage.inventory() == ()

    def test_extract_carries_only_the_digests_of_the_linkage_mode(self):
        from phtlink.linkage import LinkageParams

        for mode in ("exact", "probabilistic"):
            scn = scenario(linkage=LinkageParams(mode=mode))
            transfer_a, _ = run_stations(scn, *actors(scn)[:2])
            plaintext = open_package(
                transfer_a.package, scn.setup.tse.enc_keys,
                scn.manifest.verification_key_for("A"), expected_run_id=scn.manifest.run_id,
            )
            extract = dataset_from_bytes(plaintext)
            if mode == "exact":
                assert extract.parts == ("composite",)
                assert extract.digests.shape == (extract.n_rows, 1)
            else:
                assert extract.parts == ("field_codes",)
                assert extract.digests.shape == (extract.n_rows, 0)
                assert [i.shape for i in extract.fields.index] == [(extract.n_rows,)] * 4

    def test_post_wipe_reads_fail(self):
        scn = scenario()
        tse, _ = self.drive_happy(scn)
        with pytest.raises(StorageWiped):
            tse.storage.read("merged")

    def test_at_most_one_result_per_run(self):
        scn = scenario()
        tse, outs = self.drive_happy(scn)
        _, transfer_b = run_stations(scn, *actors(scn)[:2])
        late = tse.handle(dataclasses.replace(transfer_b, seq=99))
        terminal = [
            o for o in late if isinstance(o.message, (ResultReturn, Abort))
        ]
        assert terminal == []

    def test_tampered_package_aborts_with_station_attribution(self):
        scn = scenario(fault_b="tamper")
        a, b, tse = actors(scn)
        transfer_a, transfer_b = run_stations(scn, a, b)
        tse.handle(dispatch(scn.manifest))
        tse.handle(transfer_a)
        outs = tse.handle(transfer_b)
        aborts = [o.message for o in outs if isinstance(o.message, Abort)]
        assert [m.reason for m in aborts] == ["OuterIntegrityFailure@B"]
        assert tse.phase == WIPED and tse.storage.inventory() == ()

    def test_timeout_aborts_and_wipes(self):
        scn = scenario()
        _, _, tse = actors(scn)
        tse.handle(dispatch(scn.manifest))
        outs = tse.handle(TimeoutExpired(scn.manifest.run_id))
        assert [o.message.reason for o in outs] == ["Timeout"]
        assert tse.phase == WIPED and tse.storage.wiped

    def test_timeout_after_terminal_is_noop(self):
        scn = scenario()
        tse, _ = self.drive_happy(scn)
        assert tse.handle(TimeoutExpired(scn.manifest.run_id)) == []

    def test_unexpected_station_aborts(self):
        scn = scenario()
        a, b, tse = actors(scn)
        transfer_a, _ = run_stations(scn, a, b)
        tse.handle(dispatch(scn.manifest))
        rogue = dataclasses.replace(
            transfer_a, sender="C", seq=1, package=transfer_a.package
        )
        outs = tse.handle(rogue)
        assert any(
            isinstance(o.message, Abort) and "UnexpectedStation" in o.message.reason
            for o in outs
        )

    def test_duplicate_transfer_aborts(self):
        scn = scenario()
        a, b, tse = actors(scn)
        transfer_a, _ = run_stations(scn, a, b)
        tse.handle(dispatch(scn.manifest))
        tse.handle(transfer_a)
        outs = tse.handle(dataclasses.replace(transfer_a, seq=transfer_a.seq + 1))
        assert any(
            isinstance(o.message, Abort) and "DuplicateTransfer" in o.message.reason
            for o in outs
        )

    def test_salt_mismatch_aborts_and_wipes(self):
        scn = scenario()
        # A holds another key pair's public half for B: the two salts differ
        wrong = generate_encryption_keypair(scn.manifest.run_id).public_only()
        scn.setup.stations[0].peer_encryption_keys = {"B": wrong}
        a, b, tse = actors(scn)
        transfer_a, transfer_b = run_stations(scn, a, b)
        assert opened(scn, transfer_a).salt_check != opened(scn, transfer_b).salt_check
        tse.handle(dispatch(scn.manifest))
        tse.handle(transfer_a)
        outs = tse.handle(transfer_b)
        assert [(o.dest, o.message.reason) for o in outs] == [("researcher", "SaltMismatch")]
        assert tse.phase == WIPED and tse.storage.inventory() == () and tse._held == []

    def test_three_station_manifest_rejected(self):
        import dataclasses as dc

        from phtlink.manifest import DataRequest, sign_manifest

        scn = scenario()
        wide = dc.replace(
            scn.manifest,
            data_requests=scn.manifest.data_requests
            + (DataRequest("C", ("age",)),),
            credential_signature=None,
        )
        wide = sign_manifest(wide, scn.anchor)
        tse = TseActor(scn.setup.tse)
        outs = tse.handle(dispatch(wide))
        assert any(
            isinstance(o.message, Abort) and "UnsupportedTopology" in o.message.reason
            for o in outs
        )
        assert tse.phase == WIPED

    def test_data_before_dispatch_aborts_without_messages(self):
        scn = scenario()
        a, b, tse = actors(scn)
        transfer_a, _ = run_stations(scn, a, b)
        outs = tse.handle(transfer_a)
        assert outs == []  # no manifest yet, nobody to notify
        assert tse.phase == WIPED


class TestResearcherDispatchOrder:
    """The TSE is dispatched first and the data stations only on the TSE's
    Ack, so no DataTransfer can reach a TSE that has not yet seen its own
    TrainDispatch; stations never message each other, so their dispatch
    order does not matter."""

    def start(self, scn):
        researcher = ResearcherActor("researcher", scn.manifest, dict(ENDPOINTS))
        return researcher, researcher.start()

    def test_start_dispatches_the_tse_alone(self):
        scn = scenario()
        _, outs = self.start(scn)
        assert types_by_dest(outs) == [("TSE", "TrainDispatch")]

    def test_no_data_station_dispatches_the_tse_alone(self):
        scn = scenario()
        empty = dataclasses.replace(scn.manifest, data_requests=())
        researcher = ResearcherActor("researcher", empty, dict(ENDPOINTS))
        assert types_by_dest(researcher.start()) == [("TSE", "TrainDispatch")]

    def test_stations_dispatched_on_the_tse_ack(self):
        scn = scenario()
        a, b, tse = actors(scn)
        researcher, outs = self.start(scn)
        tse_ack = tse.handle(outs[0].message)[0].message
        outs = researcher.handle(tse_ack)
        assert types_by_dest(outs) == [("A", "TrainDispatch"), ("B", "TrainDispatch")]

        # the TSE is already awaiting data when both transfers arrive
        assert tse.phase == AWAITING_DATA
        station_outs = [a.handle(outs[0].message), b.handle(outs[1].message)]
        assert [types_by_dest(o) for o in station_outs] == [STATION_FRAMES, STATION_FRAMES]
        assert tse.handle(station_outs[0][0].message) == []
        result = tse.handle(station_outs[1][0].message)
        assert types_by_dest(result) == [("researcher", "ResultReturn")]

        # later acks never dispatch the stations a second time
        for o in station_outs:
            assert researcher.handle(o[1].message) == []
        assert researcher.handle(dataclasses.replace(tse_ack, seq=tse_ack.seq + 1)) == []
        assert researcher._dispatched == ["TSE", "A", "B"]

    def test_station_ack_before_the_tse_ack_dispatches_nothing(self):
        scn = scenario()
        researcher, _ = self.start(scn)
        assert researcher.handle(Ack(scn.manifest.run_id, 1, "A")) == []
        assert researcher._dispatched == ["TSE"]

    @pytest.mark.parametrize("abort", ["tse", "deadline"])
    def test_abort_before_the_tse_ack_dispatches_no_station(self, abort):
        scn = scenario()
        researcher, _ = self.start(scn)
        run_id = scn.manifest.run_id
        if abort == "tse":
            # the TSE refused the run: it knows, so nobody is cancelled
            assert researcher.handle(Abort(run_id, 1, "TSE", "Expired")) == []
        else:
            cancels = researcher.handle(TimeoutExpired(run_id))
            assert [(o.dest, o.message.reason) for o in cancels] == [("TSE", "Timeout")]
        assert researcher.handle(Ack(run_id, 2, "TSE")) == []
        assert researcher.outcome[0] == "aborted"
        assert researcher._dispatched == ["TSE"]

    def test_abort_after_the_tse_ack_cancels_every_other_party(self):
        scn = scenario()
        researcher, _ = self.start(scn)
        run_id = scn.manifest.run_id
        researcher.handle(Ack(run_id, 1, "TSE"))
        cancels = researcher.handle(Abort(run_id, 1, "A", "UnauthorizedVariable"))
        assert [(o.dest, o.message.reason) for o in cancels] == [
            ("TSE", "UnauthorizedVariable"), ("B", "UnauthorizedVariable"),
        ]


class TestResearcherTerminal:
    """A router evicts the researcher once it is terminal. After a result it
    still waits for each station's Ack, sent with the station's data,
    because over TCP that Ack can arrive after the result."""

    def test_completed_run_is_terminal_after_the_late_acks(self):
        scn = scenario()
        researcher = ResearcherActor("researcher", scn.manifest, dict(ENDPOINTS))
        researcher.start()
        run_id = scn.manifest.run_id
        researcher.handle(Ack(run_id, 1, "TSE"))
        researcher.handle(ResultReturn(run_id, 2, "TSE", None))
        assert researcher.done and not researcher.terminal
        researcher.handle(Ack(run_id, 1, "B"))
        assert not researcher.terminal
        researcher.handle(Ack(run_id, 1, "A"))
        assert researcher.terminal
        assert researcher.acks == ["TSE", "B", "A"]

    def test_acks_alone_never_end_the_run(self):
        scn = scenario()
        researcher = ResearcherActor("researcher", scn.manifest, dict(ENDPOINTS))
        researcher.start()
        for sender in ("TSE", "A", "B"):
            researcher.handle(Ack(scn.manifest.run_id, 1, sender))
        assert not researcher.done and not researcher.terminal

    def test_aborted_run_is_terminal_at_once(self):
        scn = scenario()
        researcher = ResearcherActor("researcher", scn.manifest, dict(ENDPOINTS))
        researcher.start()
        assert not researcher.terminal
        researcher.handle(Abort(scn.manifest.run_id, 1, "TSE", "Timeout"))
        assert researcher.terminal


class TestTseStorage:
    def test_inventory_and_read(self):
        storage = TseStorage()
        storage.put_bytes("x", b"abc")
        assert storage.inventory() == ("x",)
        assert storage.read("x") == b"abc"

    def test_wipe_empties_and_blocks_reads(self):
        storage = TseStorage()
        storage.put_bytes("x", b"abc")
        storage.wipe()
        assert storage.inventory() == ()
        assert storage.wiped
        with pytest.raises(StorageWiped):
            storage.read("x")
        with pytest.raises(StorageWiped):
            storage.put_bytes("y", b"zz")


class TestPoolFilterUnit:
    def test_age_bounds_inclusive_and_zip_prefixes(self):
        ds_a, _, _ = generate_vertical_demo(120, 10, seed=8)
        pool = PoolFilter(age_min=45, age_max=50, as_of="2026-01-01")
        kept = apply_pool_filter(ds_a.rows, pool)
        assert kept and all(45 <= r.payload["age"] <= 50 for r in kept)

        prefix = ds_a.rows[0].qid.zip_code[:4]
        pool = PoolFilter(zip_prefixes=(prefix,))
        kept = apply_pool_filter(ds_a.rows, pool)
        assert kept and all(r.qid.zip_code.startswith(prefix) for r in kept)

    def test_no_filter_keeps_everything(self):
        ds_a, _, _ = generate_vertical_demo(30, 10, seed=8)
        assert len(apply_pool_filter(ds_a.rows, None)) == 30


_leap_days = st.sampled_from([dt.date(y, 2, 29) for y in (1948, 1960, 1984, 2000, 2024)])
_dates = st.one_of(st.dates(dt.date(1900, 1, 1), dt.date(2030, 12, 31)), _leap_days)


@given(births=st.lists(_dates, min_size=1, max_size=30), as_of=_dates,
       age_min=st.one_of(st.none(), st.integers(0, 100)),
       age_max=st.one_of(st.none(), st.integers(0, 100)))
@settings(max_examples=300, deadline=None)
def test_pool_filter_matches_age_on(births, as_of, age_min, age_max):
    """The cut-off comparison keeps exactly the rows whose age_on lies in
    the bounds, 29 February included as a birthday and as the as_of date."""
    if None not in (age_min, age_max) and age_min > age_max:
        age_min, age_max = age_max, age_min
    rows = [Record(payload={}, qid=QuasiIdentifierSet("6211AB", "1", "M", born.isoformat()))
            for born in births]
    pool = PoolFilter(age_min=age_min, age_max=age_max, as_of=as_of.isoformat())
    expected = [
        row for row in rows
        if (age_min is None or age_on(row.qid.date_of_birth, pool.as_of) >= age_min)
        and (age_max is None or age_on(row.qid.date_of_birth, pool.as_of) <= age_max)
    ]
    kept = apply_pool_filter(rows, pool)
    assert [id(row) for row in kept] == [id(row) for row in expected]
