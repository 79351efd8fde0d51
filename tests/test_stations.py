"""Actor-level state machine tests: message-by-message protocol behavior."""

import dataclasses
import datetime as dt

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_scenario
from phtlink.errors import StorageWiped
from phtlink.manifest import PoolFilter
from phtlink.model import QuasiIdentifierSet, Record, age_on, dataset_from_bytes
from phtlink.pseudonym import Salt
from phtlink.envelope import open_package
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
    SaltOffer,
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


def run_salt_exchange(scn, a, b):
    """Drive both stations through dispatch and salt agreement; returns the
    DataTransfer messages produced by each."""
    outs_a = a.handle(dispatch(scn.manifest))
    assert types_by_dest(outs_a) == [("researcher", "Ack"), ("B", "SaltOffer")]
    offer = outs_a[1].message

    outs_b = b.handle(dispatch(scn.manifest))
    assert types_by_dest(outs_b) == [("researcher", "Ack")]
    outs_b = b.handle(offer)
    assert types_by_dest(outs_b) == [
        ("A", "Ack"),
        ("TSE", "DataTransfer"),
        ("researcher", "Ack"),
    ]
    salt_ack, transfer_b = outs_b[0].message, outs_b[1].message

    outs_a = a.handle(salt_ack)
    assert types_by_dest(outs_a) == [("TSE", "DataTransfer"), ("researcher", "Ack")]
    return outs_a[0].message, transfer_b


class TestDataStationHappyPath:
    def test_full_exchange_reaches_sent(self):
        scn = scenario()
        a, b, _ = actors(scn)
        transfer_a, transfer_b = run_salt_exchange(scn, a, b)
        assert a.phase == SENT and b.phase == SENT
        assert transfer_a.package.sender_station_id == "A"
        assert transfer_b.package.sender_station_id == "B"

    def test_extract_has_pseudonyms_and_requested_variables_only(self):
        scn = scenario()
        a, b, _ = actors(scn)
        transfer_a, _ = run_salt_exchange(scn, a, b)
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
        transfer_a, _ = run_salt_exchange(scn, a, b)
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
        run_salt_exchange(scn, a, b)
        outs = a.handle(dispatch(scn.manifest, seq=2))
        assert a.phase == DONE
        assert any(
            isinstance(o.message, Abort) and o.message.reason == "DuplicateRun"
            for o in outs
        )

    def test_salt_offer_in_idle_aborts(self):
        scn = scenario()
        a, b, _ = actors(scn)
        outs_a = a.handle(dispatch(scn.manifest))
        offer = outs_a[1].message
        outs = b.handle(offer)  # B never validated the train
        assert b.phase == DONE
        assert any(isinstance(o.message, Abort) for o in outs)

    def test_out_of_order_sequence_aborts(self):
        scn = scenario()
        a, _, _ = actors(scn)
        a.handle(dispatch(scn.manifest))
        outs = a.handle(dispatch(scn.manifest, seq=1))  # seq not increasing
        assert a.phase == DONE

    def test_stale_salt_rejected_at_seal_time(self):
        stale = Salt(b"\x05" * 32, "run-older")
        scn = scenario(reuse_salt_a=stale)
        a, b, _ = actors(scn)
        outs_a = a.handle(dispatch(scn.manifest))
        offer = outs_a[1].message
        outs_b = b.handle(dispatch(scn.manifest))
        salt_ack = b.handle(offer)[0].message
        outs = a.handle(salt_ack)
        assert a.phase == DONE
        reasons = [o.message.reason for o in outs if isinstance(o.message, Abort)]
        assert reasons and all(r == "RunMismatch(salt)" for r in reasons)


class TestTse:
    def drive_happy(self, scn):
        a, b, tse = actors(scn)
        transfer_a, transfer_b = run_salt_exchange(scn, a, b)
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

    def test_received_package_is_held_but_not_copied_into_storage(self):
        scn = scenario()
        a, b, tse = actors(scn)
        transfer_a, _ = run_salt_exchange(scn, a, b)
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
            transfer_a, _ = run_salt_exchange(scn, *actors(scn)[:2])
            plaintext = open_package(
                transfer_a.package, scn.setup.tse.enc_keys,
                scn.manifest.verification_key_for("A"), expected_run_id=scn.manifest.run_id,
            )
            extract = dataset_from_bytes(plaintext)
            if mode == "exact":
                assert extract.parts == ("composite",)
                assert extract.digests.shape == (extract.n_rows, 1)
            else:
                assert extract.parts == ("per_field",)
                assert extract.digests.shape == (extract.n_rows, 4)

    def test_post_wipe_reads_fail(self):
        scn = scenario()
        tse, _ = self.drive_happy(scn)
        with pytest.raises(StorageWiped):
            tse.storage.read("merged")

    def test_at_most_one_result_per_run(self):
        scn = scenario()
        tse, outs = self.drive_happy(scn)
        _, transfer_b = run_salt_exchange(scn, *actors(scn)[:2])
        late = tse.handle(dataclasses.replace(transfer_b, seq=99))
        terminal = [
            o for o in late if isinstance(o.message, (ResultReturn, Abort))
        ]
        assert terminal == []

    def test_tampered_package_aborts_with_station_attribution(self):
        scn = scenario(fault_b="tamper")
        a, b, tse = actors(scn)
        transfer_a, transfer_b = run_salt_exchange(scn, a, b)
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
        transfer_a, _ = run_salt_exchange(scn, a, b)
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
        transfer_a, _ = run_salt_exchange(scn, a, b)
        tse.handle(dispatch(scn.manifest))
        tse.handle(transfer_a)
        outs = tse.handle(dataclasses.replace(transfer_a, seq=transfer_a.seq + 1))
        assert any(
            isinstance(o.message, Abort) and "DuplicateTransfer" in o.message.reason
            for o in outs
        )

    def test_salt_offer_at_tse_aborts(self):
        scn = scenario()
        a, _, tse = actors(scn)
        outs_a = a.handle(dispatch(scn.manifest))
        offer = outs_a[1].message
        tse.handle(dispatch(scn.manifest))
        outs = tse.handle(offer)
        assert any(
            isinstance(o.message, Abort) and o.message.reason == "SaltOfferAtTse"
            for o in outs
        )
        assert tse.phase == WIPED

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
        transfer_a, _ = run_salt_exchange(scn, a, b)
        outs = tse.handle(transfer_a)
        assert outs == []  # no manifest yet, nobody to notify
        assert tse.phase == WIPED


class TestResearcherDispatchOrder:
    """The salt initiator (A) is dispatched only after B and the TSE have
    acknowledged theirs, so A's SaltOffer and DataTransfer can never reach
    a party that has not yet seen its own TrainDispatch."""

    def start(self, scn):
        researcher = ResearcherActor("researcher", scn.manifest, dict(ENDPOINTS))
        return researcher, researcher.start()

    def test_start_does_not_dispatch_the_salt_initiator(self):
        scn = scenario()
        assert scn.manifest.salt_initiator_id() == "A"
        _, outs = self.start(scn)
        assert types_by_dest(outs) == [("B", "TrainDispatch"), ("TSE", "TrainDispatch")]

    def test_no_data_station_dispatches_the_tse_alone(self):
        scn = scenario()
        empty = dataclasses.replace(scn.manifest, data_requests=())
        researcher = ResearcherActor("researcher", empty, dict(ENDPOINTS))
        assert types_by_dest(researcher.start()) == [("TSE", "TrainDispatch")]

    @pytest.mark.parametrize("ack_order", [("B", "TSE"), ("TSE", "B")])
    def test_initiator_dispatched_after_peer_and_tse_ack(self, ack_order):
        scn = scenario()
        a, b, tse = actors(scn)
        researcher, outs = self.start(scn)
        sent = {o.dest: o.message for o in outs}
        acks = {
            "B": b.handle(sent["B"])[0].message,
            "TSE": tse.handle(sent["TSE"])[0].message,
        }
        assert researcher.handle(acks[ack_order[0]]) == []
        outs = researcher.handle(acks[ack_order[1]])
        assert types_by_dest(outs) == [("A", "TrainDispatch")]

        # B is already validated when A's salt offer arrives, and the TSE
        # is already awaiting data when both transfers arrive
        outs_a = a.handle(outs[0].message)
        assert types_by_dest(outs_a) == [("researcher", "Ack"), ("B", "SaltOffer")]
        outs_b = b.handle(outs_a[1].message)
        assert types_by_dest(outs_b) == [
            ("A", "Ack"),
            ("TSE", "DataTransfer"),
            ("researcher", "Ack"),
        ]
        assert tse.phase == AWAITING_DATA
        # later acks never dispatch the initiator a second time
        assert researcher.handle(outs_a[0].message) == []
        assert researcher.handle(outs_b[2].message) == []

    def test_abort_before_acks_means_initiator_never_dispatched(self):
        scn = scenario()
        researcher, _ = self.start(scn)
        run_id = scn.manifest.run_id
        # the abort is cancelled at every other party dispatched: the TSE
        cancels = researcher.handle(Abort(run_id, 1, "B", "Expired"))
        assert [(o.dest, o.message.reason) for o in cancels] == [("TSE", "Expired")]
        assert researcher.handle(Ack(run_id, 1, "TSE", "OK")) == []
        assert researcher.outcome == ("aborted", "Expired")

    def test_abort_between_acks_means_initiator_never_dispatched(self):
        # the TSE's data deadline can pass before the peer station acks
        scn = scenario()
        researcher, _ = self.start(scn)
        run_id = scn.manifest.run_id
        assert researcher.handle(Ack(run_id, 1, "TSE", "OK")) == []
        cancels = researcher.handle(Abort(run_id, 2, "TSE", "Timeout"))
        assert [(o.dest, o.message.reason) for o in cancels] == [("B", "Timeout")]
        assert researcher.handle(Ack(run_id, 1, "B", "OK")) == []
        assert researcher.outcome == ("aborted", "Timeout")


class TestResearcherTerminal:
    """A router evicts the researcher once it is terminal. After a result it
    still waits for each station's second Ack, sent with the station's data,
    because over TCP that Ack can arrive after the result."""

    def test_completed_run_is_terminal_after_the_late_acks(self):
        scn = scenario()
        researcher = ResearcherActor("researcher", scn.manifest, dict(ENDPOINTS))
        researcher.start()
        run_id = scn.manifest.run_id
        for sender in ("TSE", "B", "A"):
            researcher.handle(Ack(run_id, 1, sender, "OK"))
        researcher.handle(ResultReturn(run_id, 2, "TSE", None))
        assert researcher.done and not researcher.terminal
        researcher.handle(Ack(run_id, 2, "B", "OK"))
        assert not researcher.terminal
        researcher.handle(Ack(run_id, 2, "A", "OK"))
        assert researcher.terminal

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
