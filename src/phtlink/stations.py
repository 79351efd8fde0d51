"""Station state machines: data stations, the analysis-side TSE, researcher.

Each party is a single logical actor: it consumes one message at a time
and returns the messages to emit. Actors never touch a transport, so the
same code runs over in-process queues and TCP sockets. All three share one
base, `_Party`, which stamps every message header, writes every audit entry
and checks per-sender order; a subclass gives only its steps, one per
message type, its answer to a bad message and its ``abort``. A party sends
to the addresses its run's dispatch named, and to no others.

Data station phases:  Idle -> Validated -> Sent (Done on failure)
TSE phases:           Idle -> Validated -> AwaitingData -> Linking ->
                      Analyzing -> Validating -> Returned -> Wiped

A data station does its whole run in its dispatch's one step and answers
with its DataTransfer to the TSE and one Ack to the researcher, or with an
Abort to each if it refuses; with the TSE's dispatch and Ack, the station
dispatches and the result, a run sends 9 frames. A station receives only
its dispatch: only the TSE and the researcher hold a run past it, so the
researcher cancels the TSE alone, and a deadline calls ``abort("Timeout")``.

Privacy-critical structure: each data station derives the run's salt from
its own key and its peer's public key (envelope.derive_salt), so no salt
travels and stations never message each other; the TSE receives only each
salt's one-way Salt.check, and aborts "SaltMismatch" if the two differ;
raw QIDs are dropped at pseudonymization time and never serialize; a
station sends only the digests the manifest's linkage mode uses; the TSE
wipes its storage on every terminal path, success or failure, and emits at
most one result per run.
"""

from __future__ import annotations

import datetime as dt
import json
from dataclasses import dataclass, field, replace

from .analysis import run_analysis, validate
from .envelope import (
    KeyPair,
    PublicEncryptionKey,
    SealedPackage,
    SigningKeys,
    derive_salt,
    open_package,
    seal,
)
from .errors import PhtError, StorageWiped
from .linkage import link, merge
from .manifest import TrainManifest, validate_train
from .model import Columns, Dataset, Record, dataset_from_bytes, dataset_to_bytes
# imported as pseudonymize: bench/layers.py wraps that name to time the layer
from .pseudonym import Salt, pseudonymize_columns as pseudonymize
from .wire import (
    Abort,
    Ack,
    DataTransfer,
    Message,
    ResultReturn,
    TrainDispatch,
    message_type_name,
)

# data station phases
IDLE = "Idle"
VALIDATED = "Validated"
SENT = "Sent"
DONE = "Done"

# TSE phases
AWAITING_DATA = "AwaitingData"
LINKING = "Linking"
ANALYZING = "Analyzing"
VALIDATING = "Validating"
RETURNED = "Returned"
WIPED = "Wiped"

FAULT_NO_SEND = "no_send"
FAULT_TAMPER = "tamper"


def utcnow() -> dt.datetime:
    return dt.datetime.now(dt.timezone.utc)


@dataclass(frozen=True)
class Outgoing:
    dest: str
    message: Message
    address: str | None  # where the run's dispatch says ``dest`` listens


class AuditLog:
    """Line-delimited JSON event log for one station."""

    def __init__(self, path=None):
        self.path = path
        self.events: list[dict] = []

    def log(self, run_id: str, phase: str, event: str, detail: str = "") -> None:
        entry = {
            "timestamp": utcnow().isoformat(),
            "run_id": run_id,
            "phase": phase,
            "event": event,
            "detail": detail,
        }
        self.events.append(entry)
        if self.path is not None:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")


def _explained(reason: str, detail: str) -> str:
    """An abort's audit detail: its reason, then why, if known."""
    return f"{reason}: {detail}" if detail else reason


def flip_bit(data: bytes, bit_index: int) -> bytes:
    """Flip one bit; used by the tamper fault and the tamper test suites."""
    out = bytearray(data)
    out[bit_index // 8] ^= 1 << (bit_index % 8)
    return bytes(out)


def _born_by(as_of: dt.date, age: int) -> str:
    """The last ISO date of birth that is ``age`` years old on ``as_of``.

    Exactly those born on or before it have ``age_on(born, as_of) >= age``.
    It compares as a string with canonical dates even where no such day
    exists, as with 29 February in a common year."""
    return f"{as_of.year - age:04d}-{as_of.month:02d}-{as_of.day:02d}"


def apply_pool_filter(rows: list[Record], pool) -> list[Record]:
    """Keep rows whose QID passes the manifest's pool restriction.

    ``as_of`` is parsed once per call: each canonical date of birth is
    compared with two cut-off dates instead of computing every row's age."""
    if pool is None:
        return list(rows)
    as_of = dt.date.fromisoformat(pool.as_of)
    # older than age_max, and at least age_min, if born on or before these
    too_old = None if pool.age_max is None else _born_by(as_of, pool.age_max + 1)
    old_enough = None if pool.age_min is None else _born_by(as_of, pool.age_min)
    prefixes = tuple(pool.zip_prefixes)
    kept = []
    for row in rows:
        qid = row.qid
        if qid is None:
            raise PhtError("pool filter needs raw QIDs")
        born = qid.date_of_birth
        if too_old is not None and born <= too_old:
            continue
        if old_enough is not None and born > old_enough:
            continue
        if prefixes and not qid.zip_code.startswith(prefixes):
            continue
        kept.append(row)
    return kept


class _Party:
    """One run party. ``handle`` hands a message whose seq is not above its
    sender's last to ``_out_of_order``, and any other to the step ``_steps``
    maps its type to, or to ``_unexpected``. A subclass gives the steps,
    ``abort``, which ends the run here for any cause, a deadline included,
    and ``terminal``. ``endpoints`` maps each party of the run to its
    address: a station or TSE takes it from its dispatch."""

    #: message type -> the step that handles it
    _steps: dict = {}

    def __init__(self, station_id: str, audit_path: str | None, run_id: str | None = None):
        self.station_id = station_id
        self.phase = IDLE
        self.audit = AuditLog(audit_path)
        self._run_id = run_id  # a station or TSE learns it from its dispatch
        self.endpoints: dict[str, str] = {}
        self._seq = 0
        self._last_seen: dict[str, int] = {}

    def _send(self, dest: str, cls, *fields) -> Outgoing:
        """The next message of this party's run to ``dest``: a ``cls`` with
        ``fields`` after the header; "?" stands for a run not yet known."""
        self._seq += 1
        message = cls(self._run_id or "?", self._seq, self.station_id, *fields)
        return Outgoing(dest, message, self.endpoints.get(dest))

    def _log(self, event: str, detail: str = "", phase: str | None = None) -> None:
        """Audit ``event`` under this party's run, in ``phase`` or the current one."""
        self.audit.log(self._run_id or "?", phase or self.phase, event, detail)

    def handle(self, msg: Message) -> list[Outgoing]:
        if msg.seq <= self._last_seen.get(msg.sender, 0):
            return self._out_of_order(msg)
        self._last_seen[msg.sender] = msg.seq
        step = self._steps.get(type(msg))
        if step is None:
            return self._unexpected(msg)
        return step(self, msg)

    def _out_of_order(self, msg: Message) -> list[Outgoing]:
        return self.abort(f"OutOfOrder({msg.sender})")

    def _unexpected(self, msg: Message) -> list[Outgoing]:
        return self.abort(f"UnexpectedMessage({message_type_name(msg)})")


# ---------------------------------------------------------------------------
# Data station
# ---------------------------------------------------------------------------

@dataclass
class DataStationConfig:
    station_id: str
    dataset: Dataset
    allowed_variables: tuple[str, ...]
    trust_anchor_verify: bytes
    enc_keys: KeyPair
    sign_keys: SigningKeys
    #: peer data-station encryption public keys, to derive the run's salt with
    peer_encryption_keys: dict[str, PublicEncryptionKey] = field(default_factory=dict)
    audit_path: str | None = None
    #: failure injection for tests: None, "no_send" (die once the extract
    #: is prepared) or "tamper" (flip a ciphertext bit before sending)
    fault: str | None = None
    #: test hook: a salt used instead of the derived one, to plant a known
    #: salt or exercise the seal-time run binding check
    reuse_salt: Salt | None = None


class DataStationActor(_Party):
    """A data station's run: its dispatch is the one message a router hands
    it, since the station is terminal once that step returns. A message
    handed to it directly before its dispatch aborts it through ``_Party``,
    telling no one, as it knows no manifest yet."""

    def __init__(self, config: DataStationConfig):
        super().__init__(config.station_id, config.audit_path)
        self.config = config
        self._manifest: TrainManifest | None = None

    @property
    def terminal(self) -> bool:
        """Nothing more arrives for this run once the extract is sent or the
        station has given up."""
        return self.phase in (SENT, DONE)

    def abort(self, reason: str, detail: str = "") -> list[Outgoing]:
        """Give the run up and tell the researcher and the TSE why, once a
        dispatch has named them; a ``detail`` is audited after the reason,
        never sent."""
        self.phase = DONE
        self._log("abort", _explained(reason, detail))
        if self._manifest is None:
            return []
        return [
            self._send(dest, Abort, reason)
            for dest in (self._manifest.researcher_id, self._manifest.tse_station_id)
        ]

    def _on_dispatch(self, msg: TrainDispatch) -> list[Outgoing]:
        if msg.run_id == self._run_id:
            return self.abort("DuplicateRun")
        if self.phase != IDLE:
            return self.abort(f"UnexpectedMessage(TrainDispatch in {self.phase})")
        self._manifest = msg.manifest
        self._run_id = msg.run_id
        self.endpoints = dict(msg.endpoints)

        verdict = validate_train(
            msg.manifest,
            self.config.trust_anchor_verify,
            utcnow(),
            station_id=self.station_id,
            allowed_variables=self.config.allowed_variables,
        )
        if not verdict.accepted:
            return self.abort(verdict.reason, detail=verdict.detail)
        self.phase = VALIDATED
        self._log("train_validated")
        return self._prepare_and_send()

    def _prepare_and_send(self) -> list[Outgoing]:
        manifest = self._manifest
        # validate_train accepted two distinct data stations, this one among them
        (peer,) = (s for s in manifest.data_station_ids() if s != self.station_id)
        peer_key = self.config.peer_encryption_keys.get(peer)
        if peer_key is None:
            return self.abort(f"MissingPeerKey({peer})")
        try:
            salt = self.config.reuse_salt or derive_salt(
                self.config.enc_keys, peer_key, self._run_id, manifest.signable_bytes()
            )
        except PhtError as exc:
            return self.abort(type(exc).__name__)
        # a salt is good for exactly one run; enforced here, at seal time
        if salt.run_id != self._run_id:
            return self.abort("RunMismatch(salt)")
        self._log("salt_derived", peer)

        request = manifest.request_for(self.station_id)
        dataset = self.config.dataset
        missing = [v for v in request.variables if v not in dataset.variable_names()]
        if missing:
            return self.abort(f"UnknownVariable({missing[0]})")

        kept = apply_pool_filter(dataset.rows, request.pool)
        types = dict(dataset.schema)
        # columns straight from the kept rows, the digests from one batch call
        extract = Columns(
            self.station_id,
            tuple((name, types[name]) for name in request.variables),
            [[row.payload[name] for row in kept] for name in request.variables],
            *pseudonymize([row.qid for row in kept], salt, manifest.linkage.mode),
            salt.check,
        )
        payload = dataset_to_bytes(extract)
        self._log("extract_prepared", f"{len(kept)}/{len(dataset.rows)} rows")

        if self.config.fault == FAULT_NO_SEND:
            self.phase = DONE
            self._log("fault", "no_send")
            return []

        try:
            package = seal(
                payload,
                self._run_id,
                self.station_id,
                PublicEncryptionKey(
                    manifest.tse_public_encryption_key, manifest.tse_encryption_key_id
                ),
                self.config.sign_keys,
            )
        except PhtError as exc:
            return self.abort(type(exc).__name__)
        if self.config.fault == FAULT_TAMPER:
            package = replace(package, ciphertext=flip_bit(package.ciphertext, 7))
            self._log("fault", "tamper")

        self.phase = SENT
        self._log("data_sent", manifest.tse_station_id)
        return [
            self._send(manifest.tse_station_id, DataTransfer, package),
            self._send(manifest.researcher_id, Ack),
        ]

    _steps = {TrainDispatch: _on_dispatch}


# ---------------------------------------------------------------------------
# TSE
# ---------------------------------------------------------------------------

class TseStorage:
    """In-memory run storage with an auditable wipe.

    Wiping zeroes every held buffer, and so every view ``put_bytes`` returned,
    then drops it: the inventory is empty and reads raise StorageWiped.
    """

    def __init__(self):
        self._items: dict[str, bytearray] = {}
        self.wiped = False

    def put_bytes(self, name: str, data: bytes) -> memoryview:
        if self.wiped:
            raise StorageWiped("storage already wiped")
        buf = self._items[name] = bytearray(data)
        return memoryview(buf).toreadonly()

    def read(self, name: str) -> bytes:
        if self.wiped:
            raise StorageWiped("storage wiped")
        return bytes(self._items[name])

    def inventory(self) -> tuple[str, ...]:
        return tuple(sorted(self._items))

    def wipe(self) -> None:
        for buf in self._items.values():
            buf[:] = bytes(len(buf))
        self._items.clear()
        self.wiped = True


@dataclass
class TseConfig:
    station_id: str
    trust_anchor_verify: bytes
    enc_keys: KeyPair
    audit_path: str | None = None


class TseActor(_Party):
    def __init__(self, config: TseConfig):
        super().__init__(config.station_id, config.audit_path)
        self.config = config
        self.storage = TseStorage()
        self._manifest: TrainManifest | None = None
        self._packages: dict[str, SealedPackage] = {}
        self._expected: tuple[str, ...] = ()
        # the decoded and merged datasets, whose payload lists the wipe
        # empties; a decoded coded column views storage, which it zeroes
        self._held: list[Columns] = []

    @property
    def terminal(self) -> bool:
        return self.phase == WIPED

    def wipe(self, detail: str | None = None) -> None:
        """Delete everything the run left here: storage, sealed packages and
        the payload values decoded from them. A ``detail`` is audited as the
        reason."""
        self.storage.wipe()
        self._packages.clear()
        for cols in self._held:
            for column in cols.payload:
                if isinstance(column, list):
                    column.clear()
        self._held.clear()
        self.phase = WIPED
        if detail is not None:
            self._log("wiped", detail)

    def abort(self, reason: str, detail: str = "") -> list[Outgoing]:
        """Wipe, and tell the researcher why unless the run already ended
        here; a ``detail`` is audited after the reason, never sent."""
        ended = self.phase == WIPED
        self.wipe()
        self._log("abort_wiped", _explained(reason, detail))
        if ended or self._manifest is None:
            return []
        return [self._send(self._manifest.researcher_id, Abort, reason)]

    def _on_abort(self, msg: Abort) -> list[Outgoing]:
        # a station's refusal or the researcher's cancel: the sender
        # already knows the run is over, so nothing goes back
        if self.phase != WIPED:
            self.wipe()
            self._log("abort_wiped", f"{msg.sender}: {msg.reason}")
        return []

    def _on_dispatch(self, msg: TrainDispatch) -> list[Outgoing]:
        if self.phase != IDLE:
            return self.abort("DuplicateRun")
        self._manifest = msg.manifest
        self._run_id = msg.run_id
        self.endpoints = dict(msg.endpoints)
        verdict = validate_train(msg.manifest, self.config.trust_anchor_verify, utcnow())
        if not verdict.accepted:
            return self.abort(verdict.reason, detail=verdict.detail)
        self.phase = VALIDATED
        self._log("train_validated")
        self._expected = msg.manifest.data_station_ids()
        self.phase = AWAITING_DATA
        self._log("awaiting_data", ",".join(self._expected))
        return [self._send(msg.manifest.researcher_id, Ack)]

    def _on_data(self, msg: DataTransfer) -> list[Outgoing]:
        if self.phase != AWAITING_DATA or msg.run_id != self._run_id:
            return self.abort(f"UnexpectedMessage(DataTransfer in {self.phase})")
        if msg.sender not in self._expected:
            return self.abort(f"UnexpectedStation({msg.sender})")
        if msg.sender in self._packages:
            return self.abort(f"DuplicateTransfer({msg.sender})")
        self._packages[msg.sender] = msg.package
        self._log("data_received", msg.sender)
        if set(self._packages) != set(self._expected):
            return []
        return self._process()

    def _process(self) -> list[Outgoing]:
        manifest = self._manifest
        datasets: list[Columns] = []
        for sid in self._expected:
            try:
                # dropped once opened, not held through link and analysis
                plaintext = open_package(
                    self._packages.pop(sid),
                    self.config.enc_keys,
                    manifest.verification_key_for(sid),
                    expected_run_id=self._run_id,
                )
            except PhtError as exc:
                return self.abort(f"{type(exc).__name__}@{sid}")
            # linked in place, so the wipe zeroes the digests link reads
            body = self.storage.put_bytes(f"dataset:{sid}", plaintext)
            self._log("package_opened", sid)
            try:
                # named by the sender whose signature open_package checked
                ds = dataset_from_bytes(body, sid)
            except (PhtError, ValueError, KeyError) as exc:
                return self.abort(f"BadDataset@{sid}: {exc}")
            datasets.append(ds)
            self._held.append(ds)
            names, requested = ds.variable_names(), manifest.request_for(sid).variables
            if names != requested:
                return self.abort(f"BadDataset@{sid}: variables {list(names)}, "
                                  f"not the requested {list(requested)}")
            # a station sends only the part its mode links on; a body without
            # that part is left to link, which refuses it as MissingPseudonyms
            if ds.parts == ("composite", "field_codes"):
                mode = manifest.linkage.mode
                unused = "per-field" if mode == "exact" else "composite"
                return self.abort(
                    f"BadDataset@{sid}: {unused} digests, which {mode} linkage does not use")
        # a station that derived another salt, as with a wrong peer key,
        # made digests that link nothing: fail closed rather than report that
        if datasets[0].salt_check != datasets[1].salt_check:
            return self.abort("SaltMismatch")

        self.phase = LINKING
        self._log("linking")
        result = link(datasets[0], datasets[1], manifest.linkage)
        merged = merge(result, datasets[0], datasets[1])
        self._held.append(merged)

        self.phase = ANALYZING
        self._log("analyzing", manifest.analysis.kind)
        raw = run_analysis(merged, manifest.analysis)

        self.phase = VALIDATING
        self._log("validating")
        validated = validate(raw, manifest.disclosure)

        validated.audit["run"] = {
            "run_id": self._run_id,
            "records_received": {ds.station_id: ds.n_rows for ds in datasets},
            "records_linked": len(result.pairs),
            "linkage": result.audit,
        }
        try:
            # a result JSON cannot carry, such as an overflowed mean, is
            # refused here rather than by the transport that would send it
            validated.to_canonical_json()
        except ValueError as exc:
            return self.abort("UnreleasableResult", detail=str(exc))

        out = self._send(manifest.researcher_id, ResultReturn, validated)
        self.phase = RETURNED
        self._log("result_returned")
        self.wipe("all run data deleted")
        return [out]

    _steps = {TrainDispatch: _on_dispatch, DataTransfer: _on_data, Abort: _on_abort}


# ---------------------------------------------------------------------------
# Researcher endpoint
# ---------------------------------------------------------------------------

class ResearcherActor(_Party):
    """Fourth endpoint: dispatches the train, then only ever sees Ack,
    ResultReturn and Abort; it drops anything else, and anything out of
    order, and goes on waiting. Its router calls ``abort("Timeout")`` at the
    run's deadline, which records nothing if the run already ended, and
    evicts the actor either way.

    The TSE is dispatched first, and the data stations once the TSE has
    acknowledged its dispatch, or not at all if the run aborts first. Every
    DataTransfer then reaches the TSE only after its TrainDispatch, however
    a transport interleaves messages from different senders. Each data
    station that sends its extract then sends one Ack, and the TSE its
    result. On the first Abort it hears of, or at its deadline, it cancels
    the run at the TSE, the one other party still holding it: a data
    station's run ends in its dispatch's step."""

    def __init__(
        self,
        researcher_id: str,
        manifest: TrainManifest,
        endpoints: dict[str, str],
        audit_path: str | None = None,
    ):
        super().__init__(researcher_id, audit_path, manifest.run_id)
        self.manifest = manifest
        self.endpoints = dict(endpoints)
        self.acks: list[str] = []  # the sender of each Ack, in arrival order
        self.outcome: tuple[str, object] | None = None
        self._dispatched: list[str] = []  # the TSE, then the data stations once

    def _dispatch(self, dest: str) -> Outgoing:
        self._dispatched.append(dest)
        return self._send(
            dest, TrainDispatch, self.manifest, tuple(sorted(self.endpoints.items()))
        )

    def start(self) -> list[Outgoing]:
        self._log("train_dispatched", phase="Dispatch")
        return [self._dispatch(self.manifest.tse_station_id)]

    def _out_of_order(self, msg: Message) -> list[Outgoing]:
        self._log("out_of_order_dropped", msg.sender, phase="Receive")
        return []

    def _unexpected(self, msg: Message) -> list[Outgoing]:
        self._log("unexpected_dropped", message_type_name(msg), phase="Receive")
        return []

    def abort(self, reason: str, sender: str | None = None) -> list[Outgoing]:
        """Record the run as aborted, unless it already ended, and cancel it
        at the TSE if it was dispatched and is not ``sender``, who reported
        the abort. The cancel leaves on the dispatch's channel, so it
        reaches the TSE after its dispatch."""
        if self.outcome is not None:
            return []
        self.outcome = ("aborted", reason)
        self._log("aborted", reason, phase="Receive")
        tse = self.manifest.tse_station_id
        if tse not in self._dispatched or sender == tse:
            return []
        self._log("cancelled", tse, phase="Dispatch")
        return [self._send(tse, Abort, reason)]

    def _on_abort(self, msg: Abort) -> list[Outgoing]:
        return self.abort(msg.reason, msg.sender)

    def _on_result(self, msg: ResultReturn) -> list[Outgoing]:
        if self.outcome is None:
            self.outcome = ("completed", msg.result)
            self._log("result_returned", msg.sender, phase="Receive")
        return []

    def _on_ack(self, msg: Ack) -> list[Outgoing]:
        self.acks.append(msg.sender)
        self._log("ack", msg.sender, phase="Receive")
        # the Ack of the TSE, while it is the one party dispatched, and no
        # other, dispatches the data stations
        if (
            self.outcome is not None
            or msg.run_id != self.manifest.run_id
            or self._dispatched != [msg.sender]
        ):
            return []
        stations = self.manifest.data_station_ids()
        self._log("stations_dispatched", ",".join(stations), phase="Dispatch")
        return [self._dispatch(dest) for dest in stations]

    _steps = {Ack: _on_ack, ResultReturn: _on_result, Abort: _on_abort}

    @property
    def done(self) -> bool:
        return self.outcome is not None

    @property
    def terminal(self) -> bool:
        """Done, and after a result also holding each data station's Ack
        until the deadline: a station sends it with the data the result was
        computed from, but over TCP it can arrive after the result."""
        if self.outcome is None:
            return False
        if self.outcome[0] == "aborted":
            return True
        return set(self.manifest.data_station_ids()) <= set(self.acks)
