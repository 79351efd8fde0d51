"""One run engine: a run-id router driving actors over in-process queues or TCP.

Every endpoint, be it a `run_network` party, a `pht station`/`pht tse` daemon
or `pht submit`, hands each decoded message to a Router (see there). The
in-process transport still encodes and decodes every message, so what each
actor sees, byte for byte, matches what it would receive from a socket. The
returned RunOutcome carries the validated result, the per-channel logical
message trace, every raw frame each endpoint received (for privacy
byte-scans), all audit logs and the TSE storage handle (for deletion checks).

Per-sender message order is preserved by construction: the in-process engine
uses FIFO queues; over TCP one worker thread per node does all its sending,
in inbox order, over one long-lived connection per destination, to the
address the run's dispatch named (`Outgoing.address`), so the
researcher's cancel follows its dispatch. Cross-sender interleaving is
unspecified, so traces are compared per channel, never globally; the
researcher dispatches the salt initiator last (see ResearcherActor), so a
run's outcome does not depend on that interleaving.
"""

from __future__ import annotations

import heapq
import logging
import math
import queue
import socket
import threading
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field

from .analysis import ValidatedResult
from .errors import DecodeError
from .manifest import TrainManifest
from .stations import (
    DataStationActor,
    DataStationConfig,
    Outgoing,
    ResearcherActor,
    TimeoutExpired,
    TseActor,
    TseConfig,
    TseStorage,
)
from .wire import Abort, TrainDispatch, decode, encode, message_type_name, read_frame

DEFAULT_TSE_TIMEOUT = 60.0

log = logging.getLogger("phtlink")


def _drop(run_id: str, sender: str, reason: str, level=logging.WARNING, **kwargs) -> None:
    log.log(level, "dropped: run_id=%s sender=%s reason=%s", run_id, sender, reason, **kwargs)


@dataclass
class RunSetup:
    manifest: TrainManifest
    stations: list[DataStationConfig]
    tse: TseConfig


@dataclass
class RunOutcome:
    outcome: str  # "completed" | "aborted"
    reason: str | None
    result: ValidatedResult | None
    result_bytes: bytes | None
    traces: dict[tuple[str, str], list[tuple[str, str, int]]]
    received_bytes: dict[str, list[bytes]]
    audit_logs: dict[str, list[dict]]
    storage: TseStorage
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        return self.outcome == "completed"

    def logical_trace(self) -> dict[tuple[str, str], list[tuple[str, str, int]]]:
        """Per-channel (sender, receiver) sequences of (type, run_id, seq)."""
        return {k: list(v) for k, v in self.traces.items()}


def researcher_verdict(researcher: ResearcherActor, silent: str):
    """The run's (outcome, reason, result) as the researcher saw it:
    ("completed", None, result) or ("aborted", reason, None), where
    ``silent`` is the reason when no answer came back."""
    if researcher.outcome is None:
        return "aborted", silent, None
    if researcher.outcome[0] == "completed":
        return "completed", None, researcher.outcome[1]
    return "aborted", researcher.outcome[1], None


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class Ledger:
    """What the nodes of one `run_network` run received, and how many frames
    are still in flight between them (sent, not yet handled or dropped)."""

    def __init__(self):
        self.received: dict[str, list[bytes]] = defaultdict(list)
        self.traces: dict[tuple[str, str], list] = defaultdict(list)
        self._in_flight = 0
        self._settled = threading.Condition()

    def add_in_flight(self, n: int) -> None:
        with self._settled:
            self._in_flight += n
            self._settled.notify_all()

    def wait_settled(self, done, timeout: float) -> bool:
        """Wait until ``done()`` holds and no frame is in flight."""
        with self._settled:
            return self._settled.wait_for(lambda: self._in_flight <= 0 and done(), timeout)


class Router:
    """Routes each message to its run's actor, one actor per run.

    ``factory`` builds the actor when the run's TrainDispatch arrives; a
    frame for a run without an actor is dropped and logged, at INFO where a
    run's end makes it expected (anything but a dispatch for a finished run,
    or an Abort that overtook its run's dispatch) and at WARNING otherwise
    (a replayed dispatch, any other frame for an unknown run). An actor is
    evicted once terminal and only its run id is kept, so a replayed dispatch
    starts nothing. With ``timeout_s`` set, each run gets a deadline that many
    seconds after its dispatch, delivered to its actor as TimeoutExpired: a
    TCP worker waits on its inbox only until the next deadline, the
    in-process transport lets every deadline fall due once the run is
    quiescent. ``ledger``, shared by the nodes of one `run_network` run,
    records what they received."""

    def __init__(self, factory=None, timeout_s: float | None = None, ledger: Ledger | None = None):
        self.factory = factory
        self.timeout_s = timeout_s
        self.ledger = ledger
        self.actors: dict[str, object] = {}
        self.finished: set[str] = set()
        self._done: dict[str, threading.Event] = {}
        self._deadlines: list[tuple[float, str]] = []

    def add(self, run_id: str, actor) -> threading.Event:
        """Serve ``run_id`` with ``actor``; the Event is set once it is terminal."""
        self.actors[run_id] = actor
        done = self._done[run_id] = threading.Event()
        if self.timeout_s is not None:
            heapq.heappush(self._deadlines, (time.monotonic() + self.timeout_s, run_id))
        return done

    def __call__(self, msg) -> list[Outgoing]:
        """Hand ``msg`` to its run's actor; returns the messages to send."""
        actor = self.actors.get(msg.run_id)
        if actor is None:
            finished, dispatch = msg.run_id in self.finished, isinstance(msg, TrainDispatch)
            if finished or self.factory is None or not dispatch:
                state = "a finished" if finished else "an unknown"
                late = not dispatch if finished else isinstance(msg, Abort)
                _drop(msg.run_id, msg.sender, f"{message_type_name(msg)} for {state} run",
                      logging.INFO if late else logging.WARNING)
                return []
            actor = self.factory(msg)
            self.add(msg.run_id, actor)
        return self._handle(msg.run_id, actor, msg)

    def next_deadline(self) -> float | None:
        return self._deadlines[0][0] if self._deadlines else None

    def expire(self, now: float = math.inf) -> list[Outgoing]:
        """Deliver every deadline due by ``now`` to its run's live actor, and
        evict that actor: a deadline ends its run here, whatever the actor
        was still waiting for."""
        out = []
        while self._deadlines and self._deadlines[0][0] <= now:
            _, run_id = heapq.heappop(self._deadlines)
            actor = self.actors.get(run_id)
            if actor is not None:
                out += self._handle(run_id, actor, TimeoutExpired(run_id), evict=True)
        return out

    def _handle(self, run_id: str, actor, msg, evict: bool = False) -> list[Outgoing]:
        """Run the actor's handler; one that raises fails its run closed:
        the actor aborts with the exception as its reason and is evicted."""
        raised = False
        try:
            return actor.handle(msg)
        except Exception as exc:
            raised = True
            _drop(run_id, getattr(msg, "sender", "?"),
                  f"handler raised {type(exc).__name__}: {exc}", exc_info=True)
            return actor.abort(f"{type(exc).__name__}: {exc}")
        finally:
            if evict or raised or actor.terminal:
                del self.actors[run_id]
                self.finished.add(run_id)
                self._done.pop(run_id).set()


def _receive(node_id: str, handler, frame: bytes, ledger) -> list[Outgoing]:
    """Decode one frame and hand it to ``handler`` on this thread; a frame
    that cannot be decoded, or a handler that raises, is logged and dropped."""
    if ledger is not None:
        ledger.received[node_id].append(frame)
    try:
        msg = decode(frame)
    except DecodeError as exc:
        _drop("?", "?", f"undecodable frame at {node_id}: {exc}")
        return []
    if ledger is not None:
        trace = (message_type_name(msg), msg.run_id, msg.seq)
        ledger.traces[(msg.sender, node_id)].append(trace)
    try:
        return handler(msg) or []
    except Exception as exc:  # one bad message must not stop the node
        _drop(msg.run_id, msg.sender, f"handler raised {type(exc).__name__}: {exc}",
              exc_info=True)
        return []


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def run_network(
    setup: RunSetup,
    transport: str = "inproc",
    tse_timeout: float = DEFAULT_TSE_TIMEOUT,
    run_timeout: float = 60.0,
) -> RunOutcome:
    """Run one train end to end and return the outcome plus full telemetry."""
    if transport not in ("inproc", "tcp"):
        raise ValueError(f"unknown transport {transport!r}")
    started = time.perf_counter()
    manifest = setup.manifest
    actors: dict[str, object] = {cfg.station_id: DataStationActor(cfg) for cfg in setup.stations}
    tse = actors[setup.tse.station_id] = TseActor(setup.tse)
    ledger = Ledger()
    # each prebuilt actor is installed by its router at its own dispatch;
    # every party ends the run at the TSE's deadline
    routers = {
        aid: Router(lambda msg, actor=actor: actor, tse_timeout, ledger)
        for aid, actor in actors.items()
    }
    researcher = actors[manifest.researcher_id] = ResearcherActor(
        manifest.researcher_id, manifest, {}
    )
    routers[manifest.researcher_id] = Router(timeout_s=tse_timeout, ledger=ledger)
    done = routers[manifest.researcher_id].add(manifest.run_id, researcher)

    if transport == "inproc":
        _pump_inproc(routers, researcher, ledger)
    else:
        _pump_tcp(routers, researcher, ledger, done, run_timeout)

    outcome, reason, result = researcher_verdict(researcher, silent="Stalled")
    return RunOutcome(
        outcome=outcome,
        reason=reason,
        result=result,
        result_bytes=result.to_canonical_json() if result is not None else None,
        traces=dict(ledger.traces),
        received_bytes=dict(ledger.received),
        audit_logs={aid: list(actor.audit.events) for aid, actor in actors.items()},
        storage=tse.storage,
        timings={"total_s": time.perf_counter() - started},
    )


def _pump_inproc(routers: dict[str, Router], researcher, ledger) -> None:
    queues: dict[str, deque] = {aid: deque() for aid in routers}
    researcher.endpoints = {aid: f"inproc:{aid}" for aid in routers}

    def post(outgoing: list[Outgoing]) -> None:
        for out in outgoing:
            if out.dest in queues:
                queues[out.dest].append(encode(out.message))
            else:
                _drop(out.message.run_id, out.message.sender,
                      f"unroutable destination {out.dest!r}")

    post(researcher.start())
    order = sorted(routers)
    while True:
        progress = False
        for aid in order:
            if queues[aid]:
                post(_receive(aid, routers[aid], queues[aid].popleft(), ledger))
                progress = True
        if progress:
            continue
        # quiescent: nothing else can happen before the pending deadlines
        for router in routers.values():
            post(router.expire())
        if not any(queues.values()):
            return


def _pump_tcp(routers, researcher, ledger, done, run_timeout: float) -> None:
    nodes = {aid: TcpNode(aid, router) for aid, router in routers.items()}
    researcher.endpoints = {aid: node.address for aid, node in nodes.items()}
    nodes[researcher.station_id].post(researcher.start())  # before any worker runs
    for node in nodes.values():
        node.start()
    try:
        ledger.wait_settled(done.is_set, run_timeout)
    finally:
        for node in nodes.values():
            node.stop()


# ---------------------------------------------------------------------------
# TCP transport
# ---------------------------------------------------------------------------

class TcpNode:
    """One endpoint: a listening socket, a reader thread per inbound
    connection, a single worker thread handling the inbox in arrival order,
    and one persistent client connection per destination.

    ``handler`` is called with each decoded message and returns the messages
    to send; a Router also supplies the node's deadlines and ledger. Only
    the worker calls the handler or writes a socket; readers and `post` put
    on the inbox, so the node sends in the order its inbox was handled."""

    def __init__(self, node_id: str, handler, host: str = "127.0.0.1", port: int = 0):
        self.node_id = node_id
        self.handler = handler
        self.router = handler if isinstance(handler, Router) else Router()
        self._server = socket.create_server((host, port))
        self.address = "{}:{}".format(*self._server.getsockname())
        self._inbox: queue.SimpleQueue = queue.SimpleQueue()
        # per-destination connection, with the address it was opened to
        self._conns: dict[str, tuple[str, socket.socket]] = {}
        self._lock = threading.Lock()  # guards _stopped and _readers
        self._stopped = False
        self._readers: dict[threading.Thread, socket.socket] = {}
        self._accept = threading.Thread(target=self._accept_loop, daemon=True)
        self._worker = threading.Thread(target=self._worker_loop, daemon=True)

    def start(self) -> None:
        self._accept.start()
        self._worker.start()

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._server.accept()
            except OSError:
                return  # stop() shut the listening socket down
            with self._lock:
                if self._stopped:
                    conn.close()
                    return
                reader = threading.Thread(target=self._read_loop, args=(conn,), daemon=True)
                self._readers[reader] = conn
                reader.start()

    def _read_loop(self, conn: socket.socket) -> None:
        try:
            with conn, conn.makefile("rb") as stream:
                while (frame := read_frame(stream)) is not None:
                    self._inbox.put(frame)
        except (DecodeError, OSError) as exc:
            _drop("?", "?", f"connection to {self.node_id} dropped: {exc}")
        finally:
            with self._lock:
                self._readers.pop(threading.current_thread(), None)

    def _worker_loop(self) -> None:
        while True:
            # counted like a frame: a deadline ends its run before its aborts leave
            self._in_flight(1)
            self._send_all(self.router.expire(time.monotonic()))
            self._in_flight(-1)
            deadline = self.router.next_deadline()
            wait = None if deadline is None else max(0.0, deadline - time.monotonic())
            try:
                item = self._inbox.get(timeout=wait)
            except queue.Empty:
                continue
            if item is None:  # stop() was called
                return
            if not isinstance(item, list):  # a frame, not a post()
                item = _receive(self.node_id, self.handler, item, self.router.ledger)
            self._send_all(item)
            self._in_flight(-1)

    def _in_flight(self, n: int) -> None:
        if self.router.ledger is not None:
            self.router.ledger.add_in_flight(n)

    def post(self, outgoing: list[Outgoing]) -> None:
        """Queue messages for the worker to send; safe from any thread."""
        self._in_flight(1)  # like a frame, counted until the worker handled it
        self._inbox.put(list(outgoing))

    def _send_all(self, outgoing: list[Outgoing]) -> None:
        """Encode and send each message; called on the worker thread only."""
        for out in outgoing:
            frame = encode(out.message)
            self._in_flight(1)  # counted before it can arrive, so never below zero
            error = self._send(out, frame)
            if error is not None:
                _drop(out.message.run_id, self.node_id, f"send to {out.dest!r} failed: {error}")
                self._in_flight(-1)

    def _drop_conn(self, dest: str) -> None:
        cached = self._conns.pop(dest, None)
        if cached is not None:
            cached[1].close()

    def _send(self, out: Outgoing, frame: bytes) -> str | None:
        """Send ``out``, encoded as ``frame``; returns why it could not be sent, or None."""
        dest, address = out.dest, out.address
        if address is None:
            return "unroutable destination"
        for _ in range(2):  # one reconnect retry on a dead cached connection
            cached = self._conns.get(dest)
            try:
                if cached is None or cached[0] != address:
                    self._drop_conn(dest)  # the peer moved, or it is another run's
                    host, port = address.rsplit(":", 1)
                    conn = socket.create_connection((host, int(port)), timeout=5.0)
                    cached = self._conns[dest] = (address, conn)
                cached[1].sendall(frame)
                return None
            except (OSError, ValueError) as exc:  # ValueError: a malformed address
                self._drop_conn(dest)
                error = str(exc)
        return error

    def stop(self) -> None:
        """Stop serving and release every thread and socket the node holds."""
        with self._lock:
            self._stopped = True  # from here on no reader thread is added
            readers = dict(self._readers)
        # shutdown() wakes a thread blocked in accept() or recv(); close() does not
        for sock in (self._server, *readers.values()):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self._server.close()
        self._inbox.put(None)
        for thread in (self._accept, *readers, self._worker):
            if thread.is_alive():
                thread.join()
        for dest in list(self._conns):  # the worker that used them has ended
            self._drop_conn(dest)
