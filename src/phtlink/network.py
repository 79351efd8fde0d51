"""One run engine: a run-id router driving actors over in-process queues or TCP.

Every endpoint, be it a `run_network` party, a `pht station`/`pht tse` daemon
or `pht submit`, hands each decoded message to a Router (see there). The
in-process transport still encodes and decodes every message, so what each
actor sees, byte for byte, matches what it would receive from a socket. The
returned RunOutcome carries the validated result, the per-channel logical
message trace, every raw frame each endpoint received (for privacy
byte-scans), all audit logs and the TSE storage handle (for deletion checks).

Per-channel message order is preserved by construction: by default the
in-process engine delivers frames in send order, so each (sender, receiver)
channel is FIFO, and lets deadlines fall due once nothing is in flight (see
_pump_inproc); a TCP node sends over one connection per address (see
TcpNode). So the researcher's cancel, sent to the TSE alone, follows the
TSE's dispatch; a deadline is no message but a call of the live actor's
``abort("Timeout")``. Cross-sender interleaving is unspecified, so traces
are compared per channel, never globally; the researcher dispatches the
data stations only once the TSE has acknowledged its own dispatch (see
ResearcherActor), so a run's outcome does not depend on that interleaving.
Data stations never message each other: each derives the run's salt itself.
"""

from __future__ import annotations

import heapq
import logging
import math
import socket
import threading
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from selectors import EVENT_READ, EVENT_WRITE, DefaultSelector

from .analysis import ValidatedResult
from .errors import DecodeError
from .manifest import TrainManifest
from .stations import (
    DataStationActor,
    DataStationConfig,
    Outgoing,
    ResearcherActor,
    TseActor,
    TseConfig,
    TseStorage,
)
from .wire import Abort, TrainDispatch, decode, encode, message_type_name, take_frame

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
    seconds after its dispatch, where its actor's ``abort("Timeout")`` ends
    it: a TCP node's loop sleeps only until the next deadline. In-process
    delivery is in send order, FIFO per channel, with every deadline
    falling due once the run is quiescent, by default.
    ``ledger``, shared by the nodes of one `run_network` run, records what
    they received."""

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
        """End each run whose deadline is due by ``now`` with its live actor's
        ``abort("Timeout")``, and evict that actor: a deadline ends its run
        here, whatever the actor was still waiting for."""
        out = []
        while self._deadlines and self._deadlines[0][0] <= now:
            _, run_id = heapq.heappop(self._deadlines)
            actor = self.actors.get(run_id)
            if actor is not None:
                out += self._handle(run_id, actor)
        return out

    def _handle(self, run_id: str, actor, msg=None) -> list[Outgoing]:
        """Hand ``msg`` to the actor, or without one end its run at the
        deadline; a step that raises fails its run closed: the actor aborts
        with the exception as its reason and is evicted."""
        raised = False
        try:
            return actor.abort("Timeout") if msg is None else actor.handle(msg)
        except Exception as exc:
            raised = True
            _drop(run_id, getattr(msg, "sender", "?"),
                  f"handler raised {type(exc).__name__}: {exc}", exc_info=True)
            return actor.abort(f"{type(exc).__name__}: {exc}")
        finally:
            if msg is None or raised or actor.terminal:
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
    # each prebuilt actor is installed by its router at its own dispatch; the
    # TSE and the researcher end the run at the TSE's deadline, while a data
    # station's run ends in its dispatch's step and needs none
    routers = {
        aid: Router(lambda msg, actor=actor: actor,
                    tse_timeout if actor is tse else None, ledger)
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


def _in_send_order(flight: list) -> int | None:
    """The default schedule: the oldest frame in flight, and deadlines at quiescence."""
    return 0 if flight else None


def _pump_inproc(routers: dict[str, Router], researcher, ledger, schedule=_in_send_order) -> None:
    """Deliver the run's frames until none is in flight and no deadline sends one.

    ``flight`` holds each frame sent and not yet delivered, as (Outgoing,
    frame), in send order. At each step ``schedule(flight)``, which may drop,
    copy or add entries first, names what happens: an index, whose frame is
    delivered; a party id, whose deadlines fall due; or None, when every
    deadline falls due and the run ends if that sent nothing."""
    flight: list[tuple[Outgoing, bytes]] = []
    researcher.endpoints = {aid: f"inproc:{aid}" for aid in routers}

    def post(outgoing: list[Outgoing]) -> None:
        for out in outgoing:
            if out.dest in routers:
                flight.append((out, encode(out.message)))
            else:
                _drop(out.message.run_id, out.message.sender,
                      f"unroutable destination {out.dest!r}")

    post(researcher.start())
    while True:
        step = schedule(flight)
        if isinstance(step, int):
            out, frame = flight.pop(step)
            post(_receive(out.dest, routers[out.dest], frame, ledger))
        elif step is not None:
            post(routers[step].expire())
        else:
            for router in routers.values():
                post(router.expire())
            if not flight:
                return


def _pump_tcp(routers, researcher, ledger, done, run_timeout: float) -> None:
    nodes = {aid: TcpNode(aid, router) for aid, router in routers.items()}
    researcher.endpoints = {aid: node.address for aid, node in nodes.items()}
    nodes[researcher.station_id].post(researcher.start())  # before any loop runs
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

#: A peer that takes no owed byte for this long loses its connection: a run's default
#: deadline, far longer than one handler may keep a peer from reading (about 7 s at most)
SEND_TIMEOUT_S = DEFAULT_TSE_TIMEOUT
ACCEPT_PAUSE_S = 0.1  # after a failed accept, the node stops accepting for this long
READ_CHUNK = 64 * 1024  # the most one read takes off a socket


class _Conn:
    """A socket the loop serves, the bytes read of its next frame and the frames it owes."""

    def __init__(self, sock: socket.socket, address: str | None, selector):
        sock.setblocking(False)
        selector.register(sock, EVENT_READ, self)
        self.sock, self.address, self.buf, self.taken_at = sock, address, bytearray(), 0.0
        self.owed: deque[tuple[Outgoing, memoryview]] = deque()  # oldest first


class TcpNode:
    """One endpoint on one thread: a `selectors` loop that accepts, reads and
    writes every socket without blocking, hands each whole frame's message to
    ``handler`` (a Router also supplies deadlines and a ledger) in arrival
    order, and sends what it returns on one connection per address as that
    socket takes it, so frames to one address keep their order."""

    def __init__(self, node_id: str, handler, host: str = "127.0.0.1", port: int = 0):
        self.node_id, self.handler = node_id, handler
        self.router = handler if isinstance(handler, Router) else Router()
        self._server = socket.create_server((host, port))  # first: a BindError leaks nothing
        self.address = "{}:{}".format(*self._server.getsockname())
        self._wake_r, self._wake = socket.socketpair()  # post() writes a byte, stop() closes
        self._selector = DefaultSelector()
        for sock in (self._server, self._wake_r):
            sock.setblocking(False)
            self._selector.register(sock, EVENT_READ)
        self._accept_at = math.inf  # when to accept again after an accept failed
        self._conns: dict[str, _Conn] = {}  # the connections it opened, by address
        self._posted: deque[list[Outgoing]] = deque()
        self._worker = threading.Thread(target=self._worker_loop, daemon=True)

    def start(self) -> None:
        self._worker.start()

    def _worker_loop(self) -> None:
        while True:
            self._in_flight(1)  # like a frame: counted while a deadline ends a run and sends
            self._settle(self.router.expire(time.monotonic()))
            while self._posted:  # each post wrote a byte after it, to wake this loop
                self._settle(self._posted.popleft())
            now = time.monotonic()
            if self._accept_at <= now:
                self._selector.register(self._server, EVENT_READ)
                self._accept_at = math.inf
            wake = min(self.router.next_deadline() or math.inf, self._accept_at)
            for conn in [conn for conn in self._conns.values() if conn.owed]:
                if conn.taken_at + SEND_TIMEOUT_S <= now:
                    self._flush(conn)  # the peer may have taken bytes while a handler ran
                if conn.owed and conn.taken_at + SEND_TIMEOUT_S <= now:
                    self._close(conn, "timed out")
                elif conn.owed:
                    wake = min(wake, conn.taken_at + SEND_TIMEOUT_S)
            if self._wake_r.fileno() < 0 and not any(c.owed for c in self._conns.values()):
                return  # stopped, and every frame owed has left or failed
            timeout = None if wake == math.inf else max(0.0, wake - now)
            for key, events in self._selector.select(timeout):
                if key.fileobj is self._server:
                    try:
                        _Conn(self._server.accept()[0], None, self._selector)
                    except OSError:  # out of descriptors, say: the socket stays readable
                        self._selector.unregister(self._server)
                        self._accept_at = time.monotonic() + ACCEPT_PAUSE_S
                elif key.fileobj is self._wake_r:
                    if not self._wake_r.recv(READ_CHUNK):  # stop() closed the other end:
                        self._selector.unregister(self._wake_r)  # serve until nothing is owed
                        self._wake_r.close()
                elif key.fileobj.fileno() >= 0:  # not closed earlier in this batch
                    if events & EVENT_WRITE:
                        self._flush(key.data)
                    if events & EVENT_READ and key.fileobj.fileno() >= 0:
                        self._read(key.data)

    def _in_flight(self, n: int) -> None:
        if self.router.ledger is not None:
            self.router.ledger.add_in_flight(n)

    def post(self, outgoing: list[Outgoing]) -> None:
        """Hand messages to the loop to send; safe from any thread."""
        self._in_flight(1)  # like a frame, counted until the loop handled it
        self._posted.append(list(outgoing))
        self._wake.send(b"\0")

    def _read(self, conn: _Conn) -> None:
        """Read what arrived on ``conn`` and handle each frame it completes."""
        try:
            data = conn.sock.recv(READ_CHUNK)
        except OSError as exc:
            return self._close(conn, str(exc))
        if not data:  # the peer closed, in the middle of a frame if bytes are left
            return self._close(conn, "closed by peer" if conn.buf or conn.owed else None)
        conn.buf += data
        try:
            while (frame := take_frame(conn.buf)) is not None:
                self._settle(_receive(self.node_id, self.handler, frame, self.router.ledger))
        except DecodeError as exc:
            self._close(conn, str(exc))

    def _settle(self, outgoing: list[Outgoing]) -> None:
        """Send what one frame, post or deadline gave, and count that one handled."""
        for out in outgoing:
            self._in_flight(1)  # counted before it can arrive, so never below zero
            self._send(out, encode(out.message))
        self._in_flight(-1)

    def _failed(self, out: Outgoing, error: str) -> None:
        _drop(out.message.run_id, self.node_id, f"send to {out.dest!r} failed: {error}")
        self._in_flight(-1)

    def _send(self, out: Outgoing, frame: bytes) -> None:
        """Owe ``frame`` to ``out.address``'s connection, opened by the first frame to it."""
        if out.address is None:
            return self._failed(out, "unroutable destination")
        conn = self._conns.get(out.address)
        if conn is None:
            try:
                host, port = out.address.rsplit(":", 1)
                family, kind, proto, _, sockaddr = socket.getaddrinfo(
                    host, int(port), type=socket.SOCK_STREAM)[0]
                conn = _Conn(socket.socket(family, kind, proto), out.address, self._selector)
            except (OSError, ValueError) as exc:  # ValueError: a malformed address
                return self._failed(out, str(exc))
            self._conns[out.address] = conn
            conn.sock.connect_ex(sockaddr)  # the first write or read tells how it ended
        if not conn.owed:
            conn.taken_at = time.monotonic()
        conn.owed.append((out, memoryview(frame)))
        self._flush(conn)

    def _flush(self, conn: _Conn) -> None:
        """Write what the socket takes of the frames ``conn`` owes."""
        try:
            while conn.owed:
                out, view = conn.owed[0]
                sent = conn.sock.send(view)
                conn.taken_at = time.monotonic()
                if sent < len(view):
                    conn.owed[0] = (out, view[sent:])
                    break
                conn.owed.popleft()
        except BlockingIOError:
            pass
        except OSError as exc:
            return self._close(conn, str(exc))
        self._selector.modify(conn.sock, EVENT_READ | (EVENT_WRITE if conn.owed else 0), conn)

    def _close(self, conn: _Conn, error: str | None) -> None:
        """Close ``conn``; each frame it still owed is a failed send."""
        self._selector.unregister(conn.sock)
        conn.sock.close()
        self._conns.pop(conn.address, None)
        if error is not None and not conn.owed:
            _drop("?", "?", f"connection at {self.node_id} dropped: {error}")
        while conn.owed:
            self._failed(conn.owed.popleft()[0], error)

    def stop(self) -> None:
        """Stop serving once each frame owed has left or failed, and release
        the node's thread and every socket it holds."""
        self._wake.close()
        if self._worker.is_alive():
            self._worker.join()
        for key in list(self._selector.get_map().values()):
            key.fileobj.close()
        self._server.close()  # not in the selector while accepting is paused
        self._selector.close()
