"""Client/server wire protocol: length-framed JSON messages over TCP.

Framing is a 4-byte big-endian length followed by UTF-8 JSON.  Every message
carries {version, kind, run_id, payload}, and its payload must have exactly
its kind's nested schema (`KIND_SCHEMAS`, checked by `serde.check_shape`, the
rule the key and trapdoor readers use): every field name at every level and
the exact type of every leaf.  No schema names a client-private field
(`PRIVATE_FIELDS`: accept bits, output indices, plants, trapdoors), so none
can cross the wire.

A `WireMessage` is valid by construction: building one runs
`validate_message`, so each process that builds or reads a message checks it
once, and an in-process reply is checked as a TCP reply is.  The client
engine then reads y and b with the `serde` readers, and `protocol4.finalize`
applies the image and bit rules to every reply, a strategy's included.

One client engine and one honest server session serve every transport:
`run_protocol4` / `run_protocol8` are run 0 of a `LocalChannel` session, and
socket runs execute the same handler with the same derived seeds, which makes
loopback transcripts bit-identical to in-process ones.

The session holds each stage of a run once: `key` puts the plain or rotated
state, `merge` takes both and puts the merged one, `test_plan` takes that.  A
rejected request changes nothing.  Only a `LocalChannel` passes the simulated
states on, to the client engine; over TCP they stay with the server.
"""

from __future__ import annotations

import json
import logging
import socket
import socketserver
import struct
import sys
import threading
from dataclasses import dataclass, field

from . import lwe, protocol4 as p4, protocol8 as p8, serde, seeds
from .params import ParamSet
from .seeds import run_seed
from .sim import QubitDescription, fidelity

WIRE_VERSION = 1
MAX_FRAME = 1 << 20
# seconds a client waits to connect, and a server session for each next frame
CONNECT_TIMEOUT = 10.0
SESSION_TIMEOUT = 30.0

# one line per ended server session: the peer and why it ended, no payload values
log = logging.getLogger("qfactory.wire")

# each kind's payload, in `serde.check_shape`'s terms; a merge reply carries
# the outcomes, and the session rejects a merge request that is not empty; test
# results hold one outcome per run of the plan, in the order of its indices
KIND_SCHEMAS = {
    "key": {"key": serde.KEY_SCHEMA, "variant": str},
    "image": {"y": [str]},
    "meas": {"b": str},
    "merge": ({}, {"s1": int, "s2": int}),
    "test_plan": {"indices": [int], "measurements": [int]},
    "test_results": {"outcomes": [int]},
}

# field names that no schema may name (a tier-1 test walks KIND_SCHEMAS): accept
# bits, output indices, plants and trapdoors
PRIVATE_FIELDS = frozenset(
    "a accept accepted abort B B1 B2 B1p B2p L d0 trapdoor z0 gadget family".split()
)


class WireError(Exception):
    pass


class PeerClosed(WireError):
    """The peer closed the connection between frames."""


@dataclass(frozen=True)
class WireMessage:
    kind: str
    run_id: int
    payload: dict
    version: int = WIRE_VERSION

    def __post_init__(self):
        validate_message(self)

    def to_obj(self) -> dict:
        return {
            "version": self.version,
            "kind": self.kind,
            "run_id": self.run_id,
            "payload": self.payload,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "WireMessage":
        try:
            return cls(obj["kind"], obj["run_id"], obj["payload"], obj["version"])
        except (KeyError, TypeError) as exc:
            raise WireError(f"malformed message: {exc}") from exc


def validate_message(msg: WireMessage):
    """Exact types (no bool for an int, nothing coerced), a known kind and
    version, and a payload of exactly its kind's schema."""
    if type(msg.version) is not int or msg.version != WIRE_VERSION:
        raise WireError(f"unsupported version {msg.version!r}")
    if not isinstance(msg.kind, str) or msg.kind not in KIND_SCHEMAS:
        raise WireError(f"unknown kind {msg.kind!r}")
    if type(msg.run_id) is not int:
        raise WireError(f"run id {msg.run_id!r} is not an integer")
    try:
        serde.check_shape(msg.payload, KIND_SCHEMAS[msg.kind], "payload")
    except ValueError as exc:
        raise WireError(str(exc)) from None


# ---------------------------------------------------------------------------
# framing


def write_frame(sock: socket.socket, msg: WireMessage):
    blob = json.dumps(msg.to_obj(), sort_keys=True).encode("utf-8")
    if len(blob) > MAX_FRAME:
        raise WireError("frame too large")
    sock.sendall(struct.pack(">I", len(blob)) + blob)


def _read_exact(sock: socket.socket, size: int) -> bytes:
    buf = b""
    while len(buf) < size:
        chunk = sock.recv(size - len(buf))
        if not chunk:
            raise WireError("connection closed mid-frame")
        buf += chunk
    return buf


def read_frame(sock: socket.socket) -> WireMessage:
    start = sock.recv(4)
    if not start:
        raise PeerClosed("connection closed")
    header = start + _read_exact(sock, 4 - len(start))
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME:
        raise WireError("oversized frame rejected")
    blob = _read_exact(sock, length)
    try:
        obj = json.loads(blob.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
        raise WireError("undecodable frame") from exc
    return WireMessage.from_obj(obj)


# ---------------------------------------------------------------------------
# server session (shared by local and socket transports)


# At most this many runs are remembered per session; the oldest is forgotten first.
MAX_HELD_RUNS = 1024


@dataclass
class ServerSession:
    """Honest server state machine; one instance per logical session."""

    master_seed: int
    backend: str = "two_branch"
    # run id -> {stage: held state, or None once taken}, oldest run first
    _held_runs: dict = field(default_factory=dict, init=False, repr=False)

    def handle(self, msg: WireMessage) -> list[WireMessage]:
        if msg.kind == "key":
            try:
                variant = p4.check_variant(msg.payload["variant"])
                self._check_new(msg.run_id, variant)  # before the simulation
                pk = serde.key_from_obj(msg.payload["key"])
                lwe.check_register(pk.params)  # the simulation envelope
                key_msg = p4.KeyMessage(pk=pk, variant=variant)
                seed = run_seed(self.master_seed, msg.run_id, variant)
                reply = p4.server_honest(key_msg, self.backend, seed)
            except ValueError as exc:
                raise WireError(f"key cannot be served: {exc}") from exc
            self._put(msg.run_id, variant, reply.held)
            return [
                WireMessage("image", msg.run_id, {"y": serde.int_strings(reply.y)}),
                WireMessage("meas", msg.run_id, {"b": lwe.bits_text(reply.b)}),
            ]
        if msg.kind == "merge":
            if msg.payload:
                raise WireError("a merge request carries no fields")
            in1, in2 = self._take((msg.run_id, p4.PLAIN), (msg.run_id, p4.ROTATED))
            rng = seeds.rng(run_seed(self.master_seed, msg.run_id, "merge"))
            res = p8.merge_gadget(in1, in2, rng)
            self._put(msg.run_id, "merged", res.out)
            return [WireMessage("merge", msg.run_id, {"s1": res.s1, "s2": res.s2})]
        if msg.kind == "test_plan":
            plan = _test_plan(msg.payload)
            held = self._take(*((run_id, "merged") for run_id in plan))
            outcomes = []
            for (run_id, m_idx), state in zip(plan.items(), held):
                p_plus = fidelity(QubitDescription.eight(m_idx), state)
                rng = seeds.rng(run_seed(self.master_seed, run_id, "test"))
                outcomes.append(int(rng.random() < p_plus))
            return [WireMessage("test_results", msg.run_id, {"outcomes": outcomes})]
        raise WireError(f"server cannot handle kind {msg.kind!r}")

    def _put(self, run_id: int, stage: str, state: QubitDescription):
        """Hold a run's state of `stage`; WireError if the run had that stage
        already.  A new run past MAX_HELD_RUNS forgets the oldest run."""
        self._check_new(run_id, stage)
        stages = self._held_runs.setdefault(run_id, {})
        if len(self._held_runs) > MAX_HELD_RUNS:
            del self._held_runs[next(iter(self._held_runs))]
        stages[stage] = state

    def _check_new(self, run_id: int, stage: str):
        """WireError if the run had its `stage` state already."""
        if stage in self._held_runs.get(run_id, ()):
            raise WireError(f"run {run_id} already had its {stage} state")

    def _take(self, *keys: tuple[int, str]) -> list[QubitDescription]:
        """The held states of the (run id, stage) keys, each marked taken;
        WireError, with nothing taken, unless every one is held."""
        for run_id, stage in keys:
            stages = self._held_runs.get(run_id, {})
            if stages.get(stage) is None:
                why = "was already taken" if stage in stages else "is not held"
                raise WireError(f"run {run_id}'s {stage} state {why}")
        held = [self._held_runs[run_id][stage] for run_id, stage in keys]
        for run_id, stage in keys:
            self._held_runs[run_id][stage] = None
        return held


def _test_plan(payload: dict) -> dict[int, int]:
    """A test plan's map from run id to measurement index in [0, 8), in the
    order of its indices."""
    indices, measurements = payload["indices"], payload["measurements"]
    plan = dict(zip(indices, measurements))
    if len(indices) != len(measurements):
        raise WireError("test plan lists differ in length")
    if not all(0 <= m_idx < 8 for m_idx in measurements):
        raise WireError(f"test plan measurements {measurements} are not all indices < 8")
    if len(plan) != len(indices):
        raise WireError("test plan names a run more than once")
    return plan


# ---------------------------------------------------------------------------
# channels


class LocalChannel:
    """In-process transport: the session handler invoked directly.  The
    channel keeps no states: `collect` reads the session's own record of the
    states it holds."""

    def __init__(self, session: ServerSession):
        self.session = session
        self._queue: list[WireMessage] = []

    def collect(self, run_id: int, stage: str) -> QubitDescription | None:
        """The simulated state of the run's stage while the session holds it;
        None once it is taken or forgotten."""
        return self.session._held_runs.get(run_id, {}).get(stage)

    def send(self, msg: WireMessage):
        self._queue.extend(self.session.handle(msg))

    def recv(self) -> WireMessage:
        if not self._queue:
            raise WireError("no pending reply")
        return self._queue.pop(0)

    def close(self):
        pass


class SocketChannel:
    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port), timeout=CONNECT_TIMEOUT)

    def send(self, msg: WireMessage):
        write_frame(self.sock, msg)

    def recv(self) -> WireMessage:
        return read_frame(self.sock)

    def collect(self, run_id: int, stage: str) -> None:
        return None  # a remote server's states stay with it

    def close(self):
        self.sock.close()


# ---------------------------------------------------------------------------
# client engines (transport-independent)


def run4_over_channel(
    chan, params: ParamSet, master_seed: int, run_id: int, variant: str = p4.PLAIN
) -> p4.Protocol4Result:
    def exchange(key_msg: p4.KeyMessage) -> p4.StrategyReply:
        """The server's image y and record b, accepted only in canonical form,
        with the held state if the channel hands one over."""
        payload = {"key": serde.key_to_obj(key_msg.pk), "variant": key_msg.variant}
        chan.send(WireMessage("key", run_id, payload))
        image, meas = chan.recv(), chan.recv()
        if image.kind != "image" or meas.kind != "meas":
            raise WireError("unexpected reply sequence")
        try:
            y = serde.zq_entries(image.payload.get("y"), params.m, params.q)
            b = serde.record_bits(meas.payload.get("b"), params.total_bits)
        except ValueError as exc:
            raise WireError(f"server reply: {exc}") from exc
        return p4.StrategyReply(y=tuple(y), b=b, held=chan.collect(run_id, variant))

    return p4.run_client(params, master_seed, run_id, variant, exchange)


def run8_over_channel(chan, params: ParamSet, master_seed: int, run_id: int):
    """Two 4-states runs (plain + rotated) followed by the merge gadget.

    The client classifies the run by `protocol8.eight_index`; the
    classification never leaves the client.  The held states are the
    simulated ones over a local channel and None over TCP.
    """
    r1 = run4_over_channel(chan, params, master_seed, run_id, p4.PLAIN)
    r2 = run4_over_channel(chan, params, master_seed, run_id, p4.ROTATED)
    chan.send(WireMessage("merge", run_id, {}))
    merged = chan.recv()
    if merged.kind != "merge":
        raise WireError("expected merge outcomes")
    try:
        s1, s2 = (serde.bit(merged.payload.get(k), "merge outcome " + k) for k in ("s1", "s2"))
    except ValueError as exc:
        raise WireError(str(exc)) from exc
    index = p8.eight_index(r1.out, r2.out, s1, s2)
    held = chan.collect(run_id, "merged")
    return p8.Protocol8Result(index=index, run1=r1, run2=r2, s1=s1, s2=s2, held=held)


def local_session(master_seed: int, backend: str = "two_branch") -> LocalChannel:
    return LocalChannel(ServerSession(master_seed=master_seed, backend=backend))


# ---------------------------------------------------------------------------
# TCP server


class _Handler(socketserver.BaseRequestHandler):
    def handle(self):
        host, port = self.client_address[:2]
        try:
            why = self._serve()
        finally:
            self.server._slots.release()  # taken by verify_request
        log.info("session ended: peer %s:%s, %s", host, port, why)

    def _serve(self) -> str:
        """Answer requests until the session ends; returns why it ended."""
        session = ServerSession(
            master_seed=self.server.master_seed, backend=self.server.backend
        )
        self.request.settimeout(SESSION_TIMEOUT)
        try:
            while True:
                try:
                    msg = read_frame(self.request)
                except PeerClosed:
                    return "peer closed"
                except WireError:
                    return "malformed frame"
                try:
                    replies = session.handle(msg)
                except WireError:
                    # a WireMessage is valid by construction, so its kind is a known name
                    return f"rejected {msg.kind} request"
                for reply in replies:
                    write_frame(self.request, reply)
        except socket.timeout:
            return "timeout"
        except ConnectionError as exc:
            return f"connection error ({type(exc).__name__})"


# At most this many TCP sessions are served at once: each holds a thread and up
# to MAX_HELD_RUNS runs.  A connection past the cap is closed at once.
MAX_SESSIONS = 32


class ProtocolServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, master_seed: int, backend: str = "two_branch"):
        super().__init__(address, _Handler)
        self.master_seed = master_seed
        self.backend = backend
        self._slots = threading.BoundedSemaphore(MAX_SESSIONS)

    def verify_request(self, request, client_address) -> bool:
        """Take a session slot, which the handler gives back when its session
        ends, or refuse the connection with one log line."""
        if self._slots.acquire(blocking=False):
            return True
        host, port = client_address[:2]
        log.info("session refused: peer %s:%s, %d sessions open", host, port, MAX_SESSIONS)
        return False

    def process_request(self, request, client_address):
        """Start the session's thread, or give its slot back if it cannot start."""
        try:
            super().process_request(request, client_address)
        except Exception:
            self._slots.release()
            raise

    def handle_error(self, request, client_address):
        """One log line for a session that failed outside its handler's own
        endings (a thread that cannot start), in place of a traceback."""
        host, port = client_address[:2]
        exc = sys.exception()
        log.info("session failed: peer %s:%s, %s: %s", host, port, type(exc).__name__, exc)


def serve(host: str, port: int, master_seed: int, backend: str = "two_branch") -> ProtocolServer:
    """Start the server in a background thread; returns the server object."""
    server = ProtocolServer((host, port), master_seed=master_seed, backend=backend)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server


def parse_port(text: str) -> int:
    """The port rule: a decimal integer in [0, 65535]; ValueError otherwise."""
    if not (text.isascii() and text.isdigit() and int(text) <= 65535):
        raise ValueError(f"port {text!r} is not a decimal integer in [0, 65535]")
    return int(text)


def parse_endpoint(text: str) -> tuple[str, int]:
    """(host, port) of "host:port", the port by `parse_port`; the host
    defaults to 127.0.0.1."""
    host, _, port = text.rpartition(":")
    return host or "127.0.0.1", parse_port(port)
