"""Client/server wire protocol: length-framed JSON messages over TCP.

Framing is a 4-byte big-endian length followed by UTF-8 JSON.  Every message
carries {version, kind, run_id, payload} and is schema-checked on both sides:
no client-private field (accept bits, output indices, plants, trapdoors) may
ever cross the wire.

One client engine and one honest server session serve every transport:
`run_protocol4` / `run_protocol8` are run 0 of a `LocalChannel` session, and
socket runs execute the same handler with the same derived seeds, which makes
loopback transcripts bit-identical to in-process ones.
"""

from __future__ import annotations

import json
import os
import socket
import socketserver
import struct
import threading
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import lwe, protocol4 as p4, protocol8 as p8, serde
from .params import ParamSet
from .seeds import run_seed
from .sim import QubitDescription

WIRE_VERSION = 1
MAX_FRAME = 1 << 20
ENDPOINT_ENV = "QFACTORY_ENDPOINT"

KIND_SCHEMAS = {
    "key": {"key", "variant", "hardcore_tag"},
    "image": {"y"},
    "meas": {"b"},
    "merge": {"s1", "s2"},
    "test_plan": {"indices", "measurements"},
    "test_results": {"results"},
}

# field names that must never appear anywhere in a wire message
PRIVATE_FIELDS = {
    "a",
    "accept",
    "accepted",
    "abort",
    "B",
    "B1",
    "B2",
    "B1p",
    "B2p",
    "L",
    "d0",
    "trapdoor",
    "z0",
    "gadget",
    "family",
}


class WireError(Exception):
    pass


@dataclass(frozen=True)
class WireMessage:
    kind: str
    run_id: int
    payload: dict
    version: int = WIRE_VERSION

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
            msg = cls(
                kind=obj["kind"],
                run_id=int(obj["run_id"]),
                payload=obj["payload"],
                version=int(obj["version"]),
            )
        except (KeyError, TypeError) as exc:
            raise WireError(f"malformed message: {exc}") from exc
        validate_message(msg)
        return msg


def _scan_private(node: Any, path: str):
    if isinstance(node, dict):
        for key, val in node.items():
            if key in PRIVATE_FIELDS:
                raise WireError(f"private field {key!r} at {path}")
            _scan_private(val, f"{path}.{key}")
    elif isinstance(node, (list, tuple)):
        for i, val in enumerate(node):
            _scan_private(val, f"{path}[{i}]")


def validate_message(msg: WireMessage):
    if msg.version != WIRE_VERSION:
        raise WireError(f"unsupported version {msg.version}")
    if msg.kind not in KIND_SCHEMAS:
        raise WireError(f"unknown kind {msg.kind!r}")
    extra = set(msg.payload) - KIND_SCHEMAS[msg.kind]
    if extra:
        raise WireError(f"unexpected payload fields {sorted(extra)}")
    _scan_private(msg.payload, msg.kind)


# ---------------------------------------------------------------------------
# framing


def write_frame(sock: socket.socket, msg: WireMessage):
    validate_message(msg)
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
    header = _read_exact(sock, 4)
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME:
        raise WireError("oversized frame rejected")
    blob = _read_exact(sock, length)
    try:
        obj = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError("undecodable frame") from exc
    return WireMessage.from_obj(obj)


# ---------------------------------------------------------------------------
# server session (shared by local and socket transports)


# States of at most this many runs are held per session; the oldest run goes first.
MAX_HELD_RUNS = 1024


@dataclass
class ServerSession:
    """Honest server state machine; one instance per logical session."""

    master_seed: int
    backend: str = "two_branch"
    held: dict = field(default_factory=dict)  # (run_id, variant) -> QubitDescription
    _runs: dict = field(default_factory=dict, init=False, repr=False)  # held run ids, oldest first

    def handle(self, msg: WireMessage) -> list[WireMessage]:
        validate_message(msg)
        if msg.kind == "key":
            variant = msg.payload.get("variant")
            if variant not in (p4.PLAIN, p4.ROTATED):
                raise WireError(f"unknown variant {variant!r}")
            key_msg = p4.KeyMessage(pk=_decode_key(msg.payload.get("key")), variant=variant)
            seed = run_seed(self.master_seed, msg.run_id, variant)
            reply = p4.server_honest(key_msg, self.backend, seed)
            self._hold(msg.run_id, variant, reply.held)
            return [
                WireMessage("image", msg.run_id, {"y": [str(int(v)) for v in reply.y]}),
                WireMessage("meas", msg.run_id, {"b": "".join(str(v) for v in reply.b)}),
            ]
        if msg.kind == "merge":
            in1 = self.held.get((msg.run_id, p4.PLAIN))
            in2 = self.held.get((msg.run_id, p4.ROTATED))
            if in1 is None or in2 is None:
                raise WireError("merge requested before both runs completed")
            rng = np.random.default_rng(run_seed(self.master_seed, msg.run_id, "merge"))
            res = p8.merge_gadget(in1, in2, rng)
            self._hold(msg.run_id, "merged", res.out)
            return [WireMessage("merge", msg.run_id, {"s1": res.s1, "s2": res.s2})]
        if msg.kind == "test_plan":
            # a measurement consumes the merged state; a rejected plan consumes nothing
            plan = _test_plan(msg.payload)
            for run_id, _ in plan:
                if (run_id, "merged") not in self.held:
                    raise WireError(f"no merged state for run {run_id}")
            results = {}
            for run_id, m_idx in plan:
                held = self.held.pop((run_id, "merged"))
                p_plus = float(abs(np.vdot(QubitDescription.eight(m_idx).vec, held.vec)) ** 2)
                rng = np.random.default_rng(run_seed(self.master_seed, run_id, "test"))
                results[str(run_id)] = int(rng.random() < p_plus)
            return [WireMessage("test_results", msg.run_id, {"results": results})]
        raise WireError(f"server cannot handle kind {msg.kind!r}")

    def _hold(self, run_id: int, tag: str, state: QubitDescription):
        """Keep a run's state; past MAX_HELD_RUNS runs, drop the oldest run's."""
        self._runs.setdefault(run_id)
        if len(self._runs) > MAX_HELD_RUNS:
            oldest = next(iter(self._runs))
            del self._runs[oldest]
            for old_tag in (p4.PLAIN, p4.ROTATED, "merged"):
                self.held.pop((oldest, old_tag), None)
        self.held[(run_id, tag)] = state


def _decode_key(obj) -> lwe.PublicKey:
    """A key message's public key, inside the server's simulation envelope."""
    if not isinstance(obj, dict):
        raise WireError("key message needs a key object")
    try:
        pk = serde.key_from_obj(obj)
        lwe.check_register(pk.params)
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"unusable key: {exc!r}") from exc
    return pk


def _test_plan(payload: dict) -> list[tuple[int, int]]:
    """(run id, measurement index in [0, 8)) pairs of a test plan, one per run."""
    indices, measurements = payload.get("indices"), payload.get("measurements")
    if not (isinstance(indices, list) and isinstance(measurements, list)):
        raise WireError("test plan needs the lists indices and measurements")
    if len(indices) != len(measurements):
        raise WireError("test plan lists differ in length")
    pairs = []
    for key, m_idx in zip(indices, measurements):
        if isinstance(key, str) and key.isascii() and key.isdigit():
            key = int(key)
        if type(key) is not int or type(m_idx) is not int or not 0 <= m_idx < 8:
            raise WireError(f"test plan entry ({key!r}, {m_idx!r}) is not (run id, index < 8)")
        pairs.append((key, m_idx))
    if len({key for key, _ in pairs}) != len(pairs):
        raise WireError("test plan names a run more than once")
    return pairs


# ---------------------------------------------------------------------------
# channels


class LocalChannel:
    """In-process transport: the session handler invoked directly."""

    def __init__(self, session: ServerSession):
        self.session = session
        self._queue: list[WireMessage] = []

    def send(self, msg: WireMessage):
        self._queue.extend(self.session.handle(msg))

    def recv(self) -> WireMessage:
        if not self._queue:
            raise WireError("no pending reply")
        return self._queue.pop(0)

    def close(self):
        pass


class SocketChannel:
    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)

    def send(self, msg: WireMessage):
        write_frame(self.sock, msg)

    def recv(self) -> WireMessage:
        return read_frame(self.sock)

    def close(self):
        self.sock.close()


# ---------------------------------------------------------------------------
# client engines (transport-independent)


def _decode_reply(params: ParamSet, image: WireMessage, meas: WireMessage) -> p4.StrategyReply:
    """The server's image y and record b, accepted only in canonical form."""
    if image.kind != "image" or meas.kind != "meas":
        raise WireError("unexpected reply sequence")
    try:
        y = serde.zq_entries(image.payload.get("y"), params.m, params.q)
    except ValueError as exc:
        raise WireError(f"image: {exc}") from exc
    b = meas.payload.get("b")
    if not isinstance(b, str) or len(b) != params.total_bits or not set(b) <= {"0", "1"}:
        raise WireError(f"record must be exactly {params.total_bits} characters from {{0, 1}}")
    return p4.StrategyReply(y=tuple(y), b=tuple(int(ch) for ch in b), held=None)


def run4_over_channel(
    chan, params: ParamSet, master_seed: int, run_id: int, variant: str = p4.PLAIN
) -> p4.Protocol4Result:
    def exchange(key_msg: p4.KeyMessage) -> p4.StrategyReply:
        chan.send(
            WireMessage(
                "key",
                run_id,
                {
                    "key": serde.key_to_obj(key_msg.pk),
                    "variant": key_msg.variant,
                    "hardcore_tag": key_msg.hardcore_tag,
                },
            )
        )
        image = chan.recv()
        meas = chan.recv()
        return _decode_reply(params, image, meas)

    return p4.run_client(params, master_seed, run_id, variant, exchange)


def run8_over_channel(chan, params: ParamSet, master_seed: int, run_id: int):
    """Two 4-states runs (plain + rotated) followed by the merge gadget.

    A run is usable when the rotated input landed in an equatorial pair;
    otherwise the merged state cannot be an eighth-turn state and the client
    records the run as unusable (the classification never leaves the client).
    """
    r1 = run4_over_channel(chan, params, master_seed, run_id, p4.PLAIN)
    r2 = run4_over_channel(chan, params, master_seed, run_id, p4.ROTATED)
    chan.send(WireMessage("merge", run_id, {}))
    merged = chan.recv()
    if merged.kind != "merge":
        raise WireError("expected merge outcomes")
    s1, s2 = merged.payload.get("s1"), merged.payload.get("s2")
    if any(type(v) is not int or v not in (0, 1) for v in (s1, s2)):
        raise WireError("merge outcomes must be the integers 0 or 1")
    usable = r2.out.family in (p4.PAULI_X, p4.PAULI_Y) and r1.out.accepted != p4.NO_PREIMAGE
    index = None
    if usable:
        index = p8.compute_L(r1.out.B1, r1.out.B2, r2.out.B1, r2.out.B2, s1, s2)
    return p8.Protocol8Result(
        index=index, usable=usable, run1=r1, run2=r2, s1=s1, s2=s2, held=None
    )


def local_session(master_seed: int, backend: str = "two_branch") -> LocalChannel:
    return LocalChannel(ServerSession(master_seed=master_seed, backend=backend))


# ---------------------------------------------------------------------------
# TCP server


class _Handler(socketserver.BaseRequestHandler):
    def handle(self):
        session = ServerSession(
            master_seed=self.server.master_seed, backend=self.server.backend
        )
        self.request.settimeout(self.server.timeout)
        try:
            while True:
                try:
                    msg = read_frame(self.request)
                except WireError:
                    return
                try:
                    replies = session.handle(msg)
                except WireError:
                    return
                for reply in replies:
                    write_frame(self.request, reply)
        except (ConnectionError, socket.timeout):
            return


class ProtocolServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, master_seed: int, backend: str = "two_branch", timeout: float = 30.0):
        super().__init__(address, _Handler)
        self.master_seed = master_seed
        self.backend = backend
        self.timeout = timeout


def serve(host: str, port: int, master_seed: int, backend: str = "two_branch") -> ProtocolServer:
    """Start the server in a background thread; returns the server object."""
    server = ProtocolServer((host, port), master_seed=master_seed, backend=backend)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server


def parse_endpoint(text: str) -> tuple[str, int]:
    """(host, port) of "host:port"; the host defaults to 127.0.0.1."""
    host, _, port = text.rpartition(":")
    return host or "127.0.0.1", int(port)


def endpoint_from_env(default: str = "127.0.0.1:7801") -> tuple[str, int]:
    return parse_endpoint(os.environ.get(ENDPOINT_ENV, default))
