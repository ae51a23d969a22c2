"""Wire protocol, transcripts and replay tests."""

import ast
import base64
import json
import logging
import socket
import string
import struct
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule, run_state_machine_as_test

from qfactory import lwe, protocol4 as p4, protocol8 as p8, serde, transcripts, wire
from qfactory.params import TOY_GADGET, TOY_MICRO, ParamSet, paper_params
from qfactory.seeds import derive_seed
from qfactory.sim import QubitDescription, fidelity


def test_message_schema_accepts_known_kinds():
    msg = wire.WireMessage("image", 3, {"y": ["1", "2"]})
    wire.validate_message(msg)


def test_message_schema_rejects_unknown_kind():
    with pytest.raises(wire.WireError):
        wire.validate_message(wire.WireMessage("gossip", 0, {}))


def test_message_schema_rejects_private_fields():
    for payload in ({"y": ["1"], "B1": 0}, {"y": {"nested": {"d0": 1}}}, {"y": [{"trapdoor": {}}]}):
        with pytest.raises(wire.WireError):
            wire.validate_message(wire.WireMessage("image", 0, payload))


def test_message_schema_rejects_extra_fields():
    with pytest.raises(wire.WireError):
        wire.validate_message(wire.WireMessage("meas", 0, {"b": "01", "note": "x"}))


def test_key_payload_rejects_a_hardcore_tag():
    """The hardcore predicate is fixed by the encoding, so no key names one."""
    payload = {**_key_payload(), "hardcore_tag": "last-domain-component"}
    with pytest.raises(wire.WireError, match="hardcore_tag"):
        wire.ServerSession(master_seed=1).handle(wire.WireMessage("key", 0, payload))


def _schema_field_names(schema) -> set:
    """Every field name a `serde.check_shape` schema names, at any depth."""
    if isinstance(schema, dict):
        return set(schema).union(*map(_schema_field_names, schema.values()))
    if isinstance(schema, (list, tuple)):
        return set().union(*map(_schema_field_names, schema))
    return set()


def test_no_kind_schema_names_a_private_field():
    names = _schema_field_names(wire.KIND_SCHEMAS)
    assert {"key", "k", "params", "y", "b", "s1", "outcomes"} <= names
    assert names & wire.PRIVATE_FIELDS == set()


def _is_plain_schema(schema) -> bool:
    """Whether a schema is built only from types, dicts, one-type lists and tuples."""
    if isinstance(schema, type):
        return True
    if isinstance(schema, dict):
        return all(map(_is_plain_schema, schema.values()))
    if isinstance(schema, list):
        return len(schema) == 1 and isinstance(schema[0], type)
    return isinstance(schema, tuple) and all(map(_is_plain_schema, schema))


def test_every_schema_is_built_from_types_dicts_lists_and_tuples():
    schemas = {f"wire.KIND_SCHEMAS[{kind!r}]": v for kind, v in wire.KIND_SCHEMAS.items()}
    schemas |= {f"serde.{name}": v for name, v in vars(serde).items() if name.endswith("_SCHEMA")}
    schemas["transcripts._ENVELOPE"] = transcripts._ENVELOPE
    assert len(schemas) == len(wire.KIND_SCHEMAS) + 5
    assert [name for name, schema in schemas.items() if not _is_plain_schema(schema)] == []


def test_the_key_kind_carries_serdes_key_schema_itself():
    assert wire.KIND_SCHEMAS["key"]["key"] is serde.KEY_SCHEMA


class _CheckedChannel(wire.LocalChannel):
    """A local session that validates every message it carries, both ways,
    and records their kinds."""

    def __init__(self, master, backend):
        super().__init__(wire.ServerSession(master_seed=master, backend=backend))
        self.kinds = []

    def send(self, msg):
        wire.validate_message(msg)
        self.kinds.append(msg.kind)
        super().send(msg)

    def recv(self):
        msg = super().recv()
        wire.validate_message(msg)
        self.kinds.append(msg.kind)
        return msg


@pytest.mark.parametrize("backend", ["two_branch", "statevector"])
def test_every_message_of_a_run_validates(backend):
    chan = _CheckedChannel(5, backend)
    wire.run8_over_channel(chan, TOY_MICRO, 5, -1)
    wire.run4_over_channel(chan, TOY_MICRO, 5, 1, p4.ROTATED)
    chan.send(wire.WireMessage("test_plan", 0, {"indices": [-1], "measurements": [3]}))
    chan.recv()
    assert chan.kinds == [
        *(["key", "image", "meas"] * 2),
        "merge",
        "merge",
        *["key", "image", "meas"],
        "test_plan",
        "test_results",
    ]


@pytest.mark.parametrize(
    "kind, payload",
    [
        ("merge", {"s1": True, "s2": 0}),
        ("image", {"y": [1]}),
        ("meas", {"b": 101}),
        ("test_plan", {"indices": [False], "measurements": [3]}),
        ("test_results", {"outcomes": [True]}),
    ],
    ids=["bool-for-int", "int-for-str", "int-record", "bool-run-id", "bool-result"],
)
def test_a_leaf_of_the_wrong_type_is_a_wire_error(kind, payload):
    with pytest.raises(wire.WireError, match="must be of type|must be a list of"):
        wire.validate_message(wire.WireMessage(kind, 0, payload))


def test_version_mismatch_rejected():
    with pytest.raises(wire.WireError):
        wire.WireMessage.from_obj(
            {"version": 99, "kind": "image", "run_id": 0, "payload": {"y": []}}
        )


_FRAME = {"version": 1, "kind": "image", "run_id": 0, "payload": {"y": []}}


@pytest.mark.parametrize(
    "field, value",
    [
        ("run_id", 1.9),
        ("run_id", "7"),
        ("run_id", True),
        ("version", 1.5),
        ("version", 1.0),
        ("version", True),
        ("kind", ["image"]),
        ("payload", [["y", []]]),
    ],
    ids=[
        "run-id-float",
        "run-id-str",
        "run-id-bool",
        "version-1.5",
        "version-1.0",
        "version-bool",
        "kind-list",
        "payload-list",
    ],
)
def test_message_fields_are_not_coerced(field, value):
    with pytest.raises(wire.WireError):
        wire.WireMessage.from_obj({**_FRAME, field: value})


def test_negative_run_id_is_accepted():
    assert wire.WireMessage.from_obj({**_FRAME, "run_id": -1}).run_id == -1


@pytest.mark.parametrize("kind", ["key", "merge", "test_plan"])
def test_server_session_rejects_non_object_payload(kind):
    session = wire.ServerSession(master_seed=1)
    with pytest.raises(wire.WireError, match="payload"):
        session.handle(wire.WireMessage(kind, 0, [["indices", [0]]]))


def test_frame_roundtrip_over_socketpair():
    a, b = socket.socketpair()
    msg = wire.WireMessage("meas", 7, {"b": "0101"})
    wire.write_frame(a, msg)
    got = wire.read_frame(b)
    assert got == msg
    a.close()
    b.close()


def test_oversized_frame_rejected():
    a, b = socket.socketpair()
    blob = b"x" * 10
    a.sendall(struct.pack(">I", wire.MAX_FRAME + 1) + blob)
    with pytest.raises(wire.WireError):
        wire.read_frame(b)
    a.close()
    b.close()


# ---------------------------------------------------------------------------
# loopback equivalence


def _local_run(params, master, run_id, variant=p4.PLAIN):
    chan = wire.local_session(master)
    return wire.run4_over_channel(chan, params, master, run_id, variant)


def test_loopback_matches_in_process_bit_for_bit():
    params = TOY_MICRO
    master = 777
    server = wire.serve("127.0.0.1", 0, master_seed=master)
    host, port = server.server_address
    try:
        chan = wire.SocketChannel(host, port)
        for run_id in range(6):
            remote = wire.run4_over_channel(chan, params, master, run_id)
            local = _local_run(params, master, run_id)
            assert remote.transcript == local.transcript
            assert remote.out == local.out
        chan.close()
    finally:
        server.shutdown()
        server.server_close()


def test_loopback_protocol8():
    params = TOY_MICRO
    master = 778
    server = wire.serve("127.0.0.1", 0, master_seed=master)
    host, port = server.server_address
    try:
        chan = wire.SocketChannel(host, port)
        remote = wire.run8_over_channel(chan, params, master, 0)
        chan.close()
        local_chan = wire.local_session(master)
        local = wire.run8_over_channel(local_chan, params, master, 0)
        assert (remote.s1, remote.s2) == (local.s1, local.s2)
        assert remote.usable == local.usable
        assert (remote.run1.held, remote.run2.held, remote.held) == (None, None, None)
        if remote.usable:
            assert remote.index.L == local.index.L
    finally:
        server.shutdown()
        server.server_close()


def _count_validations(monkeypatch) -> list:
    """The kind of every message validated from now on, on any thread."""
    kinds = []
    validate = wire.validate_message

    def counted(msg):
        kinds.append(msg.kind)
        validate(msg)

    monkeypatch.setattr(wire, "validate_message", counted)
    return kinds


def test_a_run8_attempt_checks_each_message_once_per_process(monkeypatch):
    kinds = _count_validations(monkeypatch)
    wire.run8_over_channel(wire.local_session(4), TOY_MICRO, 4, 0)
    # 3 requests and 5 replies, each checked once where it is built
    assert len(kinds) == 8
    server = wire.serve("127.0.0.1", 0, master_seed=4)
    host, port = server.server_address
    try:
        chan = wire.SocketChannel(host, port)
        kinds.clear()
        wire.run8_over_channel(chan, TOY_MICRO, 4, 0)
        chan.close()
    finally:
        server.shutdown()
        server.server_close()
    # each message once by the side that builds it and once by the side that reads it
    assert len(kinds) == 16


class _PaddedRepliesChannel(wire.LocalChannel):
    """A local session whose replies come back with a private and an unknown field added."""

    def recv(self):
        msg = super().recv()
        return wire.WireMessage(msg.kind, msg.run_id, {**msg.payload, "B1": 0, "note": [1.5]})


def test_an_in_process_reply_with_added_fields_is_rejected_as_over_tcp():
    chan = _PaddedRepliesChannel(wire.ServerSession(master_seed=2))
    with pytest.raises(wire.WireError, match="B1|note"):
        wire.run4_over_channel(chan, TOY_MICRO, 2, 0)


_TOO_DEEP = b"[" * 50_000 + b"]" * 50_000


def _wire_records(caplog, count: int, timeout: float = 5.0) -> list:
    """The qfactory.wire log records, once `count` have arrived or at the timeout."""
    deadline = time.monotonic() + timeout
    while True:
        records = [r for r in caplog.records if r.name == "qfactory.wire"]
        if len(records) >= count or time.monotonic() > deadline:
            return records
        time.sleep(0.01)


@pytest.mark.parametrize("ending", ["malformed-frame", "too-deep-frame", "clean-close"])
def test_server_logs_one_line_per_ended_session(caplog, ending):
    caplog.set_level(logging.INFO, logger="qfactory.wire")
    server = wire.serve("127.0.0.1", 0, master_seed=3)
    host, port = server.server_address
    try:
        if ending != "clean-close":
            with socket.create_connection((host, port), timeout=5) as sock:
                peer_port = sock.getsockname()[1]
                # cut-off JSON, or 100 KB of nested brackets, deeper than json.loads recurses
                blob = b'{"y": [61,' if ending == "malformed-frame" else _TOO_DEEP
                sock.sendall(struct.pack(">I", len(blob)) + blob)
                assert sock.recv(1) == b""  # the server ended the session
            want = "malformed frame"
        else:
            chan = wire.SocketChannel(host, port)
            peer_port = chan.sock.getsockname()[1]
            wire.run4_over_channel(chan, TOY_MICRO, 3, 0)
            chan.close()
            want = "peer closed"
        records = _wire_records(caplog, 1)
        time.sleep(0.05)
        records = _wire_records(caplog, 2, timeout=0.0)
    finally:
        server.shutdown()
        server.server_close()
    assert len(records) == 1
    assert records[0].levelno == logging.INFO
    line = records[0].getMessage()
    assert line == f"session ended: peer 127.0.0.1:{peer_port}, {want}"


def test_server_ends_a_silent_session_at_the_session_timeout(caplog, monkeypatch):
    monkeypatch.setattr(wire, "SESSION_TIMEOUT", 0.2)
    caplog.set_level(logging.INFO, logger="qfactory.wire")
    server = wire.serve("127.0.0.1", 0, master_seed=3)
    host, port = server.server_address
    try:
        with socket.create_connection((host, port), timeout=5) as sock:
            peer_port = sock.getsockname()[1]
            assert sock.recv(1) == b""  # the server ended the session
        records = _wire_records(caplog, 1)
    finally:
        server.shutdown()
        server.server_close()
    assert [r.getMessage() for r in records] == [
        f"session ended: peer 127.0.0.1:{peer_port}, timeout"
    ]


def test_server_refuses_a_session_past_the_cap_until_one_ends(caplog, monkeypatch):
    monkeypatch.setattr(wire, "MAX_SESSIONS", 2)
    caplog.set_level(logging.INFO, logger="qfactory.wire")
    server = wire.serve("127.0.0.1", 0, master_seed=3)
    host, port = server.server_address
    chans = []
    try:
        for _ in range(2):
            chans.append(wire.SocketChannel(host, port))
            wire.run4_over_channel(chans[-1], TOY_MICRO, 3, 0)  # served
        with socket.create_connection((host, port), timeout=5) as sock:
            refused_port = sock.getsockname()[1]
            assert sock.recv(1) == b""  # closed at once
        first_port = chans[0].sock.getsockname()[1]
        chans.pop(0).close()
        records = _wire_records(caplog, 2)  # the refusal, then the first session's end
        chans.append(wire.SocketChannel(host, port))
        wire.run4_over_channel(chans[-1], TOY_MICRO, 3, 0)  # served in the freed slot
    finally:
        for chan in chans:
            chan.close()
        server.shutdown()
        server.server_close()
    assert [r.getMessage() for r in records] == [
        f"session refused: peer 127.0.0.1:{refused_port}, 2 sessions open",
        f"session ended: peer 127.0.0.1:{first_port}, peer closed",
    ]


def test_a_session_thread_that_cannot_start_gives_its_slot_back(caplog, capsys, monkeypatch):
    monkeypatch.setattr(wire, "MAX_SESSIONS", 1)
    caplog.set_level(logging.INFO, logger="qfactory.wire")
    server = wire.serve("127.0.0.1", 0, master_seed=3)
    host, port = server.server_address
    start, failed = threading.Thread.start, []

    def start_failing_once(thread):
        if not failed:
            failed.append(thread)
            raise RuntimeError("can't start new thread")
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", start_failing_once)
    try:
        with socket.create_connection((host, port), timeout=5) as sock:
            failed_port = sock.getsockname()[1]
            assert sock.recv(1) == b""  # closed: its session never started
        records = _wire_records(caplog, 1)
        chan = wire.SocketChannel(host, port)
        try:
            wire.run4_over_channel(chan, TOY_MICRO, 3, 0)  # served in the slot given back
        finally:
            chan.close()
    finally:
        server.shutdown()
        server.server_close()
    assert len(failed) == 1
    assert [r.getMessage() for r in records] == [
        f"session failed: peer 127.0.0.1:{failed_port}, RuntimeError: can't start new thread"
    ]
    assert "Traceback" not in capsys.readouterr().err


def test_server_session_never_emits_private_fields():
    params = TOY_MICRO
    session = wire.ServerSession(master_seed=1)
    client, key_msg = p4.client_init(params, p4.PLAIN, seed=derive_seed(1, "c"))
    replies = session.handle(
        wire.WireMessage(
            "key",
            0,
            {"key": serde.key_to_obj(client.pk), "variant": p4.PLAIN},
        )
    )
    for reply in replies:
        wire.validate_message(reply)  # includes the private-field scan


def test_server_session_rejects_unknown_variant():
    session = wire.ServerSession(master_seed=1)
    client, _ = p4.client_init(TOY_MICRO, p4.PLAIN, seed=derive_seed(1, "c"))
    key = {"key": serde.key_to_obj(client.pk), "variant": "diagonal"}
    with pytest.raises(wire.WireError):
        session.handle(wire.WireMessage("key", 0, key))
    _assert_keyable(session, 0, p4.PLAIN)
    _assert_keyable(session, 0, p4.ROTATED)


def _key_payload(params=TOY_MICRO, seed=1):
    client, _ = p4.client_init(params, p4.PLAIN, seed=derive_seed(seed, "c"))
    return {"key": serde.key_to_obj(client.pk), "variant": p4.PLAIN}


def _key_with(*path, value):
    """A TOY_MICRO key payload with `value` set at `path` of its key object."""
    payload = _key_payload()
    obj = payload["key"]
    for name in path[:-1]:
        obj = obj[name]
    obj[path[-1]] = value
    return payload


@pytest.mark.parametrize(
    "payload",
    [
        _key_with("trapdoor", value={}),
        _key_with("k", "d0", value=1),
        _key_with("k", "params", "z0", value="0"),
        _key_with("k", "K", value=[{"gadget": {}}]),
        _key_with("k", "params", "n", value={"accept": 1}),
        {**_key_payload(), "variant": {"d0": 1}},
        {"key": [{"trapdoor": {}}], "variant": "plain"},
    ],
    ids=["top", "k", "params", "in-a-leaf-list", "in-a-leaf-object", "variant", "key-list"],
)
def test_key_payload_rejects_private_fields_at_any_depth(payload):
    with pytest.raises(wire.WireError):
        wire.validate_message(wire.WireMessage("key", 0, payload))


def _assert_keyable(session, run_id=0, variant=p4.PLAIN):
    """The run has no state of `variant` yet: a valid key for it is served.
    After a rejected key this shows that the key stored nothing."""
    payload = {**_key_payload(), "variant": variant}
    replies = session.handle(wire.WireMessage("key", run_id, payload))
    assert [reply.kind for reply in replies] == ["image", "meas"]


def _assert_measurable(session, run_id=0):
    """The run's merged state is held: a valid test plan for it is answered
    (and takes the state)."""
    plan = {"indices": [run_id], "measurements": [3]}
    (reply,) = session.handle(wire.WireMessage("test_plan", 0, plan))
    assert len(reply.payload["outcomes"]) == 1


def _states_in(obj) -> list:
    """The qubit states an object keeps in its own fields, looking through
    dicts, lists and tuples but not into other objects."""
    found, todo = [], list(vars(obj).values())
    while todo:
        node = todo.pop()
        if isinstance(node, QubitDescription):
            found.append(node)
        elif isinstance(node, dict):
            todo.extend(node.values())
        elif isinstance(node, (list, tuple)):
            todo.extend(node)
    return found


def _without(obj, field):
    return {k: v for k, v in obj.items() if k != field}


def _b64_text(raw):
    return base64.b64encode(raw).decode("ascii")


def _b64_raw(text):
    return base64.b64decode(text, validate=True)


def _int64s(text):
    """The entries of a format-2 int64 array text, as a writable flat array."""
    return np.frombuffer(_b64_raw(text), "<i8").copy()


def _int64_text(values):
    return _b64_text(np.asarray(values, "<i8").tobytes())


def _with_entry(text, index, value):
    """A format-2 int64 array text with flat entry `index` set to `value`."""
    entries = _int64s(text)
    entries[index] = value
    return _int64_text(entries)


def _key_entry(value):
    payload = _key_payload()
    payload["key"]["k"]["K"] = _with_entry(payload["key"]["k"]["K"], 0, value)
    return payload


def _key_modulus(q):
    payload = _key_payload()
    payload["key"]["k"]["params"]["q"] = str(q)
    return payload


@pytest.mark.parametrize(
    "payload",
    [
        _without(_key_payload(), "key"),
        {**_key_payload(), "key": _without(_key_payload()["key"], "k")},
        _key_payload(paper_params(4)),
        _key_entry(2**63 - 1),
        _key_entry(-1),
        _key_modulus(2**63),
    ],
    ids=[
        "no-key-field",
        "key-without-k",
        "paper-profile-key",
        "entry-2^63-1",
        "entry-minus-1",
        "modulus-2^63",
    ],
)
def test_server_session_rejects_unusable_key(payload):
    session = wire.ServerSession(master_seed=1)
    with pytest.raises(wire.WireError):
        session.handle(wire.WireMessage("key", 0, payload))
    _assert_keyable(session)


_COERCED_PARAMS = [
    ("n", 1.9),
    ("n", True),
    ("mu_prime", 0.5),
    ("m", 2.0),
    ("mu", "1"),
    ("q", 8),
    ("q", "8.0"),
    ("profile", ["toy"]),
]
_COERCED_IDS = ["n-1.9", "n-bool", "mu_prime-0.5", "m-2.0", "mu-str", "q-int", "q-8.0", "profile-list"]


@pytest.mark.parametrize("field, value", _COERCED_PARAMS, ids=_COERCED_IDS)
def test_key_params_are_not_coerced(tmp_path, field, value):
    payload = _key_payload()
    payload["key"]["k"]["params"][field] = value
    session = wire.ServerSession(master_seed=1)
    with pytest.raises(wire.WireError):
        session.handle(wire.WireMessage("key", 0, payload))
    _assert_keyable(session)

    path = tmp_path / "runs.jsonl"
    body = transcripts.run4_record(p4.run_protocol4(TOY_MICRO, 36), 0, 36)
    body["key_msg"]["k"]["params"][field] = value
    with transcripts.TranscriptWriter(path) as w:
        w.append(body)
    with pytest.raises(transcripts.TranscriptError):
        transcripts.replay(path)


def test_a_negative_mu_prime_is_rejected_by_the_reader_and_the_server():
    payload = _key_with("k", "params", "mu_prime", value=-1)
    with pytest.raises(ValueError, match="mu_prime"):
        serde.key_from_obj(payload["key"])
    session = wire.ServerSession(master_seed=1)
    with pytest.raises(wire.WireError, match="key cannot be served"):
        session.handle(wire.WireMessage("key", 0, payload))
    _assert_keyable(session)


def test_key_params_share_one_paramset_per_field_tuple():
    first = serde.key_from_obj(_key_payload()["key"]).params
    assert first == TOY_MICRO
    assert serde.key_from_obj(_key_payload()["key"]).params is first
    key = _key_with("k", "params", "mu_prime", value=1)["key"]  # toy needs mu_prime < mu
    for _ in range(2):  # a failed profile check is not cached
        with pytest.raises(ValueError):
            serde.key_from_obj(key)


def _uniform_micro_key():
    """A TOY_MICRO key with K and y0 uniform (the third draw of seed 0): not injective."""
    rng = np.random.default_rng(0)
    for _ in range(3):
        K = rng.integers(0, TOY_MICRO.q, size=(TOY_MICRO.m, TOY_MICRO.n))
        y0 = rng.integers(0, TOY_MICRO.q, size=TOY_MICRO.m)
    pk = lwe.PublicKey(K=K, y0=y0, params=TOY_MICRO)
    return {"key": serde.key_to_obj(pk), "variant": p4.PLAIN}


@pytest.mark.parametrize(
    "run_id, reason",
    [(3, "differ in the last bit"), (0, "4 register preimages")],
    ids=["two-preimages-equal-c", "four-preimages"],
)
def test_two_branch_session_rejects_image_it_cannot_serve(run_id, reason):
    session = wire.ServerSession(master_seed=0)
    with pytest.raises(wire.WireError, match=reason):
        session.handle(wire.WireMessage("key", run_id, _uniform_micro_key()))
    _assert_keyable(session, run_id)


def test_statevector_session_rejects_register_wider_than_the_simulator():
    # 19 register qubits: inside the 20-qubit envelope, but 20 with the target
    params = ParamSet(n=1, q=256, m=3, mu=4, mu_prime=0, profile="paper")
    session = wire.ServerSession(master_seed=0, backend="statevector")
    with pytest.raises(wire.WireError, match="statevector"):
        session.handle(wire.WireMessage("key", 0, _key_payload(params)))
    _assert_keyable(session)


@pytest.mark.parametrize("measured", [False, True], ids=["held", "measured"])
def test_second_merge_of_a_run_is_rejected(measured):
    chan = wire.local_session(5)
    wire.run8_over_channel(chan, TOY_MICRO, 5, 0)
    plan = {"indices": [0], "measurements": [3]}
    if measured:
        chan.send(wire.WireMessage("test_plan", 0, plan))
        assert len(chan.recv().payload["outcomes"]) == 1
    # the first merge took both inputs
    with pytest.raises(wire.WireError, match="run 0's plain state was already taken"):
        chan.session.handle(wire.WireMessage("merge", 0, {}))
    if measured:
        with pytest.raises(wire.WireError, match="run 0's merged state was already taken"):
            _assert_measurable(chan.session)
    else:
        _assert_measurable(chan.session)


def test_a_merge_request_with_fields_is_rejected_and_takes_nothing():
    chan = wire.local_session(5)
    for variant in (p4.PLAIN, p4.ROTATED):
        wire.run4_over_channel(chan, TOY_MICRO, 5, 0, variant)
    with pytest.raises(wire.WireError, match="no fields"):
        chan.session.handle(wire.WireMessage("merge", 0, {"s1": 1, "s2": 0}))
    (reply,) = chan.session.handle(wire.WireMessage("merge", 0, {}))
    want = wire.run8_over_channel(wire.local_session(5), TOY_MICRO, 5, 0)
    assert reply.payload == {"s1": want.s1, "s2": want.s2}


@pytest.mark.parametrize(
    "plan",
    [{"indices": [0]}, {"indices": ["x"], "measurements": [0]}],
    ids=["missing-measurements", "non-integer-index"],
)
def test_server_session_rejects_malformed_test_plan(plan):
    chan = wire.local_session(5)
    wire.run8_over_channel(chan, TOY_MICRO, 5, 0)
    chan.send(wire.WireMessage("test_plan", 0, {"indices": [0], "measurements": [3]}))
    assert len(chan.recv().payload["outcomes"]) == 1
    with pytest.raises(wire.WireError):
        chan.session.handle(wire.WireMessage("test_plan", 0, plan))


def test_test_plan_consumes_the_merged_state():
    chan = wire.local_session(5)
    wire.run8_over_channel(chan, TOY_MICRO, 5, 0)
    plan = {"indices": [0], "measurements": [3]}
    chan.send(wire.WireMessage("test_plan", 0, plan))
    assert len(chan.recv().payload["outcomes"]) == 1
    with pytest.raises(wire.WireError, match="run 0's merged state was already taken"):
        chan.session.handle(wire.WireMessage("test_plan", 0, plan))


@pytest.mark.parametrize("indices", [[0, 7], [0, 0]], ids=["unknown-run", "run-twice"])
def test_rejected_test_plan_consumes_nothing(indices):
    chan = wire.local_session(5)
    wire.run8_over_channel(chan, TOY_MICRO, 5, 0)
    plan = {"indices": indices, "measurements": [3, 3]}
    with pytest.raises(wire.WireError):
        chan.session.handle(wire.WireMessage("test_plan", 0, plan))
    _assert_measurable(chan.session)


def test_test_outcome_depends_only_on_its_run():
    together, apart = wire.local_session(8), wire.local_session(8)
    for chan in (together, apart):
        for run_id in range(4):
            wire.run8_over_channel(chan, TOY_MICRO, 8, run_id)
    plan = {"indices": [0, 1, 2, 3], "measurements": [1, 2, 5, 6]}
    joint = together.session.handle(wire.WireMessage("test_plan", 0, plan))[0].payload["outcomes"]
    single = []
    for run_id, m_idx in zip(plan["indices"], plan["measurements"]):
        one = {"indices": [run_id], "measurements": [m_idx]}
        (reply,) = apart.session.handle(wire.WireMessage("test_plan", 9, one))
        single += reply.payload["outcomes"]
    assert joint == single


def test_test_results_come_back_in_the_order_of_the_plan():
    """A run measured at its own index gives 1 and at the opposite one 0, so a
    plan for runs [3, 0, 2] answers [1, 0, 1], the single-run outcomes in order."""
    together, apart = wire.local_session(14), wire.local_session(14)
    for chan in (together, apart):
        index = {run_id: wire.run8_over_channel(chan, TOY_MICRO, 14, run_id).index for run_id in range(4)}
    plan = {"indices": [3, 0, 2], "measurements": [index[3].L, (index[0].L + 4) % 8, index[2].L]}
    (reply,) = together.session.handle(wire.WireMessage("test_plan", 0, plan))
    single = []
    for run_id, m_idx in zip(plan["indices"], plan["measurements"]):
        one = {"indices": [run_id], "measurements": [m_idx]}
        single += apart.session.handle(wire.WireMessage("test_plan", 9, one))[0].payload["outcomes"]
    assert reply.payload["outcomes"] == single == [1, 0, 1]


def test_server_session_holds_a_bounded_number_of_runs():
    chan = wire.local_session(3)
    wire.run8_over_channel(chan, TOY_MICRO, 3, 0)
    key = _key_payload()
    extra = wire.MAX_HELD_RUNS + 5
    for run_id in range(1, extra + 1):
        chan.send(wire.WireMessage("key", run_id, key))
        chan.recv(), chan.recv()
    # run 0, merged state and all, was forgotten with the other oldest runs
    with pytest.raises(wire.WireError):
        chan.session.handle(wire.WireMessage("merge", 0, {}))
    with pytest.raises(wire.WireError):
        chan.session.handle(
            wire.WireMessage("test_plan", 0, {"indices": [0], "measurements": [0]})
        )
    oldest_kept = extra - wire.MAX_HELD_RUNS + 1
    for run_id in range(oldest_kept, extra + 1):  # the newest MAX_HELD_RUNS runs are remembered
        with pytest.raises(wire.WireError, match=f"run {run_id} already had its plain state"):
            chan.session.handle(wire.WireMessage("key", run_id, key))
    assert len(_states_in(chan.session)) == wire.MAX_HELD_RUNS
    for run_id in range(oldest_kept):  # a forgotten run may be keyed again
        _assert_keyable(chan.session, run_id)


@pytest.mark.parametrize("variant", [p4.PLAIN, p4.ROTATED])
def test_repeated_key_is_rejected_and_leaves_the_run_as_it_was(variant, monkeypatch):
    chan = wire.local_session(5)
    wire.run8_over_channel(chan, TOY_MICRO, 5, 0)
    calls = []
    honest = p4.server_honest
    monkeypatch.setattr(p4, "server_honest", lambda *args: calls.append(args) or honest(*args))
    with pytest.raises(wire.WireError, match=f"run 0 already had its {variant} state"):
        _assert_keyable(chan.session, 0, variant)
    assert calls == []  # rejected before it was simulated
    _assert_measurable(chan.session)


def test_run8_leaves_the_merged_state_in_the_session_and_none_in_the_channel():
    chan = wire.local_session(5)
    res = wire.run8_over_channel(chan, TOY_MICRO, 5, 0)
    assert _states_in(chan) == []
    (merged,) = _states_in(chan.session)
    assert merged is res.held
    _assert_measurable(chan.session)
    requests = [
        wire.WireMessage("merge", 0, {}),
        wire.WireMessage("test_plan", 0, {"indices": [0], "measurements": [3]}),
        wire.WireMessage("key", 0, _key_payload()),
        wire.WireMessage("key", 0, {**_key_payload(), "variant": p4.ROTATED}),
    ]
    for _ in range(2):  # each rejection changes nothing, so the second round is the same
        for msg in requests:
            with pytest.raises(wire.WireError, match="already"):
                chan.session.handle(msg)
    assert _states_in(chan.session) == [] and _states_in(chan) == []


def _held_fidelities(res) -> list:
    """Each held state against the client's description of it, the merged one when usable."""
    pairs = [(res.run1.held, res.run1.out.qubit()), (res.run2.held, res.run2.out.qubit())]
    if res.usable:
        pairs.append((res.held, res.index.qubit()))
    return [fidelity(held, described) for held, described in pairs]


@pytest.mark.parametrize("seed", range(4))
def test_local_run8_carries_the_held_states_of_run_protocol8(seed):
    local = wire.run8_over_channel(wire.local_session(seed), TOY_MICRO, seed, 0)
    ref = p8.run_protocol8(TOY_MICRO, seed)
    assert _held_fidelities(local) == _held_fidelities(ref)
    assert min(_held_fidelities(ref)) >= 1 - 1e-9
    assert np.array_equal(local.held.vec, ref.held.vec)


def test_only_wire_reads_a_channel_session():
    """Client code gets held states from its channel, never from the session."""
    root = Path(__file__).resolve().parents[1]
    wire_py = root / "src" / "qfactory" / "wire.py"
    found = []
    for path in sorted([*(root / "src").rglob("*.py"), *(root / "perfbench").rglob("*.py")]):
        if path == wire_py:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "session":
                found.append(f"{path.relative_to(root)}:{node.lineno}")
    assert found == []


_RUN_IDS = st.sampled_from([-1, 0, 1, 2, 3])


class _RecordingSession(wire.ServerSession):
    """A session that records the (run id, stage) of every state it puts."""

    def __init__(self, master_seed):
        super().__init__(master_seed)
        self.puts = []

    def _put(self, run_id, stage, state):
        super()._put(run_id, stage, state)
        self.puts.append((run_id, stage))


class _HeldStagesMachine(RuleBasedStateMachine):
    """`key`, `merge` and `test_plan` against a reference model of the held
    stages: run id -> {stage: True while held, False once taken}, oldest
    run first, at most MAX_HELD_RUNS runs."""

    def __init__(self):
        super().__init__()
        self.model, self.want_puts = {}, []
        self.session = _RecordingSession(master_seed=4)
        self.key_payload = _key_payload()

    def _handle(self, msg, accepted: bool):
        """The session's answer agrees with the model; WireError is its only error."""
        try:
            self.session.handle(msg)
        except wire.WireError:
            assert not accepted, msg
        else:
            assert accepted, msg

    def _put(self, run_id, stage):
        self.model.setdefault(run_id, {})[stage] = True
        if len(self.model) > wire.MAX_HELD_RUNS:
            del self.model[next(iter(self.model))]
        self.want_puts.append((run_id, stage))

    @rule(run_id=_RUN_IDS, variant=st.sampled_from([p4.PLAIN, p4.ROTATED]))
    def key(self, run_id, variant):
        fresh = variant not in self.model.get(run_id, {})
        payload = {**self.key_payload, "variant": variant}
        self._handle(wire.WireMessage("key", run_id, payload), fresh)
        if fresh:
            self._put(run_id, variant)

    @rule(run_id=_RUN_IDS)
    def merge(self, run_id):
        stages = self.model.get(run_id, {})
        ready = stages.get(p4.PLAIN, False) and stages.get(p4.ROTATED, False)
        self._handle(wire.WireMessage("merge", run_id, {}), ready)
        if ready:
            stages[p4.PLAIN] = stages[p4.ROTATED] = False
            self._put(run_id, "merged")

    @rule(run_id=_RUN_IDS)
    def run8(self, run_id):
        """A whole run's requests in a row, so that merged states are common."""
        self.key(run_id, p4.PLAIN)
        self.key(run_id, p4.ROTATED)
        self.merge(run_id)

    @rule(data=st.data(), m_idx=st.integers(0, 7))
    def test_plan(self, data, m_idx):
        merged = [run_id for run_id, stages in self.model.items() if stages.get("merged")]
        ids = st.sampled_from(merged) | _RUN_IDS if merged else _RUN_IDS
        run_ids = data.draw(st.lists(ids, max_size=3))
        ready = len(set(run_ids)) == len(run_ids) and all(
            self.model.get(run_id, {}).get("merged", False) for run_id in run_ids
        )
        plan = {"indices": run_ids, "measurements": [m_idx] * len(run_ids)}
        self._handle(wire.WireMessage("test_plan", 0, plan), ready)
        if ready:
            for run_id in run_ids:
                self.model[run_id]["merged"] = False

    @invariant()
    def holds_what_the_model_holds(self):
        assert self.session.puts == self.want_puts  # a rejected request put nothing
        held = sum(sum(stages.values()) for stages in self.model.values())
        assert len(_states_in(self.session)) == held  # a taken or forgotten state is gone


def test_held_stages_follow_the_reference_model(monkeypatch):
    # three remembered runs, so that the five run ids also exercise forgetting
    monkeypatch.setattr(wire, "MAX_HELD_RUNS", 3)
    run_state_machine_as_test(
        _HeldStagesMachine, settings=settings(max_examples=60, stateful_step_count=30)
    )


class _TamperingChannel(wire.LocalChannel):
    """An honest local session whose replies are rewritten on the way back."""

    def __init__(self, master, tamper):
        super().__init__(wire.ServerSession(master_seed=master))
        self.tamper = tamper

    def recv(self):
        msg = super().recv()
        return wire.WireMessage(msg.kind, msg.run_id, self.tamper(msg.kind, dict(msg.payload)))


def _y_above_q(kind, payload):
    if kind == "image":
        payload["y"] = [str(int(payload["y"][0]) + TOY_MICRO.q)] + payload["y"][1:]
    return payload


def _y_non_digit(kind, payload):
    if kind == "image":
        payload["y"] = ["x"] + payload["y"][1:]
    return payload


def _y_leading_zero(kind, payload):
    if kind == "image":
        payload["y"] = ["0" + payload["y"][0]] + payload["y"][1:]
    return payload


def _y_short(kind, payload):
    if kind == "image":
        payload["y"] = payload["y"][1:]
    return payload


def _b_non_binary(kind, payload):
    if kind == "meas":  # 2 and 3 agree with 0 and 1 in the low bit
        payload["b"] = payload["b"][:-1] + str(int(payload["b"][-1]) + 2)
    return payload


def _b_non_digit(kind, payload):
    if kind == "meas":
        payload["b"] = payload["b"][:-1] + "x"
    return payload


def _b_long(kind, payload):
    if kind == "meas":
        payload["b"] += "0"
    return payload


@pytest.mark.parametrize(
    "tamper",
    [_y_above_q, _y_non_digit, _y_leading_zero, _y_short, _b_non_binary, _b_non_digit, _b_long],
)
def test_client_rejects_noncanonical_reply(tamper):
    untouched = _TamperingChannel(41, lambda kind, payload: payload)
    wire.run4_over_channel(untouched, TOY_MICRO, 41, 0)
    with pytest.raises(wire.WireError):
        wire.run4_over_channel(_TamperingChannel(41, tamper), TOY_MICRO, 41, 0)


@pytest.mark.parametrize("s1", [2, -1, True, "1", 1.0, None])
def test_client_rejects_non_binary_merge_outcome(s1):
    def tamper(kind, payload):
        if kind == "merge":
            payload["s1"] = s1
            if s1 is None:
                del payload["s1"]
        return payload

    untouched = _TamperingChannel(1, lambda kind, payload: payload)
    wire.run8_over_channel(untouched, TOY_MICRO, 1, 0)
    with pytest.raises(wire.WireError):
        wire.run8_over_channel(_TamperingChannel(1, tamper), TOY_MICRO, 1, 0)


def test_record_text_is_read_back_by_record_bits():
    bits = (0, 1, 1, 0, 1, 0, 0)
    assert lwe.bits_text(bits) == "0110100"
    assert serde.record_bits("0110100", 7) == bytes(bits)


@pytest.mark.parametrize(
    "text",
    ["2110100", "011x100", "011010 ", "0110\uff1100"],
    ids=["first", "inside", "last", "fullwidth-one"],
)
def test_record_bits_rejects_a_character_outside_0_1(text):
    assert len(text) == 7
    with pytest.raises(ValueError):
        serde.record_bits(text, 7)


# ---------------------------------------------------------------------------
# transcripts and replay


def _write_runs(path, params, n, seed):
    with transcripts.TranscriptWriter(path) as w:
        for run_id in range(n):
            res = p4.run_protocol4(params, derive_seed(seed, run_id), backend="two_branch")
            w.append(transcripts.run4_record(res, run_id, derive_seed(seed, run_id)))


def test_transcript_chain_verifies(tmp_path):
    path = tmp_path / "runs.jsonl"
    _write_runs(path, TOY_MICRO, 5, seed=31)
    report = transcripts.replay(path)
    assert report.records == 5
    assert report.verified_runs == 5
    assert report.mismatches == []


def test_transcript_flipped_bit_is_flagged(tmp_path):
    path = tmp_path / "runs.jsonl"
    _write_runs(path, TOY_MICRO, 8, seed=32)
    lines = path.read_text().splitlines()
    # the last record bit belongs to the preimage pair's differing position,
    # so flipping it moves B2 whenever the run had two interfering branches
    target = next(i for i, ln in enumerate(lines) if json.loads(ln)["body"]["B1"] == 1)
    rec = json.loads(lines[target])
    b = rec["body"]["b"]
    rec["body"]["b"] = b[:-1] + ("1" if b[-1] == "0" else "0")
    # keep the chain consistent so only the semantic check can catch it
    rec["hash"] = transcripts._chain_hash(rec["prev"], transcripts._canonical(rec["body"]))
    lines[target] = json.dumps(rec, sort_keys=True)
    prev = rec["hash"]
    for i in range(target + 1, len(lines)):
        nxt = json.loads(lines[i])
        nxt["prev"] = prev
        nxt["hash"] = transcripts._chain_hash(prev, transcripts._canonical(nxt["body"]))
        prev = nxt["hash"]
        lines[i] = json.dumps(nxt, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    report = transcripts.replay(path)
    assert report.mismatches  # flipped measurement bit changes the derived index


def test_transcript_tamper_without_rehash_breaks_chain(tmp_path):
    path = tmp_path / "runs.jsonl"
    _write_runs(path, TOY_MICRO, 3, seed=33)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[0])
    rec["body"]["B1"] ^= 1
    lines[0] = json.dumps(rec, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(transcripts.TranscriptError):
        transcripts.replay(path)


def test_transcript_non_binary_record_structured_error(tmp_path):
    path = tmp_path / "runs.jsonl"
    res = p4.run_protocol4(TOY_MICRO, 36)
    body = transcripts.run4_record(res, 0, 36)
    body["b"] = body["b"][:-1] + "2"
    with transcripts.TranscriptWriter(path) as w:
        w.append(body)
    with pytest.raises(transcripts.TranscriptError):
        transcripts.replay(path)


@pytest.mark.parametrize("part", ["key_msg", "trapdoor"])
def test_transcript_unparsable_key_structured_error(tmp_path, part):
    path = tmp_path / "runs.jsonl"
    res = p4.run_protocol4(TOY_MICRO, 36)
    body = transcripts.run4_record(res, 0, 36)
    if part == "key_msg":
        body["key_msg"]["k"]["K"] = _with_entry(body["key_msg"]["k"]["K"], 0, 2**63 - 1)
    else:
        body["trapdoor"]["t"]["z0"] = None
    with transcripts.TranscriptWriter(path) as w:
        w.append(body)
    with pytest.raises(transcripts.TranscriptError):
        transcripts.replay(path)


def _cut_err_lo(t):
    t["gadget"]["err_lo"] = _int64_text(_int64s(t["gadget"]["err_lo"])[:1])


def _r_rows(t):
    """The rows of the trapdoor's R, each `np.packbits` of a TOY_GADGET row."""
    packed = np.frombuffer(_b64_raw(t["gadget"]["R"]), np.uint8)
    w = TOY_GADGET.n * TOY_GADGET.ell_q
    return np.unpackbits(packed.reshape(TOY_GADGET.m - w, -1), axis=1, count=w)


def _drop_r_row(t):
    R = _r_rows(t)[1:]
    t["gadget"]["R"] = _b64_text(np.packbits(R, axis=1).tobytes())


def _r_entry_two(t):
    # R's bit packing cannot hold a 2: the entry comes as an int64 matrix
    R = _r_rows(t).astype(np.int64)
    R[1][0] = 2
    t["gadget"]["R"] = _int64_text(R)


def _no_gadget(t):
    t["gadget"] = None


def _short_s(t):
    t["z0"]["s"] = _int64_text(_int64s(t["z0"]["s"])[:-1])


def _s_is_q(t):
    t["z0"]["s"] = _with_entry(t["z0"]["s"], 0, TOY_GADGET.q)


def _short_e(t):
    t["z0"]["e"] = _int64_text(_int64s(t["z0"]["e"])[:-1])


def _d0_two(t):
    t["d0"] = 2


@pytest.mark.parametrize(
    "tamper",
    [_cut_err_lo, _drop_r_row, _r_entry_two, _no_gadget, _short_s, _s_is_q, _short_e, _d0_two],
    ids=lambda tamper: tamper.__name__.lstrip("_"),
)
def test_transcript_trapdoor_not_fitting_the_key_structured_error(tmp_path, tamper):
    path = tmp_path / "runs.jsonl"
    res = p4.run_protocol4(TOY_GADGET, 3)
    body = transcripts.run4_record(res, 0, 3)
    tamper(body["trapdoor"]["t"])
    with transcripts.TranscriptWriter(path) as w:
        w.append(body)
    with pytest.raises(transcripts.TranscriptError):
        transcripts.replay(path)


def test_trapdoor_gadget_only_for_gadget_sized_keys():
    _, td = lwe.gen(TOY_GADGET, 3)
    obj = serde.trapdoor_to_obj(td)
    assert serde.trapdoor_to_obj(serde.trapdoor_from_obj(obj, TOY_GADGET)) == obj
    with pytest.raises(ValueError, match="gadget"):
        serde.trapdoor_from_obj(obj, TOY_MICRO)


# ---------------------------------------------------------------------------
# format-2 key and trapdoor readers: every malformed array text is a typed error

_B64 = string.ascii_uppercase + string.ascii_lowercase + string.digits + "+/"


def _pad_bits_set(text):
    """The text with the lowest bit under its '=' pad set: the same bytes to a
    lenient decoder, but not the text the writer gives."""
    data = text.rstrip("=")
    assert data != text
    return data[:-1] + _B64[_B64.index(data[-1]) + 1] + text[len(data) :]


def _missing_pad(text):
    assert text.endswith("=")
    return text[:-1]


_MALFORMED_TEXT = {
    "non-base64-char": lambda text: "!" + text[1:],
    "missing-pad": _missing_pad,
    "pad-bits-set": _pad_bits_set,
    "one-byte-short": lambda text: _b64_text(_b64_raw(text)[:-1]),
    "one-byte-long": lambda text: _b64_text(_b64_raw(text) + b"\0"),
    "non-str": lambda text: _int64s(text).tolist(),
}


def _edit(*path, edit):
    """A tamper that replaces the field at `path` by `edit` of its value."""

    def tamper(obj):
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = edit(obj[path[-1]])

    return tamper


def _v1_key(key):
    K = _int64s(key["k"]["K"]).reshape(TOY_GADGET.m, TOY_GADGET.n)
    key["version"] = 1
    key["k"]["K"] = [[str(v) for v in row] for row in K.tolist()]
    key["k"]["y0"] = [str(v) for v in _int64s(key["k"]["y0"]).tolist()]


def _v1_trapdoor(trapdoor):
    t = trapdoor["t"]
    trapdoor["version"] = 1
    t["gadget"]["R"] = [[str(v) for v in row] for row in _r_rows(t).tolist()]
    for part, field in (("gadget", "err_lo"), ("gadget", "err_hi"), ("z0", "s"), ("z0", "e")):
        t[part][field] = [str(v) for v in _int64s(t[part][field]).tolist()]


def _added_field(*path):
    """A tamper that adds a field to the object at `path`."""

    def tamper(obj):
        for key in path:
            obj = obj[key]
        obj["note"] = "x"

    return tamper


# TOY_GADGET texts: K and e are 40 bytes, so they end in "=="
_KEY_CASES = {
    **{name: _edit("k", "K", edit=edit) for name, edit in _MALFORMED_TEXT.items()},
    "entry-q": _edit("k", "K", edit=lambda text: _with_entry(text, 0, TOY_GADGET.q)),
    "negative-entry": _edit("k", "K", edit=lambda text: _with_entry(text, 0, -1)),
    "v1-decimal-lists": _v1_key,
    "added-field": _added_field(),
    "added-k-field": _added_field("k"),
    "added-params-field": _added_field("k", "params"),
}
_TRAPDOOR_CASES = {
    **{name: _edit("t", "z0", "e", edit=edit) for name, edit in _MALFORMED_TEXT.items()},
    "s-entry-q": _edit("t", "z0", "s", edit=lambda text: _with_entry(text, 0, TOY_GADGET.q)),
    "negative-s-entry": _edit("t", "z0", "s", edit=lambda text: _with_entry(text, 0, -1)),
    "r-pad-bit": _edit("t", "gadget", "R", edit=lambda text: _b64_text(bytes([1]) + _b64_raw(text)[1:])),
    # err_lo is 24 bytes, a full last group: strict base64 still reads one more '='
    "pad-after-full-group": _edit("t", "gadget", "err_lo", edit=lambda text: text + "="),
    "v1-decimal-lists": _v1_trapdoor,
    "added-field": _added_field(),
    "added-t-field": _added_field("t"),
    "added-gadget-field": _added_field("t", "gadget"),
    "added-z0-field": _added_field("t", "z0"),
}


def _replay_fails(path, body):
    with transcripts.TranscriptWriter(path) as w:
        w.append(body)
    with pytest.raises(transcripts.TranscriptError):
        transcripts.replay(path)


@pytest.mark.parametrize("tamper", _KEY_CASES.values(), ids=_KEY_CASES.keys())
def test_malformed_key_text_is_a_typed_error_at_the_wire_and_at_replay(tmp_path, tamper):
    payload = _key_payload(TOY_GADGET)
    wire.ServerSession(master_seed=1).handle(wire.WireMessage("key", 0, payload))
    tamper(payload["key"])
    session = wire.ServerSession(master_seed=1)
    with pytest.raises(wire.WireError):
        session.handle(wire.WireMessage("key", 0, payload))
    _assert_keyable(session)

    body = transcripts.run4_record(p4.run_protocol4(TOY_GADGET, 3), 0, 3)
    tamper(body["key_msg"])
    _replay_fails(tmp_path / "runs.jsonl", body)


@pytest.mark.parametrize("tamper", _TRAPDOOR_CASES.values(), ids=_TRAPDOOR_CASES.keys())
def test_malformed_trapdoor_text_is_a_typed_error_at_replay(tmp_path, tamper):
    # the trapdoor stays with the client, so replay is the only reader outside serde
    body = transcripts.run4_record(p4.run_protocol4(TOY_GADGET, 3), 0, 3)
    tamper(body["trapdoor"])
    _replay_fails(tmp_path / "runs.jsonl", body)


def test_a_format_1_object_is_rejected_by_its_version():
    pk, td = lwe.gen(TOY_GADGET, 3)
    key, trapdoor = serde.key_to_obj(pk), serde.trapdoor_to_obj(td)
    _v1_key(key)
    _v1_trapdoor(trapdoor)
    with pytest.raises(ValueError, match="key format version 1"):
        serde.key_from_obj(key)
    with pytest.raises(ValueError, match="trapdoor format version 1"):
        serde.trapdoor_from_obj(trapdoor, TOY_GADGET)


_FUZZ_PATHS = {
    "key": [("k", "K"), ("k", "y0"), ("version",)],
    "trapdoor": [
        ("t", "gadget", "R"),
        ("t", "gadget", "err_lo"),
        ("t", "gadget", "err_hi"),
        ("t", "z0", "s"),
        ("t", "z0", "e"),
        ("t", "d0"),
        ("version",),
    ],
}
_NON_TEXT = st.sampled_from([0, 1, 2, -1, True, 1.0, "1", None, [1]])
# the objects of each format, by path: format 2 has no optional field
_FUZZ_OBJECTS = {
    "key": [(), ("k",), ("k", "params")],
    "trapdoor": [(), ("t",), ("t", "gadget"), ("t", "z0")],
}


def _mutated(data, value):
    """A str with up to two bits of its bytes flipped, then up to two
    characters replaced, deleted or inserted; any other value, or sometimes a
    str, replaced by a value of another type."""
    if not isinstance(value, str) or data.draw(st.integers(0, 9)) == 0:
        return data.draw(_NON_TEXT)
    raw = bytearray(_b64_raw(value))
    for _ in range(data.draw(st.integers(0, 2))):
        raw[data.draw(st.integers(0, len(raw) - 1))] ^= 1 << data.draw(st.integers(0, 7))
    text = _b64_text(bytes(raw))
    for _ in range(data.draw(st.integers(0, 2))):
        at, cut = data.draw(st.integers(0, len(text))), data.draw(st.integers(0, 1))
        text = text[:at] + data.draw(st.text(_B64 + "=!-_ \n\u00e9", max_size=1)) + text[at + cut :]
    return text


@settings(max_examples=300)
@given(data=st.data())
def test_format_2_readers_reject_or_read_back_exactly(data):
    """A mutated key or trapdoor object is a ValueError, or it reads as the
    key or trapdoor that the writer writes as exactly that object: no entry
    is reduced mod q or masked, and no text has a second reading."""
    pk, td = lwe.gen(TOY_GADGET, 3)
    which = data.draw(st.sampled_from(["key", "trapdoor"]))
    obj = serde.key_to_obj(pk) if which == "key" else serde.trapdoor_to_obj(td)
    paths = st.lists(st.sampled_from(_FUZZ_PATHS[which]), min_size=1, max_size=2, unique=True)
    for path in data.draw(paths):
        _edit(*path, edit=lambda value: _mutated(data, value))(obj)
    try:
        if which == "key":
            back = serde.key_to_obj(serde.key_from_obj(obj))
        else:
            back = serde.trapdoor_to_obj(serde.trapdoor_from_obj(obj, TOY_GADGET))
    except ValueError:
        return
    assert back == obj


@settings(max_examples=150)
@given(data=st.data())
def test_format_2_readers_reject_an_added_field(data):
    """A key or trapdoor object with a field added at any level, its texts
    mutated or not, is a ValueError: no field is ignored."""
    pk, td = lwe.gen(TOY_GADGET, 3)
    which = data.draw(st.sampled_from(["key", "trapdoor"]))
    obj = serde.key_to_obj(pk) if which == "key" else serde.trapdoor_to_obj(td)
    paths = st.lists(st.sampled_from(_FUZZ_PATHS[which]), max_size=2, unique=True)
    for path in data.draw(paths):
        _edit(*path, edit=lambda value: _mutated(data, value))(obj)
    level = obj
    for key in data.draw(st.sampled_from(_FUZZ_OBJECTS[which])):
        level = level[key]
    name = data.draw(st.text(max_size=3).filter(lambda text: text not in level))
    level[name] = data.draw(_NON_TEXT | st.text(max_size=3))
    with pytest.raises(ValueError):
        if which == "key":
            serde.key_from_obj(obj)
        else:
            serde.trapdoor_from_obj(obj, TOY_GADGET)


def test_transcript_truncated_line_structured_error(tmp_path):
    path = tmp_path / "runs.jsonl"
    _write_runs(path, TOY_MICRO, 2, seed=34)
    text = path.read_text()
    path.write_text(text[: len(text) - 30])
    with pytest.raises(transcripts.TranscriptError):
        transcripts.replay(path)


def test_run8_transcript_replay(tmp_path):
    from qfactory import protocol8 as p8

    path = tmp_path / "runs8.jsonl"
    with transcripts.TranscriptWriter(path) as w:
        for run_id in range(4):
            seed = derive_seed(35, run_id)
            res = p8.run_protocol8(TOY_MICRO, seed, backend="two_branch")
            w.append(transcripts.run8_record(res, run_id, seed))
    report = transcripts.replay(path)
    assert report.records == 4
    assert report.mismatches == []
    assert report.verified_runs == 4


@pytest.mark.parametrize("line", ["5", "null", '"run4"', "[1, 2]"])
def test_read_records_rejects_a_line_that_is_not_an_object(tmp_path, line):
    path = tmp_path / "runs.jsonl"
    _write_runs(path, TOY_MICRO, 1, seed=37)
    path.write_text(path.read_text() + line + "\n")
    with pytest.raises(transcripts.TranscriptError, match="not a JSON object"):
        transcripts.read_records(path)


def test_test_plan_run_ids_are_integers_only():
    chan = wire.local_session(5)
    wire.run8_over_channel(chan, TOY_MICRO, 5, 0)
    plan = {"indices": ["0"], "measurements": [3]}
    with pytest.raises(wire.WireError):
        chan.session.handle(wire.WireMessage("test_plan", 0, plan))
    _assert_measurable(chan.session)
