"""Wire protocol, transcripts and replay tests."""

import json
import socket
import struct

import pytest

from qfactory import protocol4 as p4, serde, transcripts, wire
from qfactory.params import TOY_MICRO, paper_params
from qfactory.seeds import derive_seed


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


def test_version_mismatch_rejected():
    with pytest.raises(wire.WireError):
        wire.WireMessage.from_obj(
            {"version": 99, "kind": "image", "run_id": 0, "payload": {"y": []}}
        )


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
        if remote.usable:
            assert remote.index.L == local.index.L
    finally:
        server.shutdown()
        server.server_close()


def test_server_session_never_emits_private_fields():
    params = TOY_MICRO
    session = wire.ServerSession(master_seed=1)
    client, key_msg = p4.client_init(params, p4.PLAIN, seed=derive_seed(1, "c"))
    replies = session.handle(
        wire.WireMessage(
            "key",
            0,
            {"key": serde.key_to_obj(client.pk), "variant": p4.PLAIN, "hardcore_tag": "x"},
        )
    )
    for reply in replies:
        wire.validate_message(reply)  # includes the private-field scan


def test_server_session_rejects_unknown_variant():
    session = wire.ServerSession(master_seed=1)
    client, _ = p4.client_init(TOY_MICRO, p4.PLAIN, seed=derive_seed(1, "c"))
    key = {"key": serde.key_to_obj(client.pk), "variant": "diagonal", "hardcore_tag": "x"}
    with pytest.raises(wire.WireError):
        session.handle(wire.WireMessage("key", 0, key))
    assert session.held == {}


def _key_payload(params=TOY_MICRO, seed=1):
    client, _ = p4.client_init(params, p4.PLAIN, seed=derive_seed(seed, "c"))
    return {"key": serde.key_to_obj(client.pk), "variant": p4.PLAIN, "hardcore_tag": "x"}


def _without(obj, field):
    return {k: v for k, v in obj.items() if k != field}


def _key_entry(value):
    payload = _key_payload()
    payload["key"]["k"]["K"][0][0] = value
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
        _key_entry(str(2**70)),
        _key_entry("-1"),
        _key_modulus(2**63),
    ],
    ids=[
        "no-key-field",
        "key-without-k",
        "paper-profile-key",
        "entry-2^70",
        "entry-minus-1",
        "modulus-2^63",
    ],
)
def test_server_session_rejects_unusable_key(payload):
    session = wire.ServerSession(master_seed=1)
    with pytest.raises(wire.WireError):
        session.handle(wire.WireMessage("key", 0, payload))
    assert session.held == {}


@pytest.mark.parametrize(
    "plan",
    [{"indices": [0]}, {"indices": ["x"], "measurements": [0]}],
    ids=["missing-measurements", "non-integer-index"],
)
def test_server_session_rejects_malformed_test_plan(plan):
    chan = wire.local_session(5)
    wire.run8_over_channel(chan, TOY_MICRO, 5, 0)
    chan.send(wire.WireMessage("test_plan", 0, {"indices": [0], "measurements": [3]}))
    assert set(chan.recv().payload["results"]) == {"0"}
    with pytest.raises(wire.WireError):
        chan.session.handle(wire.WireMessage("test_plan", 0, plan))


def test_test_plan_consumes_the_merged_state():
    chan = wire.local_session(5)
    wire.run8_over_channel(chan, TOY_MICRO, 5, 0)
    plan = {"indices": [0], "measurements": [3]}
    chan.send(wire.WireMessage("test_plan", 0, plan))
    assert set(chan.recv().payload["results"]) == {"0"}
    assert (0, "merged") not in chan.session.held
    with pytest.raises(wire.WireError):
        chan.session.handle(wire.WireMessage("test_plan", 0, plan))


@pytest.mark.parametrize("indices", [[0, 7], [0, 0]], ids=["unknown-run", "run-twice"])
def test_rejected_test_plan_consumes_nothing(indices):
    chan = wire.local_session(5)
    wire.run8_over_channel(chan, TOY_MICRO, 5, 0)
    plan = {"indices": indices, "measurements": [3, 3]}
    with pytest.raises(wire.WireError):
        chan.session.handle(wire.WireMessage("test_plan", 0, plan))
    assert (0, "merged") in chan.session.held


def test_test_outcome_depends_only_on_its_run():
    together, apart = wire.local_session(8), wire.local_session(8)
    for chan in (together, apart):
        for run_id in range(4):
            wire.run8_over_channel(chan, TOY_MICRO, 8, run_id)
    plan = {"indices": [0, 1, 2, 3], "measurements": [1, 2, 5, 6]}
    joint = together.session.handle(wire.WireMessage("test_plan", 0, plan))[0].payload["results"]
    single = {}
    for run_id, m_idx in zip(plan["indices"], plan["measurements"]):
        one = {"indices": [run_id], "measurements": [m_idx]}
        (reply,) = apart.session.handle(wire.WireMessage("test_plan", 9, one))
        single.update(reply.payload["results"])
    assert joint == single


def test_server_session_holds_a_bounded_number_of_runs():
    chan = wire.local_session(3)
    wire.run8_over_channel(chan, TOY_MICRO, 3, 0)
    key = _key_payload()
    extra = wire.MAX_HELD_RUNS + 5
    for run_id in range(1, extra + 1):
        chan.send(wire.WireMessage("key", run_id, key))
        chan.recv(), chan.recv()
    held_runs = {run_id for run_id, _ in chan.session.held}
    assert len(held_runs) == wire.MAX_HELD_RUNS
    assert len(chan.session.held) <= wire.MAX_HELD_RUNS + 2  # run 0 alone held three states
    assert min(held_runs) == extra - wire.MAX_HELD_RUNS + 1  # the oldest runs went first
    with pytest.raises(wire.WireError):
        chan.session.handle(wire.WireMessage("merge", 0, {}))
    with pytest.raises(wire.WireError):
        chan.session.handle(
            wire.WireMessage("test_plan", 0, {"indices": [0], "measurements": [0]})
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
    "tamper", [_y_above_q, _y_non_digit, _y_short, _b_non_binary, _b_non_digit, _b_long]
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
    rec["hash"] = transcripts._chain_hash(rec["prev"], rec["body"])
    lines[target] = json.dumps(rec, sort_keys=True)
    prev = rec["hash"]
    for i in range(target + 1, len(lines)):
        nxt = json.loads(lines[i])
        nxt["prev"] = prev
        nxt["hash"] = transcripts._chain_hash(prev, nxt["body"])
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
        body["key_msg"]["k"]["K"][0][0] = str(2**70)
    else:
        body["trapdoor"]["t"]["z0"] = None
    with transcripts.TranscriptWriter(path) as w:
        w.append(body)
    with pytest.raises(transcripts.TranscriptError):
        transcripts.replay(path)


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
