"""Wire protocol, transcripts and replay tests."""

import json
import socket
import struct

import pytest

from qfactory import protocol4 as p4, serde, transcripts, wire
from qfactory.params import TOY_MICRO
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
