"""CLI smoke tests: every command runs, is seeded, and emits valid JSON."""

import contextlib
import json
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from qfactory import cli, lwe
from qfactory.params import TOY_REG


def _run(argv, capsys):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out) if out.strip() else None


@pytest.mark.parametrize(
    "argv",
    [
        ["keygen", "--backend", "sv"],
        ["selftest", "--params", "toy"],
        ["selftest", "--eps1", "0.1"],
        ["serve", "--out", "report.json"],
        ["replay", "--seed", "1", "runs.jsonl"],
        ["keygen", "--endpoint", "127.0.0.1:7801"],
        ["serve", "--endpoint", "127.0.0.1:7801"],
        ["run-verifiable", "--endpoint", "127.0.0.1:7801"],
        ["run8", "--backend", "sv", "--endpoint", "127.0.0.1:7801"],
    ],
)
def test_subcommands_take_only_the_options_they_read(argv):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(argv)


def test_keygen(capsys):
    rc, obj = _run(["keygen", "--params", "toy-micro", "--seed", "5"], capsys)
    assert rc == 0
    assert obj["key"]["k"]["params"]["profile"] == "toy"


def test_keygen_deterministic(capsys):
    _, a = _run(["keygen", "--params", "toy-micro", "--seed", "5"], capsys)
    _, b = _run(["keygen", "--params", "toy-micro", "--seed", "5"], capsys)
    assert a == b


def test_run4(capsys, tmp_path):
    tfile = tmp_path / "t.jsonl"
    rc, obj = _run(
        ["run4", "--params", "toy-micro", "--seed", "1", "--runs", "6", "--transcripts", str(tfile)],
        capsys,
    )
    assert rc == 0
    assert obj["runs"] == 6
    rc, rep = _run(["replay", str(tfile)], capsys)
    assert rc == 0
    assert rep["mismatches"] == []


def test_run4_transcript_names_the_seed_of_each_run(capsys, tmp_path):
    from qfactory import transcripts, wire
    from qfactory.params import TOY_MICRO

    tfile = tmp_path / "t.jsonl"
    argv = ["run4", "--params", "toy-micro", "--seed", "7", "--runs", "3"]
    rc, _ = _run([*argv, "--transcripts", str(tfile)], capsys)
    assert rc == 0
    records = transcripts.read_records(tfile)
    # one session: every record names the master seed and its own run id
    assert [(rec["body"]["seeds"]["run"], rec["body"]["run_id"]) for rec in records] == [
        (7, 0),
        (7, 1),
        (7, 2),
    ]
    for rec in records:
        body = rec["body"]
        master, run_id = body["seeds"]["run"], body["run_id"]
        again = wire.run4_over_channel(wire.local_session(master), TOY_MICRO, master, run_id)
        rebuilt = transcripts.run4_record(again, run_id, master)
        assert transcripts._canonical(rebuilt) == transcripts._canonical(body)


def test_run8(capsys):
    rc, obj = _run(["run8", "--params", "toy-micro", "--seed", "2", "--runs", "5"], capsys)
    assert rc == 0
    assert obj["usable"] <= 5


def test_run_abort(capsys):
    rc, obj = _run(
        ["run-abort", "--params", "toy-reg", "--seed", "3", "--t_c", "40", "--n_c", "200"],
        capsys,
    )
    assert rc == 0
    assert 0 <= obj["accept_rate"] <= 1
    assert obj["p_a_analytic"] == lwe.analytic_homomorphy(TOY_REG)


def test_run_verifiable(capsys):
    rc, obj = _run(
        ["run-verifiable", "--params", "toy-micro", "--seed", "4", "--N", "80"], capsys
    )
    assert rc == 0
    assert obj["accept"] is True
    assert obj["tested"] + obj["unmeasured"] == 80


@pytest.mark.parametrize(
    "argv",
    [["run4", "--runs", "1"], ["run8", "--runs", "1"], ["run-verifiable", "--N", "2"]],
    ids=["run4", "run8", "run-verifiable"],
)
def test_a_key_the_in_process_server_refuses_is_one_stderr_line(capsys, argv):
    # a paper-profile register is far outside the 20-qubit simulation envelope
    assert cli.main([*argv, "--params", "paper"]) == 2
    err = _one_error_line(capsys, f"qfactory {argv[0]}: in-process server: ")
    assert "simulation envelope" in err


def test_selftest_with_strategy_file(capsys, tmp_path):
    from qfactory import selftest as stt

    st = stt.honest_strategy()
    obj = {
        "dim": 2,
        "states": [[[v.real, v.imag] for v in row] for row in st.states],
        "observables": [[[[v.real, v.imag] for v in row] for row in mat] for mat in st.observables],
    }
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps(obj))
    rc, rep = _run(
        ["selftest", "--strategy", str(path), "--N", "4000", "--seed", "6"], capsys
    )
    assert rc == 0
    assert rep["accept"] is True
    assert min(rep["fidelities"]) >= 1 - 1e-9


@pytest.mark.parametrize(
    "content",
    [None, "{not json", '{"states": [[1, 0]]}', '{"states": []}', "[1]",
     "[" * 50_000 + "]" * 50_000],
    ids=["missing", "not-json", "wrong-nesting", "rejected", "not-an-object", "too-deep"],
)
def test_selftest_bad_strategy_file_is_a_usage_error(capsys, tmp_path, content):
    path = tmp_path / "strategy.json"
    if content is not None:
        path.write_text(content)
    rc = cli.main(["selftest", "--strategy", str(path), "--N", "10"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("qfactory selftest: bad strategy file")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_selftest_strategy_file_with_a_nan_is_a_usage_error(capsys, tmp_path):
    from qfactory import selftest as stt

    st = stt.honest_strategy()
    states = [[[v.real, v.imag] for v in row] for row in st.states]
    states[3][1][0] = float("nan")  # json.dumps writes the literal NaN
    obj = {
        "states": states,
        "observables": [[[[v.real, v.imag] for v in row] for row in mat] for mat in st.observables],
    }
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps(obj))
    assert "NaN" in path.read_text()
    assert cli.main(["selftest", "--strategy", str(path), "--N", "10"]) == 2
    _one_error_line(capsys, f"qfactory selftest: bad strategy file {path}: ")


@pytest.mark.parametrize("server, shift", [("honest", 0), ("shift", 1)])
def test_run_verifiable_server_names_the_strategy(capsys, monkeypatch, server, shift):
    import numpy as np

    from qfactory import selftest as stt

    seen = []

    def fake(*args, strategy, **kwargs):
        seen.append(strategy)
        return stt.VerifiableResult(True, stt.StatsTable(), (), (), 0)

    monkeypatch.setattr(stt, "run_verifiable", fake)
    rc, obj = _run(["run-verifiable", "--server", server], capsys)
    assert rc == 0 and obj["accept"] is True
    want = [[stt.ideal_prob(L, M + shift) for M in range(8)] for L in range(8)]
    assert np.max(np.abs(seen[0].born_table() - want)) <= 1e-15


def test_oracle_check_on_a_domain_too_large_to_enumerate_is_a_usage_error(capsys):
    assert cli.main(["oracle-check", "--params", "paper"]) == 2
    err = _one_error_line(capsys, "qfactory oracle-check: --params: ")
    assert "too large for exhaustive enumeration" in err


def test_oracle_check(capsys):
    rc, rep = _run(
        ["oracle-check", "--params", "toy-micro", "--seed", "7", "--trials", "120"], capsys
    )
    assert rc == 0
    assert rep["invert_mismatches"] == 0
    assert rep["register_preimage_mismatches"] == 0
    assert rep["register_images_checked"] > 0
    assert rep["formula_failures"] == 0
    assert rep["corrupted_trapdoor_detected"] is True


def test_serve_and_connect(capsys):
    from qfactory import wire

    server = wire.serve("127.0.0.1", 0, master_seed=9)
    host, port = server.server_address
    try:
        rc, rep = _run(
            [
                "run4",
                "--params",
                "toy-micro",
                "--seed",
                "9",
                "--runs",
                "3",
                "--endpoint",
                f"{host}:{port}",
            ],
            capsys,
        )
        assert rc == 0
        assert rep["runs"] == 3
    finally:
        server.shutdown()
        server.server_close()


def _wait_for(path: Path, text: str, timeout: float = 30.0) -> str:
    deadline = time.monotonic() + timeout
    while text not in path.read_text() and time.monotonic() < deadline:
        time.sleep(0.01)
    return path.read_text()


@contextlib.contextmanager
def _serve_child(log: Path, *argv):
    """A `qfactory serve --port 0` child process, its stderr in `log`; yields its port."""
    src = str(Path(cli.__file__).resolve().parents[1])
    with log.open("w") as fh:
        proc = subprocess.Popen(
            [sys.executable, "-m", "qfactory.cli", "serve", "--port", "0", *argv],
            stdout=subprocess.DEVNULL, stderr=fh, env=dict(os.environ, PYTHONPATH=src),
        )
    try:
        text = _wait_for(log, "serving on")
        yield int(text.split("serving on", 1)[1].split()[0].rsplit(":", 1)[1])
    finally:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def test_serve_logs_each_ended_session_to_stderr(tmp_path):
    log = tmp_path / "serve.log"
    with _serve_child(log) as port:
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            peer_port = sock.getsockname()[1]
        text = _wait_for(log, "session ended")
    ended = [line for line in text.splitlines() if line.startswith("session ended")]
    assert ended == [f"session ended: peer 127.0.0.1:{peer_port}, peer closed"]


def test_run_commands_write_the_same_files_in_process_and_against_serve(capsys, tmp_path):
    seed = "11"
    commands = {
        "run4": ["run4", "--runs", "4"],
        "run4-rotated": ["run4", "--runs", "4", "--rotated"],
        "run8": ["run8", "--runs", "3"],
    }

    def run_all(where, *channel):
        for name, argv in commands.items():
            files = ["--out", str(tmp_path / f"{name}-{where}.json")]
            if argv[0] == "run4":
                files += ["--transcripts", str(tmp_path / f"{name}-{where}.jsonl")]
            argv = [*argv, "--params", "toy-micro", "--seed", seed, *channel, *files]
            assert cli.main(argv) == 0

    run_all("local")
    with _serve_child(tmp_path / "serve.log", "--seed", seed) as port:
        run_all("tcp", "--endpoint", f"127.0.0.1:{port}")
    for name, argv in commands.items():
        suffixes = [".json", ".jsonl"] if argv[0] == "run4" else [".json"]
        for suffix in suffixes:
            local = (tmp_path / f"{name}-local{suffix}").read_bytes()
            assert local == (tmp_path / f"{name}-tcp{suffix}").read_bytes(), (name, suffix)
        if argv[0] == "run4":
            rc, rep = _run(["replay", str(tmp_path / f"{name}-tcp.jsonl")], capsys)
            assert rc == 0 and rep["verified_runs"] == 4 and rep["mismatches"] == []


def _one_record_file(tmp_path, **changes):
    from qfactory import protocol4 as p4, transcripts
    from qfactory.params import TOY_MICRO

    path = tmp_path / "runs.jsonl"
    body = transcripts.run4_record(p4.run_protocol4(TOY_MICRO, 1), 0, 1)
    with transcripts.TranscriptWriter(path) as w:
        w.append({**body, **changes})
        w.append(body)
    return path


_SMALL_RUNS = {
    "keygen": ["keygen", "--params", "toy-micro"],
    "run4": ["run4", "--params", "toy-micro", "--runs", "2"],
    "run8": ["run8", "--params", "toy-micro", "--runs", "1"],
    "run-abort": ["run-abort", "--params", "toy-micro", "--t_c", "4", "--n_c", "2"],
    "run-verifiable": ["run-verifiable", "--params", "toy-micro", "--N", "2"],
    "selftest": ["selftest", "--N", "10"],
    "oracle-check": ["oracle-check", "--params", "toy-micro", "--trials", "1"],
}


@pytest.mark.parametrize("command", [*_SMALL_RUNS, "replay"])
def test_an_out_path_that_cannot_be_opened_is_one_stderr_line(capsys, tmp_path, command):
    argv = _SMALL_RUNS.get(command) or ["replay", str(_one_record_file(tmp_path))]
    out = tmp_path / "missing-dir" / "report.json"
    assert cli.main([*argv, "--out", str(out)]) == 2
    _one_error_line(capsys, f"qfactory {command}: {out}: ")
    assert not out.parent.exists()


def test_a_transcripts_path_that_cannot_be_opened_is_one_stderr_line(capsys, tmp_path):
    path = tmp_path / "missing-dir" / "t.jsonl"
    assert cli.main([*_SMALL_RUNS["run4"], "--transcripts", str(path)]) == 2
    _one_error_line(capsys, f"qfactory run4: {path}: ")


def test_a_failed_transcript_append_names_the_file_not_the_server(capsys, tmp_path, monkeypatch):
    from qfactory import transcripts

    def full(self, body):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(transcripts.TranscriptWriter, "append", full)
    path = tmp_path / "t.jsonl"
    assert cli.main([*_SMALL_RUNS["run4"], "--transcripts", str(path)]) == 2
    _one_error_line(capsys, f"qfactory run4: {path}: [Errno 28] No space left on device")


@pytest.mark.parametrize("case", ["missing", "chain-break", "non-object-line", "unknown-kind"])
def test_replay_of_an_unreadable_file_is_a_usage_error(capsys, tmp_path, case):
    path = _one_record_file(tmp_path, **({"kind": "run9"} if case == "unknown-kind" else {}))
    lines = path.read_text().splitlines()
    if case == "missing":
        path.unlink()
    elif case == "chain-break":
        path.write_text(lines[1] + "\n")
    elif case == "non-object-line":
        path.write_text("\n".join([lines[0], "null", lines[1]]) + "\n")
    rc = cli.main(["replay", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(f"qfactory replay: {path}: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_replay_with_a_mismatch_exits_1(capsys, tmp_path):
    rc, rep = _run(["replay", str(_one_record_file(tmp_path, family="nonsense"))], capsys)
    assert rc == 1
    assert rep["records"] == 2 and rep["verified_runs"] == 1
    assert [m["seq"] for m in rep["mismatches"]] == [0]


@pytest.mark.parametrize(
    "argv",
    [
        ["run4", "--runs", "0"],
        ["run8", "--runs", "-1"],
        ["run-abort", "--n_c", "0"],
        ["run-abort", "--t_c", "0"],
        ["run-verifiable", "--fraction", "1.5"],
        ["run-verifiable", "--fraction", "0"],
        ["run-abort", "--p_c", "nan"],
        ["run-abort", "--p_c", "2"],
        ["run-abort", "--p_c", "0"],
        ["run-verifiable", "--eps2", "nan"],
        ["run-verifiable", "--eps2", "0"],
        ["run-verifiable", "--eps2", "1"],
        ["selftest", "--eps2", "inf"],
        ["run-abort", "--p_c", "half"],
        ["run-verifiable", "--N", "0"],
        ["selftest", "--N", "0"],
        ["oracle-check", "--trials", "0"],
        ["run4", "--endpoint", "127.0.0.1:7801", "--runs", "0"],
        ["run4", "--runs", "two"],
        ["keygen", "--params", "nope"],
        ["run4", "--params", "nope"],
        ["run8", "--params", "nope"],
        ["run-abort", "--params", "nope"],
        ["run-verifiable", "--params", "TOY"],
        ["oracle-check", "--params", ""],
    ],
)
def test_an_out_of_range_count_or_fraction_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "error: argument" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, name, want",
    [
        (["run-abort", "--p_c", "1"], "p_c", 1.0),
        (["run-verifiable", "--eps2", "0.5"], "eps2", 0.5),
    ],
)
def test_a_probability_inside_its_interval_or_on_a_closed_end_parses(argv, name, want):
    assert getattr(cli.build_parser().parse_args(argv), name) == want


def test_emit_refuses_a_nan_rather_than_write_invalid_json(capsys):
    with pytest.raises(ValueError):
        cli._emit({"rate": float("nan")}, None)
    assert capsys.readouterr().out == ""


def test_connect_to_a_closed_port_is_one_stderr_line(capsys):
    import socket

    with socket.socket() as sock:  # a port nobody listens on once it is closed
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    rc = cli.main(["run4", "--params", "toy-micro", "--endpoint", f"127.0.0.1:{port}"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(f"qfactory run4: 127.0.0.1:{port}: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_a_too_deep_reply_frame_is_one_stderr_line(capsys):
    """A reply of 100 KB of nested brackets fits in a frame but not in
    json.loads's recursion: the client reads it as a malformed frame."""
    from qfactory import wire

    with socket.create_server(("127.0.0.1", 0)) as listener:
        port = listener.getsockname()[1]

        def peer():
            conn, _ = listener.accept()
            with conn:
                wire.read_frame(conn)  # the key message
                blob = b"[" * 50_000 + b"]" * 50_000
                conn.sendall(struct.pack(">I", len(blob)) + blob)

        thread = threading.Thread(target=peer, daemon=True)
        thread.start()
        rc = cli.main(["run4", "--params", "toy-micro", "--endpoint", f"127.0.0.1:{port}"])
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert rc == 2
    err = _one_error_line(capsys, f"qfactory run4: 127.0.0.1:{port}: ")
    assert "undecodable frame" in err


def _one_error_line(capsys, prefix):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix)
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    return captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["run4", "--endpoint", "127.0.0.1:99999"],
        ["run4", "--endpoint", ":-5"],
        ["run4", "--endpoint", "127.0.0.1:+80"],
        ["run4", "--endpoint", "127.0.0.1: 80"],
        ["serve", "--port", "99999"],
        ["serve", "--port", "-1"],
        ["serve", "--port", "0x50"],
    ],
)
def test_a_port_outside_the_port_rule_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == "" and "Traceback" not in captured.err
    assert f"argument {argv[1]}: {argv[2]}: port " in captured.err


@pytest.mark.parametrize("text, want", [("7801", 7801), ("0", 0), ("65535", 65535), ("080", 80)])
def test_the_port_rule_takes_decimal_ports_in_range(text, want):
    from qfactory import wire

    assert wire.parse_port(text) == want
    assert wire.parse_endpoint(f"10.0.0.1:{text}") == ("10.0.0.1", want)


def test_serve_on_a_busy_port_is_one_stderr_line(capsys):
    with socket.socket() as busy:
        busy.bind(("127.0.0.1", 0))
        busy.listen()
        port = busy.getsockname()[1]
        assert cli.main(["serve", "--port", str(port)]) == 2
    _one_error_line(capsys, f"qfactory serve: 127.0.0.1:{port}: ")


def test_serve_on_an_unresolvable_host_is_one_stderr_line(capsys, monkeypatch):
    from qfactory import wire

    def unresolvable(address, **kwargs):
        raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

    monkeypatch.setattr(wire, "ProtocolServer", unresolvable)  # no lookup leaves the host
    assert cli.main(["serve", "--host", "no-such-host.invalid", "--port", "7801"]) == 2
    err = _one_error_line(capsys, "qfactory serve: no-such-host.invalid:7801: ")
    assert "Name or service not known" in err
