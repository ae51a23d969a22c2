"""CLI smoke tests: every command runs, is seeded, and emits valid JSON."""

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qfactory import cli


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
        ["connect", "--endpoint", "127.0.0.1:port"],
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
    from qfactory import protocol4 as p4, transcripts
    from qfactory.params import TOY_MICRO

    tfile = tmp_path / "t.jsonl"
    argv = ["run4", "--params", "toy-micro", "--seed", "7", "--runs", "3"]
    rc, _ = _run([*argv, "--transcripts", str(tfile)], capsys)
    assert rc == 0
    records = transcripts.read_records(tfile)
    assert len({rec["body"]["seeds"]["run"] for rec in records}) == 3
    for rec in records:
        body = rec["body"]
        again = p4.run_protocol4(TOY_MICRO, body["seeds"]["run"])
        rebuilt = transcripts.run4_record(again, body["run_id"], body["seeds"]["run"])
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


def test_run_verifiable(capsys):
    rc, obj = _run(
        ["run-verifiable", "--params", "toy-micro", "--seed", "4", "--N", "80"], capsys
    )
    assert rc == 0
    assert obj["accept"] is True


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
    [None, "{not json", '{"states": [[1, 0]]}', '{"states": []}', "[1]"],
    ids=["missing", "not-json", "wrong-nesting", "rejected", "not-an-object"],
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
                "connect",
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


def test_serve_logs_each_ended_session_to_stderr(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    log = tmp_path / "serve.log"
    with log.open("w") as fh:
        proc = subprocess.Popen(
            [sys.executable, "-m", "qfactory.cli", "serve", "--port", "0"],
            stdout=subprocess.DEVNULL, stderr=fh, env=dict(os.environ, PYTHONPATH=src),
        )
    try:
        text = _wait_for(log, "serving on")
        port = int(text.split("serving on", 1)[1].split()[0].rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            peer_port = sock.getsockname()[1]
        text = _wait_for(log, "session ended")
    finally:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    ended = [line for line in text.splitlines() if line.startswith("session ended")]
    assert ended == [f"session ended: peer 127.0.0.1:{peer_port}, peer closed"]


def test_endpoint_env_override(monkeypatch):
    from qfactory import wire

    monkeypatch.setenv(wire.ENDPOINT_ENV, "10.0.0.1:1234")
    assert wire.endpoint_from_env() == ("10.0.0.1", 1234)


def _one_record_file(tmp_path, **changes):
    from qfactory import protocol4 as p4, transcripts
    from qfactory.params import TOY_MICRO

    path = tmp_path / "runs.jsonl"
    body = transcripts.run4_record(p4.run_protocol4(TOY_MICRO, 1), 0, 1)
    with transcripts.TranscriptWriter(path) as w:
        w.append({**body, **changes})
        w.append(body)
    return path


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
        ["run-abort", "--p_a", "-1"],
        ["run-abort", "--p_a", "1.5"],
        ["run-abort", "--p_a", "nan"],
        ["run-verifiable", "--eps2", "nan"],
        ["run-verifiable", "--eps2", "0"],
        ["run-verifiable", "--eps2", "1"],
        ["selftest", "--eps2", "inf"],
        ["run-abort", "--p_c", "half"],
        ["run-verifiable", "--N", "0"],
        ["selftest", "--N", "0"],
        ["oracle-check", "--trials", "0"],
        ["connect", "--runs", "0"],
        ["run4", "--runs", "two"],
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
        (["run-abort", "--p_a", "0"], "p_a", 0.0),
        (["run-abort", "--p_a", "1"], "p_a", 1.0),
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
    rc = cli.main(["connect", "--params", "toy-micro", "--endpoint", f"127.0.0.1:{port}"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(f"qfactory connect: 127.0.0.1:{port}: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def _one_error_line(capsys, prefix):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix)
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    return captured.err


@pytest.mark.parametrize("text", ["localhost:abc", "localhost:99999", "localhost:-5", "localhost:"])
def test_a_bad_endpoint_in_the_environment_is_one_stderr_line(capsys, monkeypatch, text):
    from qfactory import wire

    monkeypatch.setenv(wire.ENDPOINT_ENV, text)
    assert cli.main(["connect", "--params", "toy-micro"]) == 2
    assert "[0, 65535]" in _one_error_line(capsys, f"qfactory connect: {text}: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["connect", "--endpoint", "127.0.0.1:99999"],
        ["connect", "--endpoint", ":-5"],
        ["connect", "--endpoint", "127.0.0.1:+80"],
        ["connect", "--endpoint", "127.0.0.1: 80"],
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
