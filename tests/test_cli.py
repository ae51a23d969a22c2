"""CLI smoke tests: every command runs, is seeded, and emits valid JSON."""

import json

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


def test_endpoint_env_override(monkeypatch):
    from qfactory import wire

    monkeypatch.setenv(wire.ENDPOINT_ENV, "10.0.0.1:1234")
    assert wire.endpoint_from_env() == ("10.0.0.1", 1234)
