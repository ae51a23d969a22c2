"""Smoke test of the benchmark's own code at tiny op counts.

    python3 -m pytest -q perfbench/test_smoke.py

It checks that the benchmark runs, the output schema and that the
correctness checks catch wrong outputs.  It never gates on timings.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import clock  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

from qfactory import protocol8 as p8, sim, wire  # noqa: E402


def _cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def _schema(line: str, section: str) -> dict:
    out = json.loads(line)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1
    assert isinstance(out["failed"], int)
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    for val in out["metrics"].values():
        assert isinstance(val["value"], (int, float))
    return out


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_cli_prints_every_metric(trace, section):
    proc = _cli("--workload", "tcp-run8", "--seed", "1", "--seconds", "0.3",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    out = _schema(lines[-1], section)
    assert out["correct"] and out["failed"] == 0
    report = json.loads(lines[-2])["report"]
    assert report["host"]["nproc"] >= 1 and report["seed"] == 1


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _cli("--workload", "sv-run8", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_sv_run8_checks(tmp_path):
    wl = workloads.SvRun8(5, tmp_path)
    win = run.run_window(wl, 0)
    assert (win.ops, win.failed) == (1, 0)
    res = wl.op(1)[0]
    assert wl.check(1, res) == 0
    # Wrong for either plain-variant family: fidelity 0 with |B2>, 1/2 with |+/->.
    wrong = sim.QubitDescription.computational(1 - res.run1.out.B2)
    bad_run1 = dataclasses.replace(res.run1, held=wrong)
    assert wl.check(2, dataclasses.replace(res, run1=bad_run1)) == 1
    facts = wl.replay()
    assert facts["replayed"] == 3 and facts["mismatches"] == 0
    wl.close()


def test_tb_verifiable_checks(tmp_path):
    wl = workloads.TbVerifiable(5, tmp_path, n=8)
    win = run.run_window(wl, 0)
    assert (win.ops, win.failed) == (8, 0)
    assert len(wl.latency_samples()) >= 8
    result, _ = wl.op(1)
    bad = dataclasses.replace(result, held_fidelities=(0.5,) + result.held_fidelities)
    assert wl.check(1, bad) == 1
    assert wl.replay()["mismatches"] == 0
    wl.close()


def test_tcp_run8_matches_local_and_catches_divergence(tmp_path):
    wl = workloads.make("tcp-run8", 5, tmp_path, ROOT / "src", traced=True)
    try:
        wl.setup()
        win = run.run_window(wl, 0)
        run.run_window(wl, 0, first_index=win.next_index)
        assert wl.verify() == 0
        assert wl.replay()["replayed"] == 2
        wl.records[1] = wl.records[1].replace('"run_id": 1', '"run_id": 7')
        assert wl.verify() == 1
    finally:
        wl.close()


def test_paper_client_checks(tmp_path):
    wl = workloads.PaperClient(5, tmp_path)
    res, pk2, x = wl.op(0)[0]
    assert wl.check(0, (res, pk2, x)) == 0
    other = dataclasses.replace(x, d=1 - x.d, c=1 - x.c)
    assert wl.check(0, (res, pk2, other)) == 1
    assert wl.replay()["mismatches"] == 0
    wl.close()


def test_ref_clock_scales_wall_time_and_pauses_for_calibration(monkeypatch):
    wall = iter([0.0, 10.0, 10.05, 10.35, 10.4, 10.45, 20.0])
    monkeypatch.setattr(clock.time, "perf_counter", lambda: next(wall))
    # The host runs the kernel at half the reference speed.
    monkeypatch.setattr(clock, "kernel_time", lambda: 2 * clock.CAL_REF_S)
    ref = clock.RefClock(scaled=True)  # calibrates once: wall 0.0 -> 10.0
    assert ref.now() == pytest.approx(0.025)  # 0.05 s of wall at half speed
    assert ref.now() == pytest.approx(0.175)  # 0.3 s more, then calibrates
    assert ref.now() == pytest.approx(0.2)  # the calibration did not count
    assert len(ref.kernel_s) == 2
    assert clock.RefClock(scaled=False).kernel_s == []


def test_tracer_restores_entry_points_and_reports_layers(tmp_path):
    before = (p8.run_protocol8, sim.StateVector.h, wire.SocketChannel.recv)
    t = tracing.Tracer()
    t.install()
    try:
        assert p8.run_protocol8 is not before[0]
        wl = workloads.SvRun8(5, tmp_path)
        wl.tracer = t
        win = run.run_window(wl, 0, t)
        facts = wl.replay()
    finally:
        t.uninstall()
    assert (p8.run_protocol8, sim.StateVector.h, wire.SocketChannel.recv) == before
    metrics = tracing.per_layer_metrics(t, win.ops, facts)
    metrics["trace.overhead_pct"] = (0.0, "%")
    assert {k: u for k, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert metrics["sim.gate1q.calls"][0] > 0
    assert tracing.top_layer(metrics) in tracing.LAYERS
