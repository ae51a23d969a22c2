"""qfactory benchmark: one closed-loop workload per invocation.

    python3 perfbench/run.py --workload sv-run8 --seed 1 --seconds 20 --trace 0

Run from the repository root (or any checkout of it); the program is imported
from ``src/`` next to this directory.  With ``--trace 0`` the last stdout
line carries the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a traced run.  The line before it is a report with the
host, the seed, op and sample counts.  The exit code is 0 only when every
correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
WORKLOADS = ("sv-run8", "tb-verifiable", "tcp-run8", "paper-client")
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60


@dataclass
class Window:
    """What one timed window measured."""

    calls: int = 0
    ops: int = 0
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0
    wall_s: float = 0.0
    call_ms: list = field(default_factory=list)
    next_index: int = 0

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.busy_s if self.busy_s else 0.0


def run_window(wl, seconds: float, tracer=None, first_index: int = 0) -> Window:
    """Closed loop: issue calls until the next one would end past `seconds` of wall time.

    At least one call runs.  Only the call itself is timed, on the
    workload's clock; the workload's checks and transcript writes for it run
    between calls.
    """
    win = Window(next_index=first_index)
    start = time.perf_counter()
    i = first_index
    while True:
        wall0 = time.perf_counter()
        t0 = wl.clock.now()
        try:
            if tracer is not None:
                tracer.op = i
                with tracer.span("bench.op"):
                    result, done = wl.op(i)
            else:
                result, done = wl.op(i)
        except Exception:
            traceback.print_exc()
            win.attempted += wl.ops_per_call
            win.failed += wl.ops_per_call
            break
        finally:
            if tracer is not None:
                tracer.op = None
        dt = wl.clock.now() - t0
        wall = time.perf_counter() - wall0
        win.calls += 1
        win.ops += done
        win.attempted += done
        win.busy_s += dt
        win.wall_s += wall
        win.call_ms.append(dt * 1e3)
        try:
            win.failed += wl.check(i, result)
        except Exception:
            traceback.print_exc()
            win.failed += done
        i += 1
        if time.perf_counter() - start + wall > seconds:
            break
    win.next_index = i
    return win


def percentile(values, q: float) -> float:
    """Linear-interpolated q-quantile, 0 < q < 1."""
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def host_record() -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "cpu_model": cpu,
        "cpu0_caches": caches,
        "platform": platform.platform(),
        "sandbox": f"shared host, {nproc} cores, no core pinning or isolation from other load",
    }


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter (imports, warm-up op, server start),
    at reference host speed."""
    start = time.perf_counter()
    import workloads
    import clock

    wl = workloads.make(workload, seed, _workdir(f"probe-{os.getpid()}"), SRC)
    try:
        wl.setup()
        return (time.perf_counter() - start) * clock.reference_scale()
    finally:
        wl.close()
        shutil.rmtree(wl.workdir, ignore_errors=True)


def _workdir(name: str) -> Path:
    path = WORKDIR / name
    path.mkdir(parents=True, exist_ok=True)
    return path


def _probe_subprocesses(workload: str, seed: int) -> list[float]:
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
            finally:
                # SIGTERM lets a probe stop the server child it may have started.
                if proc.poll() is None:
                    proc.terminate()
                    proc.wait()
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe exited with {proc.returncode}")
        samples.append(float(out.strip().splitlines()[-1]))
    return samples


def _result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def bench(workload: str, seed: int, seconds: float, trace: bool) -> int:
    setup_samples = [] if trace else _probe_subprocesses(workload, seed)
    start = time.perf_counter()
    import workloads
    import clock
    import tracer as tracing

    run_dir = _workdir(f"run-{os.getpid()}")
    wl = workloads.make(workload, seed, run_dir, SRC, traced=trace)
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
    tracer = None
    try:
        wl.setup()
        setup_samples.append((time.perf_counter() - start) * clock.reference_scale())
        # Spans are wall time, so the traced run runs no calibration kernel.
        wl.clock = clock.RefClock(scaled=wl.scaled_clock and not trace)
        if trace:
            plain = run_window(wl, seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            wl.tracer = tracer
            if wl.name == "tcp-run8":
                wl.chan.sock = tracing.CountingSocket(wl.chan.sock, tracer)
            win = run_window(wl, seconds / 2, tracer, first_index=plain.next_index)
            report["untraced_calls"] = plain.calls
        else:
            win = run_window(wl, seconds)
        try:
            facts = wl.replay()
        except Exception:
            traceback.print_exc()
            facts = {"replayed": 0, "passes": 0, "records_per_s": 0.0, "mismatches": 1,
                     "bytes_per_record": 0.0}
        if tracer is not None:
            tracer.uninstall()
        try:
            deferred = wl.verify()
        except Exception:
            traceback.print_exc()
            deferred = max(win.ops, 1)
    finally:
        if tracer is not None:
            tracer.uninstall()
        wl.close()
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = win.failed + deferred + facts["mismatches"]
    attempted = win.attempted + (plain.attempted if trace else 0)
    failed = min(failed + (plain.failed if trace else 0), attempted)
    # A run whose first call raised has no samples; it reports 0 and fails.
    samples = wl.latency_samples() or win.call_ms or [0.0]
    report.update({
        "host": host_record(),
        "calls": win.calls,
        "ops": win.ops,
        "wall_ops_per_s": win.ops / win.wall_s if win.wall_s else 0.0,
        "latency_samples": len(samples),
        "records_replayed": facts["replayed"],
        "replay_passes": facts["passes"],
        "replay_mismatches": facts["mismatches"],
        "deferred_failures": deferred,
        "reference_clock": wl.clock.scaled,
        "calibrations": len(wl.clock.kernel_s),
        "kernel_ms_p50": statistics.median(wl.clock.kernel_s) * 1e3 if wl.clock.kernel_s else None,
    })
    report.update(wl.report())

    if trace:
        metrics = tracing.per_layer_metrics(tracer, win.ops, facts)
        metrics["trace.overhead_pct"] = (
            (plain.ops_per_s / win.ops_per_s - 1.0) * 100 if win.ops_per_s else 0.0, "%",
        )
        report["top_layer"] = tracing.top_layer(metrics)
        report["layer_sum_frac"] = metrics["trace.layer_sum_frac"][0]
        spans_path = WORKDIR / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        server_kb = wl.server_hwm_kb
        report["setup_samples_s"] = setup_samples
        report["peak_rss_kb"] = {"bench": rss_kb, "server": server_kb}
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "ops_per_s": (win.ops_per_s, "1/s"),
            "op_p50_ms": (percentile(samples, 0.5), "ms"),
            "op_p90_ms": (percentile(samples, 0.9), "ms"),
            "success_frac": (1.0 - failed / attempted, "frac"),
            "peak_rss_mb": ((rss_kb + server_kb) / 1024, "MB"),
            "replay_records_per_s": (facts["records_per_s"], "1/s"),
        }
    print(json.dumps({"report": report}))
    correct = failed == 0
    print(_result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "qfactory" / "__init__.py").is_file():
        print(f"perfbench: no qfactory sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # SIGTERM unwinds through the finally blocks that stop the server child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.setup_probe:
        print(probe_setup(args.workload, args.seed))
        return 0
    return bench(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
