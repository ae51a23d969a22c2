"""The four benchmark workloads.

Each is a closed loop: one client in one process issues the next operation
only after the previous one returned.  A workload provides

* ``setup()``: warm-up op, plus server start and connect for ``tcp-run8``;
* ``op(i)``: one timed call, returning ``(result, ops_done)``;
* ``check(i, result)``: correctness checks and transcript writes for that
  call, outside the op timer; returns the number of failed ops;
* ``replay()``: after the timed window, replays every transcript file and
  reports;
* ``verify()``: deferred checks after the window; returns failed ops;
* ``close()``: stops every process and thread it started.

Times are read from ``self.clock`` (see ``clock.py``), which the runner sets.

Inputs derive from the workload seed only (``derive_seed(seed, name, i)``).
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from qfactory import lwe, protocol4 as p4, protocol8 as p8, selftest, serde, transcripts, wire
from qfactory.params import TOY_MICRO, TOY_WIDE, paper_params
from qfactory.seeds import derive_seed
from qfactory.sim import fidelity

from clock import RefClock

FIDELITY_FLOOR = 1.0 - 1e-9
SERVER_START_TIMEOUT_S = 30.0
SERVER_STOP_TIMEOUT_S = 10.0

# N = 896 puts the 448 tests into the eight pooled difference classes with a
# mean of 56 each; the chance that any class stays below min_count = 30 (so
# that the accept test would not decide) is about 1.5e-4 per batch.
VERIFIABLE_N = 896
VERIFIABLE_MIN_COUNT = 30

# Transcripts are split into files of this many records, so that
# read_records (which holds a whole file in memory) stays small on ~345 KB
# paper-profile records.
RECORDS_PER_FILE = 16
REPLAY_MIN_S = 3.0
REPLAY_MAX_PASSES = 15


class Workload:
    name = ""
    ops_per_call = 1
    # Compute-bound ops are timed at reference host speed (clock.py).
    scaled_clock = True
    server_hwm_kb = 0  # peak RSS of a server child, read before it stops

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.tracer = None
        self.clock = RefClock(scaled=False)
        self._writer = None
        self._path: Path | None = None
        self._files = self._in_file = 0
        self._closed: list[Path] = []

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def op_seed(self, i: int) -> int:
        return derive_seed(self.seed, self.name, i)

    def setup(self):
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> int:
        return 0

    def verify(self) -> int:
        return 0

    def latency_samples(self) -> list[float] | None:
        """Latency samples in ms when they are not one per call."""
        return None

    def report(self) -> dict:
        return {}

    def close(self):
        self._close_writer()

    # -- transcripts ---------------------------------------------------

    def append(self, record: dict):
        if self._writer is None:
            self._path = self.workdir / f"{self.name}-{self._files:04d}.jsonl"
            self._files += 1
            self._writer = transcripts.TranscriptWriter(self._path)
        self._writer.append(record)
        self._in_file += 1
        if self._in_file == RECORDS_PER_FILE:
            self._close_writer()

    def _close_writer(self):
        if self._writer is not None:
            self._writer.close()
            self._writer = None
            self._in_file = 0
            self._closed.append(self._path)

    def replay(self) -> dict:
        """Replay every transcript file, then delete them; returns the replay facts.

        Replay is compute-bound on every workload, so it is timed at reference
        speed even where the op clock is plain wall time.  One pass over a short
        run's records takes a fraction of a second, so passes repeat until
        REPLAY_MIN_S of wall time is spent (at most REPLAY_MAX_PASSES), and the
        rate is the median over passes.  Every pass must match.
        """
        self._close_writer()
        timer = RefClock(scaled=True)
        deadline = time.perf_counter() + REPLAY_MIN_S
        records = mismatches = 0
        rates = []
        while not rates or (time.perf_counter() < deadline and len(rates) < REPLAY_MAX_PASSES):
            records = spent = 0
            for path in self._closed:
                start = timer.now()
                rep = transcripts.replay(path)
                spent += timer.now() - start
                records += rep.records
                mismatches += len(rep.mismatches)
            rates.append(records / spent if spent else 0.0)
        size = sum(path.stat().st_size for path in self._closed)
        for path in self._closed:
            path.unlink()
        self._closed.clear()
        return {
            "replayed": records,
            "passes": len(rates),
            "records_per_s": statistics.median(rates),
            "mismatches": mismatches,
            "bytes_per_record": size / records if records else 0.0,
        }


def _run8_checks(res: p8.Protocol8Result) -> bool:
    """Held qubits match the client's descriptions, merged one included when usable."""
    for run in (res.run1, res.run2):
        if run.held is None or fidelity(run.held, run.out.qubit()) < FIDELITY_FLOOR:
            return False
    if res.usable:
        return res.held is not None and fidelity(res.held, res.index.qubit()) >= FIDELITY_FLOOR
    return True


class SvRun8(Workload):
    """Full 14-qubit statevector circuit per 4-states run, two runs and a merge per op."""

    name = "sv-run8"

    def setup(self):
        p8.run_protocol8(TOY_MICRO, derive_seed(self.seed, "warm-up"), backend="statevector")

    def op(self, i):
        return p8.run_protocol8(TOY_MICRO, self.op_seed(i), backend="statevector"), 1

    def check(self, i, result):
        self.append(transcripts.run8_record(result, i, self.op_seed(i)))
        return 0 if _run8_checks(result) else 1


class TbVerifiable(Workload):
    """One verifiable batch per call; an op is one usable eight-state.

    Latency samples are per raw preparation attempt (one ``run_protocol8``
    call inside the batch), because a batch of 896 states is one call per
    run.  The records of the batch's usable runs are written after it.
    """

    name = "tb-verifiable"

    def __init__(self, seed, workdir, n: int = VERIFIABLE_N):
        super().__init__(seed, workdir)
        self.n = self.ops_per_call = n
        self.attempt_ms: list[float] = []
        self.usable_runs: list[p8.Protocol8Result] = []
        self.undecided = 0

    def _batch(self, n: int, seed: int):
        inner = p8.run_protocol8

        def timed(*args, **kwargs):
            start = self.clock.now()
            res = inner(*args, **kwargs)
            self.attempt_ms.append((self.clock.now() - start) * 1e3)
            if res.usable:
                self.usable_runs.append(res)
            return res

        p8.run_protocol8 = timed
        try:
            return selftest.run_verifiable(
                TOY_WIDE, n, f=0.5, eps2=0.05, seed=seed, backend="two_branch",
                min_count=VERIFIABLE_MIN_COUNT,
            )
        finally:
            p8.run_protocol8 = inner

    def setup(self):
        self._batch(8, derive_seed(self.seed, "warm-up"))
        self.attempt_ms.clear()
        self.usable_runs.clear()

    def op(self, i):
        return self._batch(self.n, self.op_seed(i)), self.n

    def check(self, i, result):
        for k, res in enumerate(self.usable_runs):
            self.append(transcripts.run8_record(res, k, self.op_seed(i)))
        self.usable_runs.clear()
        pooled = result.table.pooled()
        if len(pooled) < 8 or min(c for c, _ in pooled.values()) < VERIFIABLE_MIN_COUNT:
            self.undecided += 1
        return sum(1 for fid in result.held_fidelities if fid < FIDELITY_FLOOR)

    def latency_samples(self):
        return self.attempt_ms

    def report(self):
        return {"undecided_batches": self.undecided}


class TcpRun8(Workload):
    """run8 over one TCP connection to a ``qfactory serve`` child process.

    With ``in_process`` the server runs on a thread of this process instead,
    which the traced run needs to wrap ``ServerSession.handle``.
    """

    name = "tcp-run8"
    # The op is ~90% waits set by kernel timers, which do not change with host
    # speed: it is timed in plain wall time.
    scaled_clock = False

    def __init__(self, seed, workdir, src: Path, in_process: bool = False):
        super().__init__(seed, workdir)
        self.src = src
        self.in_process = in_process
        self.master = derive_seed(seed, self.name, "master")
        self.proc = None
        self.server = None
        self.chan = None
        self.records: list[str] = []

    def _start_child(self) -> int:
        log = self.workdir / "serve.log"
        env = dict(os.environ, PYTHONPATH=str(self.src))
        with log.open("w") as fh:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "qfactory.cli", "serve", "--port", "0",
                 "--seed", str(self.master), "--backend", "twobranch"],
                stdout=subprocess.DEVNULL, stderr=fh, env=env,
            )
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        while time.monotonic() < deadline:
            text = log.read_text()
            if "serving on" in text:
                return int(text.split("serving on", 1)[1].split()[0].rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early:\n{text}")
            time.sleep(0.005)
        raise RuntimeError("server did not start")

    def setup(self):
        if self.in_process:
            self.server = wire.serve("127.0.0.1", 0, self.master, backend="two_branch")
            port = self.server.server_address[1]
        else:
            port = self._start_child()
        self.chan = wire.SocketChannel("127.0.0.1", port)
        wire.run8_over_channel(self.chan, TOY_MICRO, self.master, -1)

    def op(self, i):
        result = wire.run8_over_channel(self.chan, TOY_MICRO, self.master, i)
        record = transcripts.run8_record(result, i, self.master)
        self.append(record)
        self.records.append(json.dumps(record, sort_keys=True))
        return result, 1

    def verify(self) -> int:
        """Every loopback record must equal the record of the same run in-process."""
        chan = wire.local_session(self.master)
        bad = 0
        for i, want in enumerate(self.records):
            res = wire.run8_over_channel(chan, TOY_MICRO, self.master, i)
            got = json.dumps(transcripts.run8_record(res, i, self.master), sort_keys=True)
            bad += got != want
        return bad

    def close(self):
        super().close()
        if self.chan is not None:
            self.chan.close()
            self.chan = None
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.server = None
        if self.proc is not None:
            self.server_hwm_kb = _vm_hwm_kb(self.proc.pid)
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(SERVER_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc = None


def _vm_hwm_kb(pid: int) -> int:
    """Peak resident set of a live child, from /proc; 0 where unavailable."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


class PaperClient(Workload):
    """Paper-profile (n = 16) 4-states client against a classical honest-image strategy."""

    name = "paper-client"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.params = paper_params(16)
        self._x = None

    def _strategy(self, key_msg, rng):
        with self.span("protocol4.strategy"):
            params = key_msg.pk.params
            x = lwe.sample_domain_element(params, rng)
            y = tuple(int(v) for v in lwe.f(key_msg.pk, x))
            b = tuple(int(v) for v in rng.integers(0, 2, size=params.total_bits))
            self._x = x
            return p4.StrategyReply(y=y, b=b, held=None)

    def _op(self, seed: int, run_id: int, keep: bool):
        res = p4.run_protocol4(self.params, seed, strategy=self._strategy)
        obj = serde.key_to_obj(res.client.pk)
        with self.span("serde.json"):
            text = json.dumps(obj)
            back = json.loads(text)
        if self.tracer:
            self.tracer.count("serde.key_bytes", len(text))
        pk2 = serde.key_from_obj(back)
        record = transcripts.run4_record(res, run_id, seed)
        if keep:
            self.append(record)
        return res, pk2, self._x

    def setup(self):
        self._op(derive_seed(self.seed, "warm-up"), -1, keep=False)

    def op(self, i):
        return self._op(self.op_seed(i), i, keep=True), 1

    def check(self, i, result):
        res, pk2, x = result
        pk = res.client.pk
        pre = lwe.invert(res.client.trapdoor, pk, res.transcript.y)
        ok = (
            x in pre
            and len(pre) <= 2
            and res.out.accepted != p4.NO_PREIMAGE
            and pk2.params == pk.params
            and np.array_equal(pk2.K, pk.K)
            and np.array_equal(pk2.y0, pk.y0)
        )
        return 0 if ok else 1


WORKLOADS = {
    cls.name: cls for cls in (SvRun8, TbVerifiable, TcpRun8, PaperClient)
}


def make(name: str, seed: int, workdir: Path, src: Path, traced: bool = False) -> Workload:
    if name == TcpRun8.name:
        return TcpRun8(seed, workdir, src, in_process=traced)
    return WORKLOADS[name](seed, workdir)

