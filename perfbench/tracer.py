"""Span tracing for the traced benchmark run.

Timing wrappers are installed from here around the public entry points of
the qfactory layers; nothing under ``src/`` knows about them.  Each call
records a span (name, layer, start, end, parent, op id, thread) in memory.
Self time is a span's duration minus the durations of its direct children,
which all run on the same thread and never overlap each other.

Module-level functions are often imported by name into other modules
(``protocol4`` binds ``sim.analytic_stage2`` directly), so a function is
patched in every loaded ``qfactory`` module that holds it.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

# (module, attribute, span name).  The layer is the span name's first part,
# except for receive waits, which get their own layer "wire_wait".
SPANS = [
    ("sim", "StateVector.h", "sim.gate1q"),
    ("sim", "StateVector.x", "sim.gate1q"),
    ("sim", "StateVector.z", "sim.gate1q"),
    ("sim", "StateVector.r", "sim.gate1q"),
    ("sim", "StateVector.cz", "sim.cz"),
    ("sim", "StateVector.apply_function_unitary", "sim.function_unitary"),
    ("sim", "StateVector.measure", "sim.measure"),
    ("sim", "StateVector.postselect", "sim.postselect"),
    ("sim", "StateVector.qubit_state", "sim.qubit_state"),
    ("sim", "analytic_stage2", "sim.two_branch"),
    ("sim", "sample_b", "sim.two_branch"),
    ("lwe", "gen", "lwe.gen"),
    ("lwe", "invert", "lwe.invert"),
    ("lwe", "f_bit_table", "lwe.f_bit_table"),
    ("lwe", "f", "lwe.f"),
    ("lwe", "encode", "lwe.encode"),
    ("protocol4", "run_protocol4", "protocol4.run"),
    ("protocol4", "client_init", "protocol4.client_init"),
    ("protocol4", "server_honest", "protocol4.server_honest"),
    ("protocol4", "finalize", "protocol4.finalize"),
    ("protocol8", "run_protocol8", "protocol8.run"),
    ("protocol8", "merge_gadget", "protocol8.merge_gadget"),
    ("selftest", "run_verifiable", "selftest.run_verifiable"),
    ("selftest", "plan_tests", "selftest.plan_tests"),
    ("selftest", "collect_and_check", "selftest.collect_and_check"),
    ("wire", "run4_over_channel", "wire.client"),
    ("wire", "run8_over_channel", "wire.client"),
    ("wire", "SocketChannel.send", "wire.send"),
    ("wire", "SocketChannel.recv", "wire.recv_wait"),
    ("wire", "validate_message", "wire.validate"),
    ("wire", "ServerSession.handle", "wire.server_handle"),
    ("serde", "key_to_obj", "serde.key_to_obj"),
    ("serde", "key_from_obj", "serde.key_from_obj"),
    ("serde", "trapdoor_to_obj", "serde.trapdoor_to_obj"),
    ("serde", "trapdoor_from_obj", "serde.trapdoor_from_obj"),
    ("transcripts", "run4_record", "transcripts.record_build"),
    ("transcripts", "run8_record", "transcripts.record_build"),
    ("transcripts", "TranscriptWriter.append", "transcripts.append"),
    ("transcripts", "read_records", "transcripts.read_records"),
    ("transcripts", "replay", "transcripts.replay"),
]

LAYERS = (
    "sim", "lwe", "protocol4", "protocol8", "selftest",
    "wire", "wire_wait", "serde", "transcripts", "bench",
)

# Per-op self times, in ms, reported by span name.
OP_SPAN_METRICS = (
    "sim.gate1q", "sim.cz", "sim.function_unitary", "sim.measure",
    "sim.postselect", "sim.qubit_state", "sim.two_branch",
    "lwe.gen", "lwe.invert", "lwe.f_bit_table", "lwe.f", "lwe.encode",
    "protocol4.run", "protocol4.client_init", "protocol4.server_honest",
    "protocol4.finalize", "protocol8.run", "protocol8.merge_gadget",
    "selftest.run_verifiable", "selftest.plan_tests", "selftest.collect_and_check",
    "wire.client", "wire.send", "wire.recv_wait.image", "wire.recv_wait.meas",
    "wire.recv_wait.merge", "wire.validate",
    "serde.key_to_obj", "serde.key_from_obj", "serde.trapdoor_to_obj", "serde.json",
)

# Server handling runs on the server thread, concurrently with the client's
# receive wait, so it is reported with its children included.
SERVER_HANDLE_KINDS = ("key", "merge")

GATE_COMPLEX_BYTES = 16


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float
    op: int | None
    thread: str


def _layer(name: str) -> str:
    if name.startswith("wire.recv_wait"):
        return "wire_wait"
    return name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(float)
        self.op: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str):
        """Context manager recording a span from the benchmark's own code."""
        return _SpanContext(self, name)

    def _open(self) -> tuple[int, int | None, float, int | None]:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        return sid, parent, time.perf_counter(), self.op

    def _close(self, sid, parent, start, op, name):
        end = time.perf_counter()
        self._stack().pop()
        thread = "main" if threading.current_thread() is threading.main_thread() else "server"
        self.spans.append(Span(sid, parent, name, _layer(name), start, end, op, thread))

    def count(self, key: str, value: float = 1.0, in_ops_only: bool = True):
        if self.op is not None or not in_ops_only:
            self.counts[key] += value

    def wrap(self, fn, name: str, name_of=None, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            sid, parent, start, op = tracer._open()
            label = name
            try:
                result = fn(*args, **kwargs)
                if name_of is not None:
                    label = name_of(args, result)
                if on_result is not None:
                    on_result(args, result)
                return result
            finally:
                tracer._close(sid, parent, start, op, label)

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        import qfactory.lwe  # noqa: F401  (load every traced module first)
        import qfactory.selftest  # noqa: F401
        import qfactory.transcripts  # noqa: F401
        import qfactory.wire  # noqa: F401

        hooks = self._hooks()
        loaded = [m for key, m in sys.modules.items() if key.startswith("qfactory.")]
        for modname, attr, name in SPANS:
            module = sys.modules[f"qfactory.{modname}"]
            name_of, on_result = hooks.get((modname, attr), (None, None))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self.wrap(getattr(cls, meth), name, name_of, on_result))
                continue
            original = getattr(module, attr)
            traced = self.wrap(original, name, name_of, on_result)
            for mod in loaded:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, traced)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _hooks(self) -> dict:
        from qfactory import protocol4 as p4

        def gate(args, result):
            self.count("sim.gate1q.calls")
            self.count("sim.gate1q.bytes", 2 * GATE_COMPLEX_BYTES * (1 << args[0].n))

        def table(args, result):
            self.count("lwe.f_bit_table.entries", len(result))

        def finalized(args, result):
            self.count("finalize.calls")
            self.count("finalize.two", result.accepted == p4.TWO_PREIMAGES)

        def run8(args, result):
            self.count("run8.calls")
            self.count("run8.usable", bool(result.usable))

        def verifiable(args, result):
            self.count("verifiable.attempts", result.attempts)
            self.count("verifiable.states", args[1])

        def replayed(args, result):
            self.count("transcripts.replayed", result.records, in_ops_only=False)

        def sent(args, result):
            self.count("wire.frames_out")

        def received(args, result):
            self.count("wire.frames_in")

        gate_hook = (None, gate)
        return {
            ("sim", "StateVector.h"): gate_hook,
            ("sim", "StateVector.x"): gate_hook,
            ("sim", "StateVector.z"): gate_hook,
            ("sim", "StateVector.r"): gate_hook,
            ("lwe", "f_bit_table"): (None, table),
            ("protocol4", "finalize"): (None, finalized),
            ("protocol8", "run_protocol8"): (None, run8),
            ("wire", "run8_over_channel"): (None, run8),
            ("selftest", "run_verifiable"): (None, verifiable),
            ("transcripts", "replay"): (None, replayed),
            ("wire", "SocketChannel.send"): (None, sent),
            ("wire", "SocketChannel.recv"): (
                lambda args, result: f"wire.recv_wait.{result.kind}", received,
            ),
            ("wire", "ServerSession.handle"): (
                lambda args, result: f"wire.server_handle.{args[1].kind}", None,
            ),
        }

    # -- output --------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")

    def self_times(self) -> dict[int, float]:
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        return {s.sid: (s.end - s.start) - covered[s.sid] for s in self.spans}


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.token = self.tracer._open()
        return self

    def __exit__(self, *exc):
        self.tracer._close(*self.token, self.name)


class CountingSocket:
    """Socket proxy counting payload bytes for the wire byte counters."""

    def __init__(self, sock, tracer: Tracer):
        self._sock = sock
        self._tracer = tracer

    def sendall(self, data):
        self._tracer.count("wire.bytes_out", len(data))
        return self._sock.sendall(data)

    def recv(self, size):
        data = self._sock.recv(size)
        self._tracer.count("wire.bytes_in", len(data))
        return data

    def __getattr__(self, attr):
        return getattr(self._sock, attr)


def per_layer_metrics(tracer: Tracer, ops: int, records: dict) -> dict[str, tuple[float, str]]:
    """Per-op layer numbers from the traced window plus per-record transcript numbers.

    ``records`` carries the run's replay facts: bytes_per_record and mismatches.
    """
    selfs = tracer.self_times()
    in_ops = [s for s in tracer.spans if s.op is not None]
    by_name: dict[str, float] = defaultdict(float)
    by_layer: dict[str, float] = defaultdict(float)
    handle: dict[str, float] = defaultdict(float)
    op_wall = 0.0
    for s in in_ops:
        by_name[s.name] += selfs[s.sid]
        if s.thread == "main":
            by_layer[s.layer] += selfs[s.sid]
        if s.name == "bench.op":
            op_wall += s.end - s.start
        elif s.name.startswith("wire.server_handle."):
            handle[s.name] += s.end - s.start
    whole_run = defaultdict(float)
    for s in tracer.spans:
        whole_run[s.name] += selfs[s.sid]

    per_op = max(ops, 1)
    c = tracer.counts
    out: dict[str, tuple[float, str]] = {}
    for name in OP_SPAN_METRICS:
        out[f"{name}.ms"] = (by_name[name] * 1e3 / per_op, "ms")
    for kind in SERVER_HANDLE_KINDS:
        out[f"wire.server_handle.{kind}.ms"] = (
            handle[f"wire.server_handle.{kind}"] * 1e3 / per_op, "ms",
        )
    out["sim.gate1q.calls"] = (c["sim.gate1q.calls"] / per_op, "count")
    out["sim.gate1q.bytes"] = (c["sim.gate1q.bytes"] / per_op, "B")
    out["lwe.f_bit_table.entries"] = (c["lwe.f_bit_table.entries"] / per_op, "count")
    out["lwe.two_preimage_ratio"] = (_ratio(c["finalize.two"], c["finalize.calls"]), "frac")
    out["protocol8.usable_ratio"] = (_ratio(c["run8.usable"], c["run8.calls"]), "frac")
    out["selftest.attempts_per_state"] = (
        _ratio(c["verifiable.attempts"], c["verifiable.states"]), "count",
    )
    for key in ("wire.frames_out", "wire.frames_in"):
        out[key] = (c[key] / per_op, "count")
    for key in ("wire.bytes_out", "wire.bytes_in", "serde.key_bytes"):
        out[key] = (c[key] / per_op, "B")

    appended = max(sum(1 for s in tracer.spans if s.name == "transcripts.append"), 1)
    replayed = max(c["transcripts.replayed"], 1)
    for name, per in (("record_build", appended), ("append", appended),
                      ("read_records", replayed), ("replay", replayed)):
        out[f"transcripts.{name}.ms"] = (whole_run[f"transcripts.{name}"] * 1e3 / per, "ms")
    out["transcripts.bytes_per_record"] = (records["bytes_per_record"], "B")
    out["transcripts.replay.mismatches"] = (records["mismatches"], "count")

    for layer in LAYERS:
        out[f"layer.{layer}.ms"] = (by_layer[layer] * 1e3 / per_op, "ms")
    covered = sum(v for k, v in by_layer.items() if k != "bench")
    out["trace.op_ms"] = (op_wall * 1e3 / per_op, "ms")
    out["trace.layer_sum_frac"] = (_ratio(covered, op_wall), "frac")
    return out


def top_layer(metrics: dict) -> str:
    layers = {k: v for k, (v, _) in metrics.items() if k.startswith("layer.") and k != "layer.bench.ms"}
    return max(layers, key=layers.get)[len("layer."):-len(".ms")]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
