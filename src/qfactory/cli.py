"""Command-line harness: keygen, protocol runs, oracle checks, wire endpoints.

Every command is deterministic given --seed, and reports are versioned JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import abort, lwe, oracle, protocol4 as p4, protocol8 as p8, selftest as stt
from . import serde, transcripts, wire
from .params import params_by_name
from .seeds import derive_seed
from .stats import wilson_interval

REPORT_VERSION = 1


def _emit(obj: dict, out: str | None):
    obj = {"report_version": REPORT_VERSION, **obj}
    text = json.dumps(obj, indent=2, sort_keys=True, default=str)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


_SHARED_OPTIONS = {
    "--params": dict(default="toy", help="parameter preset name"),
    "--seed": dict(type=int, default=0),
    "--backend": dict(default="twobranch", choices=["sv", "twobranch"]),
    "--out": dict(default=None, help="write the JSON report here"),
}


def _shared(parser: argparse.ArgumentParser, *names: str):
    """Add the shared options a subcommand reads, and only those."""
    for name in names:
        parser.add_argument(name, **_SHARED_OPTIONS[name])


def _backend(name: str) -> str:
    return "statevector" if name == "sv" else "two_branch"


def cmd_keygen(args) -> int:
    params = params_by_name(args.params)
    pk, td = lwe.gen(params, args.seed)
    _emit(json.loads(serde.keypair_to_json(pk, td)), args.out)
    return 0


def cmd_run4(args) -> int:
    params = params_by_name(args.params)
    rows = []
    writer = transcripts.TranscriptWriter(args.transcripts) if args.transcripts else None
    accepted = 0
    basis_ones = 0
    for run_id in range(args.runs):
        res = p4.run_protocol4(
            params,
            derive_seed(args.seed, "run4", run_id),
            backend=_backend(args.backend),
            variant=p4.ROTATED if args.rotated else p4.PLAIN,
        )
        accepted += res.out.accepted == p4.TWO_PREIMAGES
        basis_ones += res.out.B1
        rows.append({"run_id": run_id, "accepted": res.out.accepted})
        if writer:
            writer.append(transcripts.run4_record(res, run_id, args.seed))
    if writer:
        writer.close()
    lo, hi = wilson_interval(accepted, args.runs)
    _emit(
        {
            "runs": args.runs,
            "accept_rate": accepted / args.runs,
            "accept_interval": [lo, hi],
            "B1_bias": abs(basis_ones / args.runs - 0.5),
            "rows": rows[:20],
        },
        args.out,
    )
    return 0


def cmd_run8(args) -> int:
    params = params_by_name(args.params)
    usable = 0
    counts = [0] * 8
    for run_id in range(args.runs):
        res = p8.run_protocol8(
            params, derive_seed(args.seed, "run8", run_id), backend=_backend(args.backend)
        )
        if res.usable:
            usable += 1
            counts[res.index.L] += 1
    _emit(
        {"runs": args.runs, "usable": usable, "L_histogram": counts},
        args.out,
    )
    return 0


def cmd_run_abort(args) -> int:
    params = params_by_name(args.params)
    p_a = args.p_a if args.p_a is not None else lwe.analytic_homomorphy(params)
    rate, _ = abort.simulate_honest_chunks(
        params, args.t_c, args.n_c_chunks, args.p_c, derive_seed(args.seed, "abort")
    )
    bound = abort.chernoff_success_bound(p_a, args.p_c, args.t_c)
    _emit(
        {
            "t_c": args.t_c,
            "chunks": args.n_c_chunks,
            "p_a_analytic": p_a,
            "p_c": args.p_c,
            "accept_rate": rate,
            "empirical_bound": bound,
        },
        args.out,
    )
    return 0


def cmd_run_verifiable(args) -> int:
    params = params_by_name(args.params)
    res = stt.run_verifiable(
        params,
        N=args.N,
        f=args.fraction,
        eps2=args.eps2,
        seed=args.seed,
        backend=_backend(args.backend),
        server=args.server,
    )
    _emit(
        {
            "accept": res.accept,
            "tested": len(res.table.cells),
            "unmeasured": len(res.unmeasured),
            "min_held_fidelity": min(res.held_fidelities) if res.held_fidelities else None,
            "attempts": res.attempts,
        },
        args.out,
    )
    return 0


def cmd_selftest(args) -> int:
    if args.strategy:
        obj = json.loads(Path(args.strategy).read_text(encoding="utf-8"))
        states = np.array([[complex(re, im) for re, im in row] for row in obj["states"]])
        observables = np.array(
            [[[complex(re, im) for re, im in row] for row in mat] for mat in obj["observables"]]
        )
        strategy = stt.Strategy(states=states, observables=observables)
    else:
        strategy = stt.honest_strategy()
    res = stt.selftest_iid(strategy, N=args.N, eps2=args.eps2, seed=args.seed)
    report = {
        "accept": res.accept,
        "cells": {
            f"{L},{M}": [count, plus] for (L, M), (count, plus) in sorted(res.table.cells.items())
        },
    }
    if res.isometry is not None:
        report["fidelities"] = list(res.isometry.fidelities)
        report["max_junk_distance"] = res.isometry.max_junk_distance
    _emit(report, args.out)
    return 0


def cmd_oracle_check(args) -> int:
    params = params_by_name(args.params)
    rep = oracle.oracle_check(params, trials=args.trials, seed=args.seed)
    _emit(rep.as_dict(), args.out)
    ok = (
        rep.invert_mismatches == 0
        and rep.register_preimage_mismatches == 0
        and rep.formula_failures == 0
    )
    return 0 if ok else 1


def cmd_serve(args) -> int:
    server = wire.ProtocolServer(
        (args.host, args.port), master_seed=args.seed, backend=_backend(args.backend)
    )
    print(f"serving on {server.server_address[0]}:{server.server_address[1]}", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown()
    return 0


def cmd_connect(args) -> int:
    params = params_by_name(args.params)
    chan = wire.SocketChannel(*(args.endpoint or wire.endpoint_from_env()))
    accepted = 0
    try:
        for run_id in range(args.runs):
            res = wire.run4_over_channel(chan, params, args.seed, run_id)
            accepted += res.out.accepted == p4.TWO_PREIMAGES
    finally:
        chan.close()
    _emit({"runs": args.runs, "accept_rate": accepted / args.runs}, args.out)
    return 0


def cmd_replay(args) -> int:
    rep = transcripts.replay(args.file)
    _emit(
        {
            "records": rep.records,
            "verified_runs": rep.verified_runs,
            "mismatches": rep.mismatches,
        },
        args.out,
    )
    return 0 if not rep.mismatches else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qfactory")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("keygen", help="generate a keypair")
    _shared(sp, "--params", "--seed", "--out")
    sp.set_defaults(func=cmd_keygen)

    sp = sub.add_parser("run4", help="run the 4-states protocol")
    _shared(sp, "--params", "--seed", "--backend", "--out")
    sp.add_argument("--runs", type=int, default=20)
    sp.add_argument("--rotated", action="store_true")
    sp.add_argument("--transcripts", default=None, help="write JSON-lines transcripts")
    sp.set_defaults(func=cmd_run4)

    sp = sub.add_parser("run8", help="run the 8-states protocol")
    _shared(sp, "--params", "--seed", "--backend", "--out")
    sp.add_argument("--runs", type=int, default=20)
    sp.set_defaults(func=cmd_run8)

    sp = sub.add_parser("run-abort", help="chunked abort-tolerant statistics")
    _shared(sp, "--params", "--seed", "--out")
    sp.add_argument("--t_c", type=int, default=60)
    sp.add_argument("--n_c", dest="n_c_chunks", type=int, default=1000)
    sp.add_argument("--p_a", type=float, default=None, help="override the analytic accept probability")
    sp.add_argument("--p_c", type=float, default=0.52)
    sp.set_defaults(func=cmd_run_abort)

    sp = sub.add_parser("run-verifiable", help="verification layer over the stack")
    _shared(sp, "--params", "--seed", "--backend", "--out")
    sp.add_argument("--N", type=int, default=400)
    sp.add_argument("--fraction", type=float, default=0.5)
    sp.add_argument("--eps2", type=float, default=0.05)
    sp.add_argument("--server", default="honest", choices=["honest", "shift"])
    sp.set_defaults(func=cmd_run_verifiable)

    sp = sub.add_parser("selftest", help="iid blind self-testing of a strategy file")
    _shared(sp, "--seed", "--out")
    sp.add_argument("--strategy", default=None, help="JSON strategy description")
    sp.add_argument("--N", type=int, default=10_000)
    sp.add_argument("--eps2", type=float, default=0.05)
    sp.set_defaults(func=cmd_selftest)

    sp = sub.add_parser("oracle-check", help="closed forms against brute force")
    _shared(sp, "--params", "--seed", "--out")
    sp.add_argument("--trials", type=int, default=400)
    sp.set_defaults(func=cmd_oracle_check)

    sp = sub.add_parser("serve", help="host the honest server over TCP")
    _shared(sp, "--seed", "--backend")
    sp.add_argument("--host", default="127.0.0.1")
    sp.add_argument("--port", type=int, default=7801)
    sp.set_defaults(func=cmd_serve)

    sp = sub.add_parser("connect", help="drive protocol runs against a server")
    _shared(sp, "--params", "--seed", "--out")
    sp.add_argument("--endpoint", type=wire.parse_endpoint, help="host:port (or QFACTORY_ENDPOINT)")
    sp.add_argument("--runs", type=int, default=10)
    sp.set_defaults(func=cmd_connect)

    sp = sub.add_parser("replay", help="verify a transcript file")
    _shared(sp, "--out")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
