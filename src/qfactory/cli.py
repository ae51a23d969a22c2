"""Command-line harness: keygen, protocol runs, oracle checks, wire endpoints.

Every command is deterministic given --seed, and reports are versioned JSON.
`run4` and `run8` drive runs 0..N-1 of master --seed in-process or against a
`serve --seed` at --endpoint, with the same reports and transcripts either way.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import abort, lwe, oracle, protocol4 as p4, selftest as stt
from . import serde, transcripts, wire
from .params import params_by_name
from .seeds import derive_seed
from .stats import wilson_interval

REPORT_VERSION = 1

# run-verifiable --server NAME: the strategy whose Born table answers the tests
SERVERS = {
    "honest": stt.honest_strategy,
    "shift": functools.partial(stt.shifted_strategy, np.pi / 4),
}


class CommandError(Exception):
    """"<where>: <error>" of a failed socket, server or file the command uses;
    `main` makes it one stderr line and exit 2."""


@contextlib.contextmanager
def _writing(path):
    """An OSError inside, as a CommandError that names `path`."""
    try:
        yield
    except OSError as exc:
        raise CommandError(f"{path}: {exc}") from exc


def _emit(obj: dict, out: str | None):
    obj = {"report_version": REPORT_VERSION, **obj}
    text = json.dumps(obj, indent=2, sort_keys=True, default=str, allow_nan=False)
    if out:
        with _writing(out):
            Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return int(text)


def _fraction(interval: str):
    """An argparse type: a float in `interval`, "(0, 1)" or "(0, 1]" (nan lies
    in neither)."""

    def fraction(text: str) -> float:
        x = float(text)
        if not (0 < x and (x <= 1 if interval[-1] == "]" else x < 1)):
            raise argparse.ArgumentTypeError(f"{text} does not lie in {interval}")
        return x

    return fraction


def _by_rule(rule):
    """An argparse type from a rule that raises ValueError, naming the value."""

    def parse(text: str):
        try:
            return rule(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{text}: {exc}") from None

    return parse


_SHARED_OPTIONS = {
    "--params": dict(default="toy", type=_by_rule(params_by_name), help="parameter preset name"),
    "--seed": dict(type=int, default=0),
    "--backend": dict(default="twobranch", choices=["sv", "twobranch"]),
    "--endpoint": dict(type=_by_rule(wire.parse_endpoint), help="host:port of a qfactory serve"),
    "--out": dict(default=None, help="write the JSON report here"),
}


def _shared(parser, *names: str):
    """Add the shared options a subcommand reads, and only those, to its
    parser or to one of the parser's groups."""
    for name in names:
        parser.add_argument(name, **_SHARED_OPTIONS[name])


def _backend(name: str) -> str:
    return "statevector" if name == "sv" else "two_branch"


def cmd_keygen(args) -> int:
    pk, td = lwe.gen(args.params, args.seed)
    _emit(json.loads(serde.keypair_to_json(pk, td)), args.out)
    return 0


def _drive(args, run):
    """Runs 0..N-1 of master --seed over one channel: the in-process server
    session of --backend, or the `serve` at --endpoint, which reproduce each
    other bit for bit.  `run(chan, params, seed, run_id)` gives a run's result;
    yields (run id, result) as each arrives.  A socket or wire failure is a
    CommandError that names the server; the caller's loop body is not inside."""
    where = "{}:{}".format(*args.endpoint) if args.endpoint else "in-process server"
    try:
        if args.endpoint:
            chan = wire.SocketChannel(*args.endpoint)
        else:
            chan = wire.local_session(args.seed, _backend(args.backend))
        with contextlib.closing(chan):
            for run_id in range(args.runs):
                yield run_id, run(chan, args.params, args.seed, run_id)
    except (OSError, wire.WireError) as exc:
        raise CommandError(f"{where}: {exc}") from exc


def cmd_run4(args) -> int:
    variant = p4.ROTATED if args.rotated else p4.PLAIN
    run = functools.partial(wire.run4_over_channel, variant=variant)
    accepted = b1 = 0
    rows = []
    with _writing(args.transcripts):
        writer = transcripts.TranscriptWriter(args.transcripts) if args.transcripts else None
        with writer or contextlib.nullcontext():
            for run_id, res in _drive(args, run):
                accepted += res.out.accepted == p4.TWO_PREIMAGES
                b1 += res.out.B1
                if len(rows) < 20:
                    rows.append({"run_id": run_id, "accepted": res.out.accepted})
                if writer:
                    writer.append(transcripts.run4_record(res, run_id, args.seed))
    lo, hi = wilson_interval(accepted, args.runs)
    _emit(
        {
            "runs": args.runs,
            "accept_rate": accepted / args.runs,
            "accept_interval": [lo, hi],
            "B1_bias": abs(b1 / args.runs - 0.5),
            "rows": rows,
        },
        args.out,
    )
    return 0


def cmd_run8(args) -> int:
    counts = [0] * 8
    for _, res in _drive(args, wire.run8_over_channel):
        if res.usable:
            counts[res.index.L] += 1
    _emit({"runs": args.runs, "usable": sum(counts), "L_histogram": counts}, args.out)
    return 0


def cmd_run_abort(args) -> int:
    p_a = lwe.analytic_homomorphy(args.params)
    rate, _ = abort.simulate_honest_chunks(
        args.params, args.t_c, args.n_c_chunks, args.p_c, derive_seed(args.seed, "abort")
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
    try:
        res = stt.run_verifiable(
            args.params,
            N=args.N,
            f=args.fraction,
            eps2=args.eps2,
            seed=args.seed,
            backend=_backend(args.backend),
            strategy=SERVERS[args.server](),
        )
    except wire.WireError as exc:  # the in-process server refuses the key
        raise CommandError(f"in-process server: {exc}") from exc
    _emit(
        {
            "accept": res.accept,
            "tested": res.table.total(),
            "unmeasured": len(res.unmeasured),
            "min_held_fidelity": min(res.held_fidelities) if res.held_fidelities else None,
            "attempts": res.attempts,
        },
        args.out,
    )
    return 0


def _strategy_file(path: str) -> stt.Strategy:
    """The strategy in a JSON file: states as rows of [re, im] pairs and
    observables as matrices of them."""
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    states = np.array([[complex(re, im) for re, im in row] for row in obj["states"]])
    observables = np.array(
        [[[complex(re, im) for re, im in row] for row in mat] for mat in obj["observables"]]
    )
    return stt.Strategy(states=states, observables=observables)


def cmd_selftest(args) -> int:
    if args.strategy:
        try:
            strategy = _strategy_file(args.strategy)
        except (OSError, KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise CommandError(f"bad strategy file {args.strategy}: {exc!r}") from exc
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
    if not lwe.enumerable(args.params):
        raise CommandError("--params: domain too large for exhaustive enumeration")
    rep = oracle.oracle_check(args.params, trials=args.trials, seed=args.seed)
    _emit(rep.as_dict(), args.out)
    ok = (
        rep.invert_mismatches == 0
        and rep.register_preimage_mismatches == 0
        and rep.formula_failures == 0
    )
    return 0 if ok else 1


def cmd_serve(args) -> int:
    try:
        server = wire.ProtocolServer(
            (args.host, args.port), master_seed=args.seed, backend=_backend(args.backend)
        )
    except OSError as exc:  # a busy port or an unresolvable host
        raise CommandError(f"{args.host}:{args.port}: {exc}") from exc
    print(f"serving on {server.server_address[0]}:{server.server_address[1]}", file=sys.stderr)
    wire.log.addHandler(logging.StreamHandler(sys.stderr))
    wire.log.setLevel(logging.INFO)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown()
    return 0


def cmd_replay(args) -> int:
    try:
        rep = transcripts.replay(args.file)
    except (OSError, transcripts.TranscriptError) as exc:
        raise CommandError(f"{args.file}: {exc}") from exc
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
    _shared(sp, "--params", "--seed", "--out")
    # the in-process server of --backend, or a serve at --endpoint; not both
    _shared(sp.add_mutually_exclusive_group(), "--backend", "--endpoint")
    sp.add_argument("--runs", type=_positive_int, default=20)
    sp.add_argument("--rotated", action="store_true")
    sp.add_argument("--transcripts", default=None, help="write JSON-lines transcripts")
    sp.set_defaults(func=cmd_run4)

    sp = sub.add_parser("run8", help="run the 8-states protocol")
    _shared(sp, "--params", "--seed", "--out")
    _shared(sp.add_mutually_exclusive_group(), "--backend", "--endpoint")
    sp.add_argument("--runs", type=_positive_int, default=20)
    sp.set_defaults(func=cmd_run8)

    sp = sub.add_parser("run-abort", help="chunked abort-tolerant statistics")
    _shared(sp, "--params", "--seed", "--out")
    sp.add_argument("--t_c", type=_positive_int, default=60)
    sp.add_argument("--n_c", dest="n_c_chunks", type=_positive_int, default=1000)
    sp.add_argument("--p_c", type=_fraction("(0, 1]"), default=0.52)
    sp.set_defaults(func=cmd_run_abort)

    sp = sub.add_parser("run-verifiable", help="verification layer over the stack")
    _shared(sp, "--params", "--seed", "--backend", "--out")
    sp.add_argument("--N", type=_positive_int, default=400)
    sp.add_argument("--fraction", type=_fraction("(0, 1)"), default=0.5)
    sp.add_argument("--eps2", type=_fraction("(0, 1)"), default=0.05)
    sp.add_argument("--server", default="honest", choices=list(SERVERS))
    sp.set_defaults(func=cmd_run_verifiable)

    sp = sub.add_parser("selftest", help="iid blind self-testing of a strategy file")
    _shared(sp, "--seed", "--out")
    sp.add_argument("--strategy", default=None, help="JSON strategy description")
    sp.add_argument("--N", type=_positive_int, default=10_000)
    sp.add_argument("--eps2", type=_fraction("(0, 1)"), default=0.05)
    sp.set_defaults(func=cmd_selftest)

    sp = sub.add_parser("oracle-check", help="closed forms against brute force")
    _shared(sp, "--params", "--seed", "--out")
    sp.add_argument("--trials", type=_positive_int, default=400)
    sp.set_defaults(func=cmd_oracle_check)

    sp = sub.add_parser("serve", help="host the honest server over TCP")
    _shared(sp, "--seed", "--backend")
    sp.add_argument("--host", default="127.0.0.1")
    sp.add_argument("--port", type=_by_rule(wire.parse_port), default=7801)
    sp.set_defaults(func=cmd_serve)

    sp = sub.add_parser("replay", help="verify a transcript file")
    _shared(sp, "--out")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CommandError as exc:
        print(f"qfactory {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
