"""Tamper-evident experiment records: JSON lines with a SHA-256 chain.

Each line is the compact canonical encoding (sorted keys, no spaces) of
{"seq", "prev", "body", "hash"}, where hash covers the previous hash and the
canonical body encoding; the reader takes any JSON layout of exactly those
fields, seq the record's position, and re-derives the hash.  Replay re-derives
each record's client-derived fields (accepted, B1, B2, family; run8 adds
usable and L) by the live client's rules: the `serde` readers of y, b and the
merge outcomes, the core of `protocol4.finalize`, `protocol8.eight_index` and
the field builders the records are written with.  Fields are compared by type
and value; a record not readable with its exact meaning, identity fields (run
id, seeds, sub-record kind) included, is a TranscriptError.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from . import lwe, protocol4 as p4, protocol8 as p8, serde

GENESIS = "0" * 64
_ENVELOPE = {"seq": int, "prev": str, "body": dict, "hash": str}


class TranscriptError(Exception):
    pass


def _canonical(body: dict) -> str:
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def _chain_hash(prev: str, canon: str) -> str:
    """The hash of a record: SHA-256 of the previous hash and the canonical body."""
    return hashlib.sha256((prev + canon).encode("utf-8")).hexdigest()


class TranscriptWriter:
    def __init__(self, path):
        self.path = Path(path)
        self._prev = GENESIS
        self._seq = 0
        self._fh = self.path.open("w", encoding="utf-8")

    def append(self, body: dict):
        """Write the record as `_canonical` writes it, with the body encoded once."""
        canon = _canonical(body)
        digest = _chain_hash(self._prev, canon)
        self._fh.write(
            f'{{"body":{canon},"hash":"{digest}","prev":"{self._prev}","seq":{self._seq}}}\n'
        )
        self._prev = digest
        self._seq += 1

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_records(path) -> list[dict]:
    """Parse and verify each line's `_ENVELOPE`, its seq and the chain; a
    TranscriptError on any break."""
    records = []
    prev = GENESIS
    with Path(path).open("rb") as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
                raise TranscriptError(f"line {lineno}: truncated or corrupt JSON") from exc
            if not isinstance(rec, dict):
                raise TranscriptError(f"line {lineno}: not a JSON object")
            try:
                serde.check_shape(rec, _ENVELOPE, "record")
            except ValueError as exc:
                raise TranscriptError(f"line {lineno}: {exc}") from exc
            if rec["seq"] != len(records):
                raise TranscriptError(f"line {lineno}: seq {rec['seq']} is not {len(records)}")
            if rec["prev"] != prev:
                raise TranscriptError(f"line {lineno}: chain break")
            if rec["hash"] != _chain_hash(prev, _canonical(rec["body"])):
                raise TranscriptError(f"line {lineno}: hash mismatch")
            prev = rec["hash"]
            records.append(rec)
    return records


def _run4_fields(out: p4.OutputIndex4) -> dict:
    """The client-derived fields of a run4 record."""
    return {"accepted": out.accepted, "B1": out.B1, "B2": out.B2, "family": out.family}


def _run8_fields(s1: int, s2: int, index: p8.EightIndex | None) -> dict:
    """The merge fields of a run8 record: the outcomes and the derived index."""
    L = None if index is None else index.L
    return {"s1": s1, "s2": s2, "usable": index is not None, "L": L}


def run4_record(result: p4.Protocol4Result, run_id: int, seed: int) -> dict:
    """Client-private record of one 4-states run (never sent on the wire)."""
    return {
        "kind": "run4",
        "run_id": run_id,
        "variant": result.transcript.variant,
        "key_msg": serde.key_to_obj(result.client.pk),
        "trapdoor": serde.trapdoor_to_obj(result.client.trapdoor),
        "y": serde.int_strings(result.transcript.y),
        "b": lwe.bits_text(result.transcript.b),
        **_run4_fields(result.out),
        "seeds": {"run": seed},
    }


def run8_record(result: p8.Protocol8Result, run_id: int, seed: int) -> dict:
    """Two 4-states sub-records plus the merge outcomes and the stored index."""
    return {
        "kind": "run8",
        "run_id": run_id,
        "run1": run4_record(result.run1, run_id, seed),
        "run2": run4_record(result.run2, run_id, seed),
        **_run8_fields(result.s1, result.s2, result.index),
        "seeds": {"run": seed},
    }


@dataclass
class ReplayReport:
    records: int
    verified_runs: int
    mismatches: list


def _identity(body: dict) -> tuple:
    """A record's run id and seeds; ValueError unless the run id and the run
    seed are ints (a bool does not count)."""
    run_id, seeds = body["run_id"], body["seeds"]
    if type(run_id) is not int or type(seeds["run"]) is not int:
        raise ValueError(f"run id {run_id!r} and run seed in {seeds!r} must be integers")
    return run_id, seeds


def _finalize(body: dict) -> p4.OutputIndex4:
    """`finalize`'s core on a run4 body's key material, y and b, each read by
    the rule the wire client reads it with, which is the one check they get."""
    pk = serde.key_from_obj(body["key_msg"])
    td = serde.trapdoor_from_obj(body["trapdoor"], pk.params)
    client = p4.ClientState4(pk=pk, trapdoor=td, variant=body["variant"])
    y = serde.zq_entries(body["y"], pk.params.m, pk.params.q)
    b = serde.record_bits(body["b"], pk.params.total_bits)
    return p4._finalize(client, y, b)


def _derived(body: dict) -> dict:
    """The client-derived fields of a record, re-derived and built as the
    live client builds them."""
    identity = _identity(body)
    if body["kind"] == "run4":
        return _run4_fields(_finalize(body))
    if body["kind"] != "run8":
        raise ValueError(f"unknown record kind {body['kind']!r}")
    run1, run2 = body["run1"], body["run2"]
    # run8_record writes both sub-records with the record's own run id and seeds
    for sub in (run1, run2):
        if sub["kind"] != "run4" or repr(_identity(sub)) != repr(identity):
            raise ValueError("a run8 sub-record is a run4 record of the same run id and seeds")
    if (run1["variant"], run2["variant"]) != (p4.PLAIN, p4.ROTATED):
        raise ValueError("a run8 record merges a plain run and a rotated run")
    out1, out2 = _finalize(run1), _finalize(run2)
    s1, s2 = (serde.bit(body[k], "merge outcome " + k) for k in ("s1", "s2"))
    return {
        "run1": _run4_fields(out1),
        "run2": _run4_fields(out2),
        **_run8_fields(s1, s2, p8.eight_index(out1, out2, s1, s2)),
    }


def _recorded(body: dict, derived: dict) -> dict:
    """The fields of `body` named in `derived`, nested alike."""
    return {
        k: _recorded(body[k], v) if isinstance(v, dict) else body[k] for k, v in derived.items()
    }


def replay(path) -> ReplayReport:
    """Re-derive every record's client-derived fields and compare them with
    the recorded ones by type as well as value (repr), so True is not 1."""
    records = read_records(path)
    mismatches = []
    for rec in records:
        try:
            got = _derived(rec["body"])
            want = _recorded(rec["body"], got)
        except (KeyError, TypeError, ValueError, OverflowError, AttributeError) as exc:
            raise TranscriptError(f"record {rec['seq']}: {exc!r}") from exc
        if repr(got) != repr(want):
            mismatches.append({"seq": rec["seq"], "recorded": want, "derived": got})
    verified = len(records) - len(mismatches)
    return ReplayReport(records=len(records), verified_runs=verified, mismatches=mismatches)
