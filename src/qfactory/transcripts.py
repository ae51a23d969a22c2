"""Tamper-evident experiment records: JSON lines with a SHA-256 chain.

Each line carries {"seq", "prev", "body", "hash"} where hash covers the
previous hash and the canonical body encoding.  Replay re-derives every
client-side index from the persisted key material and flags divergence.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from . import protocol4 as p4
from . import serde

GENESIS = "0" * 64


class TranscriptError(Exception):
    pass


def _canonical(body: dict) -> str:
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def _chain_hash(prev: str, body: dict) -> str:
    return hashlib.sha256((prev + _canonical(body)).encode("utf-8")).hexdigest()


class TranscriptWriter:
    def __init__(self, path):
        self.path = Path(path)
        self._prev = GENESIS
        self._seq = 0
        self._fh = self.path.open("w", encoding="utf-8")

    def append(self, body: dict):
        record = {
            "seq": self._seq,
            "prev": self._prev,
            "body": body,
            "hash": _chain_hash(self._prev, body),
        }
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._prev = record["hash"]
        self._seq += 1

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_records(path) -> list[dict]:
    """Parse and verify the chain; raises TranscriptError on any break."""
    records = []
    prev = GENESIS
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TranscriptError(f"line {lineno}: truncated or corrupt JSON") from exc
            for field in ("seq", "prev", "body", "hash"):
                if field not in rec:
                    raise TranscriptError(f"line {lineno}: missing field {field!r}")
            if rec["prev"] != prev:
                raise TranscriptError(f"line {lineno}: chain break")
            if rec["hash"] != _chain_hash(prev, rec["body"]):
                raise TranscriptError(f"line {lineno}: hash mismatch")
            prev = rec["hash"]
            records.append(rec)
    return records


def run4_record(result: p4.Protocol4Result, run_id: int, seed: int) -> dict:
    """Client-private record of one 4-states run (never sent on the wire)."""
    return {
        "kind": "run4",
        "run_id": run_id,
        "variant": result.transcript.variant,
        "key_msg": serde.key_to_obj(result.client.pk),
        "trapdoor": serde.trapdoor_to_obj(result.client.trapdoor),
        "y": [str(int(v)) for v in result.transcript.y],
        "b": "".join(str(v) for v in result.transcript.b),
        "accepted": result.out.accepted,
        "B1": result.out.B1,
        "B2": result.out.B2,
        "family": result.out.family,
        "seeds": {"run": seed},
    }


def run8_record(result, run_id: int, seed: int) -> dict:
    """Two 4-states sub-records plus the merge outcomes and the stored index."""
    rec = {
        "kind": "run8",
        "run_id": run_id,
        "run1": run4_record(result.run1, run_id, seed),
        "run2": run4_record(result.run2, run_id, seed),
        "s1": result.s1,
        "s2": result.s2,
        "usable": result.usable,
        "L": result.index.L if result.index is not None else None,
        "seeds": {"run": seed},
    }
    return rec


@dataclass
class ReplayReport:
    records: int
    verified_runs: int
    mismatches: list


def replay(path) -> ReplayReport:
    """Re-derive (accepted, B1, B2) for every persisted run and compare."""
    records = read_records(path)
    verified = 0
    mismatches = []

    def check_run4(body, seq) -> dict | None:
        try:
            pk = serde.key_from_obj(body["key_msg"])
            client = p4.ClientState4(
                pk=pk,
                trapdoor=serde.trapdoor_from_obj(body["trapdoor"]),
                params=pk.params,
                variant=body["variant"],
                seed=int(body["seeds"]["run"]),
            )
            y = [int(v) for v in body["y"]]
            b = tuple(int(ch) for ch in body["b"])
            out = p4.finalize(client, y, b)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise TranscriptError(f"record {seq}: {exc!r}") from exc
        got = {"accepted": out.accepted, "B1": out.B1, "B2": out.B2}
        want = {"accepted": body["accepted"], "B1": body["B1"], "B2": body["B2"]}
        if got != want:
            return {"seq": seq, "recorded": want, "derived": got}
        return None

    for rec in records:
        body = rec["body"]
        if body.get("kind") == "run4":
            bad = check_run4(body, rec["seq"])
            if bad:
                mismatches.append(bad)
            else:
                verified += 1
        elif body.get("kind") == "run8":
            bad = check_run4(body["run1"], rec["seq"]) or check_run4(body["run2"], rec["seq"])
            if bad is None and body.get("L") is not None:
                from . import protocol8 as p8

                idx = p8.compute_L(
                    body["run1"]["B1"],
                    body["run1"]["B2"],
                    body["run2"]["B1"],
                    body["run2"]["B2"],
                    int(body["s1"]),
                    int(body["s2"]),
                )
                if idx.L != int(body["L"]):
                    bad = {"seq": rec["seq"], "recorded": body["L"], "derived": idx.L}
            if bad:
                mismatches.append(bad)
            else:
                verified += 1
    return ReplayReport(records=len(records), verified_runs=verified, mismatches=mismatches)
