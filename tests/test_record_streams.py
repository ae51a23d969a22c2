"""Per-seed client records are pinned: a change to any random stream shows here.

The digest covers run8 records and plain and rotated run4 records for the four
toy presets, on both backends, for seeds 0-2.  The chain hashes of a fixed
transcript file and the key and trapdoor JSON of `gen` are pinned as well.
An intentional stream change updates the pinned values and gives its reason
in CHANGES.md.
"""

import hashlib
import json

import pytest

from qfactory import lwe, protocol4 as p4, protocol8 as p8, serde, transcripts
from qfactory.params import TOY_GADGET, TOY_MICRO, TOY_REG, TOY_WIDE, paper_params, toy_params

DIGEST = "96085399b7f17ac731926e08029a4a7dc33a5ff0423b7401e45a065500d2f237"

# TOY_MICRO plain run4 (seed 0), rotated run4 (seed 3) and run8 (seed 1)
CHAIN = [
    "57e646b1a5662ef9ad1a0a113cf13bf0e60ce5fd1581a54c037f665921a00445",
    "683a9170ec4a28574daf479514b300e33065ab0730a48c4e985bb1cf07fe493f",
    "25cec032b1f72d836c5cac00a517644ff34c9713ca86671ea2376fcb0cf673fa",
]

# SHA-256 of serde.keypair_to_json(*gen(params, seed)).  No preset drops a bit
# of the gadget matrix R at its column-weight cap; CAPPED does, at both seeds.
CAPPED = toy_params(n=1, q=8, m=7, mu=1)
PAPER16 = paper_params(16)
KEYS = {
    "gadget-0": (TOY_GADGET, 0, "88abcc20c195e0369c79f0856c533d9f7dd26139d39cdb86f415936455bef18e"),
    "gadget-1": (TOY_GADGET, 1, "df9dff936835e865c62e87fddcca2b5b2a7e5a5c75141764d579b156eec98fc1"),
    "capped-0": (CAPPED, 0, "956395f45afc6db2ce120807c40bb318ac265ef0f4d428601f3b07b1f3f771c6"),
    "capped-1": (CAPPED, 1, "240ce9a0f5a4e38747587c999063484b0fa0777da320bee7d7678ac4f4e3a83d"),
    "paper16-0": (PAPER16, 0, "eb92be203a32bed78274a12f2fbbcd75d3b9892225d4eb69743ed2792079addc"),
    "paper16-1": (PAPER16, 1, "980c0d36e17fcd0a5a85521caf99092d8b2656a5a690e78d891a4b86ea16d47f"),
}


def _records():
    out = []
    for params in (TOY_MICRO, TOY_GADGET, TOY_REG, TOY_WIDE):
        for backend in ("two_branch", "statevector"):
            for seed in range(3):
                res8 = p8.run_protocol8(params, seed, backend)
                out.append(transcripts.run8_record(res8, 0, seed))
                for variant in (p4.PLAIN, p4.ROTATED):
                    res = p4.run_protocol4(params, seed, backend=backend, variant=variant)
                    out.append(transcripts.run4_record(res, 0, seed))
    return out


def test_per_seed_records_are_pinned():
    records = _records()
    assert len(records) == 72
    blob = json.dumps(records, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == DIGEST


def test_chain_hashes_are_pinned(tmp_path):
    path = tmp_path / "runs.jsonl"
    with transcripts.TranscriptWriter(path) as w:
        w.append(transcripts.run4_record(p4.run_protocol4(TOY_MICRO, 0), 0, 0))
        res = p4.run_protocol4(TOY_MICRO, 3, variant=p4.ROTATED)
        w.append(transcripts.run4_record(res, 1, 3))
        w.append(transcripts.run8_record(p8.run_protocol8(TOY_MICRO, 1), 2, 1))
    assert [rec["hash"] for rec in transcripts.read_records(path)] == CHAIN


@pytest.mark.parametrize("params, seed, digest", KEYS.values(), ids=KEYS.keys())
def test_gen_output_is_pinned(params, seed, digest):
    text = serde.keypair_to_json(*lwe.gen(params, seed))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
