"""Per-seed client records are pinned: a change to any random stream shows here.

The digest covers run8 records and plain and rotated run4 records for the four
toy presets, on both backends, for seeds 0-2.  The chain hashes of a fixed
transcript file and the key and trapdoor JSON of `gen` are pinned as well.
The raw arrays `gen` gives are pinned apart from any text form, so a change
of the key format re-pins the JSON digests and leaves `RAW` unchanged.
An intentional stream change updates the pinned values and gives its reason
in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from qfactory import lwe, protocol4 as p4, protocol8 as p8, seeds, serde, transcripts
from qfactory.params import TOY_GADGET, TOY_MICRO, TOY_REG, TOY_WIDE, paper_params, toy_params

DIGEST = "0b5477df0020bd572d8c572e8c67ec4cce7840afdf4212a06349e6c84b66b20a"

# TOY_MICRO plain run4 (seed 0), rotated run4 (seed 3) and run8 (seed 1)
CHAIN = [
    "bc076a43d69c297a7119b1096cfff9eacab54d81ed0acef6c2b3d945aea4148e",
    "885adc40ea66f3bdd2250fc2d1575cdb1d2a7ae6030f8e42af79b7d8c8df45fc",
    "686c7d2854fd335b9ace2942416631090c8f148cf7e88b0897dc56a5d1eaa7e1",
]

# SHA-256 of serde.keypair_to_json(*gen(params, seed)).  No preset drops a bit
# of the gadget matrix R at its column-weight cap; CAPPED does, at both seeds.
# The enumeration-scale keys (no gadget) come from the injectivity scan over
# toy candidates; N2 is one with two s coordinates.
CAPPED = toy_params(n=1, q=8, m=7, mu=1)
N2 = toy_params(n=2, q=8, m=5, mu=1)
PAPER16 = paper_params(16)
KEYS = {
    "micro-0": (TOY_MICRO, 0, "281ee126bf1beb8e08aae450cc3ac58a9e117d20bb36512d1e5b3f885d228520"),
    "micro-1": (TOY_MICRO, 1, "8ee142bc1106d5f49dcd4989d013d3bc5ba30b5064067510a885d9d077233960"),
    "reg-0": (TOY_REG, 0, "01881245a973e4c0a8e229e2580713d0dc23610d98aba04f47df88e84455a998"),
    "reg-1": (TOY_REG, 1, "27f3fd2e8902184d4d9b7b0bf2d8e65005f29873443194f259aeda27f2506107"),
    "wide-0": (TOY_WIDE, 0, "f7556b366ff7527a6bfa33c0aecb6dbc91af870b265d57ab5a875999ef47be03"),
    "wide-1": (TOY_WIDE, 1, "10fd66929ab70c5897886cb563f3f9f4fc199e6d8283712454a14f2b9ca1ab31"),
    "n2-0": (N2, 0, "5ae8bbf20d661a5d21733124cd893df53161de616c9fbd6975202fbb2c479303"),
    "gadget-0": (TOY_GADGET, 0, "6de12456e4d12e2933605ce4535deed1468ab658136fe60b6b1366587e9eda33"),
    "gadget-1": (TOY_GADGET, 1, "25758c164abf18762f46c0511323d49e65b06e338199dabe4bf8c4857c45f818"),
    "capped-0": (CAPPED, 0, "527e5a5ee1289cd3e219821dd5c16254c3e68f38cf6635ac53708d7a8aefa533"),
    "capped-1": (CAPPED, 1, "2c798e9ffac5610aabb07bc28e9aaa6ac5760d7b02248f34c9899b68075e1955"),
    "paper16-0": (PAPER16, 0, "dda2ba39d37be5e3941e29ceb44def64e2ccbb6ff2c027e2d33960ba1831987e"),
    "paper16-1": (PAPER16, 1, "fa339609cd4b4d97ed41f317d14693a3189d218a12c55b36f9e235ada7cf4e61"),
}

# SHA-256 of the little-endian int64 bytes of K, y0, R, err_lo, err_hi, s, e
# and d0 of gen(params, seed), in that order, for the KEYS entries; a key
# without a gadget has no R, err_lo or err_hi.
RAW = {
    "micro-0": "79afe558be27da878605d6c19246d102a97d9724dd68ee6019878c536fef9e26",
    "micro-1": "2876379bb017d8466f677d7c779406bce14795dd871f3c2350aaa81cd7cb5bd6",
    "reg-0": "9651a313349569b37ab76ff91da03684ad4067456af3b9879dcefcac01402e74",
    "reg-1": "3f8c31831c15f555d819de1573d59903585a9083626fe4f7123285364ddce1e2",
    "wide-0": "1a020fe7cc025b6fafcfc67f14f8116ffb7d361cfe8670e352c8feef7a8ad0cb",
    "wide-1": "3247c9be9f701306ac5a49dde88240069442ed12da0692291a0637b98a712ebc",
    "n2-0": "927dfa4b6f3426075fd55643903fbc19b3ab96344b9f38c37d5bdafe45a6355e",
    "gadget-0": "b37f610d5e11aa4177cd98cf4512ba7ca9b0276d0eb3fc9b5df68e7831a677b1",
    "gadget-1": "2a210f8990d5320958971d29ffd023b5f6008012d80f06d8f2ffa25267cc03c5",
    "capped-0": "4f4932499a27e7f9ed1ff5f3375fb481e11527d6886bd4b6f80e579761fa9cc8",
    "capped-1": "3e1c537d125acd27e0a1805bcb61d91662aea204321420dd25d050e80ee02e06",
    "paper16-0": "84f3dacf51c92fbce9029e04f9fa1d0f0e2a8ea0afd4e035632db4765ff69657",
    "paper16-1": "af4efd274abc4cc0b196f6c1285ea43b2574693d9ea56bffc3a226d98fe407d4",
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


@pytest.mark.parametrize("name", KEYS.keys())
def test_gen_arrays_are_pinned(name):
    params, seed, _ = KEYS[name]
    pk, td = lwe.gen(params, seed)
    gd = td.gadget
    gadget = () if gd is None else (gd.R, gd.err_lo, gd.err_hi)
    digest = hashlib.sha256()
    for part in (pk.K, pk.y0, *gadget, td.z0.s, td.z0.e, [td.d0]):
        digest.update(np.asarray(part, dtype="<i8").tobytes())
    assert digest.hexdigest() == RAW[name]


def test_every_generator_comes_from_seeds_rng():
    src = Path(seeds.__file__).parent
    assert [p.name for p in src.rglob("*.py") if "default_rng" in p.read_text("utf-8")] == []
    for seed in (0, 1, 2**63 + 5, 2**64 - 1):
        a, b = seeds.rng(seed), np.random.default_rng(seed)
        assert np.array_equal(a.integers(0, 1 << 62, size=64), b.integers(0, 1 << 62, size=64))
        assert np.array_equal(a.random(64), b.random(64))
