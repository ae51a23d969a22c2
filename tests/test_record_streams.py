"""Per-seed client records are pinned: a change to any random stream shows here.

The digest covers run8 records and plain and rotated run4 records for the four
toy presets, on both backends, for seeds 0-2.  An intentional stream change
updates DIGEST and gives its reason in CHANGES.md.
"""

import hashlib
import json

from qfactory import protocol4 as p4, protocol8 as p8, transcripts
from qfactory.params import TOY_GADGET, TOY_MICRO, TOY_REG, TOY_WIDE

DIGEST = "96085399b7f17ac731926e08029a4a7dc33a5ff0423b7401e45a065500d2f237"


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
