"""Labeled seed derivation: one master seed, independent deterministic streams.

Child seeds are the first 8 bytes of SHA-256 over the master seed and the
label path, so parallel runs stay reproducible without sharing generators.
"""

from __future__ import annotations

import hashlib


def derive_seed(master: int, *labels) -> int:
    text = str(int(master)) + "/" + "/".join(str(x) for x in labels)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def run_seed(master: int, run_id: int, label: str, *role) -> int:
    """Seed of one run's server step (label = variant or "merge"); the client
    appends the role "client".  Every transport derives seeds here."""
    return derive_seed(master, "run", run_id, label, *role)
