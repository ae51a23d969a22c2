"""Labeled seed derivation: one master seed, independent deterministic streams.

Child seeds are the first 8 bytes of SHA-256 over the master seed and the
label path, so parallel runs stay reproducible without sharing generators.
Every generator in the package comes from `rng`: a PCG64 generator that draws
exactly the stream numpy's default generator gives for the same integer seed.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(master: int, *labels) -> int:
    text = str(int(master)) + "/" + "/".join(str(x) for x in labels)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def run_seed(master: int, run_id: int, label: str, *role) -> int:
    """Seed of one run's server step (label = variant, "merge" or "test");
    the client appends the role "client".  Every transport derives seeds here."""
    return derive_seed(master, "run", run_id, label, *role)


def rng(seed: int) -> np.random.Generator:
    """The PCG64 generator of an integer seed, built directly, without the
    argument dispatch of numpy's default constructor."""
    return np.random.Generator(np.random.PCG64(seed))
