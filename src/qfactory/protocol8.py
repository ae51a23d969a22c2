"""The 8-states extension: two 4-states runs merged into one |+_{L pi/4}>.

The merge gadget entangles an ancilla |+_{pi/4}> with the BB84 input and the
rotated input through two CZs, then reads the ancilla and the BB84 wire in
the X basis.  The surviving wire carries |+_{L pi/4}> with L computed from the
input indices and the two outcomes.

The index equations are frozen from an exhaustive statevector sweep.  Written
as integer phase bookkeeping (quarter turns of pi/4, tau = s2 xor B2):

    B1 = 0:  L = 4*(B2 + B2') + 2*B1'                            (mod 8)
    B1 = 1:  L = 2*(B1' + 2*B2') + 4*s1 + (-1)^tau               (mod 8)

equivalently, bitwise with L = L1 L2 L3 (most significant first):

    L3 = B1
    L2 = B1' xor (B1 & (B2 xor s2))
    L1 = B2' xor B2 xor (B1 & (s1 xor s2)) xor (B1 & B1' & (B2 xor s2))

The last xor term of L1 is the carry of the quarter-turn arithmetic into the
half-turn digit; dropping it breaks 16 of the 64 (index, outcome) cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import protocol4 as p4
from .params import ParamSet
from .sim import QubitDescription, draw_row, gadget_rows, row_branches


@dataclass(frozen=True)
class EightIndex:
    L: int  # 0..7, theta = L*pi/4

    def __post_init__(self):
        if not 0 <= self.L <= 7:
            raise ValueError("L must be a 3-bit index")

    def qubit(self) -> QubitDescription:
        return QubitDescription.eight(self.L)


@dataclass(frozen=True)
class MergeResult:
    s1: int
    s2: int
    out: QubitDescription


def compute_L(B1: int, B2: int, B1p: int, B2p: int, s1: int, s2: int) -> EightIndex:
    """Output index from the two input indices and the gadget outcomes."""
    l3 = B1 & 1
    l2 = (B1p ^ (B1 & (B2 ^ s2))) & 1
    carry = B1 & B1p & (B2 ^ s2)
    l1 = (B2p ^ B2 ^ (B1 & (s1 ^ s2)) ^ carry) & 1
    return EightIndex((l1 << 2) | (l2 << 1) | l3)


def eight_index(
    out1: p4.OutputIndex4, out2: p4.OutputIndex4, s1: int, s2: int
) -> EightIndex | None:
    """The merged qubit's index from the plain and rotated outputs and the
    merge outcomes; None for an unusable run, whose rotated input is not
    equatorial or whose plain run found no preimage."""
    if out2.family not in (p4.PAULI_X, p4.PAULI_Y) or out1.accepted == p4.NO_PREIMAGE:
        return None
    return compute_L(out1.B1, out1.B2, out2.B1, out2.B2, s1, s2)


def merge_gadget(
    in1: QubitDescription, in2: QubitDescription, rng: np.random.Generator
) -> MergeResult:
    """Execute the 3-qubit merge circuit, `sim.gadget_rows` with a pi/4
    ancilla, sampling the two X-basis outcomes."""
    (s1, s2), out = draw_row(gadget_rows(1, in1, in2), rng)
    return MergeResult(s1=s1, s2=s2, out=out)


def merge_branches(in1: QubitDescription, in2: QubitDescription):
    """All four (s1, s2) branches with exact probabilities; no sampling."""
    return [(s1, s2, prob, out) for (s1, s2), prob, out in row_branches(gadget_rows(1, in1, in2))]


# ---------------------------------------------------------------------------
# orchestration


@dataclass(frozen=True)
class Protocol8Result:
    index: EightIndex | None  # None for an unusable run
    run1: p4.Protocol4Result
    run2: p4.Protocol4Result
    s1: int
    s2: int
    held: QubitDescription | None

    @property
    def usable(self) -> bool:
        return self.index is not None


def run_protocol8(params: ParamSet, seed: int, backend: str = "two_branch") -> Protocol8Result:
    """Run 0 of a local session with master seed `seed`: two 4-states runs
    (plain + rotated) and the merge gadget.

    The honest server's local channel hands over the simulated held qubits,
    both inputs and the merged output.
    """
    from . import wire  # wire builds on this module

    return wire.run8_over_channel(wire.local_session(seed, backend), params, seed, 0)


# ---------------------------------------------------------------------------
# guessing statistics (two-predicate decomposition)


@dataclass(frozen=True)
class GuessStats:
    p_a: float
    p_b: float
    p_xor: float
    p_joint: float
    max_single: float
    epsilon: float
    epsilon_prime: float


def guess_stats(records) -> GuessStats:
    """Empirical decomposition of joint-guessing success into single-bit edges.

    records: iterable of (guess_a, guess_b, a, b).  Checks the exact identity
    P_xor = e1 + e4 and, whenever the joint rate exceeds 1/4 by eps, that one
    of the three single-bit predictors exceeds 1/2 by eps' = 2*eps/3.
    """
    records = list(records)
    if not records:
        raise ValueError("empty record set")
    n = len(records)
    e = [0, 0, 0, 0]  # (wrong,wrong), (right,wrong), (wrong,right), (right,right)
    for ga, gb, a, b in records:
        e[(ga == a) + 2 * (gb == b)] += 1
    e1, e2, e3, e4 = (v / n for v in e)
    p_a = e2 + e4
    p_b = e3 + e4
    p_xor = e1 + e4
    assert abs((e1 + e2 + e3 + e4) - 1.0) < 1e-12
    eps = max(0.0, e4 - 0.25)
    eps_p = 2 * eps / 3
    best = max(p_a, p_b, p_xor)
    if eps > 0 and best < 0.5 + eps_p - 1e-12:
        raise AssertionError("two-predicate counting bound violated on the data")
    return GuessStats(
        p_a=p_a, p_b=p_b, p_xor=p_xor, p_joint=e4, max_single=best,
        epsilon=eps, epsilon_prime=eps_p,
    )
