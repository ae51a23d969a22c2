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

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import protocol4 as p4
from .params import ParamSet
from .sim import QubitDescription, StateVector, cz_gadget, draw_row, row_branches, top_qubit_rows


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
    """Execute the 3-qubit merge circuit, sampling the two X-basis outcomes."""
    (s1, s2), out = draw_row(_merge_rows(in1, in2), rng)
    return MergeResult(s1=s1, s2=s2, out=out)


def merge_branches(in1: QubitDescription, in2: QubitDescription):
    """All four (s1, s2) branches with exact probabilities; no sampling."""
    return [(s1, s2, prob, out) for (s1, s2), prob, out in row_branches(_merge_rows(in1, in2))]


_ANCILLA = np.array([1, np.exp(1j * math.pi / 4)], dtype=complex) / math.sqrt(2)
_ANCILLA.flags.writeable = False


def _merge_state(in1: QubitDescription, in2: QubitDescription) -> StateVector:
    # qubit 0 = ancilla |+_{pi/4}>, qubit 1 = in1, qubit 2 = in2
    return cz_gadget([_ANCILLA, in1.vec, in2.vec], [(0, 1), (1, 2)])


@functools.lru_cache(maxsize=1)
def _merge_map() -> np.ndarray:
    """The merge circuit as one read-only 8 x 4 transfer map W, shaped
    (4, 2, 4) so that its first two axes are those of the table it makes.

    The circuit is linear in in1 (x) in2: its ancilla, CZs and readout (at
    theta = 0) are fixed.  So its `top_qubit_rows` table is
    sum_p W[:, :, p] (in1 (x) in2)[p], where p = 2a + b stands for the pair of
    basis states |a> of in1 and |b> of in2, and W[:, :, p] is the circuit's
    table on that pair.
    """
    basis = [QubitDescription.computational(v) for v in (0, 1)]
    W = np.stack([top_qubit_rows(_merge_state(a, b), 0.0) for a in basis for b in basis], axis=-1)
    W.flags.writeable = False
    return W


def _merge_rows(in1: QubitDescription, in2: QubitDescription) -> np.ndarray:
    """The merge circuit's `top_qubit_rows` table, read through `_merge_map`
    (an elementwise product and a sum, so no BLAS call)."""
    return (_merge_map() * np.multiply.outer(in1.vec, in2.vec).reshape(-1)).sum(axis=-1)


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
