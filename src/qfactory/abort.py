"""Abort-tolerant chunked variant: many 4-states runs XOR-combined into one.

Aborted runs (single-preimage images) still produce computational-basis
qubits, so they enter the combining circuit with basis bit 0 and nothing is
revealed about which runs aborted.  The client accepts when every chunk has
enough two-preimage runs, and then outputs the XOR of the per-run basis bits;
the value bit follows the combining circuit.

The cascade keeps one carrier wire.  Tracking the carrier phase in quarter
turns of pi/2 (frozen from the statevector oracle, exhaustive at t <= 4):

    basis-0 input |v>:        k += 2 v
    basis-1 input Z^v|+>:     k += 1 + 2 (v + s_i1 + s_i2)     (mod 4)

so with T = #(basis-1 inputs),

    B1 = T mod 2
    B2 = floor(T/2) xor (xor of values) xor (xor over basis-1 runs of s_i1 xor s_i2)

and the output state is |+_{k pi/2}>: B1 = 0 selects {|+>, |->}, B1 = 1
selects the pi/2 pair, B2 the sign within the pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import lwe, seeds
from . import protocol4 as p4
from .params import ParamSet
from .seeds import derive_seed
from .sim import ATOL, QubitDescription, draw_row, fidelity, gadget_rows, row_branches

BB84_SET = {
    (0, 0): QubitDescription.computational(0),
    (0, 1): QubitDescription.computational(1),
    (1, 0): QubitDescription.bb84(1, 0),
    (1, 1): QubitDescription.bb84(1, 1),
}
# the family of a plain-run output with basis bit B1 (BB84_FAMILY[B1])
BB84_FAMILY = (p4.COMPUTATIONAL, p4.PAULI_X)


@dataclass(frozen=True)
class ChunkConfig:
    t_c: int
    n_c: int
    p_a: Fraction
    p_c: Fraction

    def __post_init__(self):
        if not (Fraction(1, 2) < self.p_c < self.p_a <= 1):
            raise ValueError("need 1/2 < p_c < p_a <= 1")
        if self.t_c < 1 or self.n_c < 1:
            raise ValueError("chunk sizes must be positive")


@dataclass(frozen=True)
class CombinedOutput:
    B1: int
    B2: int
    accepted: bool

    def qubit(self) -> QubitDescription:
        k = self.B1 + 2 * self.B2
        return QubitDescription.equatorial(k)


# ---------------------------------------------------------------------------
# the combining circuit


def gad_xor(states, rng: np.random.Generator):
    """Run the combining circuit on BB84 inputs; returns (s-pairs, out).

    Wires: per input, a pi/2 ancilla and the input itself; one shared carrier
    prepared at |+>.  The CZs commute and input i's wires meet only the
    carrier, so the inputs fold in turn through `sim.gadget_rows(2, input,
    carrier)`: draw its (ancilla, input) X-basis outcomes, keep its survivor.
    """
    states = list(states)
    if not states:
        raise ValueError("need at least one input")
    for st in states:
        if not any(fidelity(st, ref) >= 1 - ATOL for ref in BB84_SET.values()):
            raise ValueError("input outside the BB84 set")
    pairs, carrier = [], QubitDescription.eight(0)
    for st in states:
        s, carrier = draw_row(gadget_rows(2, st, carrier), rng)
        pairs.append(s)
    return pairs, carrier


def gad_xor_branches(states):
    """Exhaustive (s-pairs, probability, out) enumeration: `gad_xor`'s fold
    over every branch of each step, the first input's outcomes most significant."""
    branches = [([], 1.0, QubitDescription.eight(0))]
    for st in states:
        branches = [(pairs + [s], prob * p, out) for pairs, prob, carrier in branches
                    for s, p, out in row_branches(gadget_rows(2, st, carrier))]
    return branches


def combine_bits(outputs, s_pairs) -> tuple[int, int]:
    """The frozen closed form for the combined (B1, B2) of plain-run
    `p4.OutputIndex4` values, as `p4.finalize` returns them; ValueError
    unless every B1, B2 and outcome is a bit, with one outcome pair per
    output, and every output lies in the BB84 family of its B1 (a rotated
    run's equatorial output does not)."""
    basis = lwe.check_bits([o.B1 for o in outputs], len(outputs))
    values = lwe.check_bits([o.B2 for o in outputs], len(outputs))
    if any(o.family != BB84_FAMILY[b1] for o, b1 in zip(outputs, basis)):
        raise ValueError("an output is outside the BB84 family of its B1")
    T = sum(basis)
    b2 = (T // 2 + sum(values)) & 1
    for bi, pair in zip(basis, s_pairs, strict=True):
        s1, s2 = lwe.check_bits(pair, 2)
        b2 ^= bi & (s1 ^ s2)
    return T & 1, b2


def client_combine(chunked_outputs, config: ChunkConfig, s_pairs, seed: int) -> CombinedOutput:
    """Accept iff every chunk has enough two-preimage runs; then fold the
    plain-run outputs by `combine_bits`."""
    if len(chunked_outputs) != config.n_c or any(
        len(ch) != config.t_c for ch in chunked_outputs
    ):
        raise ValueError("output grouping does not match the configuration")
    flat = [o for ch in chunked_outputs for o in ch]
    if len(s_pairs) != len(flat):
        raise ValueError("need one outcome pair per run")
    for ch in chunked_outputs:
        if sum(o.accepted == p4.TWO_PREIMAGES for o in ch) < config.p_c * config.t_c:
            rng = seeds.rng(derive_seed(seed, "combine-reject"))
            b1, b2 = int(rng.integers(0, 2)), int(rng.integers(0, 2))
            return CombinedOutput(b1, b2, False)
    return CombinedOutput(*combine_bits(flat, s_pairs), True)


def beta(trapdoors, pks, ys, config: ChunkConfig, seed: int) -> int:
    """The one-chunk reference bit: random below threshold, XOR of planted
    hardcore bits of the accepted runs otherwise."""
    if not (len(trapdoors) == len(pks) == len(ys) == config.t_c):
        raise ValueError("need exactly t_c runs")
    a_bits = [1 if len(lwe.invert(td, pk, y)) == 2 else 0 for td, pk, y in zip(trapdoors, pks, ys)]
    if sum(a_bits) < config.p_c * config.t_c:
        rng = seeds.rng(derive_seed(seed, "beta-reject"))
        return int(rng.integers(0, 2))
    out = 0
    for a, td in zip(a_bits, trapdoors):
        out ^= a & td.d0
    return out


# ---------------------------------------------------------------------------
# bounds and parameter selection


def chernoff_success_bound(p_a: float, p_b: float, t_c: int) -> float:
    """Lower bound on the chance a chunk reaches fraction p_b of accepted runs."""
    gap = float(p_a) - float(p_b)
    if gap <= 0:
        return 0.0
    return 1.0 - math.exp(-2.0 * gap * gap * t_c)


def eta_bound(p_c) -> Fraction:
    """Best possible one-chunk guessing probability (1 + 1/(2 p_c)) / 2."""
    p_c = Fraction(p_c).limit_denominator(10**6) if not isinstance(p_c, Fraction) else p_c
    if not 0 < p_c <= 1:
        raise ValueError("p_c must lie in (0, 1]")
    return (1 + 1 / (2 * p_c)) / 2


def choose_params(p_a, n: int, target_fail: float) -> ChunkConfig:
    """Midpoint threshold, then the smallest chunk size meeting the union bound
    n_c * exp(-2 (p_a - p_c)^2 t_c) <= target_fail with n_c = n."""
    p_a = Fraction(p_a).limit_denominator(10**6) if not isinstance(p_a, Fraction) else p_a
    if p_a <= Fraction(1, 2):
        raise ValueError("p_a must exceed 1/2")
    p_c = (Fraction(1, 2) + p_a) / 2
    n_c = n
    gap = float(p_a - p_c)
    t_c = math.ceil(math.log(n_c / target_fail) / (2 * gap * gap))
    return ChunkConfig(t_c=t_c, n_c=n_c, p_a=p_a, p_c=p_c)


# ---------------------------------------------------------------------------
# honest chunk simulation (function layer)


def simulate_honest_chunks(params: ParamSet, t_c: int, n_chunks: int, threshold, seed: int):
    """Accept statistics for honest chunks, vectorized over all runs.

    A run is accepted iff the partner preimage's noise stays in the box,
    which depends only on (e, e0, c): `lwe.shift_in_box` with shift -e0 for
    c = 0 and +e0 for c = 1.  Returns (accept_rate, per-chunk accept bits).
    """
    rng = seeds.rng(derive_seed(seed, "chunks"))
    lo, hi = lwe.e_range(params)
    shape = (n_chunks, t_c, params.m)
    e = rng.integers(lo, hi + 1, size=shape)
    e0 = rng.integers(-params.mu_prime, params.mu_prime + 1, size=shape)
    c = rng.integers(0, 2, size=(n_chunks, t_c))
    a = lwe.shift_in_box(params, e, np.where(c == 0, -1, 1)[:, :, None] * e0)
    accepted = a.sum(axis=1) >= float(threshold) * t_c
    return float(accepted.mean()), accepted
