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

from . import lwe
from . import protocol4 as p4
from .params import ParamSet
from .seeds import derive_seed
from .sim import QubitDescription, StateVector, xy_plane

BB84_SET = {
    (0, 0): QubitDescription.computational(0),
    (0, 1): QubitDescription.computational(1),
    (1, 0): QubitDescription.bb84(1, 0),
    (1, 1): QubitDescription.bb84(1, 1),
}


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

    @property
    def t(self) -> int:
        return self.t_c * self.n_c


@dataclass(frozen=True)
class RunRecord:
    a: int  # 1 iff the image had two preimages
    B1: int
    B2: int


@dataclass(frozen=True)
class CombinedOutput:
    B1: int
    B2: int
    accepted: bool
    # Output frame: B1 = 0 is the {|+>, |->} pair, B1 = 1 the pi/2 pair.
    family: str

    def qubit(self) -> QubitDescription:
        k = self.B1 + 2 * self.B2
        return QubitDescription.equatorial(k)


# ---------------------------------------------------------------------------
# the combining circuit


def gad_xor(states, rng: np.random.Generator):
    """Run the combining circuit on BB84 inputs; returns (s-pairs, out).

    Wires: per input, a pi/2 ancilla and the input itself; one shared carrier
    prepared at |+>.  All CZs commute, then every non-carrier wire is read in
    the X basis.
    """
    states = list(states)
    t = len(states)
    if t < 1:
        raise ValueError("need at least one input")
    for st in states:
        if not any(st.approx_equal(ref, atol=1e-9) for ref in BB84_SET.values()):
            raise ValueError("input outside the BB84 set")
    sv = _gad_state(states)
    s_pairs = []
    for i in range(t):
        (s1,), _ = sv.measure([2 * i], xy_plane(0.0), rng)
        (s2,), _ = sv.measure([2 * i + 1], xy_plane(0.0), rng)
        s_pairs.append((s1, s2))
    out = QubitDescription(sv.qubit_state(2 * t))
    return s_pairs, out


def gad_xor_branches(states):
    """Exhaustive (s-bits, probability, out) enumeration for t <= 4 inputs."""
    states = list(states)
    t = len(states)
    base = _gad_state(states)
    for qb in range(2 * t):
        base.h(qb)
    out = []
    for outcome in range(1 << (2 * t)):
        sv = StateVector(2 * t + 1)
        sv.amps = base.amps.copy()
        bits = tuple((outcome >> j) & 1 for j in range(2 * t))
        try:
            prob = sv.postselect(list(range(2 * t)), bits)
        except ValueError:
            continue
        s_pairs = [(bits[2 * i], bits[2 * i + 1]) for i in range(t)]
        out.append((s_pairs, prob, QubitDescription(sv.qubit_state(2 * t))))
    return out


def _gad_state(states) -> StateVector:
    # qubit 2i = ancilla of run i, qubit 2i+1 = input i, qubit 2t = carrier;
    # np.kron puts its first factor on the high bits, so later runs wrap the
    # accumulated low part
    t = len(states)
    sv = StateVector(2 * t + 1)
    anc = np.array([1, 1j], dtype=complex) / math.sqrt(2)
    amps = np.array([1.0], dtype=complex)
    for st in states:
        amps = np.kron(np.kron(st.vec, anc), amps)
    carrier = np.array([1, 1], dtype=complex) / math.sqrt(2)
    sv.amps = np.kron(carrier, amps)
    for i in range(t):
        sv.cz(2 * i, 2 * i + 1)
        sv.cz(2 * i + 1, 2 * t)
    return sv


def combine_bits(records, s_pairs) -> tuple[int, int]:
    """The frozen closed form for the combined (B1, B2)."""
    basis = [r.B1 & 1 for r in records]
    values = [r.B2 & 1 for r in records]
    T = sum(basis)
    b1 = T & 1
    b2 = (T // 2) & 1
    for v in values:
        b2 ^= v
    for bi, (s1, s2) in zip(basis, s_pairs):
        if bi:
            b2 ^= s1 ^ s2
    return b1, b2


def client_combine(chunked_records, config: ChunkConfig, s_pairs, seed: int) -> CombinedOutput:
    """Accept iff every chunk clears the threshold; then fold the records."""
    if len(chunked_records) != config.n_c or any(
        len(ch) != config.t_c for ch in chunked_records
    ):
        raise ValueError("record grouping does not match the configuration")
    flat = [r for ch in chunked_records for r in ch]
    if len(s_pairs) != len(flat):
        raise ValueError("need one outcome pair per run")
    for ch in chunked_records:
        if sum(r.a for r in ch) < config.p_c * config.t_c:
            rng = np.random.default_rng(derive_seed(seed, "combine-reject"))
            b1, b2 = int(rng.integers(0, 2)), int(rng.integers(0, 2))
            return CombinedOutput(b1, b2, False, _family(b1))
    b1, b2 = combine_bits(flat, s_pairs)
    return CombinedOutput(b1, b2, True, _family(b1))


def _family(b1: int) -> str:
    return p4.PAULI_Y if b1 else p4.PAULI_X


def beta(trapdoors, pks, ys, config: ChunkConfig, seed: int) -> int:
    """The one-chunk reference bit: random below threshold, XOR of planted
    hardcore bits of the accepted runs otherwise."""
    if not (len(trapdoors) == len(pks) == len(ys) == config.t_c):
        raise ValueError("need exactly t_c runs")
    a_bits = [1 if len(lwe.invert(td, pk, y)) == 2 else 0 for td, pk, y in zip(trapdoors, pks, ys)]
    if sum(a_bits) < config.p_c * config.t_c:
        rng = np.random.default_rng(derive_seed(seed, "beta-reject"))
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


def simulate_honest_chunks(
    params: ParamSet,
    t_c: int,
    n_chunks: int,
    threshold,
    seed: int,
    invert_check_chunks: int = 0,
):
    """Accept statistics for honest chunks, vectorized over all runs.

    A run is accepted iff the partner preimage's noise stays in the box,
    which depends only on (e, e0, c); this classification equals the invert
    route exactly and is cross-checked on the first `invert_check_chunks`
    chunks.  Returns (accept_rate, per-chunk accept bits).
    """
    rng = np.random.default_rng(derive_seed(seed, "chunks"))
    lo, hi = lwe.e_range(params)
    mp = params.mu_prime
    shape = (n_chunks, t_c, params.m)
    e = rng.integers(lo, hi + 1, size=shape)
    e0 = rng.integers(-mp, mp + 1, size=shape)
    c = rng.integers(0, 2, size=(n_chunks, t_c))
    sign = np.where(c == 0, -1, 1)[:, :, None]
    partner = e + sign * e0
    a = np.all((partner >= lo) & (partner <= hi), axis=2).astype(np.int64)
    accepted = a.sum(axis=1) >= float(threshold) * t_c

    for ci in range(invert_check_chunks):
        for j in range(t_c):
            run_seed = derive_seed(seed, "chunk-xcheck", ci, j)
            srng = np.random.default_rng(run_seed)
            pk, td = lwe.gen(params, run_seed)
            x = lwe.DomainElement(
                s=tuple(int(v) for v in srng.integers(0, params.q, size=params.n)),
                e=tuple(int(v) for v in e[ci, j]),
                d=0,
                c=int(c[ci, j]),
            )
            td_e0 = tuple(int(v) for v in e0[ci, j])
            td2 = lwe.Trapdoor(gadget=td.gadget, z0=lwe.DomainElement(td.z0.s, td_e0, td.z0.d, None))
            pk2 = lwe.PublicKey(
                K=pk.K,
                y0=lwe.g(params, pk.K, td.z0.s, td_e0, td.z0.d),
                params=params,
            )
            want = len(lwe.invert(td2, pk2, lwe.f(pk2, x))) == 2
            assert bool(a[ci, j]) == want, "fast classification diverged from invert"

    return float(accepted.mean()), accepted
