"""Quantum backends: a small statevector simulator and the analytic two-branch
evaluator for the honest post-measurement state.

Statevector indexing is little-endian: bit i of an amplitude index is qubit i,
so qubit 0 varies fastest.  Gates mutate in place; a StateVector must stay
confined to one worker.  Measurement sampling is inverse-CDF over outcomes in
lexicographic order with the first listed qubit most significant, which keeps
transcripts reproducible.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

# Widest statevector; StateVector raises above it.
MAX_QUBITS = 16
ATOL = 1e-9

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _r(theta: float) -> np.ndarray:
    return np.array([[1, 0], [0, cmath.exp(1j * theta)]], dtype=complex)


@functools.lru_cache(maxsize=None)
def _index(n: int) -> np.ndarray:
    """The read-only amplitude indices 0 .. 2^n - 1, shared per width."""
    idx = np.arange(1 << n, dtype=np.int64)
    idx.flags.writeable = False
    return idx


@dataclass(frozen=True)
class MeasBasis:
    """computational, or the XY-plane basis {(|0> +- e^{i theta}|1>)/sqrt(2)}."""

    kind: str  # "computational" | "xy_plane"
    theta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("computational", "xy_plane"):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if not 0.0 <= self.theta < 2 * math.pi:
            raise ValueError("theta must lie in [0, 2*pi)")


COMPUTATIONAL = MeasBasis("computational")


def xy_plane(theta: float) -> MeasBasis:
    return MeasBasis("xy_plane", theta % (2 * math.pi))


class StateVector:
    """Dense statevector over at most MAX_QUBITS qubits."""

    def __init__(self, num_qubits: int):
        if num_qubits < 1 or num_qubits > MAX_QUBITS:
            raise ValueError(f"num_qubits must be in [1, {MAX_QUBITS}]")
        self.n = num_qubits
        self.amps = np.zeros(1 << num_qubits, dtype=complex)
        self.amps[0] = 1.0

    def _check(self, *qubits: int):
        for qb in qubits:
            if not 0 <= qb < self.n:
                raise IndexError(f"qubit {qb} out of range")
        if len(set(qubits)) != len(qubits):
            raise ValueError("qubit indices must be distinct")

    def _axis(self, qubit: int) -> int:
        # reshape axis k corresponds to qubit n-1-k (C order, qubit 0 fastest)
        return self.n - 1 - qubit

    def _apply_1q(self, mat: np.ndarray, qubit: int):
        # the middle axis of a (2^(n-1-q), 2, 2^q) view is the qubit; row 0's
        # new values go to a temporary first, as row 1's update reads the old
        v = self.amps.reshape(-1, 2, 1 << qubit)
        (m00, m01), (m10, m11) = mat.tolist()
        row0, row1 = v[:, 0], v[:, 1]
        new0 = m00 * row0 + m01 * row1
        row1 *= m11
        row1 += m10 * row0
        row0[...] = new0

    def h(self, qubit: int) -> "StateVector":
        self._check(qubit)
        self._apply_1q(_H, qubit)
        return self

    def x(self, qubit: int) -> "StateVector":
        self._check(qubit)
        self._apply_1q(_X, qubit)
        return self

    def z(self, qubit: int) -> "StateVector":
        self._check(qubit)
        self._apply_1q(_Z, qubit)
        return self

    def r(self, theta: float, qubit: int) -> "StateVector":
        self._check(qubit)
        self._apply_1q(_r(theta), qubit)
        return self

    def cz(self, a: int, b: int) -> "StateVector":
        self._check(a, b)
        both = (1 << a) | (1 << b)
        self.amps[(_index(self.n) & both) == both] *= -1
        return self

    def apply_function_unitary(self, table, controls, targets) -> "StateVector":
        """|x>|y> -> |x>|y xor f(x)| with f given as a truth table over the
        control bits (little-endian in the listed order)."""
        self._check(*controls, *targets)
        table = np.asarray(table, dtype=np.int64)
        if len(table) != 1 << len(controls):
            raise ValueError("table size must be 2^len(controls)")
        if np.any(table >> len(targets)):
            raise ValueError("table values exceed target width")
        idx = _index(self.n)
        cidx = np.zeros_like(idx)
        for j, qb in enumerate(controls):
            cidx |= ((idx >> qb) & 1) << j
        fv = table[cidx]
        new_idx = idx.copy()
        for j, qb in enumerate(targets):
            new_idx ^= ((fv >> j) & 1) << qb
        out = np.empty_like(self.amps)
        out[new_idx] = self.amps
        self.amps = out
        return self

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def probabilities(self, qubits) -> np.ndarray:
        """Marginal outcome probabilities, axes ordered as the qubit list."""
        self._check(*qubits)
        t = (np.abs(self.amps) ** 2).reshape((2,) * self.n)
        keep = [self._axis(qb) for qb in qubits]
        other = tuple(ax for ax in range(self.n) if ax not in keep)
        p = t.sum(axis=other) if other else t
        order = [sorted(keep).index(ax) for ax in keep]
        return np.transpose(p, axes=order)

    def measure(self, qubits, basis: MeasBasis, rng: np.random.Generator):
        """Measure the listed qubits; returns (bits, probability).

        XY-plane measurement is realized as one fused H R(-theta) gate per
        qubit, then a computational readout; measured qubits are left
        collapsed in that rotated frame.  The outcome is drawn by inverse CDF
        over outcomes in lexicographic order, first listed qubit most
        significant.
        """
        qubits = list(qubits)
        self._check(*qubits)
        if basis.kind == "xy_plane":
            readout = _H @ _r(-basis.theta)
            for qb in qubits:
                self._apply_1q(readout, qb)
        probs = self.probabilities(qubits).reshape(-1)
        cdf = np.cumsum(probs)
        u = rng.random()
        outcome = int(np.searchsorted(cdf, u, side="right"))
        outcome = min(outcome, len(probs) - 1)
        k = len(qubits)
        bits = tuple((outcome >> (k - 1 - i)) & 1 for i in range(k))
        prob = self.postselect(qubits, bits)
        return bits, prob

    def postselect(self, qubits, bits) -> float:
        """Project onto the given computational outcome; returns its probability."""
        qubits = list(qubits)
        self._check(*qubits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError("outcome bits must be 0 or 1")
        sel = sum(1 << qb for qb in qubits)
        want = sum(int(b) << qb for qb, b in zip(qubits, bits))
        drop = (_index(self.n) & sel) != want
        prob = 1.0 - float(np.sum(np.abs(self.amps[drop]) ** 2))
        self.amps[drop] = 0.0
        if prob <= 0.0:
            raise ValueError("postselected on a zero-probability branch")
        self.amps /= math.sqrt(prob)
        return prob

    def qubit_state(self, qubit: int) -> np.ndarray:
        """The 2-vector on `qubit`, valid when it is unentangled with the rest."""
        self._check(qubit)
        t = self.amps.reshape((2,) * self.n)
        ax = self._axis(qubit)
        t = np.moveaxis(t, ax, 0).reshape(2, -1)
        # pick the largest column to fix the cofactor
        weights = np.abs(t[0]) ** 2 + np.abs(t[1]) ** 2
        col = int(np.argmax(weights))
        vec = t[:, col].copy()
        nrm = np.linalg.norm(vec)
        if nrm < 1e-12:
            raise ValueError("qubit amplitude vanished")
        vec /= nrm
        # squared norm of t minus its projection onto vec, by Pythagoras
        proj = vec.conj() @ t
        if weights.sum() - np.vdot(proj, proj).real > 1e-12:
            raise ValueError("qubit is entangled with the rest of the register")
        return vec


# ---------------------------------------------------------------------------
# single-qubit descriptions


class QubitDescription:
    """A pure single-qubit state, compared up to global phase."""

    __slots__ = ("vec",)

    def __init__(self, vec):
        v = np.asarray(vec, dtype=complex)
        if v.shape != (2,):
            raise ValueError("need a 2-amplitude vector")
        n = np.linalg.norm(v)
        if n < 1e-12:
            raise ValueError("zero vector")
        self.vec = v / n

    @classmethod
    def bb84(cls, b1: int, b2: int) -> "QubitDescription":
        """H^b1 X^b2 |0>."""
        v = np.zeros(2, dtype=complex)
        v[b2 & 1] = 1.0
        if b1 & 1:
            v = _H @ v
        return cls(v)

    @classmethod
    def eight(cls, L: int) -> "QubitDescription":
        """|+_{L pi/4}>."""
        return cls([1.0, cmath.exp(1j * math.pi * (L % 8) / 4)])

    @classmethod
    def equatorial(cls, quarter_turns: int) -> "QubitDescription":
        """|+_{k pi/2}>."""
        return cls.eight((2 * quarter_turns) % 8)

    @classmethod
    def computational(cls, value: int) -> "QubitDescription":
        return cls.bb84(0, value)

    def fidelity(self, other: "QubitDescription") -> float:
        return float(abs(np.vdot(self.vec, other.vec)) ** 2)

    def approx_equal(self, other: "QubitDescription", atol: float = ATOL) -> bool:
        return self.fidelity(other) >= 1.0 - atol

    def __repr__(self):
        return f"QubitDescription({self.vec[0]:.4f}, {self.vec[1]:.4f})"


def fidelity(a, b) -> float:
    """|<a|b>|^2 for pure states given as vectors or QubitDescriptions."""
    va = a.vec if isinstance(a, QubitDescription) else np.asarray(a, dtype=complex)
    vb = b.vec if isinstance(b, QubitDescription) else np.asarray(b, dtype=complex)
    va = va / np.linalg.norm(va)
    vb = vb / np.linalg.norm(vb)
    return float(abs(np.vdot(va, vb)) ** 2)


# ---------------------------------------------------------------------------
# analytic two-branch evaluation of the honest stage-2 output


@dataclass(frozen=True)
class TwoBranchState:
    """The honest post-image-measurement superposition over two preimages."""

    x: tuple[int, ...]
    x_prime: tuple[int, ...]

    def __post_init__(self):
        if self.x == self.x_prime:
            raise ValueError("the two branches must differ")
        if len(self.x) != len(self.x_prime):
            raise ValueError("branch length mismatch")
        if self.x[-1] == self.x_prime[-1]:
            raise ValueError("branches must differ in the last bit")


def record_parity(b: tuple[int, ...], diff: tuple[int, ...]) -> int:
    """<b, diff> mod 2: the record's parity over the positions where two branches differ."""
    return sum(bi & di for bi, di in zip(b, diff)) & 1


def stage2_phase_exponent(x, x_prime, b, theta: float) -> complex:
    """Relative amplitude of the x' branch after XY-plane measurements at theta."""
    delta = sum(x_prime) - sum(x)
    diff = tuple(a ^ bb for a, bb in zip(x, x_prime))
    beta = record_parity(tuple(b), diff)
    return cmath.exp(-1j * theta * delta) * (-1) ** beta


def analytic_stage2(x, x_prime, b, theta: float):
    """Closed-form output qubit for the honest run with preimages (x, x').

    The target qubit holds the next-to-last bit of each branch (the hardcore
    bit).  Only theta in {0, pi/2} is supported.  Raises on a measurement
    record b of probability zero.
    """
    if not (abs(theta) < 1e-12 or abs(theta - math.pi / 2) < 1e-12):
        raise ValueError("only theta in {0, pi/2} is supported")
    x = tuple(int(v) & 1 for v in x)
    x_prime = tuple(int(v) & 1 for v in x_prime)
    TwoBranchState(x, x_prime)  # validation
    b = tuple(int(v) & 1 for v in b)
    if len(b) != len(x):
        raise ValueError("b length mismatch")
    hz, hzp = x[-2], x_prime[-2]
    phase = stage2_phase_exponent(x, x_prime, b, theta)
    amps = np.zeros(2, dtype=complex)
    amps[hz] += 1.0
    amps[hzp] += phase
    if np.linalg.norm(amps) < 1e-9:
        raise ValueError("measurement record has probability zero")
    return QubitDescription(amps)


def stage2_b_support(x, x_prime, theta: float):
    """Which measurement records occur for the honest two-branch state.

    Returns (None, None) when every b is equally likely, else (diff, parity)
    restricting records to <b, diff> = parity.  Interference can only kill
    records when both branches carry the same output value.
    """
    x = tuple(int(v) & 1 for v in x)
    x_prime = tuple(int(v) & 1 for v in x_prime)
    hidx = len(x) - 2
    if x[hidx] != x_prime[hidx]:
        return None, None
    diff = tuple(a ^ bb for a, bb in zip(x, x_prime))
    if abs(theta) < 1e-12:
        return diff, 0
    delta = sum(x_prime) - sum(x)
    if delta % 2 == 1:
        return None, None
    return diff, (delta // 2) % 2


def sample_b(x, x_prime, theta: float, rng: np.random.Generator) -> tuple[int, ...]:
    """Draw a measurement record from the honest two-branch distribution."""
    n = len(x)
    b = [int(v) for v in rng.integers(0, 2, size=n)]
    diff, parity = stage2_b_support(x, x_prime, theta)
    if diff is not None and record_parity(tuple(b), diff) != parity:
        flip = next(i for i, dv in enumerate(diff) if dv)
        b[flip] ^= 1
    return tuple(b)
