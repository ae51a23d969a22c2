"""Quantum backends: a small statevector simulator and the analytic two-branch
evaluator for the honest post-measurement state.

Statevector indexing is little-endian: bit i of an amplitude index is qubit i,
so qubit 0 varies fastest.  Gates mutate in place; a StateVector must stay
confined to one worker.

Circuits run in gate layers: each named 1-qubit gate (`h`, `x`, `z`, `r`)
takes every qubit of its layer at once.  A layer goes in runs of at most 4
adjacent qubits; a lone qubit takes the 2 x 2 kernel, a longer run one
product with a Kronecker block of the gate.  A function unitary looks up each
table value's XOR mask in a cached per-target array and applies the map as
one gather.  `measure(..., drop=True)` measures the top qubits and removes
them in one step, their probabilities one row sum of the squared moduli.

There is one XY-plane readout, `xy_readout`: a layer of the fused gate
H R(-theta), after which a computational readout reads the XY-plane basis.
`top_qubit_rows` applies it to every qubit below the top one and returns the
top qubit's amplitudes per outcome.  Exhaustive sweeps enumerate those rows
with `row_branches` and sampled runs draw one with `draw_row`.

Sampling order: every draw, by `draw_row` and by the computational
`StateVector.measure` alike, goes through `_draw`, an inverse CDF over
outcomes in lexicographic order with the first qubit most significant, one
uniform variate per draw.  This keeps transcripts reproducible.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math

import numpy as np

from . import lwe

# Widest statevector; StateVector raises above it.
MAX_QUBITS = 16
ATOL = 1e-9

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
# Most adjacent qubits one layer block spans: a 16 x 16 product stays far
# below the sizes at which BLAS starts threads
_BLOCK = 4


def _r(theta: float) -> np.ndarray:
    return np.array([[1, 0], [0, cmath.exp(1j * theta)]], dtype=complex)


@functools.lru_cache(maxsize=None)
def _index(n: int) -> np.ndarray:
    """The read-only amplitude indices 0 .. 2^n - 1, shared per width."""
    idx = np.arange(1 << n, dtype=np.int64)
    idx.flags.writeable = False
    return idx


@functools.lru_cache(maxsize=32)
def _control_index(n: int, controls: tuple[int, ...]) -> np.ndarray:
    """The read-only truth-table index of every amplitude of an n-qubit
    state: bit j is the value of qubit controls[j]."""
    idx = _index(n)
    cidx = np.zeros_like(idx)
    for j, qb in enumerate(controls):
        cidx |= ((idx >> qb) & 1) << j
    cidx.flags.writeable = False
    return cidx


@functools.lru_cache(maxsize=32)
def _target_masks(targets: tuple[int, ...]) -> np.ndarray:
    """The read-only XOR mask on the amplitude index of every target value:
    bit j of the value flips qubit targets[j]."""
    values = _index(len(targets))
    masks = np.zeros_like(values)
    for j, qb in enumerate(targets):
        masks |= ((values >> j) & 1) << qb
    masks.flags.writeable = False
    return masks


def _function_table(table, ncontrols: int, ntargets: int) -> np.ndarray:
    """The table rule: 2^ncontrols entries, each an int or numpy integer (not
    a bool) in [0, 2^ntargets), as int64; ValueError otherwise."""
    if isinstance(table, np.ndarray):
        ok = table.ndim == 1 and table.dtype.kind in "iu"
    else:
        table = tuple(table)
        kinds = set(map(type, table))  # one type test per distinct type
        ok = not any(t is bool or not issubclass(t, (int, np.integer)) for t in kinds)
    if not ok:
        raise ValueError("table entries must be integers")
    if len(table) != 1 << ncontrols:
        raise ValueError("table size must be 2^len(controls)")
    table = np.asarray(table)
    if not 0 <= table.min() <= table.max() < 1 << ntargets:
        raise ValueError("table values exceed target width")
    return table.astype(np.int64, copy=False)


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

    def _layer(self, mat: np.ndarray, qubits) -> "StateVector":
        """The 1-qubit gate mat on each listed qubit, in place.

        The gates act on distinct qubits and commute, so the sorted qubits go
        in runs of at most _BLOCK adjacent ones: a lone qubit takes
        `_apply_1q`, a longer run one product with a Kronecker block of the
        gate, written back into the amplitudes.
        """
        self._check(*qubits)
        qubits, rows = sorted(qubits), tuple(map(tuple, mat.tolist()))
        i = 0
        while i < len(qubits):
            lo, b = qubits[i], 1
            while b < _BLOCK and i + b < len(qubits) and qubits[i + b] == lo + b:
                b += 1
            if b == 1:
                self._apply_1q(mat, lo)
            else:
                # the middle axis of a (2^(n-lo-b), 2^b, 2^lo) view is qubits lo .. lo+b-1
                v = self.amps.reshape(-1, 1 << b, 1 << lo)
                v[...] = _layer_block(rows, b) @ v
            i += b
        return self

    def h(self, *qubits: int) -> "StateVector":
        return self._layer(_H, qubits)

    def x(self, *qubits: int) -> "StateVector":
        return self._layer(_X, qubits)

    def z(self, *qubits: int) -> "StateVector":
        return self._layer(_Z, qubits)

    def r(self, theta: float, *qubits: int) -> "StateVector":
        return self._layer(_r(theta), qubits)

    def cz(self, a: int, b: int) -> "StateVector":
        self._check(a, b)
        lo, hi = sorted((a, b))  # axes 1 and 3 of the view are qubits hi and lo
        self.amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)[:, 1, :, 1] *= -1
        return self

    def apply_function_unitary(self, table, controls, targets) -> "StateVector":
        """|x>|y> -> |x>|y xor f(x)| with f given as a truth table over the
        control bits (little-endian in the listed order); the table follows
        `_function_table`.  Each entry's XOR mask on the amplitude index is
        read from `_target_masks`, and one gather applies the map."""
        controls, targets = tuple(controls), tuple(targets)
        self._check(*controls, *targets)
        table = _function_table(table, len(controls), len(targets))
        # each table entry's XOR mask on the amplitude index, looked up
        mask = _target_masks(targets)[table]
        # the targets are not controls, so the map is its own inverse and one
        # gather applies it
        self.amps = self.amps[_index(self.n) ^ mask[_control_index(self.n, controls)]]
        return self

    def append_qubits(self, k: int) -> "StateVector":
        """Add k qubits in |0> above the others, as qubits n .. n+k-1."""
        if k < 1 or self.n + k > MAX_QUBITS:
            raise ValueError(f"can add 1 to {MAX_QUBITS - self.n} qubits, not {k}")
        amps = np.zeros(1 << (self.n + k), dtype=complex)
        amps[: 1 << self.n] = self.amps
        self.amps, self.n = amps, self.n + k
        return self

    def drop_qubits(self, bits) -> "StateVector":
        """Remove the top len(bits) qubits, which must hold the computational
        state `bits` (bits[i] on qubit n - len(bits) + i, by the bit rule)."""
        bits = tuple(bits)
        k = len(bits)
        if not 1 <= k < self.n:
            raise ValueError(f"can drop 1 to {self.n - 1} qubits, not {k}")
        keep = self.amps.reshape(1 << k, -1)[lwe.pack_bits(lwe.check_bits(bits, k))]
        if np.vdot(self.amps, self.amps).real - np.vdot(keep, keep).real > 1e-12:
            raise ValueError("dropped qubits are not in the stated computational state")
        self.amps, self.n = keep.copy(), self.n - k
        return self

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def probabilities(self, qubits) -> np.ndarray:
        """Marginal outcome probabilities, axes ordered as the qubit list."""
        self._check(*qubits)
        t = _abs2(self.amps).reshape((2,) * self.n)
        keep = [self._axis(qb) for qb in qubits]
        other = tuple(ax for ax in range(self.n) if ax not in keep)
        p = t.sum(axis=other) if other else t
        order = [sorted(keep).index(ax) for ax in keep]
        return np.transpose(p, axes=order)

    def measure(self, qubits, rng: np.random.Generator, *, drop: bool = False):
        """Measure the listed qubits in the computational basis, drawn by
        `_draw`; returns (bits, probability) and leaves the state collapsed.

        With drop, the listed qubits must be the top k, n - k .. n - 1 in
        order, with at least one qubit below them; their outcome
        probabilities are the row sums of the (2^k, 2^(n-k)) view of the
        squared moduli (bit for bit `probabilities`), they leave the
        register, and only the drawn slice is kept, scaled once (bit for bit
        `drop_qubits` after the collapse).
        """
        qubits = list(qubits)
        self._check(*qubits)
        k = len(qubits)
        if drop and not (0 < k < self.n and qubits == list(range(self.n - k, self.n))):
            raise ValueError("drop takes the top k qubits in order, with 1 <= k < n")
        if not drop:
            bits = _draw(self.probabilities(qubits), rng)
            return bits, self.postselect(qubits, bits)
        # row r of the (2^k, 2^(n-k)) view is the top-k outcome r (bit i =
        # qubit n-k+i); reversing the axes puts qubit n-k first for _draw
        probs = _abs2(self.amps).reshape(1 << k, -1).sum(axis=1)
        bits = _draw(probs.reshape((2,) * k).T, rng)
        keep = self.amps.reshape(1 << k, -1)[lwe.pack_bits(bits)]
        prob = float(np.vdot(keep, keep).real)
        if prob <= 0.0:
            raise ValueError("drew a zero-probability outcome")
        self.amps, self.n = keep / math.sqrt(prob), self.n - k
        return bits, prob

    def postselect(self, qubits, bits) -> float:
        """Project onto the given computational outcome; returns its probability."""
        qubits = list(qubits)
        self._check(*qubits)
        # the outcome is a view of the (2,)*n reshape: each measured qubit's
        # axis takes its bit, every other axis is kept whole
        view = [slice(None)] * self.n
        for qb, b in zip(qubits, lwe.check_bits(bits, len(qubits))):
            view[self._axis(qb)] = b
        t, view = self.amps.reshape((2,) * self.n), tuple(view)
        kept = t[view]
        prob = float(np.vdot(kept, kept).real)
        if prob <= 0.0:
            raise ValueError("postselected on a zero-probability branch")
        kept = kept / math.sqrt(prob)
        self.amps[:] = 0.0
        t[view] = kept
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


@functools.lru_cache(maxsize=32)
def _layer_block(rows: tuple, b: int) -> np.ndarray:
    """The read-only 2^b x 2^b Kronecker block of the 1-qubit gate with these
    rows on each of b adjacent qubits."""
    block = functools.reduce(np.kron, [np.array(rows, dtype=complex)] * b)
    block.flags.writeable = False
    return block


def xy_readout(sv: StateVector, qubits, theta: float) -> StateVector:
    """Rotate the XY-plane basis at theta onto the computational one on each
    listed qubit, by a layer of the fused gate H R(-theta), in place."""
    return sv._layer(_H @ _r(-theta), qubits)


def top_qubit_rows(sv: StateVector, theta: float) -> np.ndarray:
    """Read every qubit below the top one in the XY-plane basis at theta.

    Applies the readout in place and returns a (2^(n-1), 2) view: row r holds
    the top qubit's unnormalised amplitudes for the readout outcome r (bit j
    = qubit j), so its squared norm is the outcome's probability.
    """
    return xy_readout(sv, range(sv.n - 1), theta).amps.reshape(2, -1).T


def draw_row(rows: np.ndarray, rng: np.random.Generator):
    """Sample one readout outcome from `top_qubit_rows` rows.

    Returns the outcome bits (qubit 0 first) and the top qubit it leaves.
    `_draw` takes qubit 0 as most significant, so the transpose puts the rows
    (bit j = qubit j) in its outcome order.
    """
    k = len(rows).bit_length() - 1
    bits = _draw(_abs2(rows).sum(axis=1).reshape((2,) * k).T, rng)
    return bits, QubitDescription(rows[lwe.pack_bits(bits)])


def row_branches(rows: np.ndarray):
    """Every readout outcome of `top_qubit_rows` rows with probability above
    ATOL, in `draw_row`'s outcome order: (bits, qubit 0 first; probability;
    the top qubit it leaves)."""
    k = len(rows).bit_length() - 1
    # reversing the k outcome axes makes qubit 0 the most significant
    ordered = rows.reshape((2,) * k + (2,)).transpose(*range(k - 1, -1, -1), k).reshape(-1, 2)
    out = []
    for bits, row in zip(itertools.product((0, 1), repeat=k), ordered):
        prob = float(np.vdot(row, row).real)
        if prob > ATOL:
            out.append((bits, prob, QubitDescription(row)))
    return out


def _abs2(amps: np.ndarray) -> np.ndarray:
    """Squared moduli, without the square root np.abs takes."""
    return amps.real**2 + amps.imag**2


def _draw(probs: np.ndarray, rng: np.random.Generator) -> tuple[int, ...]:
    """Inverse-CDF draw from a (2,)*k outcome table, axis 0 most significant."""
    cdf = probs.reshape(-1).cumsum()
    k = len(cdf).bit_length() - 1
    outcome = min(int(cdf.searchsorted(rng.random(), side="right")), len(cdf) - 1)
    return tuple((outcome >> (k - 1 - i)) & 1 for i in range(k))


def cz_gadget(vecs, edges) -> StateVector:
    """The product state with the complex 2-vector vecs[j] on qubit j, then a
    CZ on each edge (a, b)."""
    sv = StateVector(len(vecs))
    # np.kron's products in its order: the first factor takes the high bits;
    # np.array copies, so the state never shares a caller's vector
    sv.amps = np.array(functools.reduce(np.multiply.outer, vecs[::-1]), dtype=complex).ravel()
    for a, b in edges:
        sv.cz(a, b)
    return sv


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


def record_parity(b: int, diff: int) -> int:
    """<b, diff> mod 2 on packed records: the record's parity over the
    positions where two branches differ."""
    return (b & diff).bit_count() & 1


def analytic_stage2(x, x_prime, b, theta: float):
    """Closed-form output qubit for the honest run with preimages (x, x').

    The two branches must differ, have equal length and differ in the last
    bit.  The target qubit holds the next-to-last bit of each branch (the
    hardcore bit).  After the XY-plane measurements at theta the x' branch
    carries the relative amplitude exp(-i theta (wt(x') - wt(x))) (-1)^<b, x
    xor x'>.  Only theta in {0, pi/2} is supported.  x, x' and b follow
    `lwe.check_bits`, all of the length of x.  Raises on a measurement record
    b of probability zero.
    """
    if not (abs(theta) < 1e-12 or abs(theta - math.pi / 2) < 1e-12):
        raise ValueError("only theta in {0, pi/2} is supported")
    n = len(x)
    x, x_prime, b = (lwe.check_bits(v, n) for v in (x, x_prime, b))
    if x == x_prime:
        raise ValueError("the two branches must differ")
    if x[-1] == x_prime[-1]:
        raise ValueError("branches must differ in the last bit")
    delta = sum(x_prime) - sum(x)
    beta = record_parity(lwe.pack_bits(b), lwe.pack_bits(x) ^ lwe.pack_bits(x_prime))
    amps = np.zeros(2, dtype=complex)
    amps[x[-2]] += 1.0
    amps[x_prime[-2]] += cmath.exp(-1j * theta * delta) * (-1) ** beta
    if np.linalg.norm(amps) < 1e-9:
        raise ValueError("measurement record has probability zero")
    return QubitDescription(amps)


def stage2_b_support(x, x_prime, theta: float):
    """Which measurement records occur for the honest two-branch state.

    Returns (None, None) when every b is equally likely, else (diff, parity)
    restricting records to <b, diff> = parity.  Interference can only kill
    records when both branches carry the same output value.  x and x' follow
    `lwe.check_bits`, both of the length of x.
    """
    x, x_prime = lwe.check_bits(x, len(x)), lwe.check_bits(x_prime, len(x))
    if x[-2] != x_prime[-2]:
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
    b = rng.integers(0, 2, size=len(x)).tolist()
    diff, parity = stage2_b_support(x, x_prime, theta)
    if diff is not None and record_parity(lwe.pack_bits(b), lwe.pack_bits(diff)) != parity:
        flip = next(i for i, dv in enumerate(diff) if dv)
        b[flip] ^= 1
    return tuple(b)
