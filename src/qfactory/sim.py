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

The 8-states merge and the XOR combiner share one 3-qubit circuit,
`gadget_state`; `gadget_rows` reads its table through a transfer map cached
per ancilla angle.

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
        that slice of the state a measure without drop leaves).
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


def gadget_state(L: int, in1: QubitDescription, in2: QubitDescription) -> StateVector:
    """The 3-qubit gadget of the 8-states merge and the XOR combiner: qubit 0
    is the ancilla |+_{L pi/4}>, qubit 1 in1 and qubit 2 in2, then a CZ on
    (0, 1) and a CZ on (1, 2)."""
    sv = StateVector(3)
    # np.kron's products in its order: the first factor takes the high bits;
    # np.multiply.outer makes a new array, so the state never shares an input's vector
    vecs = (in2.vec, in1.vec, QubitDescription.eight(L).vec)
    sv.amps = functools.reduce(np.multiply.outer, vecs).ravel()
    return sv.cz(0, 1).cz(1, 2)


@functools.lru_cache(maxsize=8)
def _gadget_map(L: int) -> np.ndarray:
    """The gadget at ancilla L as one read-only 8 x 4 transfer map W, shaped
    (4, 2, 4) so that its first two axes are those of the table it makes.

    The gadget is linear in in1 (x) in2: its ancilla, CZs and readout (at
    theta = 0) are fixed.  So its `top_qubit_rows` table is
    sum_p W[:, :, p] (in1 (x) in2)[p], where p = 2a + b stands for the pair of
    basis states |a> of in1 and |b> of in2, and W[:, :, p] is the gadget's
    table on that pair.
    """
    basis = [QubitDescription.computational(v) for v in (0, 1)]
    W = np.stack([top_qubit_rows(gadget_state(L, a, b), 0.0) for a in basis for b in basis], -1)
    W.flags.writeable = False
    return W


def gadget_rows(L: int, in1: QubitDescription, in2: QubitDescription) -> np.ndarray:
    """The gadget's `top_qubit_rows` table, read through `_gadget_map` (an
    elementwise product and a sum, so no BLAS call)."""
    return (_gadget_map(L) * np.multiply.outer(in1.vec, in2.vec).reshape(-1)).sum(axis=-1)


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
        """H^b1 X^b2 |0>, for bits b1 and b2."""
        if b1 not in (0, 1) or b2 not in (0, 1):
            raise ValueError(f"BB84 state bits must be 0 or 1, not {b1!r}, {b2!r}")
        v = np.zeros(2, dtype=complex)
        v[int(b2)] = 1.0  # a bool would index as a mask
        return cls(_H @ v if b1 else v)

    @classmethod
    def eight(cls, L: int) -> "QubitDescription":
        """|+_{L pi/4}>, for L in [0, 8)."""
        if not 0 <= L < 8:
            raise ValueError(f"eight-state index {L!r} is not in [0, 8)")
        return cls([1.0, cmath.exp(1j * math.pi * L / 4)])

    @classmethod
    def equatorial(cls, quarter_turns: int) -> "QubitDescription":
        """|+_{k pi/2}>, for k in [0, 4)."""
        if not 0 <= quarter_turns < 4:
            raise ValueError(f"quarter turns {quarter_turns!r} are not in [0, 4)")
        return cls.eight(2 * quarter_turns)

    @classmethod
    def computational(cls, value: int) -> "QubitDescription":
        """|value>, for a bit value."""
        return cls.bb84(0, value)

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


def _check_patterns(n: int, *values: int) -> None:
    """The range rule of the two-branch evaluator: each packed register
    pattern and record (bit j = qubit j) is in [0, 2^n); ValueError
    otherwise."""
    if not all(0 <= v < 1 << n for v in values):
        raise ValueError(f"packed patterns and records must be in [0, 2^{n})")


def analytic_stage2(xi: int, xpi: int, n: int, b: int, theta: float):
    """Closed-form output qubit for the honest run whose register holds the
    packed n-bit patterns xi and xpi, with the packed record b.

    The two patterns must differ in c, bit n - 1.  The target qubit holds bit
    n - 2 of each pattern (the hardcore bit).  After the XY-plane
    measurements at theta the xpi branch carries the relative amplitude
    exp(-i theta (wt(xpi) - wt(xi))) (-1)^<b, xi xor xpi>.  Only theta in
    {0, pi/2} is supported.  xi, xpi and b follow `_check_patterns`.  Raises
    on a measurement record b of probability zero.
    """
    if not (abs(theta) < 1e-12 or abs(theta - math.pi / 2) < 1e-12):
        raise ValueError("only theta in {0, pi/2} is supported")
    _check_patterns(n, xi, xpi, b)
    diff = xi ^ xpi
    if not (diff >> (n - 1)):  # equal patterns have equal c as well
        raise ValueError("the branches must differ in the last bit, c")
    delta = xpi.bit_count() - xi.bit_count()
    beta = record_parity(b, diff)
    amps = [0j, 0j]
    amps[(xi >> (n - 2)) & 1] += 1.0
    amps[(xpi >> (n - 2)) & 1] += cmath.exp(-1j * theta * delta) * (-1) ** beta
    if math.hypot(*map(abs, amps)) < 1e-9:
        raise ValueError("measurement record has probability zero")
    return QubitDescription(amps)


def stage2_b_support(xi: int, xpi: int, n: int, theta: float):
    """Which measurement records occur for the honest state on the packed
    n-bit patterns xi and xpi (which follow `_check_patterns`).

    Returns (None, None) when every record is equally likely, else (diff,
    parity) restricting records b to <b, diff> = parity, with diff packed.
    Interference can only kill records when both branches carry the same
    output value; equal patterns give (0, 0), which every record meets.
    """
    _check_patterns(n, xi, xpi)
    diff = xi ^ xpi
    if (diff >> (n - 2)) & 1:  # the branches carry different output values
        return None, None
    if abs(theta) < 1e-12:
        return diff, 0
    delta = xpi.bit_count() - xi.bit_count()
    if delta % 2 == 1:
        return None, None
    return diff, (delta // 2) % 2


def sample_b(xi: int, xpi: int, n: int, theta: float, rng: np.random.Generator) -> int:
    """Draw a packed record from the honest distribution on the packed n-bit
    patterns xi and xpi: a uniform record, with its lowest bit in diff
    flipped when it falls outside `stage2_b_support`."""
    diff, parity = stage2_b_support(xi, xpi, n, theta)
    draw = rng.integers(0, 2, size=n)
    b = int.from_bytes(np.packbits(draw, bitorder="little").tobytes(), "little")
    if diff is not None and record_parity(b, diff) != parity:
        b ^= diff & -diff
    return b
