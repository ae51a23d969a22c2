"""Statevector backend and analytic two-branch evaluator tests."""

import math

import numpy as np
import pytest

from qfactory import lwe
from qfactory.params import TOY_MICRO
from qfactory.sim import (
    COMPUTATIONAL,
    QubitDescription,
    StateVector,
    analytic_stage2,
    fidelity,
    sample_b,
    stage2_b_support,
    xy_plane,
)

SQ2 = 1 / math.sqrt(2)


def test_h_makes_plus():
    sv = StateVector(1).h(0)
    assert np.allclose(sv.amps, [SQ2, SQ2])


def test_r_pi_is_z():
    sv = StateVector(1).h(0).r(math.pi, 0)
    assert fidelity(sv.amps, [SQ2, -SQ2]) == pytest.approx(1.0)


def test_cz_then_measure_first_qubit():
    # CZ on |+>|+>, computational readout 0 on qubit 0 leaves |+> on qubit 1
    sv = StateVector(2).h(0).h(1).cz(0, 1)
    prob = sv.postselect([0], (0,))
    assert prob == pytest.approx(0.5)
    assert fidelity(sv.qubit_state(1), [SQ2, SQ2]) == pytest.approx(1.0)
    # X-basis readout instead teleports H onto qubit 1: outcome 0 gives |0>
    sv = StateVector(2).h(0).h(1).cz(0, 1)
    sv.r(-0.0, 0)
    sv.h(0)
    sv.postselect([0], (0,))
    assert fidelity(sv.qubit_state(1), [1, 0]) == pytest.approx(1.0)


def test_norm_preserved_random_circuit():
    rng = np.random.default_rng(1)
    sv = StateVector(5)
    for _ in range(60):
        op = rng.integers(0, 4)
        qb = int(rng.integers(0, 5))
        if op == 0:
            sv.h(qb)
        elif op == 1:
            sv.x(qb)
        elif op == 2:
            sv.r(float(rng.uniform(0, 2 * math.pi)), qb)
        else:
            other = int(rng.integers(0, 5))
            if other != qb:
                sv.cz(qb, other)
    assert abs(sv.norm() - 1.0) < 1e-9


def test_index_convention_little_endian():
    sv = StateVector(3).x(1)
    assert sv.amps[0b010] == pytest.approx(1.0)


def test_gate_index_out_of_range():
    with pytest.raises(IndexError):
        StateVector(2).h(2)


def _random_state(n, rng):
    sv = StateVector(n)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    sv.amps = amps / np.linalg.norm(amps)
    return sv


def _reference_1q(amps, mat, qubit, n):
    """The plain moveaxis-and-matmul form of a 1-qubit gate."""
    t = np.moveaxis(amps.reshape((2,) * n), n - 1 - qubit, -1)
    return np.moveaxis(t @ mat.T, -1, n - 1 - qubit).reshape(-1)


GATES = {
    "h": (lambda sv, qb: sv.h(qb), np.array([[1, 1], [1, -1]]) * SQ2),
    "x": (lambda sv, qb: sv.x(qb), np.array([[0, 1], [1, 0]])),
    "z": (lambda sv, qb: sv.z(qb), np.array([[1, 0], [0, -1]])),
    "r": (lambda sv, qb: sv.r(0.7, qb), np.array([[1, 0], [0, np.exp(0.7j)]])),
}


@pytest.mark.parametrize("n", [1, 3, 7, 14])
@pytest.mark.parametrize("gate", sorted(GATES))
def test_1q_gate_matches_reference_in_place(n, gate):
    apply, mat = GATES[gate]
    rng = np.random.default_rng(n)
    sv = _random_state(n, rng)
    amps = sv.amps
    for qb in range(n):
        expect = _reference_1q(amps.copy(), mat, qb, n)
        apply(sv, qb)
        assert sv.amps is amps
        assert np.max(np.abs(sv.amps - expect)) <= 1e-12


@pytest.mark.parametrize("theta", [0.0, math.pi / 2, 1.3])
def test_xy_readout_matches_r_then_h(theta):
    n, measured = 6, [4, 0, 2, 5]
    fused = _random_state(n, np.random.default_rng(9))
    split = StateVector(n)
    split.amps = fused.amps.copy()
    for qb in measured:
        split.r(-theta, qb).h(qb)
    bits, prob = fused.measure(measured, xy_plane(theta), np.random.default_rng(10))
    split_bits, split_prob = split.measure(measured, COMPUTATIONAL, np.random.default_rng(10))
    assert bits == split_bits
    assert prob == pytest.approx(split_prob, abs=1e-12)
    assert np.max(np.abs(fused.amps - split.amps)) <= 1e-12


def test_function_unitary_identity_is_cnot():
    sv = StateVector(2).h(0)
    sv.apply_function_unitary([0, 1], controls=[0], targets=[1])
    assert np.allclose(sv.amps, [SQ2, 0, 0, SQ2])


def test_function_unitary_constant_zero_is_identity():
    sv = StateVector(3).h(0).h(1)
    before = sv.amps.copy()
    sv.apply_function_unitary([0, 0, 0, 0], controls=[0, 1], targets=[2])
    assert np.allclose(sv.amps, before)


def test_function_unitary_involution():
    rng = np.random.default_rng(2)
    table = rng.integers(0, 4, size=8)
    sv = StateVector(5).h(0).h(1).h(2).r(0.7, 1)
    before = sv.amps.copy()
    sv.apply_function_unitary(table, controls=[0, 1, 2], targets=[3, 4])
    sv.apply_function_unitary(table, controls=[0, 1, 2], targets=[3, 4])
    assert np.allclose(sv.amps, before)


def test_function_unitary_matches_toy_truth_table():
    pk, _ = lwe.gen(TOY_MICRO, seed=5)
    params = pk.params
    nbits = params.total_bits
    ybits = params.m * params.ell_q
    table = lwe.f_bit_table(pk)
    sv = StateVector(nbits + ybits)
    for qb in range(nbits):
        sv.h(qb)
    sv.apply_function_unitary(table, controls=list(range(nbits)), targets=list(range(nbits, nbits + ybits)))
    # each basis state |x>|f(x)> should carry amplitude 2^{-nbits/2}
    amp = 2 ** (-nbits / 2)
    idx = np.flatnonzero(np.abs(sv.amps) > 1e-12)
    assert len(idx) == 1 << nbits
    for i in idx[:64]:
        x = int(i) & ((1 << nbits) - 1)
        y = int(i) >> nbits
        assert y == int(table[x])
        assert abs(sv.amps[i] - amp) < 1e-12


def test_measure_plus_computational():
    rng = np.random.default_rng(3)
    counts = [0, 0]
    for _ in range(200):
        sv = StateVector(1).h(0)
        bits, prob = sv.measure([0], COMPUTATIONAL, rng)
        assert prob == pytest.approx(0.5)
        counts[bits[0]] += 1
    assert counts[0] > 60 and counts[1] > 60


def test_measure_plus_in_its_own_basis():
    rng = np.random.default_rng(4)
    sv = StateVector(1).h(0)
    bits, prob = sv.measure([0], xy_plane(0.0), rng)
    assert bits == (0,)
    assert prob == pytest.approx(1.0)


def test_measure_deterministic_given_seed():
    def run(seed):
        rng = np.random.default_rng(seed)
        sv = StateVector(4)
        for qb in range(4):
            sv.h(qb)
        sv.cz(0, 1).cz(2, 3)
        return sv.measure([0, 1, 2, 3], xy_plane(math.pi / 2), rng)

    assert run(77) == run(77)


def test_stage1_image_probabilities():
    """Measuring the image register yields y with probability |f^-1(y)|/2^N."""
    pk, _ = lwe.gen(TOY_MICRO, seed=8)
    params = pk.params
    nbits = params.total_bits
    ybits = params.m * params.ell_q
    table = lwe.f_bit_table(pk)
    sv = StateVector(nbits + ybits)
    for qb in range(nbits):
        sv.h(qb)
    sv.apply_function_unitary(table, controls=list(range(nbits)), targets=list(range(nbits, nbits + ybits)))
    probs = sv.probabilities(list(range(nbits, nbits + ybits))).reshape(-1)
    # probabilities() orders axes per the qubit list (first = most significant)
    counts = np.bincount(table, minlength=1 << ybits)
    for packed, count in enumerate(counts):
        if count == 0:
            continue
        # packed y uses bit j = qubit nbits+j; flatten order has first listed
        # qubit most significant, so reverse the bits
        pos = int(f"{packed:0{ybits}b}"[::-1], 2)
        assert probs[pos] == pytest.approx(count / (1 << nbits))


# ---------------------------------------------------------------------------
# QubitDescription and fidelity


def test_fidelity_trivials():
    plus = QubitDescription.bb84(1, 0)
    assert fidelity(plus, plus) == pytest.approx(1.0)
    assert fidelity(QubitDescription.bb84(0, 0), QubitDescription.bb84(0, 1)) == pytest.approx(0.0)
    assert fidelity(plus, QubitDescription.eight(1)) == pytest.approx(
        math.cos(math.pi / 8) ** 2
    )
    assert math.cos(math.pi / 8) ** 2 == pytest.approx(0.8535534, abs=1e-7)


def test_global_phase_quotient():
    a = QubitDescription([1j * SQ2, 1j * SQ2])
    assert a.approx_equal(QubitDescription.bb84(1, 0))


# ---------------------------------------------------------------------------
# analytic two-branch evaluation


def test_stage2_basic_plus():
    # branches (z,0) and (z',1) with opposite hardcore bits, all-zero record
    x = (0, 0, 0, 0)
    xp = (1, 0, 1, 1)
    out = analytic_stage2(x, xp, (0, 0, 0, 0), 0.0)
    assert out.approx_equal(QubitDescription.bb84(1, 0))


def test_stage2_rejects_equal_branches():
    with pytest.raises(ValueError):
        analytic_stage2((0, 1), (0, 1), (0, 0), 0.0)


def _two_branch_statevector(x, xp, theta):
    """Reference pipeline: explicit superposition, CNOT to the target, rotate,
    and tabulate the output qubit per measurement record."""
    n = len(x)
    sv = StateVector(n + 1)
    amps = np.zeros(1 << (n + 1), dtype=complex)
    xi = sum(b << j for j, b in enumerate(x))
    xpi = sum(b << j for j, b in enumerate(xp))
    amps[xi] = SQ2
    amps[xpi] = SQ2
    sv.amps = amps
    sv.apply_function_unitary([0, 1], controls=[n - 2], targets=[n])
    for qb in range(n):
        sv.r(-theta, qb)
        sv.h(qb)
    return sv


@pytest.mark.parametrize("theta", [0.0, math.pi / 2], ids=["plain", "rotated"])
def test_stage2_matches_statevector(theta):
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(3, 7))
        x = [int(v) for v in rng.integers(0, 2, size=n)]
        xp = [int(v) for v in rng.integers(0, 2, size=n)]
        x[-1], xp[-1] = 0, 1
        if tuple(x[:-1]) == tuple(xp[:-1]):
            xp[0] ^= 1
        sv = _two_branch_statevector(tuple(x), tuple(xp), theta)
        b = sample_b(tuple(x), tuple(xp), theta, rng)
        flat = sv.amps.reshape(-1)
        bidx = sum(bit << j for j, bit in enumerate(b))
        col = np.array([flat[bidx], flat[bidx + (1 << n)]])
        assert np.linalg.norm(col) > 1e-12
        want = analytic_stage2(tuple(x), tuple(xp), b, theta)
        assert fidelity(col, want.vec) >= 1 - 1e-9


def test_stage2_b_support_zero_probability_records():
    # equal hardcore bits at theta=0: only even-overlap records survive
    x = (0, 1, 0, 0)
    xp = (1, 1, 0, 1)
    diff, parity = stage2_b_support(x, xp, 0.0)
    assert parity == 0
    bad_b = (1, 0, 0, 0)  # <b, diff> = 1
    with pytest.raises(ValueError):
        analytic_stage2(x, xp, bad_b, 0.0)
    sv = _two_branch_statevector(x, xp, 0.0)
    bidx = 1  # packed bad_b
    col = sv.amps.reshape(-1)[[bidx, bidx + (1 << 4)]]
    assert np.linalg.norm(col) < 1e-12


def test_qubit_state_rejects_entangled_qubit():
    sv = StateVector(3).h(0)
    sv.apply_function_unitary([0, 1], controls=[0], targets=[2])
    assert fidelity(sv.qubit_state(1), [1, 0]) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="entangled"):
        sv.qubit_state(2)
