"""Statevector backend and analytic two-branch evaluator tests."""

import functools
import itertools
import math

import numpy as np
import pytest

from qfactory import lwe, serde, sim
from qfactory.params import TOY_GADGET, TOY_MICRO, TOY_WIDE
from qfactory.sim import (
    QubitDescription,
    StateVector,
    analytic_stage2,
    draw_row,
    fidelity,
    gadget_state,
    row_branches,
    sample_b,
    stage2_b_support,
    top_qubit_rows,
    xy_readout,
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


@pytest.mark.parametrize(
    "bits",
    [(1.0, True), (1,), (0, 1, 0), (0, 2)],
    ids=["float-entry", "one-bit-short", "one-bit-long", "entry-2"],
)
def test_postselect_reads_outcome_by_the_bit_rule(bits):
    sv = StateVector(2).h(0).h(1)
    with pytest.raises(ValueError):
        sv.postselect([0, 1], bits)
    assert np.allclose(sv.amps, 0.5)


def _mask_postselect(amps, n, qubits, bits):
    """The mask form of postselect: zero every amplitude whose measured bits
    differ from the outcome; the probability is 1 minus the dropped mass."""
    sel = sum(1 << qb for qb in qubits)
    want = sum(b << qb for qb, b in zip(qubits, bits))
    drop = (np.arange(1 << n) & sel) != want
    out = amps.copy()
    prob = 1.0 - float(np.sum(np.abs(out[drop]) ** 2))
    out[drop] = 0.0
    return out / math.sqrt(prob), prob


@pytest.mark.parametrize(
    "n, qubits",
    [(1, [0]), (3, [2, 0]), (3, [1, 2, 0]), (7, [5, 1, 3]), (7, [6, 0, 4, 2]),
     (13, [11, 2, 7, 0, 9]), (13, [12, 10, 1])],
)
def test_postselect_view_equals_the_mask_formula(n, qubits):
    sv = _random_state(n, np.random.default_rng(n + len(qubits)))
    start = sv.amps.copy()
    for bits in itertools.product((0, 1), repeat=len(qubits)):
        want, want_prob = _mask_postselect(start, n, qubits, bits)
        sv.amps = start.copy()
        assert abs(sv.postselect(qubits, bits) - want_prob) <= 1e-12
        assert np.max(np.abs(sv.amps - want)) <= 1e-12


def test_postselect_on_a_zero_probability_outcome_raises_and_keeps_the_state():
    sv = StateVector(3).h(0).h(2)  # qubit 1 holds |0>
    before = sv.amps.copy()
    with pytest.raises(ValueError, match="zero-probability"):
        sv.postselect([2, 1], (0, 1))
    with pytest.raises(ValueError):
        sv.postselect([2, 1], (1.0, True))
    assert np.array_equal(sv.amps, before)


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
    assert abs(np.linalg.norm(sv.amps) - 1.0) < 1e-9


def test_index_convention_little_endian():
    sv = StateVector(3).x(1)
    assert sv.amps[0b010] == pytest.approx(1.0)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_cz_negates_exactly_the_amplitudes_with_both_bits_set(n):
    sv = _random_state(n, np.random.default_rng(n))
    for a in range(n):
        for b in range(n):
            if a != b:
                want = sv.amps.copy()
                both = (1 << a) | (1 << b)
                want[(np.arange(1 << n) & both) == both] *= -1
                assert np.array_equal(sv.cz(a, b).amps, want)


@pytest.mark.parametrize("L", range(8))
def test_gadget_state_equals_the_kron_build_exactly(L):
    rng = np.random.default_rng(L)
    for _ in range(20):
        in1, in2 = (QubitDescription(rng.standard_normal(2) + 1j * rng.standard_normal(2))
                    for _ in range(2))
        vecs = [QubitDescription.eight(L).vec, in1.vec, in2.vec]
        want = functools.reduce(np.kron, vecs[::-1])  # kron's first factor: high bits
        for a, b in [(0, 1), (1, 2)]:
            both = (1 << a) | (1 << b)
            want[(np.arange(1 << 3) & both) == both] *= -1
        assert np.array_equal(gadget_state(L, in1, in2).amps, want)


def test_cached_constants_are_read_only_and_bounded():
    arrays = [
        sim._index(3),
        sim._control_index(5, (3, 0, 2)),
        sim._layer_block(((0, 1), (1, 0)), 2),
        sim._layer_block(((1, 0), (0, 1j)), 4),
        sim._target_masks((7, 3, 5)),
        lwe._s_grid(TOY_WIDE.q, TOY_WIDE.n),
        lwe._sector_dv(TOY_WIDE),
        lwe._noise_block(TOY_WIDE),
        lwe._SECTOR_C,
        lwe._gadget_rows(TOY_GADGET),
        sim._gadget_map(1),
        sim._gadget_map(2),
    ]
    assert all(not a.flags.writeable for a in arrays)
    caches = (
        sim._control_index, sim._layer_block, sim._target_masks,
        lwe._s_grid, lwe._sector_dv, lwe._noise_block, lwe._row_mask, lwe._gadget_rows,
        serde._param_set, sim._gadget_map,
    )
    for cache in caches:
        assert cache.cache_info().maxsize is not None


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
    "h": (lambda sv, *qbs: sv.h(*qbs), np.array([[1, 1], [1, -1]]) * SQ2),
    "x": (lambda sv, *qbs: sv.x(*qbs), np.array([[0, 1], [1, 0]])),
    "z": (lambda sv, *qbs: sv.z(*qbs), np.array([[1, 0], [0, -1]])),
    "r": (lambda sv, *qbs: sv.r(0.7, *qbs), np.array([[1, 0], [0, np.exp(0.7j)]])),
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


@pytest.mark.parametrize("gate", sorted(GATES))
def test_gate_layer_matches_the_gates_one_by_one(gate):
    """A layer equals its gates applied one at a time on the 2 x 2 kernel, in
    place: unsorted lists with lone qubits and runs longer than one block."""
    apply, _ = GATES[gate]
    for n, listed in [(6, [4, 0, 2, 5]), (11, [9, 3, 1, 6, 10, 2, 5, 4, 8]), (14, range(14))]:
        layer = _random_state(n, np.random.default_rng(n))
        single = StateVector(n)
        single.amps = layer.amps.copy()
        amps = layer.amps
        assert apply(layer, *listed) is layer and layer.amps is amps
        for qb in listed:
            apply(single, qb)
        assert np.max(np.abs(layer.amps - single.amps)) <= 1e-12


def test_gate_layer_checks_every_qubit_first():
    sv = _random_state(3, np.random.default_rng(0))
    before = sv.amps.copy()
    with pytest.raises(IndexError):
        sv.h(0, 1, 3)
    with pytest.raises(ValueError):
        sv.h(0, 1, 0)
    assert np.array_equal(sv.amps, before)


def _split_readout(sv, theta, qubits=None):
    """The reference XY-plane readout: R(-theta) then H on each listed qubit,
    by default every qubit below the top."""
    for qb in range(sv.n - 1) if qubits is None else qubits:
        sv.r(-theta, qb).h(qb)
    return sv


@pytest.mark.parametrize("theta", [0.0, math.pi / 2, 1.3])
def test_xy_readout_matches_r_then_h(theta):
    # unsorted lists; the second has a run of 6 adjacent qubits (1 .. 6), so
    # it is split into blocks
    for n, listed in [(6, [4, 0, 2, 5]), (11, [9, 3, 1, 6, 10, 2, 5, 4, 8])]:
        fused = _random_state(n, np.random.default_rng(9))
        split = StateVector(n)
        split.amps = fused.amps.copy()
        amps = fused.amps
        assert xy_readout(fused, listed, theta) is fused
        assert fused.amps is amps
        _split_readout(split, theta, listed)
        assert np.max(np.abs(fused.amps - split.amps)) <= 1e-12


@pytest.mark.parametrize("theta", [0.0, math.pi / 2, 1.3])
def test_top_qubit_rows_is_a_view_of_the_readout(theta):
    fused = _random_state(6, np.random.default_rng(9))
    split = StateVector(6)
    split.amps = fused.amps.copy()
    rows = top_qubit_rows(fused, theta)
    _split_readout(split, theta)
    assert np.max(np.abs(fused.amps - split.amps)) <= 1e-12
    assert np.shares_memory(rows, fused.amps)
    assert np.max(np.abs(rows[0b10110] - split.amps[[0b010110, 0b110110]])) <= 1e-12


@pytest.mark.parametrize("theta", [0.0, math.pi / 2, 1.3], ids=["0", "pi/2", "1.3"])
@pytest.mark.parametrize("n", range(2, 15))
def test_draw_row_matches_measure_reference(n, theta):
    """draw_row on the rows equals split gates, a computational measure of
    every qubit below the top and qubit_state, draw for draw."""
    rng = np.random.default_rng(100 + n)
    for seed in range(3):
        fused = _random_state(n, rng)
        split = StateVector(n)
        split.amps = fused.amps.copy()
        bits, out = draw_row(top_qubit_rows(fused, theta), np.random.default_rng(seed))
        _split_readout(split, theta)
        want, _ = split.measure(range(n - 1), np.random.default_rng(seed))
        assert bits == want
        assert fidelity(out, split.qubit_state(n - 1)) >= 1 - 1e-9


@pytest.mark.parametrize("k", range(7))
def test_row_branches_matches_draw_row(k):
    """Over the rows of k readout qubits, each branch is the outcome draw_row
    draws when its row is the only nonzero one; zero rows are absent and the
    probabilities sum to 1."""
    rng = np.random.default_rng(200 + k)
    rows = top_qubit_rows(_random_state(k + 1, rng), 1.3)
    if k:  # with k = 0 the one row is the empty outcome's and stays
        rows[::3] = 0.0  # outcomes of probability zero
    rows /= np.linalg.norm(rows)
    branches = row_branches(rows)
    nonzero = [r for r in range(1 << k) if np.any(rows[r])]
    assert sorted(lwe.pack_bits(bits) for bits, _, _ in branches) == nonzero
    assert [bits for bits, _, _ in branches] == sorted(bits for bits, _, _ in branches)
    assert sum(prob for _, prob, _ in branches) == pytest.approx(1.0, abs=1e-12)
    for bits, prob, out in branches:
        row = rows[lwe.pack_bits(bits)]
        only = np.zeros_like(rows)
        only[lwe.pack_bits(bits)] = row / math.sqrt(prob)  # draw_row reads a normalised table
        want, held = draw_row(only, np.random.default_rng(k))
        assert bits == want
        assert prob == float(np.vdot(row, row).real)
        assert fidelity(out, held) >= 1 - 1e-12


def test_h_layer_on_zeros_is_the_uniform_superposition():
    for n in range(1, 15):
        amps = StateVector(n).h(*range(n)).amps
        assert np.max(np.abs(amps - 2 ** (-n / 2))) <= 1e-15


def test_gadget_state_owns_its_amplitudes():
    in1, in2 = QubitDescription([0.6, 0.8j]), QubitDescription([0.8, -0.6j])
    gadget_state(0, in1, in2).x(0, 1, 2)
    assert np.array_equal(in1.vec, [0.6, 0.8j]) and np.array_equal(in2.vec, [0.8, -0.6j])


@pytest.mark.parametrize("k", [1, 3, 5])
def test_measure_and_drop_is_measure_then_drop_qubits(k):
    """The same draw and, bit for bit, the same state as a computational
    measure of the top k qubits followed by dropping them: reading the
    collapsed state's slice at the drawn outcome."""
    n = 8
    for seed in range(5):
        one = _random_state(n, np.random.default_rng(seed))
        two = StateVector(n)
        two.amps = one.amps.copy()
        bits, prob = one.measure(range(n - k, n), np.random.default_rng(seed), drop=True)
        want, want_prob = two.measure(range(n - k, n), np.random.default_rng(seed))
        assert (bits, prob) == (want, want_prob)
        drawn = two.amps.reshape(1 << k, -1)[lwe.pack_bits(want)]
        assert one.n == n - k and np.array_equal(one.amps, drawn)


@pytest.mark.parametrize("qubits", [[], [0, 1, 2], [1], [2, 1]], ids=["none", "all", "not-top", "unordered"])
def test_measure_drops_only_top_qubits_in_order(qubits):
    sv = StateVector(3).h(0, 2)
    before = sv.amps.copy()
    with pytest.raises(ValueError):
        sv.measure(qubits, np.random.default_rng(0), drop=True)
    assert sv.n == 3 and np.array_equal(sv.amps, before)


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


def _scatter_function_unitary(amps, table, controls, targets, n):
    """The per-bit scatter form: |x>|y> goes to the index with y xor f(x)."""
    idx = np.arange(1 << n, dtype=np.int64)
    cidx = np.zeros_like(idx)
    for j, qb in enumerate(controls):
        cidx |= ((idx >> qb) & 1) << j
    fv = np.asarray(table, dtype=np.int64)[cidx]
    new_idx = idx.copy()
    for j, qb in enumerate(targets):
        new_idx ^= ((fv >> j) & 1) << qb
    out = np.empty_like(amps)
    out[new_idx] = amps
    return out


@pytest.mark.parametrize("n", [3, 7, 13])
def test_function_unitary_gather_equals_the_scatter_loop(n):
    rng = np.random.default_rng(n)
    for _ in range(10):
        qubits = [int(q) for q in rng.permutation(n)]
        nc = int(rng.integers(1, n))
        nt = int(rng.integers(1, n - nc + 1))
        controls, targets = qubits[:nc], qubits[nc : nc + nt]
        table = rng.integers(0, 1 << nt, size=1 << nc)
        sv = _random_state(n, rng)
        want = _scatter_function_unitary(sv.amps, table, controls, targets, n)
        assert np.array_equal(sv.apply_function_unitary(table, controls, targets).amps, want)


@pytest.mark.parametrize(
    "table",
    [[0.0, 1.7], ["1", 0], [True, False], np.array([0.0, 1.0]), np.array([True, False]),
     [0, 2], [-1, 0], [1 << 70, 0], np.array([[0, 1]]), [0, 1, 0]],
    ids=["float", "str", "bool", "float-array", "bool-array", "too-wide", "negative",
         "huge", "2d-array", "wrong-size"],
)
def test_function_unitary_rejects_a_table_outside_the_table_rule(table):
    sv = StateVector(2).h(0)
    with pytest.raises(ValueError):
        sv.apply_function_unitary(table, controls=[0], targets=[1])
    assert np.allclose(sv.amps, [SQ2, SQ2, 0, 0])


@pytest.mark.parametrize(
    "table", [[0, 1], (np.int8(0), np.uint64(1)), np.array([0, 1], dtype=np.uint16)],
    ids=["ints", "numpy-scalars", "uint-array"],
)
def test_function_unitary_takes_int_and_numpy_integer_tables(table):
    sv = StateVector(2).h(0)
    sv.apply_function_unitary(table, controls=[0], targets=[1])
    assert np.allclose(sv.amps, [SQ2, 0, 0, SQ2])


def test_append_and_drop_qubits_keep_the_state():
    rng = np.random.default_rng(4)
    sv = _random_state(3, rng)
    before = sv.amps.copy()
    sv.append_qubits(2).x(4)
    assert sv.n == 5 and np.array_equal(sv.amps[16:24], before)
    bits, prob = sv.measure([3, 4], rng, drop=True)
    assert bits == (0, 1) and prob == pytest.approx(1.0)
    assert sv.n == 3 and np.allclose(sv.amps, before, rtol=0, atol=1e-12)


def test_append_qubits_above_the_width_cap_raises():
    sv = StateVector(sim.MAX_QUBITS - 2)
    with pytest.raises(ValueError):
        sv.append_qubits(3)
    with pytest.raises(ValueError):
        sv.append_qubits(0)
    assert sv.n == sim.MAX_QUBITS - 2


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
        bits, prob = sv.measure([0], rng)
        assert prob == pytest.approx(0.5)
        counts[bits[0]] += 1
    assert counts[0] > 60 and counts[1] > 60


def test_measure_plus_in_its_own_basis():
    # |+> on qubit 0 reads 0 in the X basis and leaves the top qubit untouched
    for seed in range(20):
        sv = StateVector(2).h(0).x(1)
        bits, out = draw_row(top_qubit_rows(sv, 0.0), np.random.default_rng(seed))
        assert bits == (0,)
        assert fidelity(out, QubitDescription.computational(1)) >= 1 - 1e-9


def test_measure_deterministic_given_seed():
    def run(seed):
        rng = np.random.default_rng(seed)
        sv = StateVector(5)
        for qb in range(4):
            sv.h(qb)
        sv.cz(0, 1).cz(2, 3).cz(3, 4)
        bits, out = draw_row(top_qubit_rows(sv, math.pi / 2), rng)
        return bits, out.vec.tolist()

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
    assert fidelity(a, QubitDescription.bb84(1, 0)) >= 1 - 1e-9


@pytest.mark.parametrize(
    "name, args",
    [("bb84", (2, 3)), ("bb84", (0, 2)), ("bb84", (-1, 0)), ("computational", (2,)),
     ("computational", (-1,)), ("eight", (9,)), ("eight", (8,)), ("eight", (-1,)),
     ("equatorial", (5,)), ("equatorial", (4,)), ("equatorial", (-1,))],
)
def test_a_named_state_rejects_an_index_outside_its_range(name, args):
    with pytest.raises(ValueError, match="not in|must be 0 or 1"):
        getattr(QubitDescription, name)(*args)


# ---------------------------------------------------------------------------
# analytic two-branch evaluation


def test_stage2_basic_plus():
    # branches (z,0) and (z',1) with opposite hardcore bits, all-zero record
    x = 0b0000
    xp = 0b1101
    out = analytic_stage2(x, xp, 4, 0, 0.0)
    assert fidelity(out, QubitDescription.bb84(1, 0)) >= 1 - 1e-9


def test_stage2_rejects_equal_branches():
    with pytest.raises(ValueError):
        analytic_stage2(0b10, 0b10, 2, 0, 0.0)


def test_stage2_rejects_an_out_of_range_record():
    # masked to 3 bits the record would read as 0b010
    with pytest.raises(ValueError):
        analytic_stage2(0b100, 0b010, 3, 0b1010, 0.0)


@pytest.mark.parametrize(
    "x, xp, n",
    [(0b11010, 0b0011, 4), (0b1010, -1, 4), (0b1010, 0b0011, 3)],
    ids=["x", "x-prime", "short"],
)
def test_stage2_b_support_rejects_an_out_of_range_branch(x, xp, n):
    with pytest.raises(ValueError):
        stage2_b_support(x, xp, n, 0.0)


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
        xi, xpi = (sum(bit << j for j, bit in enumerate(v)) for v in (x, xp))
        b = sample_b(xi, xpi, n, theta, rng)
        flat = sv.amps.reshape(-1)
        col = np.array([flat[b], flat[b + (1 << n)]])
        assert np.linalg.norm(col) > 1e-12
        want = analytic_stage2(xi, xpi, n, b, theta)
        assert fidelity(col, want.vec) >= 1 - 1e-9


def test_stage2_b_support_zero_probability_records():
    # equal hardcore bits at theta=0: only even-overlap records survive
    x = (0, 1, 0, 0)
    xp = (1, 1, 0, 1)
    diff, parity = stage2_b_support(0b0010, 0b1011, 4, 0.0)
    assert parity == 0
    bad_b = 0b0001  # <b, diff> = 1
    with pytest.raises(ValueError):
        analytic_stage2(0b0010, 0b1011, 4, bad_b, 0.0)
    sv = _two_branch_statevector(x, xp, 0.0)
    bidx = bad_b
    col = sv.amps.reshape(-1)[[bidx, bidx + (1 << 4)]]
    assert np.linalg.norm(col) < 1e-12


def test_qubit_state_rejects_entangled_qubit():
    sv = StateVector(3).h(0)
    sv.apply_function_unitary([0, 1], controls=[0], targets=[2])
    assert fidelity(sv.qubit_state(1), [1, 0]) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="entangled"):
        sv.qubit_state(2)
