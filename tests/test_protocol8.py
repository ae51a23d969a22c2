"""Merge gadget and 8-states protocol tests, anchored by the exhaustive sweep."""

import numpy as np
import pytest

from qfactory import protocol8 as p8
from qfactory.params import TOY_MICRO
from qfactory.sim import (
    QubitDescription, draw_row, fidelity, gadget_rows, gadget_state, top_qubit_rows,
)


def _in1(B1, B2):
    return QubitDescription.bb84(B1, B2)


def _in2(B1p, B2p):
    # R(pi/2)^B1' Z^B2' |+>
    return QubitDescription.eight(2 * B1p + 4 * B2p)


def test_compute_l_all_zero():
    assert p8.compute_L(0, 0, 0, 0, 0, 0).L == 0


def test_exhaustive_merge_sweep_matches_compute_l():
    """All 16 index pairs x all 4 outcome branches: out == |+_{L pi/4}>."""
    cases = 0
    for B1 in (0, 1):
        for B2 in (0, 1):
            for B1p in (0, 1):
                for B2p in (0, 1):
                    branches = p8.merge_branches(_in1(B1, B2), _in2(B1p, B2p))
                    total = sum(prob for _, _, prob, _ in branches)
                    assert total == pytest.approx(1.0, abs=1e-9)
                    for s1, s2, prob, out in branches:
                        want = p8.compute_L(B1, B2, B1p, B2p, s1, s2).qubit()
                        assert fidelity(out, want) >= 1 - 1e-9
                        cases += 1
    assert cases == 64


def test_merge_branch_probabilities():
    # equatorial in1 decouples the ancilla readout: all branches uniform
    for B1, B2, B1p, B2p in [(1, 1, 0, 1), (1, 0, 1, 1)]:
        branches = p8.merge_branches(_in1(B1, B2), _in2(B1p, B2p))
        assert len(branches) == 4
        for _, _, prob, _ in branches:
            assert prob == pytest.approx(0.25, abs=1e-9)
    # computational in1 leaves the pi/4 ancilla biased: cos^2(pi/8)/2 per s2
    import math

    branches = p8.merge_branches(_in1(0, 0), _in2(0, 0))
    probs = sorted(prob for _, _, prob, _ in branches)
    c2 = math.cos(math.pi / 8) ** 2
    assert probs[0] == pytest.approx((1 - c2) / 2, abs=1e-9)
    assert probs[-1] == pytest.approx(c2 / 2, abs=1e-9)


def test_l3_equals_first_basis_bit():
    for B1 in (0, 1):
        for rest in range(16):
            B2, B1p, B2p, s1 = (rest >> 3) & 1, (rest >> 2) & 1, (rest >> 1) & 1, rest & 1
            idx = p8.compute_L(B1, B2, B1p, B2p, s1, 0)
            assert idx.L & 1 == B1


def test_merge_gadget_sampled_matches_formula():
    rng = np.random.default_rng(5)
    for _ in range(40):
        B1, B2, B1p, B2p = (int(v) for v in rng.integers(0, 2, size=4))
        res = p8.merge_gadget(_in1(B1, B2), _in2(B1p, B2p), rng)
        want = p8.compute_L(B1, B2, B1p, B2p, res.s1, res.s2).qubit()
        assert fidelity(res.out, want) >= 1 - 1e-9


def test_merge_map_is_the_merge_circuit():
    rng = np.random.default_rng(7)
    for _ in range(200):
        in1, in2 = (QubitDescription(rng.standard_normal(2) + 1j * rng.standard_normal(2))
                    for _ in range(2))
        want = top_qubit_rows(gadget_state(1, in1, in2), 0.0)
        assert np.abs(gadget_rows(1, in1, in2) - want).max() <= 1e-15


def test_merge_gadget_draws_as_the_live_circuit():
    inputs = np.random.default_rng(8)
    for seed in range(2000):
        B1, B2, B1p, B2p = (int(v) for v in inputs.integers(0, 2, size=4))
        in1, in2 = _in1(B1, B2), _in2(B1p, B2p)
        # the reference: the same draw from the live merge circuit's rows
        rows = top_qubit_rows(gadget_state(1, in1, in2), 0.0)
        bits, out = draw_row(rows, np.random.default_rng(seed))
        res = p8.merge_gadget(in1, in2, np.random.default_rng(seed))
        assert (res.s1, res.s2) == bits
        assert fidelity(res.out, out) >= 1 - 1e-12


def test_adversarial_outcome_flips_shift_l_per_formula():
    B1, B2, B1p, B2p = 1, 0, 1, 1
    base = p8.compute_L(B1, B2, B1p, B2p, 0, 0)
    flip_s1 = p8.compute_L(B1, B2, B1p, B2p, 1, 0)
    # flipping s1 toggles L1 when B1 = 1
    assert flip_s1.L == base.L ^ 4


def test_run_protocol8_honest_end_to_end():
    hits = 0
    for seed in range(30):
        res = p8.run_protocol8(TOY_MICRO, seed=seed, backend="two_branch")
        if not res.usable:
            continue
        hits += 1
        assert res.held is not None
        assert fidelity(res.held, res.index.qubit()) >= 1 - 1e-9
    assert hits > 5


def test_run_protocol8_statevector_backend():
    hits = 0
    for seed in range(8):
        res = p8.run_protocol8(TOY_MICRO, seed=seed, backend="statevector")
        if res.usable:
            hits += 1
            assert fidelity(res.held, res.index.qubit()) >= 1 - 1e-9
    assert hits > 0


def test_run_protocol8_replay_determinism():
    a = p8.run_protocol8(TOY_MICRO, seed=17)
    b = p8.run_protocol8(TOY_MICRO, seed=17)
    assert (a.s1, a.s2) == (b.s1, b.s2)
    assert a.run1.transcript == b.run1.transcript
    assert a.run2.transcript == b.run2.transcript
    assert (a.index is None) == (b.index is None)
    if a.index is not None:
        assert a.index.L == b.index.L


# ---------------------------------------------------------------------------
# guessing statistics


def test_guess_stats_perfect():
    recs = [(a, b, a, b) for a in (0, 1) for b in (0, 1)] * 10
    st = p8.guess_stats(recs)
    assert st.p_a == st.p_b == st.p_xor == st.p_joint == 1.0


def test_guess_stats_uniform():
    rng = np.random.default_rng(11)
    recs = []
    for _ in range(4000):
        a, b, ga, gb = (int(v) for v in rng.integers(0, 2, size=4))
        recs.append((ga, gb, a, b))
    st = p8.guess_stats(recs)
    sigma = 3 / np.sqrt(len(recs))
    for p in (st.p_a, st.p_b, st.p_xor):
        assert abs(p - 0.5) <= sigma
    assert abs(st.p_joint - 0.25) <= sigma


def test_guess_stats_xor_only_guesser():
    rng = np.random.default_rng(13)
    recs = []
    for _ in range(4000):
        a, b = (int(v) for v in rng.integers(0, 2, size=2))
        ga = int(rng.integers(0, 2))
        gb = ga ^ a ^ b  # knows only the xor
        recs.append((ga, gb, a, b))
    st = p8.guess_stats(recs)
    sigma = 3 / np.sqrt(len(recs))
    assert st.p_xor == 1.0
    assert abs(st.p_a - 0.5) <= sigma
    assert abs(st.p_b - 0.5) <= sigma
    assert abs(st.p_joint - 0.5) <= sigma


def test_guess_stats_counting_bound_holds_on_good_joint():
    recs = [(a, b, a, b) for a in (0, 1) for b in (0, 1)] * 5
    rng = np.random.default_rng(17)
    for _ in range(20):
        a, b = (int(v) for v in rng.integers(0, 2, size=2))
        recs.append((a ^ 1, b, a, b))
    st = p8.guess_stats(recs)
    if st.epsilon > 0:
        assert st.max_single >= 0.5 + st.epsilon_prime - 1e-12


def test_guess_stats_empty_rejected():
    with pytest.raises(ValueError):
        p8.guess_stats([])
