"""Combining-circuit and chunked-protocol tests."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from qfactory import abort, lwe, protocol4 as p4
from qfactory.params import TOY_REG, TOY_MICRO
from qfactory.sim import QubitDescription, StateVector, fidelity, row_branches, top_qubit_rows

FOUR_STATE = [QubitDescription.equatorial(k) for k in range(4)]


def _records(bits):
    """Two-preimage plain-run outputs with these (B1, B2) pairs."""
    return [
        p4.OutputIndex4(b1, b2, p4.TWO_PREIMAGES, p4.PAULI_X if b1 == 1 else p4.COMPUTATIONAL)
        for b1, b2 in bits
    ]


def test_gad_xor_single_plus_input():
    rng = np.random.default_rng(1)
    s_pairs, out = abort.gad_xor([QubitDescription.bb84(1, 0)], rng)
    b1, b2 = abort.combine_bits(_records([(1, 0)]), s_pairs)
    assert b1 == 1
    assert fidelity(out, abort.CombinedOutput(b1, b2, True).qubit()) >= 1 - 1e-9


def test_gad_xor_two_inputs_xor_basis():
    rng = np.random.default_rng(2)
    states = [QubitDescription.bb84(1, 1), QubitDescription.bb84(0, 1)]
    s_pairs, out = abort.gad_xor(states, rng)
    b1, b2 = abort.combine_bits(_records([(1, 1), (0, 1)]), s_pairs)
    assert b1 == 1
    assert fidelity(out, abort.CombinedOutput(b1, b2, True).qubit()) >= 1 - 1e-9


def test_gad_xor_strict_rejects_nonbb84():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        abort.gad_xor([QubitDescription.eight(1)], rng)


@pytest.mark.parametrize("t", [1, 2, 3])
def test_gad_xor_exhaustive_small(t):
    """All index tuples x all branches: basis law and the 4-state set."""
    for combo in itertools.product(range(4), repeat=t):
        bits = [((v >> 1) & 1, v & 1) for v in combo]
        states = [QubitDescription.bb84(b1, b2) for b1, b2 in bits]
        want_b1 = 0
        for b1, _ in bits:
            want_b1 ^= b1
        for s_pairs, prob, out in abort.gad_xor_branches(states):
            b1, b2 = abort.combine_bits(_records(bits), s_pairs)
            assert b1 == want_b1
            assert fidelity(out, QubitDescription.equatorial(b1 + 2 * b2)) >= 1 - 1e-9
            assert any(fidelity(out, ref) >= 1 - 1e-9 for ref in FOUR_STATE)


def test_gad_xor_sampled_matches_formula_t4():
    rng = np.random.default_rng(4)
    for _ in range(25):
        bits = [(int(rng.integers(0, 2)), int(rng.integers(0, 2))) for _ in range(4)]
        states = [QubitDescription.bb84(b1, b2) for b1, b2 in bits]
        s_pairs, out = abort.gad_xor(states, rng)
        b1, b2 = abort.combine_bits(_records(bits), s_pairs)
        assert fidelity(out, QubitDescription.equatorial(b1 + 2 * b2)) >= 1 - 1e-9


def _dense_combiner(bits) -> StateVector:
    """The literal (2t + 1)-qubit combining circuit on H^b1 X^b2 |0> inputs:
    qubit 2i is run i's ancilla |+_{pi/2}>, qubit 2i + 1 its input, qubit 2t
    the carrier |+>; a CZ on (2i, 2i + 1) and on (2i + 1, 2t) per run."""
    t = len(bits)
    sv = StateVector(2 * t + 1)
    for i, (b1, b2) in enumerate(bits):
        sv.h(2 * i).r(math.pi / 2, 2 * i)
        if b2:
            sv.x(2 * i + 1)
        if b1:
            sv.h(2 * i + 1)
    sv.h(2 * t)
    for i in range(t):
        sv.cz(2 * i, 2 * i + 1).cz(2 * i + 1, 2 * t)
    return sv


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_gad_xor_branches_fold_equals_the_dense_circuit(t):
    """Branch for branch: the same outcomes in the same order, the same
    probabilities and the same output qubit as the dense circuit."""
    for combo in itertools.product(range(4), repeat=t):
        bits = [((v >> 1) & 1, v & 1) for v in combo]
        want = row_branches(top_qubit_rows(_dense_combiner(bits), 0.0))
        got = abort.gad_xor_branches([QubitDescription.bb84(b1, b2) for b1, b2 in bits])
        assert len(got) == len(want)
        for (s_pairs, prob, out), (s, want_prob, want_out) in zip(got, want):
            assert tuple(b for pair in s_pairs for b in pair) == s
            assert abs(prob - want_prob) <= 1e-15
            assert fidelity(out, want_out) >= 1 - 1e-12


def test_gad_xor_at_chunk_size_matches_formula():
    """t = 60 inputs, far wider than a statevector holds: the fold still
    agrees with combine_bits."""
    rng = np.random.default_rng(60)
    for _ in range(5):
        bits = [(int(rng.integers(0, 2)), int(rng.integers(0, 2))) for _ in range(60)]
        states = [QubitDescription.bb84(b1, b2) for b1, b2 in bits]
        s_pairs, out = abort.gad_xor(states, rng)
        assert len(s_pairs) == 60
        b1, b2 = abort.combine_bits(_records(bits), s_pairs)
        assert fidelity(out, QubitDescription.equatorial(b1 + 2 * b2)) >= 1 - 1e-9


@pytest.mark.parametrize(
    "bits, s_pairs",
    [
        ([(1, 0)], [(2, 0)]),
        ([(2, 0)], [(0, 0)]),
        ([(0, -1)], [(0, 0)]),
        ([(1, 0.0)], [(0, 0)]),
        ([(1, 0)], [(0, 1, 1)]),
        ([(1, 0)], [(0, 0), (0, 0)]),
        ([(1, 0), (1, 1)], [(0, 0)]),
    ],
    ids=[
        "s-bit-2", "B1-2", "B2-minus-1", "B2-float", "outcome-triple", "extra-pair", "missing-pair"
    ],
)
def test_combine_bits_rejects_what_is_not_one_bit_pair_per_run(bits, s_pairs):
    with pytest.raises(ValueError):
        abort.combine_bits(_records(bits), s_pairs)


@pytest.mark.parametrize(
    "out",
    [
        p4.OutputIndex4(1, 0, p4.TWO_PREIMAGES, p4.PAULI_Y),
        p4.OutputIndex4(0, 1, p4.TWO_PREIMAGES, p4.PAULI_X),
    ],
    ids=["rotated-pauli-y", "pauli-x-with-B1-0"],
)
def test_combine_bits_rejects_an_output_outside_the_bb84_family_of_its_b1(out):
    with pytest.raises(ValueError, match="BB84 family"):
        abort.combine_bits([out], [(0, 0)])


# ---------------------------------------------------------------------------
# client combine / beta


def _config(t_c=2, n_c=2, p_a=Fraction(3, 4), p_c=Fraction(5, 8)):
    return abort.ChunkConfig(t_c=t_c, n_c=n_c, p_a=p_a, p_c=p_c)


def test_client_combine_all_accepted_zero_basis():
    cfg = _config()
    recs = [_records([(0, 0)] * cfg.t_c) for _ in range(cfg.n_c)]
    s_pairs = [(0, 0)] * cfg.t_c * cfg.n_c
    out = abort.client_combine(recs, cfg, s_pairs, seed=5)
    assert out.accepted and out.B1 == 0


def test_client_combine_rejects_bad_chunk():
    cfg = _config()
    good = _records([(1, 0)] * cfg.t_c)
    bad = [p4.OutputIndex4(0, 0, p4.SINGLE_PREIMAGE, p4.COMPUTATIONAL)] * cfg.t_c
    out = abort.client_combine([good, bad], cfg, [(0, 0)] * (cfg.t_c * cfg.n_c), seed=6)
    assert not out.accepted
    out2 = abort.client_combine([good, bad], cfg, [(0, 0)] * (cfg.t_c * cfg.n_c), seed=6)
    assert (out.B1, out.B2) == (out2.B1, out2.B2)


def test_client_combine_shape_mismatch():
    cfg = _config()
    with pytest.raises(ValueError):
        abort.client_combine([_records([(0, 0)])], cfg, [(0, 0)], seed=0)


def test_beta_all_accepted_xors_plants():
    params = TOY_MICRO
    cfg = abort.ChunkConfig(t_c=3, n_c=1, p_a=Fraction(1, 1), p_c=Fraction(2, 3))
    pks, tds, ys = [], [], []
    rng = np.random.default_rng(7)
    for i in range(3):
        pk, td = lwe.gen(params, seed=100 + i)
        x = lwe.sample_domain_element(params, rng)
        pks.append(pk)
        tds.append(td)
        ys.append(lwe.f(pk, x))
    want = tds[0].d0 ^ tds[1].d0 ^ tds[2].d0
    # TOY_MICRO is exactly 2-regular, so every run is accepted
    assert abort.beta(tds, pks, ys, cfg, seed=8) == want


def test_beta_below_threshold_uniform_bit():
    params = TOY_REG
    cfg = abort.ChunkConfig(t_c=2, n_c=1, p_a=Fraction(3, 4), p_c=Fraction(3, 5))
    pk, td = lwe.gen(params, seed=9)
    # an image with no preimages forces a = 0
    table = lwe.f_bit_table(pk)
    images = set(int(v) for v in table)
    packed = next(v for v in range(1 << (params.m * params.ell_q)) if v not in images)
    y_none = lwe.unpack_image(params, packed)
    bits = [abort.beta([td, td], [pk, pk], [y_none, y_none], cfg, seed=s) for s in range(200)]
    assert 0.3 < sum(bits) / len(bits) < 0.7


def test_beta_rejects_an_image_outside_zq():
    cfg = abort.ChunkConfig(t_c=1, n_c=1, p_a=Fraction(1, 1), p_c=Fraction(2, 3))
    pk, td = lwe.gen(TOY_MICRO, seed=3)
    with pytest.raises(ValueError):
        abort.beta([td], [pk], [(14, 2)], cfg, seed=1)


def test_beta_agrees_with_combine_basis():
    """On accepted chunks both reductions produce the same basis bit."""
    params = TOY_MICRO
    cfg = abort.ChunkConfig(t_c=3, n_c=1, p_a=Fraction(1, 1), p_c=Fraction(2, 3))
    rng = np.random.default_rng(10)
    for trial in range(10):
        pks, tds, ys, recs = [], [], [], []
        for i in range(cfg.t_c):
            res = p4.run_protocol4(params, seed=derive(trial, i), backend="two_branch")
            pks.append(res.client.pk)
            tds.append(res.client.trapdoor)
            ys.append(np.array(res.transcript.y))
            recs.append(res.out)
        b_beta = abort.beta(tds, pks, ys, cfg, seed=11)
        b1, _ = abort.combine_bits(recs, [(0, 0)] * cfg.t_c)
        assert b_beta == b1


def derive(*args):
    from qfactory.seeds import derive_seed

    return derive_seed(4242, *args)


# ---------------------------------------------------------------------------
# bounds


def test_chernoff_bound_values():
    assert abort.chernoff_success_bound(0.8, 0.6, 100) == pytest.approx(
        1 - math.exp(-8), abs=1e-9
    )
    assert abort.chernoff_success_bound(0.7, 0.7, 50) == 0.0


def test_eta_bound_values():
    assert abort.eta_bound(Fraction(3, 5)) == Fraction(11, 12)
    assert abort.eta_bound(1) == Fraction(3, 4)
    assert abort.eta_bound(Fraction(501, 1000)) > Fraction(99, 100)


def test_choose_params_worked_example():
    cfg = abort.choose_params(Fraction(4, 5), n=8, target_fail=1e-6)
    assert cfg.p_c == Fraction(13, 20)  # midpoint of (1/2, 4/5)
    assert cfg.n_c == 8
    assert cfg.t_c == math.ceil(math.log(8 / 1e-6) / (2 * 0.15**2))


def test_choose_params_monotone_in_gap():
    tight = abort.choose_params(Fraction(51, 100), n=4, target_fail=1e-6)
    loose = abort.choose_params(Fraction(9, 10), n=4, target_fail=1e-6)
    assert tight.t_c > loose.t_c


def test_choose_params_rejects_small_pa():
    with pytest.raises(ValueError):
        abort.choose_params(Fraction(1, 2), n=4, target_fail=1e-6)


# ---------------------------------------------------------------------------
# honest chunk statistics


def test_simulated_chunks_meet_chernoff_bound():
    params = TOY_REG
    p_a = lwe.analytic_homomorphy(params)
    p_b = p_a - 0.12
    t_c = 60
    chunks = 2000
    rate, _ = abort.simulate_honest_chunks(params, t_c, chunks, p_b, seed=12)
    bound = abort.chernoff_success_bound(p_a, p_b, t_c)
    sigma = math.sqrt(bound * (1 - bound) / chunks)
    assert rate >= bound - 3 * sigma


def test_simulated_chunks_keep_their_values():
    params = TOY_REG
    p_b = lwe.analytic_homomorphy(params) - 0.12
    rate, accepted = abort.simulate_honest_chunks(params, 60, 2000, p_b, seed=12)
    assert rate == 0.975 and int(accepted.sum()) == 1950


# ---------------------------------------------------------------------------
# honest end-to-end cross-check


def test_honest_end_to_end_matches_statevector():
    """Per-run indices + the frozen combine formula describe the actual state."""
    params = TOY_REG
    cfg = abort.ChunkConfig(t_c=3, n_c=1, p_a=Fraction(14, 25), p_c=Fraction(51, 100))
    rng = np.random.default_rng(13)
    agreements = 0
    for trial in range(200):
        held_states, recs = [], []
        for i in range(cfg.t_c * cfg.n_c):
            res = p4.run_protocol4(params, seed=derive("e2e", trial, i), backend="two_branch")
            recs.append(res.out)
            held_states.append(res.held)
        s_pairs, out = abort.gad_xor(held_states, rng)
        chunked = [recs]
        combined = abort.client_combine(chunked, cfg, s_pairs, seed=derive("c", trial))
        if combined.accepted:
            agreements += 1
            assert fidelity(out, combined.qubit()) >= 1 - 1e-9
            want_b1 = 0
            for r in recs:
                want_b1 ^= r.B1 if r.accepted == p4.TWO_PREIMAGES else 0
            assert combined.B1 == want_b1
    assert agreements > 100
