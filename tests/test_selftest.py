"""Verification-layer tests: statistics, isometry, blindness, junk."""

import math

import numpy as np
import pytest

from qfactory import selftest as stt
from qfactory.params import TOY_MICRO
from qfactory.seeds import derive_seed


def test_ideal_prob_values():
    assert stt.ideal_prob(3, 3) == pytest.approx(1.0)
    assert stt.ideal_prob(6, 2) == pytest.approx(0.0, abs=1e-12)
    assert stt.ideal_prob(2, 1) == pytest.approx(0.8535534, abs=1e-6)


def test_plan_tests_shapes_and_determinism():
    plan = stt.plan_tests(4, 0.5, seed=1)
    assert len(plan.test_indices) == 2
    assert stt.plan_tests(1000, 0.3, seed=2) == stt.plan_tests(1000, 0.3, seed=2)
    with pytest.raises(ValueError):
        stt.plan_tests(10, 1.0, seed=3)


def test_plan_tests_measurement_marginal_uniform():
    counts = np.zeros(8)
    for s in range(200):
        plan = stt.plan_tests(50, 0.5, seed=s)
        for m in plan.measurements.values():
            counts[m] += 1
    total = counts.sum()
    sigma = math.sqrt(total * (1 / 8) * (7 / 8))
    assert np.all(np.abs(counts - total / 8) < 5 * sigma)


def test_collect_and_check_accepts_ideal_sampling():
    rng = np.random.default_rng(4)
    N = 10_000
    Ls = rng.integers(0, 8, size=N)
    plan = stt.plan_tests(N, 0.9, seed=5)
    outcomes = {
        i: bool(rng.random() < stt.ideal_prob(int(Ls[i]), plan.measurements[i]))
        for i in plan.test_indices
    }
    accept, table = stt.collect_and_check(plan, Ls, outcomes, eps2=0.05)
    assert accept
    assert table.total() == len(plan.test_indices)


def test_collect_and_check_rejects_all_zero_outcomes():
    rng = np.random.default_rng(6)
    N = 4000
    Ls = rng.integers(0, 8, size=N)
    plan = stt.plan_tests(N, 0.9, seed=7)
    outcomes = {i: False for i in plan.test_indices}
    accept, _ = stt.collect_and_check(plan, Ls, outcomes, eps2=0.05)
    assert not accept


def test_collect_and_check_skips_thin_cells():
    plan = stt.TestPlan(N=2, fraction=0.5, test_indices=(0,), measurements={0: 4})
    accept, _ = stt.collect_and_check(plan, [0, 0], {0: True}, eps2=0.05, min_count=30)
    assert accept  # the single lonely sample is below min_count


# ---------------------------------------------------------------------------
# strategies


def test_strategy_validation():
    st = stt.honest_strategy()
    assert st.dim == 2
    bad_states = st.states.copy()
    bad_states[0] = bad_states[0] * 2
    with pytest.raises(ValueError):
        stt.Strategy(states=bad_states, observables=st.observables)
    bad_obs = st.observables.copy()
    bad_obs[1] = bad_obs[1] * 0.5
    with pytest.raises(ValueError):
        stt.Strategy(states=st.states, observables=bad_obs)


def test_honest_statistics_exact():
    st = stt.honest_strategy()
    for L in range(8):
        for M in range(8):
            assert st.born_plus(L, M) == pytest.approx(stt.ideal_prob(L, M), abs=1e-12)


@pytest.mark.parametrize("phi", [0.0, math.pi / 7, math.pi / 3, 1.0])
def test_phi_family_statistics_exact(phi):
    st = stt.phi_family_strategy(phi, dim=3)
    for L in range(8):
        for M in range(8):
            assert st.born_plus(L, M) == pytest.approx(stt.ideal_prob(L, M), abs=1e-12)


# ---------------------------------------------------------------------------
# isometry


def test_isometry_honest_exact():
    res = stt.isometry_result(stt.honest_strategy())
    assert min(res.fidelities) >= 1 - 1e-9
    assert res.max_junk_distance <= 1e-9
    for norm in res.norms:
        assert norm == pytest.approx(1.0, abs=1e-9)


def test_isometry_honest_l0_is_plus_plus():
    out, norm = stt.isometry_apply(stt.honest_strategy(), 0)
    assert norm == pytest.approx(1.0)
    want = np.outer(stt.QubitDescription.eight(0).vec, stt.QubitDescription.eight(0).vec)
    assert abs(np.vdot(want, out)) ** 2 == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("phi", [0.0, math.pi / 7, math.pi / 3, 1.0])
def test_isometry_phi_family_exact(phi):
    res = stt.isometry_result(stt.phi_family_strategy(phi, dim=2))
    assert min(res.fidelities) >= 1 - 1e-9
    assert res.max_junk_distance <= 1e-9


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_isometry_conjugation_covariance(dim):
    rng = np.random.default_rng(dim)
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    U, _ = np.linalg.qr(A)
    res = stt.isometry_result(stt.conjugated_strategy(U))
    assert min(res.fidelities) >= 1 - 1e-9
    assert stt.junk_independence(res) <= 1e-9


def test_gram_rank_two_for_exact_strategies():
    assert stt.gram_rank(stt.honest_strategy()) == 2
    assert stt.gram_rank(stt.phi_family_strategy(1.0, dim=5)) == 2


def test_orthogonality_of_half_turn_pairs():
    st = stt.phi_family_strategy(math.pi / 3)
    for L in range(8):
        assert abs(np.vdot(st.states[L ^ 4], st.states[L])) < 1e-9


# ---------------------------------------------------------------------------
# blindness and junk


def test_blindness_honest_zero():
    ok, worst = stt.blindness_check(stt.honest_strategy(), eps1=1e-9)
    assert ok
    assert worst <= 1e-12


def test_blindness_phi_family_zero():
    ok, worst = stt.blindness_check(stt.phi_family_strategy(0.9), eps1=1e-9)
    assert ok
    assert worst <= 1e-9


def test_blindness_fails_for_leaky_strategy():
    st = stt.basis_leaking_strategy()
    ok, worst = stt.blindness_check(st, eps1=0.1)
    assert not ok
    assert worst > 0.5
    res = stt.isometry_result(st)
    assert stt.junk_independence(res) > 0.5


# ---------------------------------------------------------------------------
# iid self-testing runs


def test_selftest_honest_accepts():
    res = stt.selftest_iid(stt.honest_strategy(), N=10_000, eps2=0.05, seed=11)
    assert res.accept
    assert res.isometry is not None
    assert min(res.isometry.fidelities) >= 1 - 1e-9


def test_selftest_shifted_strategy_aborts():
    aborts = 0
    st = stt.shifted_strategy(math.pi / 8)
    for trial in range(40):
        res = stt.selftest_iid(st, N=10_000, eps2=0.05, seed=derive_seed(12, trial))
        aborts += not res.accept
    assert aborts >= 39


def test_selftest_orthogonal_junk_aborts():
    res = stt.selftest_iid(stt.orthogonal_junk_strategy(), N=10_000, eps2=0.05, seed=13)
    assert not res.accept


# ---------------------------------------------------------------------------
# full verifiable runs over the protocol stack


def test_run_verifiable_honest_accepts_and_holds_ideal_states():
    res = stt.run_verifiable(TOY_MICRO, N=400, f=0.5, eps2=0.05, seed=14)
    assert res.accept
    assert len(res.unmeasured) == 400 - math.ceil(0.5 * 400)
    assert min(res.held_fidelities) >= 1 - 1e-9


def test_run_verifiable_shifted_server_aborts():
    res = stt.run_verifiable(TOY_MICRO, N=2000, f=0.9, eps2=0.05, seed=15, server="shift")
    assert not res.accept


def test_run_verifiable_deterministic():
    a = stt.run_verifiable(TOY_MICRO, N=60, f=0.5, eps2=0.05, seed=16)
    b = stt.run_verifiable(TOY_MICRO, N=60, f=0.5, eps2=0.05, seed=16)
    assert a.unmeasured == b.unmeasured
    assert a.accept == b.accept
    assert a.table.cells == b.table.cells
