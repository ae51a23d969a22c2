"""Verification-layer tests: statistics, isometry, blindness, junk."""

import functools
import hashlib
import json
import math

import numpy as np
import pytest

from qfactory import protocol8, selftest as stt
from qfactory.params import TOY_MICRO, TOY_WIDE
from qfactory.seeds import derive_seed


def test_ideal_prob_values():
    assert stt.ideal_prob(3, 3) == pytest.approx(1.0)
    assert stt.ideal_prob(6, 2) == pytest.approx(0.0, abs=1e-12)
    assert stt.ideal_prob(2, 1) == pytest.approx(0.8535534, abs=1e-6)


def test_plan_tests_shapes_and_determinism():
    plan = stt.plan_tests(4, 0.5, seed=1)
    assert len(plan) == 2
    assert list(plan) == sorted(plan)
    assert all(type(k) is int and type(v) is int for k, v in plan.items())
    assert stt.plan_tests(1000, 0.3, seed=2) == stt.plan_tests(1000, 0.3, seed=2)
    with pytest.raises(ValueError):
        stt.plan_tests(10, 1.0, seed=3)


def test_plan_tests_measurement_marginal_uniform():
    counts = np.zeros(8)
    for s in range(200):
        plan = stt.plan_tests(50, 0.5, seed=s)
        for m in plan.values():
            counts[m] += 1
    total = counts.sum()
    sigma = math.sqrt(total * (1 / 8) * (7 / 8))
    assert np.all(np.abs(counts - total / 8) < 5 * sigma)


def test_collect_and_check_accepts_ideal_sampling():
    rng = np.random.default_rng(4)
    N = 10_000
    Ls = rng.integers(0, 8, size=N)
    plan = stt.plan_tests(N, 0.9, seed=5)
    outcomes = [bool(rng.random() < stt.ideal_prob(int(Ls[i]), m)) for i, m in plan.items()]
    accept, table = stt.collect_and_check(plan, Ls, outcomes, eps2=0.05)
    assert accept
    assert table.total() == len(plan)


def test_collect_and_check_rejects_all_zero_outcomes():
    rng = np.random.default_rng(6)
    N = 4000
    Ls = rng.integers(0, 8, size=N)
    plan = stt.plan_tests(N, 0.9, seed=7)
    accept, _ = stt.collect_and_check(plan, Ls, [False] * len(plan), eps2=0.05)
    assert not accept


def test_collect_and_check_skips_thin_cells():
    accept, _ = stt.collect_and_check({0: 4}, [0, 0], [True], eps2=0.05, min_count=30)
    assert accept  # the single lonely sample is below min_count


def test_collect_and_check_names_a_missing_outcome():
    with pytest.raises(ValueError, match="1 outcomes for a plan of 2 runs"):
        stt.collect_and_check({0: 1, 2: 5}, [0, 0, 0], [True], eps2=0.05)


# SHA-256 over run_verifiable's accept, table cells, unmeasured indices, held
# fidelities (9 decimals) and attempts, for N = 120 runs of TOY_MICRO and
# TOY_WIDE, seeds 0-5, honest and quarter-turn-shifted strategies; and over the
# (run id, measurement) pairs of 20 plans.  A change to either draw shows here.
RUNS_DIGEST = "4265ca73d9322a948499176d7a94bc525bca7ffb8f9889aef530874f323a33a6"
PLANS_DIGEST = "d47c526e8c83f8475a60363a56f6f8a5874ff8d2483b098aaf33507b291e4059"


def test_run_verifiable_results_match_their_digest(monkeypatch):
    # both strategies of a seed share its runs; only the outcome draws differ
    monkeypatch.setattr(protocol8, "run_protocol8", functools.cache(protocol8.run_protocol8))
    h = hashlib.sha256()
    for params in (TOY_MICRO, TOY_WIDE):
        for seed in range(6):
            for strategy in (stt.honest_strategy(), stt.shifted_strategy(math.pi / 4)):
                r = stt.run_verifiable(params, 120, 0.5, 0.05, seed, strategy=strategy)
                cells = sorted([*k, *v] for k, v in r.table.cells.items())
                fids = [f"{x:.9f}" for x in r.held_fidelities]
                h.update(json.dumps([r.accept, cells, list(r.unmeasured), fids, r.attempts]).encode())
    assert h.hexdigest() == RUNS_DIGEST


def test_plan_tests_draws_match_their_digest():
    h = hashlib.sha256()
    for seed in range(20):
        plan = stt.plan_tests(10 + 7 * seed, 0.25 + seed / 40, seed)
        h.update(json.dumps([[i, m] for i, m in plan.items()]).encode())
    assert h.hexdigest() == PLANS_DIGEST


def test_from_samples_keys_and_counts_are_python_ints():
    Ls = np.array([1, 1, 2, 7], dtype=np.int64)
    Ms = np.array([3, 3, 0, 7], dtype=np.int64)
    table = stt.StatsTable.from_samples(Ls, Ms, np.array([True, False, True, True]))
    assert table.cells == {(1, 3): [2, 1], (2, 0): [1, 1], (7, 7): [1, 1]}
    assert all(type(v) is int for key, cell in table.cells.items() for v in (*key, *cell))


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


@pytest.mark.parametrize("where", ["state", "observable"])
def test_strategy_rejects_nan(where):
    st = stt.honest_strategy()
    states, obs = st.states.copy(), st.observables.copy()
    if where == "state":
        states[2, 0] = np.nan
    else:
        obs[5, 0, 1] = np.nan
    with pytest.raises(ValueError):
        stt.Strategy(states=states, observables=obs)


def _ideal_table(shift):
    return np.array([[stt.ideal_prob(L, M + shift) for M in range(8)] for L in range(8)])


def test_honest_born_table_is_ideal_prob():
    born = stt.honest_strategy().born_table()
    assert born.shape == (8, 8)
    assert np.max(np.abs(born - _ideal_table(0))) <= 1e-15


def test_quarter_turn_shifted_born_table_is_ideal_prob_one_index_off():
    born = stt.shifted_strategy(math.pi / 4).born_table()
    assert np.max(np.abs(born - _ideal_table(1))) <= 1e-15


def test_honest_statistics_exact():
    born = stt.honest_strategy().born_table()
    assert np.max(np.abs(born - _ideal_table(0))) <= 1e-12


@pytest.mark.parametrize("phi", [0.0, math.pi / 7, math.pi / 3, 1.0])
def test_phi_family_statistics_exact(phi):
    born = stt.phi_family_strategy(phi, dim=3).born_table()
    assert np.max(np.abs(born - _ideal_table(0))) <= 1e-12


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
    assert res.max_junk_distance <= 1e-9


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
    assert res.max_junk_distance > 0.5


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
    shifted = stt.shifted_strategy(math.pi / 4)
    res = stt.run_verifiable(TOY_MICRO, N=2000, f=0.9, eps2=0.05, seed=15, strategy=shifted)
    assert not res.accept


def test_run_verifiable_deterministic():
    a = stt.run_verifiable(TOY_MICRO, N=60, f=0.5, eps2=0.05, seed=16)
    b = stt.run_verifiable(TOY_MICRO, N=60, f=0.5, eps2=0.05, seed=16)
    assert a.unmeasured == b.unmeasured
    assert a.accept == b.accept
    assert a.table.cells == b.table.cells


def test_run_verifiable_calls_run_protocol8_by_module_attribute(monkeypatch):
    """The tb-verifiable benchmark workload times attempts and collects records
    by wrapping `protocol8.run_protocol8`; every attempt must go through it."""
    calls = []
    inner = protocol8.run_protocol8

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(protocol8, "run_protocol8", counted)
    res = stt.run_verifiable(TOY_MICRO, N=40, f=0.5, eps2=0.05, seed=17)
    assert res.attempts > 40  # some attempts are unusable
    assert len(calls) == res.attempts
