"""Verification layer: test statistics over the 8-state family, and the
i.i.d. blind self-testing machinery (isometry extraction, blindness and
junk-independence checks) for untrusted state/observable strategies.

A strategy is eight pure states in C^d plus eight binary observables; the
ideal statistics are p(L, M) = cos^2((L-M) pi/8).  The abort rule compares
estimates with the ideal values on difference classes (L-M) mod 8: the ideal
probability only depends on that difference, and pooling is what makes the
eps2 = 0.05 threshold resolvable at desk-scale sample sizes (per-pair cells
at N = 10^4 carry ~150 samples, whose sampling noise alone exceeds eps2).
Per-pair estimates are still reported in the table.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import protocol8 as p8, seeds
from .params import ParamSet
from .seeds import derive_seed
from .sim import QubitDescription, fidelity


def ideal_prob(L: int, M: int) -> float:
    """Chance of the + outcome when the L-state meets the M-measurement."""
    return math.cos((L - M) * math.pi / 8) ** 2


# ---------------------------------------------------------------------------
# test plans and statistics


def plan_tests(N: int, f: float, seed: int) -> dict[int, int]:
    """A test plan: ceil(f N) of the N runs, each with a measurement index in
    [0, 8), as a map from run id to index with run ids ascending."""
    if not 0.0 < f < 1.0:
        raise ValueError("test fraction must lie in (0, 1)")
    rng = seeds.rng(derive_seed(seed, "plan"))
    k = math.ceil(f * N)
    chosen = np.sort(rng.choice(N, size=k, replace=False))
    ms = rng.integers(0, 8, size=k)
    return dict(zip(chosen.tolist(), ms.tolist()))


@dataclass
class StatsTable:
    cells: dict = field(default_factory=dict)  # (L, M) -> [count, plus-count]

    @classmethod
    def from_samples(cls, Ls, Ms, pluses) -> StatsTable:
        """Cells of samples (Ls[i], Ms[i], pluses[i]), keys and counts as Python ints."""
        cell_idx = np.asarray(Ls, dtype=np.int64) * 8 + np.asarray(Ms, dtype=np.int64)
        counts = np.bincount(cell_idx, minlength=64)
        plus = np.bincount(cell_idx, weights=np.asarray(pluses, dtype=bool), minlength=64)
        return cls({divmod(c, 8): [int(counts[c]), int(plus[c])] for c in range(64) if counts[c]})

    def total(self) -> int:
        return sum(c for c, _ in self.cells.values())

    def pooled(self) -> dict[int, tuple[int, int]]:
        """Counts aggregated over difference classes (L - M) mod 8."""
        out: dict[int, list[int]] = {}
        for (L, M), (count, plus) in self.cells.items():
            k = (L - M) % 8
            agg = out.setdefault(k, [0, 0])
            agg[0] += count
            agg[1] += plus
        return {k: (c, p) for k, (c, p) in out.items()}

    def accepts(self, eps2: float, min_count: int) -> bool:
        """Accept unless a difference class with at least min_count samples
        strays eps2 or more from ideal."""
        return all(
            count < min_count or abs(plus / count - ideal_prob(k, 0)) < eps2
            for k, (count, plus) in self.pooled().items()
        )


def collect_and_check(
    plan: dict[int, int], L_indices, outcomes, eps2: float, min_count: int = 30
) -> tuple[bool, StatsTable]:
    """Build the statistics table and decide accept/abort.

    outcomes holds the + results of the plan's runs, in plan order.  Abort
    iff a difference class with at least min_count samples strays eps2 or
    more from ideal.
    """
    if len(outcomes) != len(plan):
        raise ValueError(f"{len(outcomes)} outcomes for a plan of {len(plan)} runs")
    table = StatsTable.from_samples([L_indices[i] for i in plan], list(plan.values()), outcomes)
    return table.accepts(eps2, min_count), table


# ---------------------------------------------------------------------------
# strategies


@dataclass(frozen=True)
class Strategy:
    """Eight untrusted states (rows) and eight binary observables."""

    states: np.ndarray  # (8, d) complex unit rows
    observables: np.ndarray  # (8, d, d) Hermitian involutions

    def __post_init__(self):
        states = np.asarray(self.states, dtype=complex)
        obs = np.asarray(self.observables, dtype=complex)
        if states.shape[0] != 8 or obs.shape[:2] != (8, states.shape[1]):
            raise ValueError("need eight states and eight matching observables")
        d = states.shape[1]
        for i in range(8):
            if not abs(np.linalg.norm(states[i]) - 1) <= 1e-9:
                raise ValueError(f"state {i} not normalized")
            O = obs[i]
            if not np.linalg.norm(O - O.conj().T) <= 1e-9:
                raise ValueError(f"observable {i} not Hermitian")
            if not np.linalg.norm(O @ O - np.eye(d)) <= 1e-9:
                raise ValueError(f"observable {i} not an involution")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "observables", obs)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def born_table(self) -> np.ndarray:
        """The chance of + when state L meets observable M, as an 8 x 8 array,
        row L and column M."""
        return np.array(
            [[(1 + (psi.conj() @ O @ psi).real) / 2 for O in self.observables] for psi in self.states]
        )


def _pauli_xy(theta: float) -> np.ndarray:
    return np.array(
        [[0, cmath.exp(-1j * theta)], [cmath.exp(1j * theta), 0]], dtype=complex
    )


def honest_strategy() -> Strategy:
    return shifted_strategy(0.0)


def shifted_strategy(delta: float) -> Strategy:
    """Honest states, but every measurement angle offset by delta."""
    states = np.stack([QubitDescription.eight(L).vec for L in range(8)])
    obs = np.stack([_pauli_xy(M * math.pi / 4 + delta) for M in range(8)])
    return Strategy(states=states, observables=obs)


def phi_family_strategy(phi: float, dim: int = 2) -> Strategy:
    """The one-parameter family cos(L pi/8) u0 + e^{i phi} sin(L pi/8) u1,
    with observables built from the family's own orthogonal pairs."""
    if dim < 2:
        raise ValueError("need dim >= 2")
    u0, u1 = np.eye(dim, dtype=complex)[:2]
    states = np.stack(
        [
            math.cos(L * math.pi / 8) * u0 + cmath.exp(1j * phi) * math.sin(L * math.pi / 8) * u1
            for L in range(8)
        ]
    )
    span = np.outer(u0, u0.conj()) + np.outer(u1, u1.conj())
    obs = []
    for M in range(8):
        plus = states[M]
        minus = states[(M + 4) % 8]
        O = np.outer(plus, plus.conj()) - np.outer(minus, minus.conj()) + (np.eye(dim) - span)
        obs.append(O)
    return Strategy(states=states, observables=np.stack(obs))


def conjugated_strategy(U: np.ndarray) -> Strategy:
    """Honest strategy pushed through a d-dimensional unitary (d even >= 2)."""
    U = np.asarray(U, dtype=complex)
    d = U.shape[0]
    if U.shape != (d, d) or np.linalg.norm(U @ U.conj().T - np.eye(d)) > 1e-9:
        raise ValueError("need a unitary matrix")
    if d % 2 != 0:
        raise ValueError("need even dimension to embed a qubit")
    pad = d // 2
    states = []
    obs = []
    for L in range(8):
        psi = np.kron(QubitDescription.eight(L).vec, np.eye(pad)[:, 0])
        states.append(U @ psi)
    for M in range(8):
        O = np.kron(_pauli_xy(M * math.pi / 4), np.eye(pad))
        obs.append(U @ O @ U.conj().T)
    return Strategy(states=np.stack(states), observables=np.stack(obs))


def basis_leaking_strategy() -> Strategy:
    """Writes a basis bit of L into an ancilla: breaks blindness and junk
    independence while keeping each qubit marginal ideal."""
    states = []
    for L in range(8):
        bit = (L >> 1) & 1  # one of the two basis bits
        anc = np.eye(2)[:, bit]
        states.append(np.kron(QubitDescription.eight(L).vec, anc))
    obs = [np.kron(_pauli_xy(M * math.pi / 4), np.eye(2)) for M in range(8)]
    return Strategy(states=np.stack(states), observables=np.stack(obs))


def orthogonal_junk_strategy() -> Strategy:
    """One state replaced by something orthogonal to the honest plane."""
    base = conjugated_strategy(np.eye(4))
    states = base.states.copy()
    states[3] = np.eye(4)[3]
    return Strategy(states=states, observables=base.observables)


# ---------------------------------------------------------------------------
# isometry and blindness


@dataclass(frozen=True)
class IsometryResult:
    fidelities: tuple[float, ...]  # per L, against |+_{L pi/4}> (x) Psi(000)
    norms: tuple[float, ...]
    max_junk_distance: float


def isometry_apply(strategy: Strategy, L: int) -> tuple[np.ndarray, float]:
    """Output of the extraction circuit on |+> (x) Psi(L), as a (2, d) matrix
    in the computational basis of the extracted qubit; returns (matrix, norm)."""
    psi = strategy.states[L]
    X = strategy.observables[0]
    Y = strategy.observables[2]
    d = strategy.dim
    a = (np.eye(d) + X) @ psi / 2  # rides with |+>
    b = (-1j * Y) @ ((np.eye(d) - X) @ psi / 2)  # rides with |->
    out = np.zeros((2, d), dtype=complex)
    sq = 1 / math.sqrt(2)
    out[0] = sq * (a + b)
    out[1] = sq * (a - b)
    return out, float(np.linalg.norm(out))


def isometry_result(strategy: Strategy) -> IsometryResult:
    fids, norms, junks = [], [], []
    target_junk = strategy.states[0]
    for L in range(8):
        out, norm = isometry_apply(strategy, L)
        if norm < 1e-12:
            fids.append(0.0)
            norms.append(norm)
            junks.append(np.zeros((strategy.dim, strategy.dim), dtype=complex))
            continue
        normed = out / norm
        qubit = QubitDescription.eight(L).vec
        ideal = np.outer(qubit, target_junk)
        fids.append(float(abs(np.vdot(ideal, normed)) ** 2))
        norms.append(norm)
        junks.append(np.einsum("qj,qk->jk", normed, normed.conj()))
    max_dist = max(trace_distance(junks[i], junks[j]) for i in range(8) for j in range(i + 1, 8))
    return IsometryResult(fidelities=tuple(fids), norms=tuple(norms), max_junk_distance=max_dist)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    eigs = np.linalg.eigvalsh(a - b)
    return float(0.5 * np.abs(eigs).sum())


def blindness_check(strategy: Strategy, eps1: float) -> tuple[bool, float]:
    """Half-turn pair mixtures must be indistinguishable across all L pairs."""
    rhos = []
    for L in range(8):
        psi = strategy.states[L]
        psi2 = strategy.states[L ^ 4]
        rhos.append(np.outer(psi, psi.conj()) + np.outer(psi2, psi2.conj()))
    worst = max(trace_distance(rhos[i], rhos[j]) for i in range(8) for j in range(i + 1, 8))
    return worst <= eps1, worst


# ---------------------------------------------------------------------------
# i.i.d. self-testing run


@dataclass(frozen=True)
class SelfTestResult:
    accept: bool
    table: StatsTable
    isometry: IsometryResult | None


def selftest_iid(
    strategy: Strategy, N: int, eps2: float, seed: int, min_count: int = 30
) -> SelfTestResult:
    """Sample test statistics from the strategy's Born rule and, on accept,
    extract the isometry report."""
    rng = seeds.rng(derive_seed(seed, "selftest"))
    Ls = rng.integers(0, 8, size=N)
    Ms = rng.integers(0, 8, size=N)
    table = StatsTable.from_samples(Ls, Ms, rng.random(N) < strategy.born_table()[Ls, Ms])
    accept = table.accepts(eps2, min_count)
    return SelfTestResult(accept, table, isometry_result(strategy) if accept else None)


# ---------------------------------------------------------------------------
# the full verifiable run over the protocol stack


@dataclass(frozen=True)
class VerifiableResult:
    accept: bool
    table: StatsTable
    unmeasured: tuple[int, ...]  # L indices still held by the server
    held_fidelities: tuple[float, ...]
    attempts: int


def run_verifiable(
    params: ParamSet,
    N: int,
    f: float,
    eps2: float,
    seed: int,
    backend: str = "two_branch",
    strategy: Strategy = honest_strategy(),
    min_count: int = 30,
) -> VerifiableResult:
    """N usable 8-state preparations, a random test fraction, and the decision.

    The client skips unusable preparations (a client-private classification);
    `attempts` records how many raw runs that took.  Each test outcome is
    drawn from `strategy`'s Born table at the run's L and the test's M, so
    `shifted_strategy(pi / 4)`, which measures every test qubit one index
    off, is a server the statistics must catch.
    """
    runs = []
    attempts = 0
    while len(runs) < N:
        res = p8.run_protocol8(params, derive_seed(seed, "vrun", attempts), backend=backend)
        attempts += 1
        if res.usable:
            runs.append(res)
        if attempts > 40 * N + 100:
            raise RuntimeError("usable-run yield too low")
    Ls = [r.index.L for r in runs]
    plan = plan_tests(N, f, derive_seed(seed, "vplan"))
    rng = seeds.rng(derive_seed(seed, "voutcomes"))
    born = strategy.born_table()
    draws = rng.random(len(plan)) < [born[Ls[i], m_idx] for i, m_idx in plan.items()]
    accept, table = collect_and_check(plan, Ls, draws, eps2, min_count=min_count)
    kept = [i for i in range(N) if i not in plan]
    fids = tuple(fidelity(runs[i].held, QubitDescription.eight(Ls[i])) for i in kept)
    return VerifiableResult(
        accept=accept,
        table=table,
        unmeasured=tuple(Ls[i] for i in kept),
        held_fidelities=fids,
        attempts=attempts,
    )
