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

from . import protocol8 as p8
from .params import ParamSet
from .seeds import derive_seed
from .sim import QubitDescription, fidelity

ATOL = 1e-9


def ideal_prob(L: int, M: int) -> float:
    """Chance of the + outcome when the L-state meets the M-measurement."""
    return math.cos((L - M) * math.pi / 8) ** 2


# ---------------------------------------------------------------------------
# test plans and statistics


@dataclass(frozen=True)
class TestPlan:
    N: int
    fraction: float
    test_indices: tuple[int, ...]
    measurements: dict[int, int]


def plan_tests(N: int, f: float, seed: int) -> TestPlan:
    if not 0.0 < f < 1.0:
        raise ValueError("test fraction must lie in (0, 1)")
    rng = np.random.default_rng(derive_seed(seed, "plan"))
    k = math.ceil(f * N)
    chosen = np.sort(rng.choice(N, size=k, replace=False))
    ms = rng.integers(0, 8, size=k)
    return TestPlan(
        N=N,
        fraction=f,
        test_indices=tuple(int(i) for i in chosen),
        measurements={int(i): int(m) for i, m in zip(chosen, ms)},
    )


@dataclass
class StatsTable:
    cells: dict = field(default_factory=dict)  # (L, M) -> [count, plus-count]

    def add(self, L: int, M: int, outcome_plus: bool):
        cell = self.cells.setdefault((L, M), [0, 0])
        cell[0] += 1
        cell[1] += int(outcome_plus)

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
    plan: TestPlan, L_indices, outcomes, eps2: float, min_count: int = 30
) -> tuple[bool, StatsTable]:
    """Build the statistics table and decide accept/abort.

    outcomes maps test index -> bool (the + result).  Abort iff a difference
    class with at least min_count samples strays eps2 or more from ideal.
    """
    table = StatsTable()
    for idx in plan.test_indices:
        if idx not in outcomes:
            raise ValueError(f"missing outcome for test index {idx}")
        table.add(int(L_indices[idx]), plan.measurements[idx], bool(outcomes[idx]))
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
            if abs(np.linalg.norm(states[i]) - 1) > 1e-9:
                raise ValueError(f"state {i} not normalized")
            O = obs[i]
            if np.linalg.norm(O - O.conj().T) > 1e-9:
                raise ValueError(f"observable {i} not Hermitian")
            if np.linalg.norm(O @ O - np.eye(d)) > 1e-9:
                raise ValueError(f"observable {i} not an involution")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "observables", obs)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def born_plus(self, L: int, M: int) -> float:
        psi = self.states[L]
        O = self.observables[M]
        val = (psi.conj() @ O @ psi).real
        return float((1 + val) / 2)


def _pauli_xy(theta: float) -> np.ndarray:
    return np.array(
        [[0, cmath.exp(-1j * theta)], [cmath.exp(1j * theta), 0]], dtype=complex
    )


def honest_strategy() -> Strategy:
    states = np.stack([QubitDescription.eight(L).vec for L in range(8)])
    obs = np.stack([_pauli_xy(M * math.pi / 4) for M in range(8)])
    return Strategy(states=states, observables=obs)


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
    u0 = np.zeros(dim, dtype=complex)
    u1 = np.zeros(dim, dtype=complex)
    u0[0] = 1.0
    u1[1] = 1.0
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
    bad = np.zeros(4, dtype=complex)
    bad[3] = 1.0
    states[3] = bad
    return Strategy(states=states, observables=base.observables)


# ---------------------------------------------------------------------------
# isometry and blindness


@dataclass(frozen=True)
class IsometryResult:
    fidelities: tuple[float, ...]  # per L, against |+_{L pi/4}> (x) Psi(000)
    norms: tuple[float, ...]
    junk: tuple  # per-L junk density matrices (d x d)
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
    max_dist = 0.0
    for i in range(8):
        for j in range(i + 1, 8):
            max_dist = max(max_dist, trace_distance(junks[i], junks[j]))
    return IsometryResult(
        fidelities=tuple(fids), norms=tuple(norms), junk=tuple(junks), max_junk_distance=max_dist
    )


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
    worst = 0.0
    for i in range(8):
        for j in range(8):
            worst = max(worst, 0.5 * np.abs(np.linalg.eigvalsh(rhos[i] - rhos[j])).sum())
    return worst <= eps1, worst


def junk_independence(result: IsometryResult) -> float:
    return result.max_junk_distance


def gram_rank(strategy: Strategy, tol: float = 1e-6) -> int:
    G = strategy.states @ strategy.states.conj().T
    svals = np.linalg.svd(G, compute_uv=False)
    return int(np.sum(svals > tol * svals[0]))


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
    rng = np.random.default_rng(derive_seed(seed, "selftest"))
    Ls = rng.integers(0, 8, size=N)
    Ms = rng.integers(0, 8, size=N)
    born = np.array([[strategy.born_plus(L, M) for M in range(8)] for L in range(8)])
    draws = rng.random(N) < born[Ls, Ms]
    table = StatsTable()
    cell_idx = Ls * 8 + Ms
    counts = np.bincount(cell_idx, minlength=64)
    pluses = np.bincount(cell_idx, weights=draws.astype(np.int64), minlength=64)
    for cell in range(64):
        if counts[cell]:
            table.cells[(cell // 8, cell % 8)] = [int(counts[cell]), int(pluses[cell])]
    accept = table.accepts(eps2, min_count)
    iso = isometry_result(strategy) if accept else None
    return SelfTestResult(accept=accept, table=table, isometry=iso)


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
    server: str = "honest",
    min_count: int = 30,
) -> VerifiableResult:
    """N usable 8-state preparations, a random test fraction, and the decision.

    The client skips unusable preparations (a client-private classification);
    `attempts` records how many raw runs that took.  A `shift` server measures
    every test qubit one index off, which the statistics must catch.
    """
    if server not in ("honest", "shift"):
        raise ValueError(f"unknown server behavior {server!r}")
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
    rng = np.random.default_rng(derive_seed(seed, "voutcomes"))
    outcomes = {}
    for idx in plan.test_indices:
        M = plan.measurements[idx]
        M_eff = (M + 1) % 8 if server == "shift" else M
        outcomes[idx] = bool(rng.random() < ideal_prob(Ls[idx], M_eff))
    accept, table = collect_and_check(plan, Ls, outcomes, eps2, min_count=min_count)
    kept = [i for i in range(N) if i not in plan.measurements]
    fids = tuple(
        fidelity(runs[i].held, QubitDescription.eight(Ls[i])) for i in kept
    )
    return VerifiableResult(
        accept=accept,
        table=table,
        unmeasured=tuple(Ls[i] for i in kept),
        held_fidelities=fids,
        attempts=attempts,
    )
