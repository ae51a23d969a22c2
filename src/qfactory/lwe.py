"""Two-regular trapdoor function family over LWE-style arithmetic.

The injective base map is ``gbar(s, e) = K s + e mod q`` with ``K`` an m x n
matrix, ``s`` in Z_q^n and ``e`` an integer noise vector from the box
described in :mod:`qfactory.params`.  On top of it:

* ``g(s, e, d)  = gbar(s, e) + d * v``         with ``v = (q/2, 0, ..., 0)``
* ``f(s, e, d, c) = g(s, e, d) + c * y0``      with ``y0 = g(s0, e0, d0)``

The planted shift ``z0 = (s0, e0, d0)`` makes ``f`` two-to-one wherever the
shifted noise stays inside the box, and the hardcore predicate ``h`` simply
reads the ``d`` component.  Key generation embeds a base-2 gadget in the
bottom rows of ``K`` so the holder of the small matrix ``R`` can decode ``s``
from any image; at enumeration scale (m too small for the gadget) inversion
falls back to scanning Z_q^n.

Z_q values are int64 arrays whose products may wrap around; since q divides
2^64 every result is exact after ``% q`` (see :mod:`qfactory.params`).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .params import ParamSet
from .stats import wilson_interval

# Largest register (in s/e bits) the enumeration fallback will scan.
_ENUM_CAP_BITS = 22

# Widest register (in qubits) a server will simulate or tabulate.
MAX_REGISTER_BITS = 20


@dataclass(frozen=True)
class DomainElement:
    """A point (s, e, d[, c]) of the function domain; c is None for g-inputs."""

    s: tuple[int, ...]
    e: tuple[int, ...]
    d: int
    c: int | None = None

    def drop_c(self) -> "DomainElement":
        return DomainElement(self.s, self.e, self.d, None)


@dataclass(frozen=True)
class GadgetData:
    """Secret decoding data: small matrix R and exact per-column error ranges."""

    R: np.ndarray  # (m_bar, w) 0/1 entries, w = n * ell_q
    err_lo: np.ndarray  # (w,) lower end of e^T [R; I] per gadget column
    err_hi: np.ndarray  # (w,)


@dataclass(frozen=True)
class PublicKey:
    K: np.ndarray  # (m, n) reduced mod q
    y0: np.ndarray  # (m,)
    params: ParamSet


@dataclass(frozen=True)
class Trapdoor:
    gadget: GadgetData | None  # None => enumeration-scale key
    z0: DomainElement  # (s0, e0, d0), c omitted

    @property
    def d0(self) -> int:
        return self.z0.d


# ---------------------------------------------------------------------------
# arithmetic helpers


def _as_vec(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


def e_range(params: ParamSet) -> tuple[int, int]:
    """Valid noise values: the box clipped to |e| <= mu."""
    box = params.noise_box
    return -params.mu, min(box - 1, params.mu)


def _centered(params: ParamSet, vec: np.ndarray) -> np.ndarray:
    """Map mod-q values to representatives in [-q/2, q/2)."""
    q = params.q
    v = np.asarray(vec) % q
    return np.where(v >= q // 2, v - q, v)


# ---------------------------------------------------------------------------
# the function family


def g_bar(params: ParamSet, K: np.ndarray, s, e) -> np.ndarray:
    """K s + e mod q."""
    s = _as_vec(s)
    e = _as_vec(e)
    if K.shape != (params.m, params.n) or s.shape != (params.n,) or e.shape != (params.m,):
        raise ValueError("dimension mismatch")
    return (K @ s + e) % params.q


def g(params: ParamSet, K: np.ndarray, s, e, d: int) -> np.ndarray:
    out = g_bar(params, K, s, e)
    if d:
        out = out.copy()
        out[0] = (out[0] + params.q // 2) % params.q
    return out


def f(pk: PublicKey, elem: DomainElement) -> np.ndarray:
    if elem.c is None:
        raise ValueError("f needs the c component")
    out = g(pk.params, pk.K, elem.s, elem.e, elem.d)
    if elem.c:
        out = (out + pk.y0) % pk.params.q
    return out


def h(elem: DomainElement) -> int:
    """Hardcore predicate: the d component."""
    return elem.d


def add_z(params: ParamSet, a: DomainElement, b: DomainElement) -> DomainElement:
    """Group operation on g-inputs: s mod-q add, e integer add, d xor."""
    s = tuple((x + y) % params.q for x, y in zip(a.s, b.s))
    e = tuple(x + y for x, y in zip(a.e, b.e))
    return DomainElement(s, e, a.d ^ b.d, None)


def is_valid(params: ParamSet, elem: DomainElement) -> bool:
    lo, hi = e_range(params)
    if len(elem.s) != params.n or len(elem.e) != params.m:
        return False
    return all(0 <= x < params.q for x in elem.s) and all(lo <= x <= hi for x in elem.e)


# ---------------------------------------------------------------------------
# bit encoding (the string the quantum registers hold)


def encode(params: ParamSet, elem: DomainElement) -> tuple[int, ...]:
    """Canonical bit image: s coords little-endian, e offset-binary, then d, c."""
    return unpack_bits(params, encode_int(params, elem))


def encode_int(params: ParamSet, elem: DomainElement) -> int:
    """The encoded bit-string as an integer (bit j = qubit j)."""
    if elem.c is None:
        raise ValueError("encode needs the c component")
    box = params.noise_box
    value = pos = 0
    for x in elem.s:
        value |= (int(x) & (params.q - 1)) << pos
        pos += params.ell_q
    for x in elem.e:
        stored = int(x) + box
        if not (0 <= stored < 2 * box):
            raise ValueError("e outside the representable box")
        value |= stored << pos
        pos += params.ell_e
    return value | (elem.d & 1) << pos | (elem.c & 1) << (pos + 1)


def decode(params: ParamSet, bits) -> DomainElement | None:
    """Inverse of encode; returns None for out-of-range noise (the bot value)."""
    bits = tuple(int(b) & 1 for b in bits)
    if len(bits) != params.total_bits:
        raise ValueError("wrong bit-string length")
    box = params.noise_box
    pos = 0
    s = []
    for _ in range(params.n):
        s.append(sum(b << k for k, b in enumerate(bits[pos : pos + params.ell_q])))
        pos += params.ell_q
    e = []
    for _ in range(params.m):
        stored = sum(b << k for k, b in enumerate(bits[pos : pos + params.ell_e]))
        e.append(stored - box)
        pos += params.ell_e
    d, c = bits[pos], bits[pos + 1]
    elem = DomainElement(tuple(s), tuple(e), d, c)
    if not is_valid(params, elem):
        return None
    return elem


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def unpack_bits(params: ParamSet, value: int) -> tuple[int, ...]:
    """The register bit-string of a packed pattern (bit j = qubit j)."""
    n = params.total_bits
    # one pass over the binary digits; shifting a paper-size int per bit is quadratic
    digits = format(value & ((1 << n) - 1), f"0{n}b")[::-1]
    return tuple(digits.encode().translate(_BIT_BYTES))


def decode_int(params: ParamSet, value: int) -> DomainElement | None:
    return decode(params, unpack_bits(params, value))


# ---------------------------------------------------------------------------
# key generation


def _gadget_rows(params: ParamSet) -> np.ndarray:
    """w x n matrix whose row (j*ell_q + l) is 2^l on coordinate j."""
    w = params.n * params.ell_q
    G = np.zeros((w, params.n), dtype=np.int64)
    for j in range(params.n):
        for level in range(params.ell_q):
            G[j * params.ell_q + level, j] = 1 << level
    return G


def _column_weight_cap(params: ParamSet) -> int:
    # Decoding needs the error interval of each gadget column to span less
    # than q/2.  The interval is widened by mu' so that the shifted noise box
    # (which governs collision structure) still decodes uniquely; each
    # contributing coordinate then spans 2(B + mu') - 1 values.
    span = 2 * (params.noise_box + params.mu_prime) - 1
    return max(0, (params.q // 2 - 1) // span - 1)


def _wide_injective(params: ParamSet, K: np.ndarray) -> bool:
    """Check injectivity of g over the mu'-widened noise box.

    g collides iff some nonzero s-difference lands K*ds inside the widened
    noise-difference cube, possibly shifted by the d-sector vector.  Checking
    differences is exhaustive-equivalent and fast.  Only needed for
    enumeration-scale keys; gadget keys are injective by the decode argument.
    """
    q = params.q
    D = 2 * (params.noise_box + params.mu_prime) - 1
    if D >= q // 2:
        return False
    ds = _s_grid(q, params.n)[:, 1:]  # drop ds = 0
    t = (K @ ds) % q  # (m, q^n - 1)
    for delta in (0, 1):
        tt = t.copy()
        if delta:
            tt[0] = (tt[0] + q // 2) % q
        centered = np.where(tt >= q // 2, tt - q, tt)
        bad = np.all(np.abs(centered) <= D, axis=0)
        if np.any(bad):
            return False
    return True


def gen(params: ParamSet, seed: int) -> tuple[PublicKey, Trapdoor]:
    """Key generation: gadget-bearing K (when it fits) plus planted (s0, e0, d0).

    Keys too small to host a gadget (m <= n*ell_q) get a random K that is
    resampled until exhaustively verified injective, and inversion falls back
    to enumeration.
    """
    rng = np.random.default_rng(seed)
    q, n, m = params.q, params.n, params.m
    w = n * params.ell_q
    box = params.noise_box

    m_bar = m - w
    if m_bar >= 1:
        K_top = rng.integers(0, q, size=(m_bar, n))
        R = rng.integers(0, 2, size=(m_bar, w), dtype=np.int64)
        # Row 0 must stay out of the mix: the d-shift lands on coordinate 0,
        # and injectivity across that shift needs a decode functional that
        # never reads it.  With R[0,:] = 0, rows 1..m-1 alone determine s, so
        # a cross-d collision would force |e_0 - e'_0| = q/2, impossible.
        R[0, :] = 0
        cap = _column_weight_cap(params)
        for col in range(w):
            ones = np.flatnonzero(R[:, col])
            if len(ones) > cap:
                drop = rng.choice(ones, size=len(ones) - cap, replace=False)
                R[drop, col] = 0
        weights = R.sum(axis=0)
        wide = box + params.mu_prime
        err_lo = -(weights + 1) * wide
        err_hi = (weights + 1) * (wide - 1)
        if np.any(err_hi - err_lo >= q // 2):
            raise ValueError("gadget column error range too wide for decoding")
        G = _gadget_rows(params)
        K_bottom = (G - R.T @ K_top) % q
        K = np.concatenate([K_top, K_bottom], axis=0)
        gadget = GadgetData(R=R, err_lo=err_lo, err_hi=err_hi)
    else:
        se_bits = n * params.ell_q + m * params.ell_e
        if se_bits > _ENUM_CAP_BITS:
            raise ValueError("m <= n*ell_q needs enumeration-scale parameters")
        for _ in range(4096):
            K = rng.integers(0, q, size=(m, n))
            if _wide_injective(params, K):
                break
        else:
            raise ValueError("could not sample an injective toy key")
        gadget = None

    s0 = rng.integers(0, q, size=n)
    e0 = rng.integers(-params.mu_prime, params.mu_prime + 1, size=m)
    d0 = int(rng.integers(0, 2))
    z0 = DomainElement(tuple(int(x) for x in s0), tuple(int(x) for x in e0), d0, None)
    y0 = g(params, K, z0.s, z0.e, d0)
    return PublicKey(K=K, y0=y0, params=params), Trapdoor(gadget=gadget, z0=z0)


# ---------------------------------------------------------------------------
# inversion


def _bar_invert_gadget(td: Trapdoor, pk: PublicKey, target: np.ndarray) -> list[tuple[int, ...]]:
    """Decode s from target ~ K s + e using the gadget columns.

    Per coordinate, column (j, l) holds s_j * 2^l + err mod q.  Bits of s_j
    are peeled least-significant first from the highest-level column down,
    subtracting the known low bits at each step.  The decision threshold uses
    the exact per-column error interval, so decoding is exact whenever the
    interval spans less than q/2 (enforced at gen time).
    """
    params = pk.params
    q = params.q
    w = params.n * params.ell_q
    m_bar = params.m - w
    gd = td.gadget
    assert gd is not None
    top = target[:m_bar]
    low = target[m_bar:]
    if m_bar > 0:
        u = (low + gd.R.T @ top) % q
    else:
        u = low % q
    s = []
    for j in range(params.n):
        sj = 0
        for k in range(params.ell_q):
            level = params.ell_q - 1 - k
            col = j * params.ell_q + level
            val = (int(u[col]) - sj * (1 << level) - int(gd.err_lo[col])) % q
            bit = 1 if val >= q // 2 else 0
            sj += bit << k
        s.append(sj)
    return [tuple(s)]


@functools.lru_cache(maxsize=None)
def _s_grid(q: int, n: int) -> np.ndarray:
    """Every s in Z_q^n as a column of an (n, q^n) array, in product order."""
    grid = np.indices((q,) * n).reshape(n, -1)
    grid.flags.writeable = False
    return grid


def _bar_invert_enum(
    pk: PublicKey, targets: np.ndarray, lo: int, hi: int
) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """Scan s over Z_q^n for each row of `targets`: every (row, s, e) whose
    noise e = target - K s (centred) lies in [lo, hi] on every coordinate."""
    params = pk.params
    grid = _s_grid(params.q, params.n)
    # [lo, hi] sits inside [-q/2, q/2), so e is in it iff (e - lo) mod q <= hi - lo
    u = (targets[:, :, None] - lo - pk.K @ grid) % params.q
    rows, cols = np.nonzero(u.max(axis=1) <= hi - lo)
    return [
        (k, tuple(grid[:, j].tolist()), tuple((u[k, :, j] + lo).tolist()))
        for k, j in zip(rows.tolist(), cols.tolist())
    ]


def _sector_targets(pk: PublicKey, y: np.ndarray) -> np.ndarray:
    """(4, m) array whose row 2c + d is y - c y0 - d v mod q."""
    q = pk.params.q
    targets = np.array([y, y, y - pk.y0, y - pk.y0])
    targets[1::2, 0] -= q // 2
    return targets % q


def invert(td: Trapdoor, pk: PublicKey, y) -> tuple[DomainElement, ...]:
    """All valid preimages of y under f (0, 1 or 2 of them).

    Sectors (c, d) are scanned in lexicographic order; a decode failure in a
    sector simply contributes nothing.  Every candidate is re-verified through
    f before being accepted, and the result is sorted by encoded bit-string.
    """
    params = pk.params
    y = _as_vec(y)
    if y.shape != (params.m,):
        raise ValueError("image length mismatch")
    q = params.q
    lo, hi = e_range(params)
    targets = _sector_targets(pk, y)
    if td.gadget is not None:
        cands = [(k, s) for k in range(4) for s in _bar_invert_gadget(td, pk, targets[k])]
    else:
        cands = [(k, s) for k, s, _ in _bar_invert_enum(pk, targets, lo, hi)]
    found = []
    for k, s in cands:
        e = _centered(params, targets[k] - pk.K @ _as_vec(s))
        if not (np.all(e >= lo) and np.all(e <= hi)):
            continue
        elem = DomainElement(s, tuple(int(x) for x in e), k & 1, k >> 1)
        if np.array_equal(f(pk, elem) % q, y % q):
            found.append(elem)
    found.sort(key=lambda el: encode(params, el))
    return tuple(found)


def register_preimages(pk: PublicKey, packed_y: int) -> list[int]:
    """Every register pattern p with ``f_bit_table(pk)[p] == packed_y``, ascending.

    The closed form of the truth-table lookup, without the table.  In sector
    (c, d) a pattern's stored noise is fixed by s: ``stored = target - K s + B
    mod q``, and it counts only if it is below 2B = 2^ell_e on every
    coordinate.  Since 2B <= q/2 there is at most one such value per s, so
    the s-scan of the enumeration inverter over the whole box [-B, B-1] (not
    only |e| <= mu, as the register holds every box pattern) finds them all.
    """
    params = pk.params
    check_register(params)
    if not 0 <= packed_y < 1 << (params.m * params.ell_q):
        return []
    box = params.noise_box
    targets = _sector_targets(pk, unpack_image(params, packed_y))
    hits = _bar_invert_enum(pk, targets, -box, box - 1)
    return sorted(encode_int(params, DomainElement(s, e, k & 1, k >> 1)) for k, s, e in hits)


# ---------------------------------------------------------------------------
# exhaustive oracle (independent of the trapdoor)


def iter_domain(params: ParamSet, include_c: bool = True) -> Iterator[DomainElement]:
    lo, hi = e_range(params)
    svals = range(params.q)
    evals = range(lo, hi + 1)
    for s in itertools.product(svals, repeat=params.n):
        for e in itertools.product(evals, repeat=params.m):
            for d in (0, 1):
                if include_c:
                    for c in (0, 1):
                        yield DomainElement(s, e, d, c)
                else:
                    yield DomainElement(s, e, d, None)


def domain_size(params: ParamSet, include_c: bool = True) -> int:
    lo, hi = e_range(params)
    size = (params.q**params.n) * ((hi - lo + 1) ** params.m) * 2
    return size * 2 if include_c else size


def exhaustive_preimages(pk: PublicKey, y) -> tuple[DomainElement, ...]:
    """Brute-force preimage set of y; the oracle invert() is checked against."""
    params = pk.params
    if domain_size(params) > 1 << _ENUM_CAP_BITS:
        raise ValueError("domain too large for exhaustive enumeration")
    y = _as_vec(y) % params.q
    out = [x for x in iter_domain(params) if np.array_equal(f(pk, x), y)]
    out.sort(key=lambda el: encode(params, el))
    return tuple(out)


def exhaustive_image_map(pk: PublicKey) -> dict[tuple[int, ...], list[DomainElement]]:
    """Full image -> preimage-list table by forward enumeration."""
    params = pk.params
    if domain_size(params) > 1 << _ENUM_CAP_BITS:
        raise ValueError("domain too large for exhaustive enumeration")
    table: dict[tuple[int, ...], list[DomainElement]] = {}
    for x in iter_domain(params):
        key = tuple(int(v) for v in f(pk, x))
        table.setdefault(key, []).append(x)
    for lst in table.values():
        lst.sort(key=lambda el: encode(params, el))
    return table


def check_register(params: ParamSet):
    """The simulation envelope: a register of at most MAX_REGISTER_BITS qubits."""
    if params.total_bits > MAX_REGISTER_BITS:
        raise ValueError(
            f"register of {params.total_bits} qubits is outside the "
            f"{MAX_REGISTER_BITS}-qubit simulation envelope"
        )


def f_bit_table(pk: PublicKey) -> np.ndarray:
    """Truth table of f over every register pattern, as packed image bits.

    Index: the encoded domain string as an integer (bit j = qubit j).  Value:
    the image vector packed little-endian, ell_q bits per coordinate.  The
    linear map is evaluated on every pattern, including mu-clipped ones, which
    matches a register prepared over the whole noise box.
    """
    params = pk.params
    check_register(params)
    nbits = params.total_bits
    box = params.noise_box
    idx = np.arange(1 << nbits, dtype=np.int64)

    def field(start: int, width: int) -> np.ndarray:
        return (idx >> start) & ((1 << width) - 1)

    y = np.zeros((1 << nbits, params.m), dtype=np.int64)
    pos = 0
    for j in range(params.n):
        sj = field(pos, params.ell_q)
        y = (y + np.outer(sj, pk.K[:, j])) % params.q
        pos += params.ell_q
    for i in range(params.m):
        y[:, i] = (y[:, i] + field(pos, params.ell_e) - box) % params.q
        pos += params.ell_e
    d = field(pos, 1)
    c = field(pos + 1, 1)
    y[:, 0] = (y[:, 0] + d * (params.q // 2)) % params.q
    y = (y + np.outer(c, pk.y0)) % params.q

    packed = np.zeros(1 << nbits, dtype=np.int64)
    for i in range(params.m):
        packed |= y[:, i] << (i * params.ell_q)
    return packed


def pack_image(params: ParamSet, y) -> int:
    out = 0
    for i, v in enumerate(y):
        out |= int(v) << (i * params.ell_q)
    return out


def unpack_image(params: ParamSet, packed: int) -> np.ndarray:
    mask = (1 << params.ell_q) - 1
    return _as_vec([(packed >> (i * params.ell_q)) & mask for i in range(params.m)])


# ---------------------------------------------------------------------------
# sampling


def sample_domain_element(
    params: ParamSet, rng: np.random.Generator, include_c: bool = True
) -> DomainElement:
    lo, hi = e_range(params)
    s = tuple(int(x) for x in rng.integers(0, params.q, size=params.n))
    e = tuple(int(x) for x in rng.integers(lo, hi + 1, size=params.m))
    d = int(rng.integers(0, 2))
    c = int(rng.integers(0, 2)) if include_c else None
    return DomainElement(s, e, d, c)


# ---------------------------------------------------------------------------
# empirical estimators


@dataclass(frozen=True)
class Estimate:
    value: float
    interval: tuple[float, float]
    trials: int
    successes: int


def _two_preimage_estimate(
    trials: int, draw: Callable[[int], tuple[PublicKey, Trapdoor, np.random.Generator]]
) -> Estimate:
    """Fraction of trials whose sampled input's image has exactly two
    preimages; draw(t) gives trial t's key, trapdoor and input generator."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    hits = 0
    for t in range(trials):
        pk, td, rng = draw(t)
        x = sample_domain_element(pk.params, rng)
        if len(invert(td, pk, f(pk, x))) == 2:
            hits += 1
    return Estimate(hits / trials, wilson_interval(hits, trials), trials, hits)


def regularity_estimate(params: ParamSet, trials: int, seed: int) -> Estimate:
    """Fraction of sampled inputs whose image has exactly two preimages."""
    from .seeds import derive_seed

    def draw(t: int):
        pk, td = gen(params, derive_seed(seed, "regularity", t))
        return pk, td, np.random.default_rng(derive_seed(seed, "regularity-x", t))

    return _two_preimage_estimate(trials, draw)


def two_preimage_fraction(pk: PublicKey, td: Trapdoor, trials: int, seed: int) -> Estimate:
    """Same statistic for one fixed key."""
    rng = np.random.default_rng(seed)
    return _two_preimage_estimate(trials, lambda t: (pk, td, rng))


def homomorphy_estimate(params: ParamSet, trials: int, seed: int) -> Estimate:
    """Probability that a fresh shift composes additively without leaving the box."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    from .seeds import derive_seed

    hits = 0
    for t in range(trials):
        pk, td = gen(params, derive_seed(seed, "homomorphy", t))
        rng = np.random.default_rng(derive_seed(seed, "homomorphy-z", t))
        z = sample_domain_element(params, rng, include_c=False)
        zsum = add_z(params, z, td.z0)
        if not is_valid(params, zsum):
            continue
        lhs = (
            g(params, pk.K, z.s, z.e, z.d) + g(params, pk.K, td.z0.s, td.z0.e, td.z0.d)
        ) % params.q
        rhs = g(params, pk.K, zsum.s, zsum.e, zsum.d)
        if np.array_equal(lhs, rhs):
            hits += 1
    return Estimate(hits / trials, wilson_interval(hits, trials), trials, hits)


def analytic_homomorphy(params: ParamSet) -> float:
    """Closed-form per-coordinate box-overlap product for the same probability."""
    lo, hi = e_range(params)
    size = hi - lo + 1
    mp = params.mu_prime
    total = 0.0
    for e0 in range(-mp, mp + 1):
        overlap = max(0, size - abs(e0))
        total += overlap / size
    per_coord = total / (2 * mp + 1)
    return per_coord**params.m


# ---------------------------------------------------------------------------
# the hardcore-guessing game

Adversary = Callable[[PublicKey, Trapdoor, np.random.Generator], int]


@dataclass(frozen=True)
class GameResult:
    p_correct: float
    advantage: float
    interval: tuple[float, float]
    trials: int


def hardcore_game(adversary: Adversary, params: ParamSet, trials: int, seed: int) -> GameResult:
    """Guess d0 from (K, y0).  The trapdoor is passed only so white-box
    baselines can be expressed; honest adversaries must ignore it."""
    from .seeds import derive_seed

    wins = 0
    for t in range(trials):
        pk, td = gen(params, derive_seed(seed, "hardcore", t))
        rng = np.random.default_rng(derive_seed(seed, "hardcore-adv", t))
        if adversary(pk, td, rng) == td.d0:
            wins += 1
    p = wins / trials
    lo, hi = wilson_interval(wins, trials)
    return GameResult(p, p - 0.5, (lo - 0.5, hi - 0.5), trials)


def adv_random(pk: PublicKey, td: Trapdoor, rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2))


def adv_trapdoor(pk: PublicKey, td: Trapdoor, rng: np.random.Generator) -> int:
    preimages = invert(td, pk, (pk.y0 + 0) % pk.params.q)
    for el in preimages:
        if el.c == 0:
            return el.d
    return int(rng.integers(0, 2))


def adv_bruteforce(pk: PublicKey, td: Trapdoor, rng: np.random.Generator) -> int:
    """Enumerate the whole domain; documents that toy parameters are insecure."""
    y0 = tuple(int(v) for v in pk.y0)
    for x in iter_domain(pk.params, include_c=False):
        if tuple(int(v) for v in g(pk.params, pk.K, x.s, x.e, x.d)) == y0:
            return x.d
    return int(rng.integers(0, 2))
