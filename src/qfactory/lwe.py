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

from . import seeds
from .params import ParamSet
from .seeds import derive_seed
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


def check_image(params: ParamSet, y) -> tuple[int, ...]:
    """The image rule: m entries, each an int or numpy integer (not a bool)
    in [0, q), as a tuple of ints; ValueError otherwise."""
    y = tuple(y)
    kinds = set(map(type, y))  # one type test per distinct type
    if len(y) != params.m or any(t is bool or not issubclass(t, (int, np.integer)) for t in kinds):
        raise ValueError(f"image must be {params.m} integers")
    y = tuple(map(int, y))
    if not 0 <= min(y) <= max(y) < params.q:
        raise ValueError("image entries must lie in [0, q)")
    return y


def e_range(params: ParamSet) -> tuple[int, int]:
    """Valid noise values: the box clipped to |e| <= mu."""
    box = params.noise_box
    return -params.mu, min(box - 1, params.mu)


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
    out = g_bar(params, K, s, e)  # a new array
    if d:
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


def shift_in_box(params: ParamSet, e, shift):
    """The shifted-noise rule: whether e + shift stays in `e_range` on the
    last axis, vectorized over the others.  With shift -e0 (c = 0) or +e0
    (c = 1) it is the event that an input's partner preimage exists."""
    lo, hi = e_range(params)
    moved = np.asarray(e) + shift
    return np.all((moved >= lo) & (moved <= hi), axis=-1)


# ---------------------------------------------------------------------------
# bit strings: bit j = qubit j, each entry 0 or 1

_TEXT_BITS = bytes.maketrans(b"01", b"\x00\x01")
_BITS_TEXT = bytes.maketrans(b"\x00\x01", b"01")


def check_bits(bits, length: int) -> tuple[int, ...]:
    """The bit rule: `length` entries, each an int, numpy integer or bool of
    value 0 or 1, as a tuple of ints; ValueError otherwise."""
    try:
        raw = bytes(tuple(bits))  # tuple() first: bytes() of an array reads its raw memory
    except (TypeError, ValueError) as exc:  # not iterable, not integers, not in range(256)
        raise ValueError("bit entries must be 0 or 1") from exc
    if len(raw) != length or raw.translate(None, b"\x00\x01"):
        raise ValueError(f"expected {length} bit entries, each 0 or 1")
    return tuple(raw)


def bits_text(bits) -> str:
    """The 0/1 text of a checked bit-string, character j = bit j."""
    return bytes(bits).translate(_BITS_TEXT).decode("ascii")


def text_bits(text: str) -> tuple[int, ...]:
    """Inverse of `bits_text` on a string of 0/1 characters."""
    return tuple(text.encode("ascii").translate(_TEXT_BITS))


def pack_bits(bits) -> int:
    """A checked bit-string as an integer, bit j = bits[j]; inverse of `unpack_bits`."""
    return int(bits_text(bits)[::-1] or "0", 2)  # the empty string packs to 0


def unpack_bits(params: ParamSet, value: int) -> tuple[int, ...]:
    """The register bit-string of a packed pattern (bit j = qubit j)."""
    n = params.total_bits
    # one pass over the binary digits; shifting a paper-size int per bit is quadratic
    return text_bits(format(value & ((1 << n) - 1), f"0{n}b")[::-1])


def encode(params: ParamSet, elem: DomainElement) -> tuple[int, ...]:
    """Canonical bit image: s coords little-endian, e offset-binary, then d, c."""
    return unpack_bits(params, encode_int(params, elem))


def encode_int(params: ParamSet, elem: DomainElement) -> int:
    """The encoded bit-string as an integer (bit j = qubit j); ValueError for
    an s entry outside [0, q), e outside the box, or d or c not 0 or 1."""
    if elem.c is None:
        raise ValueError("encode needs the c component")
    if elem.d not in (0, 1) or elem.c not in (0, 1):
        raise ValueError("d and c must be 0 or 1")
    box = params.noise_box
    value = pos = 0
    for x in map(int, elem.s):
        if not 0 <= x < params.q:
            raise ValueError("s entries must lie in [0, q)")
        value |= x << pos
        pos += params.ell_q
    for x in elem.e:
        stored = int(x) + box
        if not (0 <= stored < 2 * box):
            raise ValueError("e outside the representable box")
        value |= stored << pos
        pos += params.ell_e
    return value | int(elem.d) << pos | int(elem.c) << (pos + 1)


def decode(params: ParamSet, bits) -> DomainElement | None:
    """Inverse of encode on `check_bits`; None for out-of-range noise (bot)."""
    return decode_int(params, pack_bits(check_bits(bits, params.total_bits)))


def decode_int(params: ParamSet, value: int) -> DomainElement | None:
    """Inverse of encode_int on [0, 2^total_bits); None for out-of-range noise."""
    if not 0 <= value < 1 << params.total_bits:
        raise ValueError("pattern wider than the register")
    fields = []
    for width in [params.ell_q] * params.n + [params.ell_e] * params.m:
        fields.append(value % (1 << width))
        value >>= width
    c, d = divmod(value, 2)
    e = tuple(stored - params.noise_box for stored in fields[params.n :])
    elem = DomainElement(tuple(fields[: params.n]), e, d, c)
    return elem if is_valid(params, elem) else None


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


_KEY_BATCH = 16  # toy key candidates drawn and checked per step


def _wide_injective(params: ParamSet, K: np.ndarray) -> np.ndarray:
    """Check injectivity of g over the mu'-widened noise box, for each key of a
    (..., m, n) stack of keys; returns a boolean array of shape (...).

    g collides iff some nonzero s-difference lands K*ds inside the widened
    noise-difference cube, possibly shifted by the d-sector vector.  Checking
    differences is exhaustive-equivalent and fast.  Only needed for
    enumeration-scale keys; gadget keys are injective by the decode argument.
    """
    q = params.q
    D = 2 * (params.noise_box + params.mu_prime) - 1
    if D >= q // 2:
        return np.zeros(K.shape[:-2], dtype=bool)
    ds = _s_grid(q, params.n)[:, 1:]  # drop ds = 0
    # t centred into [-q/2, q/2) is in [-D, D] iff (t + D) mod q <= 2D; rows 0
    # and 1 of `_sector_dv` are the shifts d = 0, 1, so one pass checks both
    u = ((K @ ds + D)[..., None, :, :] + _sector_dv(params)[:2, :, None]) & (q - 1)
    return u.max(axis=-2).min(axis=(-2, -1)) > 2 * D  # u is (..., 2, m, q^n - 1)


def gen(params: ParamSet, seed: int) -> tuple[PublicKey, Trapdoor]:
    """Key generation: gadget-bearing K (when it fits) plus planted (s0, e0, d0).

    Keys too small to host a gadget (m <= n*ell_q) get a random K that is
    resampled until exhaustively verified injective, and inversion falls back
    to enumeration.
    """
    rng = seeds.rng(seed)
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
        for col in np.flatnonzero(R.sum(axis=0) > cap):
            ones = np.flatnonzero(R[:, col])
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
        # candidates come 16 at a time and the first injective one is kept, so
        # K is uniform over injective keys; at most 4096 candidates are tried
        for _ in range(4096 // _KEY_BATCH):
            Ks = rng.integers(0, q, size=(_KEY_BATCH, m, n))
            ok = _wide_injective(params, Ks)
            if ok.any():
                K = Ks[ok.argmax()].copy()  # a copy, so the stack is not kept alive
                break
        else:
            raise ValueError("could not sample an injective toy key")
        gadget = None

    s0 = rng.integers(0, q, size=n)
    e0 = rng.integers(-params.mu_prime, params.mu_prime + 1, size=m)
    d0 = int(rng.integers(0, 2))
    z0 = DomainElement(tuple(s0.tolist()), tuple(e0.tolist()), d0, None)
    y0 = g(params, K, s0, e0, d0)
    return PublicKey(K=K, y0=y0, params=params), Trapdoor(gadget=gadget, z0=z0)


# ---------------------------------------------------------------------------
# inversion


def _gadget_decode(gd: GadgetData, params: ParamSet, targets: np.ndarray) -> np.ndarray:
    """(n, 4) array whose column k is the s decoded from row k of `targets`.

    Per coordinate, gadget column (j, l) holds s_j * 2^l + err mod q.  Bits
    of s_j are peeled least-significant first from the highest-level column
    down, subtracting the known low bits at each step.  The decision
    threshold uses the exact per-column error interval, so decoding is exact
    whenever the interval spans less than q/2 (enforced at gen time).
    """
    q, n, ell = params.q, params.n, params.ell_q
    m_bar = params.m - n * ell
    u = ((targets[:, m_bar:] + targets[:, :m_bar] @ gd.R) % q).reshape(len(targets), n, ell)
    err_lo = gd.err_lo.reshape(n, ell)
    s = np.zeros(u.shape[:2], dtype=np.int64)
    for k in range(ell):
        level = ell - 1 - k
        val = (u[:, :, level] - (s << level) - err_lo[:, level]) % q
        s |= (val >= q // 2).astype(np.int64) << k
    return s.T


@functools.lru_cache(maxsize=8)
def _s_grid(q: int, n: int) -> np.ndarray:
    """Every s in Z_q^n as a column of an (n, q^n) array, in product order."""
    grid = np.indices((q,) * n).reshape(n, -1)
    grid.flags.writeable = False
    return grid


_SECTOR_C = np.array([[0], [0], [1], [1]])  # c of sector row k = 2c + d, read-only
_SECTOR_C.flags.writeable = False


@functools.lru_cache(maxsize=16)
def _sector_dv(params: ParamSet) -> np.ndarray:
    """(4, m) read-only array whose row 2c + d is d v."""
    dv = np.zeros((4, params.m), dtype=np.int64)
    dv[1::2, 0] = params.q // 2
    dv.flags.writeable = False
    return dv


def _sector_hits(
    pk: PublicKey, y: np.ndarray, lo: int, hi: int, gadget: GadgetData | None = None
) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """The preimage rule: every (k, s, e) with f(s, e, d, c) = y, k = 2c + d,
    and every noise coordinate in [lo, hi], in order of k.

    Sector k's target t = y - c y0 - d v mod q is matched as t = K s + e: the
    candidate s are the gadget decode of t (with a trapdoor) or every s in
    Z_q^n (the enumeration scan), and e = t - K s is built from the target, so
    f(x) = y holds by construction and only the range of e is checked.
    """
    params = pk.params
    # row k is y - c y0 - d v, unreduced: each use reduces it mod q
    targets = y - _SECTOR_C * pk.y0 - _sector_dv(params)
    if gadget is None:
        cands, tried = _s_grid(params.q, params.n), True  # every s in every sector
    else:
        # column k is sector k's own decode; it is tried only there
        cands, tried = _gadget_decode(gadget, params, targets), np.eye(4, dtype=bool)
    # [lo, hi] sits inside [-q/2, q/2), so e is in it iff (e - lo) mod q <= hi - lo
    # (the mask q - 1 is mod q, as q is a power of two)
    u = ((targets - lo)[:, :, None] - pk.K @ cands) & (params.q - 1)
    ks, js = ((u.max(axis=1) <= hi - lo) & tried).nonzero()
    return [
        (k, tuple(cands[:, j].tolist()), tuple((u[k, :, j] + lo).tolist()))
        for k, j in zip(ks.tolist(), js.tolist())
    ]


def invert(td: Trapdoor, pk: PublicKey, y) -> tuple[DomainElement, ...]:
    """All valid preimages of y under f (0, 1 or 2 of them), in sector order;
    ValueError unless y follows `check_image`.

    Sector (c, d) is scanned as k = 2c + d by the preimage rule of
    `_sector_hits`: the gadget decode of its target (or, for an
    enumeration-scale key, an s-scan), with e built from the target and
    range-checked, so each hit is a preimage by construction.  c and d are
    the top two bits of `encode_int`, and gen makes g injective on the
    widened box, so there is at most one preimage per c and sector order is
    ascending `encode_int` order.
    """
    return _invert(td, pk, check_image(pk.params, y))


def _invert(td: Trapdoor, pk: PublicKey, y: tuple[int, ...]) -> tuple[DomainElement, ...]:
    """`invert` of a y that `check_image` has already returned."""
    lo, hi = e_range(pk.params)
    hits = _sector_hits(pk, _as_vec(y), lo, hi, td.gadget)
    return tuple(DomainElement(s, e, k & 1, k >> 1) for k, s, e in hits)


def register_preimages(pk: PublicKey, packed_y: int) -> list[int]:
    """Every register pattern p with ``f_bit_table(pk)[p] == packed_y``, ascending.

    The closed form of the truth-table lookup, without the table: the
    preimage rule of `_sector_hits` with the enumeration scan over the whole
    box [-B, B-1] (not only |e| <= mu, as the register holds every box
    pattern).  In sector (c, d) a pattern's stored noise is fixed by s, and
    since 2B <= q/2 there is at most one such value per s.  For a key from
    gen the hits already come in ascending order (one per c); a key a server
    receives may be any matrix, where one sector can hold several patterns,
    so the patterns are sorted as integers.
    """
    params = pk.params
    check_register(params)
    if not 0 <= packed_y < 1 << (params.m * params.ell_q):
        return []
    box = params.noise_box
    hits = _sector_hits(pk, _as_vec(unpack_image(params, packed_y)), -box, box - 1)
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
    """Brute-force preimage set of y; the oracle invert() is checked against.
    ValueError unless y follows `check_image`."""
    return tuple(exhaustive_image_map(pk).get(check_image(pk.params, y), ()))


def exhaustive_image_map(pk: PublicKey) -> dict[tuple[int, ...], list[DomainElement]]:
    """Full image -> preimage-list table by forward enumeration, each list in
    ascending `encode_int` order."""
    params = pk.params
    if domain_size(params) > 1 << _ENUM_CAP_BITS:
        raise ValueError("domain too large for exhaustive enumeration")
    table: dict[tuple[int, ...], list[DomainElement]] = {}
    for x in iter_domain(params):
        key = tuple(int(v) for v in f(pk, x))
        table.setdefault(key, []).append(x)
    for lst in table.values():
        lst.sort(key=lambda el: encode_int(params, el))
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

    A pattern is s + 2^(n ell_q) r with r = noise + 2^(m ell_e) (d + 2c), and
    f is a part of r plus a part of s, so each image coordinate of the table
    is one broadcast sum of a row block (c y0 + d v + e per r) and a column
    block (K s per s), reduced by one mask and packed into place.
    """
    params = pk.params
    check_register(params)
    # the register stores s_0 in the low bits, the grid's last coordinate
    # varies fastest: reversed, column j of the grid is the s of pattern j
    cols = pk.K @ _s_grid(params.q, params.n)[::-1]
    offsets = (_SECTOR_C * pk.y0 + _sector_dv(params)).T  # column 2c + d is c y0 + d v
    rows = (offsets[:, :, None] + _noise_block(params)[:, None, :]).reshape(params.m, -1)
    packed = np.zeros((rows.shape[1], cols.shape[1]), dtype=np.int64)
    for i, (row, col) in enumerate(zip(rows, cols)):
        y = np.add.outer(row, col)
        y &= params.q - 1  # mod q, as q is a power of two
        y <<= i * params.ell_q
        packed |= y
    return packed.reshape(-1)


@functools.lru_cache(maxsize=16)
def _noise_block(params: ParamSet) -> np.ndarray:
    """(m, 2^(m ell_e)) read-only array whose column j is the noise e of
    noise pattern j: e_0 in the low ell_e bits, each stored with offset B."""
    box = params.noise_box
    grid = np.indices((2 * box,) * params.m).reshape(params.m, -1)[::-1] - box
    grid.flags.writeable = False
    return grid


def pack_image(params: ParamSet, y) -> int:
    out = 0
    for i, v in enumerate(y):
        out |= int(v) << (i * params.ell_q)
    return out


def unpack_image(params: ParamSet, packed: int) -> tuple[int, ...]:
    mask = (1 << params.ell_q) - 1
    return tuple((packed >> (i * params.ell_q)) & mask for i in range(params.m))


# ---------------------------------------------------------------------------
# sampling


def sample_domain_element(
    params: ParamSet, rng: np.random.Generator, include_c: bool = True
) -> DomainElement:
    lo, hi = e_range(params)
    s = tuple(rng.integers(0, params.q, size=params.n).tolist())
    e = tuple(rng.integers(lo, hi + 1, size=params.m).tolist())
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


def _estimate(trials: int, hit: Callable[[int], bool]) -> Estimate:
    """The Monte-Carlo loop: the fraction of t in range(trials) with hit(t)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    hits = sum(bool(hit(t)) for t in range(trials))
    return Estimate(hits / trials, wilson_interval(hits, trials), trials, hits)


def _two_preimages(pk: PublicKey, td: Trapdoor, rng: np.random.Generator) -> bool:
    x = sample_domain_element(pk.params, rng)
    return len(invert(td, pk, f(pk, x))) == 2


def regularity_estimate(params: ParamSet, trials: int, seed: int) -> Estimate:
    """Fraction of sampled inputs whose image has exactly two preimages."""
    def hit(t: int) -> bool:
        pk, td = gen(params, derive_seed(seed, "regularity", t))
        return _two_preimages(pk, td, seeds.rng(derive_seed(seed, "regularity-x", t)))

    return _estimate(trials, hit)


def two_preimage_fraction(pk: PublicKey, td: Trapdoor, trials: int, seed: int) -> Estimate:
    """Same statistic for one fixed key."""
    rng = seeds.rng(seed)
    return _estimate(trials, lambda t: _two_preimages(pk, td, rng))


def homomorphy_estimate(params: ParamSet, trials: int, seed: int) -> Estimate:
    """Probability that z + z0 keeps its noise in the box (`shift_in_box`)."""
    def hit(t: int) -> bool:
        _, td = gen(params, derive_seed(seed, "homomorphy", t))
        rng = seeds.rng(derive_seed(seed, "homomorphy-z", t))
        z = sample_domain_element(params, rng, include_c=False)
        return shift_in_box(params, z.e, td.z0.e)

    return _estimate(trials, hit)


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
    def hit(t: int) -> bool:
        pk, td = gen(params, derive_seed(seed, "hardcore", t))
        rng = seeds.rng(derive_seed(seed, "hardcore-adv", t))
        return adversary(pk, td, rng) == td.d0

    est = _estimate(trials, hit)
    lo, hi = est.interval
    return GameResult(est.value, est.value - 0.5, (lo - 0.5, hi - 0.5), trials)


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
