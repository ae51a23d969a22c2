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

# Widest register (in bits) that `encode_int` builds field by field.  Each OR
# copies the growing int, so the loop's cost rises with the square of the
# width, while one array pass costs 13-17 us at toy widths, where the loop
# takes 1.2-1.5 us: the two crossed between 850 and 1,000 bits (timeit,
# Python 3.11, numpy 2.4, a 2-core VM).
_FIELDWISE_ENCODE_BITS = 896


@dataclass(frozen=True)
class DomainElement:
    """A point (s, e, d[, c]) of the function domain; c is None for g-inputs."""

    s: tuple[int, ...]
    e: tuple[int, ...]
    d: int
    c: int | None = None


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


def shift_in_box(params: ParamSet, e, shift):
    """The shifted-noise rule: whether e + shift stays in `e_range` on the
    last axis, vectorized over the others.  With shift -e0 (c = 0) or +e0
    (c = 1) it is the event that an input's partner preimage exists."""
    lo, hi = e_range(params)
    moved = np.asarray(e) + shift
    return np.all((moved >= lo) & (moved <= hi), axis=-1)


# ---------------------------------------------------------------------------
# bit strings: bit j = qubit j, as bytes of 0/1 values, which one translate
# turns into 0/1 text and back

_TEXT_BITS = bytes.maketrans(b"01", b"\x00\x01")
_BITS_TEXT = bytes.maketrans(b"\x00\x01", b"01")


def check_bits(bits, length: int) -> bytes:
    """The bit rule: `length` entries, each an int, numpy integer or bool of
    value 0 or 1, as bytes of 0/1 values; ValueError otherwise.  A bytes
    argument is checked as it is; anything else goes through tuple() first,
    so that an array or memoryview is read by value, not as raw memory."""
    if not isinstance(bits, bytes):
        try:
            bits = bytes(tuple(bits))
        except (TypeError, ValueError) as exc:  # not iterable, not integers, not in range(256)
            raise ValueError("bit entries must be 0 or 1") from exc
    if len(bits) != length or bits.translate(None, b"\x00\x01"):
        raise ValueError(f"expected {length} bit entries, each 0 or 1")
    return bits


def bits_text(bits) -> str:
    """The 0/1 text of a checked bit-string, character j = bit j."""
    return bytes(bits).translate(_BITS_TEXT).decode("ascii")


def text_bits(raw: bytes) -> bytes:
    """Inverse of `bits_text`, on the ASCII bytes of a string of 0/1
    characters: bytes of 0/1 values, as `check_bits` returns them."""
    return raw.translate(_TEXT_BITS)


def pack_bits(bits) -> int:
    """A checked bit-string as an integer, bit j = bits[j]; inverse of `unpack_bits`."""
    return int(bits_text(bits)[::-1] or "0", 2)  # the empty string packs to 0


def unpack_bits(params: ParamSet, value: int) -> bytes:
    """The register bit-string of a packed pattern (bit j = qubit j)."""
    n = params.total_bits
    # one pass over the binary digits; shifting a paper-size int per bit is quadratic
    return text_bits(format(value & ((1 << n) - 1), f"0{n}b")[::-1].encode("ascii"))


def encode(params: ParamSet, elem: DomainElement) -> bytes:
    """Canonical bit image: s coords little-endian, e offset-binary, then d, c."""
    return unpack_bits(params, encode_int(params, elem))


def encode_int(params: ParamSet, elem: DomainElement) -> int:
    """The encoded bit-string as an integer (bit j = qubit j); ValueError for
    an s entry outside [0, q), e outside the box, or d or c not 0 or 1."""
    if elem.c is None:
        raise ValueError("encode needs the c component")
    if elem.d not in (0, 1) or elem.c not in (0, 1):
        raise ValueError("d and c must be 0 or 1")
    if params.total_bits > _FIELDWISE_ENCODE_BITS:
        return _encode_blocks(params, elem)
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


def _encode_blocks(params: ParamSet, elem: DomainElement) -> int:
    """`encode_int` in one array pass per block, for a register wider than
    _FIELDWISE_ENCODE_BITS: each block (s, then e) is range-checked as an
    int64 array, entry j's little-endian bytes are unpacked to its field
    bits, and the blocks, d and c are packed into one integer."""
    box = params.noise_box
    blocks = []
    for values, offset, bound, width, error in (
        (elem.s, 0, params.q, params.ell_q, "s entries must lie in [0, q)"),
        (elem.e, box, 2 * box, params.ell_e, "e outside the representable box"),
    ):
        try:
            stored = np.array(values, dtype=np.int64) + offset  # int() of each entry
        except OverflowError:  # an entry outside int64
            raise ValueError(error) from None
        if stored.min() < 0 or stored.max() >= bound:
            raise ValueError(error)
        raw = stored.astype("<i8", copy=False).view(np.uint8).reshape(-1, 8)
        blocks.append(np.unpackbits(raw, axis=1, count=width, bitorder="little").ravel())
    blocks.append(np.array([elem.d, elem.c], dtype=np.uint8))
    packed = np.packbits(np.concatenate(blocks), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


# ---------------------------------------------------------------------------
# key generation


@functools.lru_cache(maxsize=16)
def _gadget_rows(params: ParamSet) -> np.ndarray:
    """w x n read-only matrix whose row (j*ell_q + l) is 2^l on coordinate j."""
    powers = (1 << np.arange(params.ell_q, dtype=np.int64))[:, None]
    G = np.kron(np.eye(params.n, dtype=np.int64), powers)
    G.flags.writeable = False
    return G


def _column_weight_cap(params: ParamSet) -> int:
    # Decoding needs the error interval of each gadget column to span less
    # than q/2.  The interval is widened by mu' so that the shifted noise box
    # (which governs collision structure) still decodes uniquely; each
    # contributing coordinate then spans 2(B + mu') - 1 values.
    span = 2 * (params.noise_box + params.mu_prime) - 1
    return max(0, (params.q // 2 - 1) // span - 1)


_KEY_BATCH = 16  # toy key candidates drawn per step


def _injective(params: ParamSet, K: list[list[int]]) -> bool:
    """Whether g is injective over the mu'-widened noise box, for one key K
    given as its m rows, each a list of n ints (`ndarray.tolist()`).

    g collides iff some (d, ds != 0) puts every row i of K ds + d v inside the
    widened noise-difference cube [-D, D] (centred mod q).  The set of (d, ds)
    that row i puts inside depends only on its value and on whether it is row
    0, the one row v moves, so each is one cached mask (`_row_mask`) and K is
    injective iff the AND of its rows' masks is 0.  Only needed for
    enumeration-scale keys; gadget keys are injective by the decode argument.
    """
    q = params.q
    D = 2 * (params.noise_box + params.mu_prime) - 1
    if D >= q // 2:
        return False
    hit = _row_mask(q, params.n, D, tuple(K[0]), True)
    for row in K[1:]:
        hit &= _row_mask(q, params.n, D, tuple(row), False)
        if not hit:
            break
    return not hit


@functools.lru_cache(maxsize=512)
def _row_mask(q: int, n: int, D: int, row: tuple[int, ...], shifted: bool) -> int:
    """The (d, ds) that one key row puts inside [-D, D], as a bit mask of
    2 (q^n - 1) bits: bit j for d = 0 and bit q^n - 1 + j for d = 1, with ds
    column j + 1 of `_s_grid(q, n)` (ds = 0 is left out).  d = 1 adds q/2 to a
    `shifted` row only.  An int is immutable, and its size is linear in q^n."""
    # t centred into [-q/2, q/2) is in [-D, D] iff (t + D) mod q <= 2D (the
    # mask q - 1 is mod q, as q is a power of two)
    t = np.array(row) @ _s_grid(q, n)[:, 1:] + D
    inside = (np.concatenate([t, t + q // 2 if shifted else t]) & (q - 1)) <= 2 * D
    return int.from_bytes(np.packbits(inside, bitorder="little").tobytes(), "little")


def check_enumeration_scale(params: ParamSet) -> None:
    """The rule for a key with no gadget (m <= n*ell_q), whose inversion scans
    all q^n values of s: its register's s and e bits, n*ell_q + m*ell_e, at
    most _ENUM_CAP_BITS; ValueError otherwise."""
    if params.n * params.ell_q + params.m * params.ell_e > _ENUM_CAP_BITS:
        raise ValueError("m <= n*ell_q needs enumeration-scale parameters")


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
        check_enumeration_scale(params)
        # candidates come 16 at a time and are scanned in order; the first
        # injective one is kept, so K is uniform over injective keys; at most
        # 4096 candidates are tried
        for _ in range(4096 // _KEY_BATCH):
            Ks = rng.integers(0, q, size=(_KEY_BATCH, m, n))
            found = (j for j, rows in enumerate(Ks.tolist()) if _injective(params, rows))
            first = next(found, None)
            if first is not None:
                K = Ks[first].copy()  # a copy, so the stack is not kept alive
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
    """(4, n) array whose row k is the s decoded from row k of `targets`.

    Per coordinate, gadget column (j, l) holds s_j * 2^l + err mod q.  Bits
    of s_j are peeled least-significant first from the highest-level column
    down, subtracting the known low bits at each step.  The decision
    threshold uses the exact per-column error interval, so decoding is exact
    whenever the interval spans less than q/2 (enforced at gen time).
    """
    n, ell = params.n, params.ell_q
    m_bar = params.m - n * ell
    # every column less its error floor, unreduced; levels[k] (contiguous) is level ell - 1 - k
    u = targets[:, m_bar:] + targets[:, :m_bar] @ gd.R - gd.err_lo
    levels = u.reshape(len(targets), n, ell)[:, :, ::-1].transpose(2, 0, 1).copy()
    s = np.zeros(levels.shape[1:], dtype=np.int64)
    for k, val in enumerate(levels):
        val -= s << (ell - 1 - k)
        # val mod q >= q/2 iff bit ell - 1 of val is set (q = 2^ell divides 2^64,
        # so int64 wrap-around keeps that bit); it is moved to bit k
        val >>= ell - 1 - k
        val &= 1 << k
        s |= val
    return s


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
    # cands[k % len(cands), :, j] is sector k's j-th candidate s
    if gadget is None:
        cands = _s_grid(params.q, params.n)[None]  # (1, n, q^n): every s
    else:
        cands = _gadget_decode(gadget, params, targets)[:, :, None]  # (4, n, 1)
    # [lo, hi] sits inside [-q/2, q/2), so e is in it iff (e - lo) mod q <= hi - lo
    # (the mask q - 1 is mod q, as q is a power of two)
    u = ((targets - lo)[:, :, None] - pk.K @ cands) & (params.q - 1)
    ks, js = (u.max(axis=1) <= hi - lo).nonzero()
    return [
        (k, tuple(cands[k % len(cands), :, j].tolist()), tuple((u[k, :, j] + lo).tolist()))
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


def iter_domain(params: ParamSet) -> Iterator[DomainElement]:
    lo, hi = e_range(params)
    svals = range(params.q)
    evals = range(lo, hi + 1)
    for s in itertools.product(svals, repeat=params.n):
        for e in itertools.product(evals, repeat=params.m):
            for d in (0, 1):
                for c in (0, 1):
                    yield DomainElement(s, e, d, c)


def domain_size(params: ParamSet) -> int:
    lo, hi = e_range(params)
    return (params.q**params.n) * ((hi - lo + 1) ** params.m) * 4  # times 2 for d, 2 for c


def enumerable(params: ParamSet) -> bool:
    """Whether `exhaustive_image_map` can enumerate the domain of params."""
    return domain_size(params) <= 1 << _ENUM_CAP_BITS


def exhaustive_image_map(pk: PublicKey) -> dict[tuple[int, ...], list[DomainElement]]:
    """Full image -> preimage-list table by forward enumeration, each list in
    ascending `encode_int` order."""
    params = pk.params
    if not enumerable(params):
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


def sample_domain_element(params: ParamSet, rng: np.random.Generator) -> DomainElement:
    lo, hi = e_range(params)
    s = tuple(rng.integers(0, params.q, size=params.n).tolist())
    e = tuple(rng.integers(lo, hi + 1, size=params.m).tolist())
    d = int(rng.integers(0, 2))
    c = int(rng.integers(0, 2))
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
        z = sample_domain_element(params, rng)
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
    for x in iter_domain(pk.params):
        if x.c == 0 and tuple(int(v) for v in g(pk.params, pk.K, x.s, x.e, x.d)) == y0:
            return x.d
    return int(rng.integers(0, 2))
