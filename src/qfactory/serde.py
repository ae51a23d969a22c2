"""Versioned JSON serialization for keys and trapdoors.

Z_q entries travel as decimal strings because the modulus can exceed 2^53 and
the files must survive JSON number parsing anywhere.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .lwe import DomainElement, GadgetData, PublicKey, Trapdoor, bits_text, text_bits
from .params import ParamSet

FORMAT_VERSION = 1


def int_strings(values) -> list[str]:
    """Integers as decimal strings: the text form of Z_q entries and noise vectors."""
    return [str(int(v)) for v in values]


def _mat_str(mat) -> list[list[str]]:
    return [[str(v) for v in row] for row in mat.tolist()]


def zq_entries(values, length: int, q: int) -> list[int]:
    """A list of `length` decimal strings in [0, q), as ints; else ValueError."""
    if not isinstance(values, list) or len(values) != length:
        raise ValueError(f"expected a list of {length} Z_q entries")
    try:
        text = "".join(values)  # every entry is a str
    except TypeError as exc:
        raise ValueError("Z_q entries must be decimal strings") from exc
    ints = list(map(int, values))
    if not (text.isascii() and text.isdigit()) or max(ints) >= q:
        raise ValueError("Z_q entries must be decimal strings in [0, q)")
    return ints


def record_bits(text, length: int) -> tuple[int, ...]:
    """A measurement record of exactly `length` characters from {0, 1}, as
    bits; ValueError otherwise."""
    # strip("01") leaves every other character, so it is empty exactly on a 0/1 string
    if not isinstance(text, str) or len(text) != length or text.strip("01"):
        raise ValueError(f"record must be exactly {length} characters from {{0, 1}}")
    return text_bits(text)


def record_text(bits: tuple[int, ...]) -> str:
    """The text form of a record of 0/1 ints, as `record_bits` reads it."""
    return bits_text(bits)


def bit(value, name: str) -> int:
    """`value` if it is the int 0 or 1 (a bool does not count); else ValueError."""
    if type(value) is not int or value not in (0, 1):
        raise ValueError(f"{name} must be the integer 0 or 1, not {value!r}")
    return value


def params_to_obj(params: ParamSet) -> dict[str, Any]:
    return {
        "n": params.n,
        "q": str(params.q),
        "m": params.m,
        "mu": params.mu,
        "mu_prime": params.mu_prime,
        "profile": params.profile,
    }


def params_from_obj(obj: dict[str, Any]) -> ParamSet:
    """The ParamSet of n, m, mu and mu_prime given as ints (not bools), q as
    a decimal string and profile as a str; ValueError otherwise."""
    dims = {name: obj[name] for name in ("n", "m", "mu", "mu_prime")}
    if any(type(v) is not int for v in dims.values()):
        raise ValueError(f"n, m, mu and mu_prime must be integers: {dims!r}")
    q, profile = obj["q"], obj["profile"]
    if not (isinstance(q, str) and q.isascii() and q.isdigit()):
        raise ValueError(f"q must be a decimal string, not {q!r}")
    if not isinstance(profile, str):
        raise ValueError(f"profile must be a string, not {profile!r}")
    return ParamSet(q=int(q), profile=profile, **dims)


def key_to_obj(pk: PublicKey) -> dict[str, Any]:
    return {
        "version": FORMAT_VERSION,
        "k": {
            "K": _mat_str(pk.K),
            "y0": int_strings(pk.y0),
            "params": params_to_obj(pk.params),
        },
    }


def _zq_matrix(rows, n_rows: int, n_cols: int, q: int) -> np.ndarray:
    """An n_rows x n_cols int64 matrix from rows of decimal strings in [0, q),
    all checked before the array is built; else ValueError."""
    if not (isinstance(rows, list) and all(isinstance(r, list) and len(r) == n_cols for r in rows)):
        raise ValueError(f"expected a list of rows of {n_cols} entries")
    flat = zq_entries([v for row in rows for v in row], n_rows * n_cols, q)
    return np.array(flat, dtype=np.int64).reshape(n_rows, n_cols)


def key_from_obj(obj: dict[str, Any]) -> PublicKey:
    """The public key of a key object whose K (m x n) and y0 (m) entries are
    all in [0, q); ValueError otherwise, checked before any array is built."""
    if type(obj.get("version")) is not int or obj["version"] != FORMAT_VERSION:
        raise ValueError("unsupported key format version")
    params = params_from_obj(obj["k"]["params"])
    y0 = zq_entries(obj["k"]["y0"], params.m, params.q)
    K = _zq_matrix(obj["k"]["K"], params.m, params.n, params.q)
    return PublicKey(K=K, y0=np.array(y0, dtype=np.int64), params=params)


def trapdoor_to_obj(td: Trapdoor) -> dict[str, Any]:
    gadget = None
    if td.gadget is not None:
        gadget = {
            "R": _mat_str(td.gadget.R),
            "err_lo": int_strings(td.gadget.err_lo),
            "err_hi": int_strings(td.gadget.err_hi),
        }
    return {
        "version": FORMAT_VERSION,
        "t": {
            "gadget": gadget,
            "z0": {"s": int_strings(td.z0.s), "e": int_strings(td.z0.e)},
            "d0": td.d0,
        },
    }


def _int_vec(values, length: int) -> np.ndarray:
    """A list of `length` signed decimal strings, as int64; else ValueError."""
    if not (isinstance(values, list) and len(values) == length) or not all(
        isinstance(v, str) and v.isascii() and v.removeprefix("-").isdigit() for v in values
    ):
        raise ValueError(f"expected a list of {length} signed decimal strings")
    return np.array([int(v) for v in values], dtype=np.int64)


def trapdoor_from_obj(obj: dict[str, Any], params: ParamSet) -> Trapdoor:
    """The trapdoor of a trapdoor object, shaped for a key with `params`:
    a gadget exactly when m > n*ell_q, with R an (m - n*ell_q) x n*ell_q 0/1
    matrix and n*ell_q entries in each of err_lo and err_hi, a plant with n
    entries of s in [0, q) and m entries of e, and d0 in {0, 1}; ValueError
    otherwise."""
    if type(obj.get("version")) is not int or obj["version"] != FORMAT_VERSION:
        raise ValueError("unsupported trapdoor format version")
    t = obj["t"]
    w = params.n * params.ell_q
    m_bar = params.m - w
    if (t["gadget"] is not None) != (m_bar >= 1):
        raise ValueError("a trapdoor has a gadget exactly when m > n*ell_q")
    gadget = None
    if t["gadget"] is not None:
        gd = t["gadget"]
        gadget = GadgetData(
            R=_zq_matrix(gd["R"], m_bar, w, 2),
            err_lo=_int_vec(gd["err_lo"], w),
            err_hi=_int_vec(gd["err_hi"], w),
        )
    z0 = DomainElement(
        s=tuple(zq_entries(t["z0"]["s"], params.n, params.q)),
        e=tuple(_int_vec(t["z0"]["e"], params.m).tolist()),
        d=bit(t["d0"], "d0"),
        c=None,
    )
    return Trapdoor(gadget=gadget, z0=z0)


def keypair_to_json(pk: PublicKey, td: Trapdoor) -> str:
    return json.dumps({"key": key_to_obj(pk), "trapdoor": trapdoor_to_obj(td)})


def keypair_from_json(text: str) -> tuple[PublicKey, Trapdoor]:
    obj = json.loads(text)
    pk = key_from_obj(obj["key"])
    return pk, trapdoor_from_obj(obj["trapdoor"], pk.params)
