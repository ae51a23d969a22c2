"""Versioned JSON serialization for keys and trapdoors.

Format version 2 writes each array as base64 of its bytes, shaped by the key's
params: R as `np.packbits` of each row, every other array as little-endian
int64.  Readers take only that exact text, format 2's exact field names at
every object level, Z_q entries in [0, q) and zero pad bits, and raise
ValueError on anything else, other versions and added fields included; nothing
is reduced mod q.  The image y stays decimal strings (`int_strings`).
"""

from __future__ import annotations

import binascii
import functools
import json
import struct
from typing import Any

import numpy as np

from .lwe import DomainElement, GadgetData, PublicKey, Trapdoor, bits_text, text_bits
from .params import ParamSet

FORMAT_VERSION = 2
# one shared ParamSet per accepted field tuple, bounded; a ValueError is not cached
_param_set = functools.lru_cache(maxsize=32)(ParamSet)


def int_strings(values) -> list[str]:
    """Integers as decimal strings: the text form of an image y."""
    return [str(int(v)) for v in values]


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
    return _param_set(q=int(q), profile=profile, **dims)


def _text(buf) -> str:
    return binascii.b2a_base64(buf, newline=False).decode("ascii")


def _int64_text(values) -> str:
    """The text of an int64 array, vector or tuple: base64 of its `<i8` bytes."""
    return _text(np.ascontiguousarray(values, dtype="<i8"))


def _raw(text, nbytes: int, name: str) -> bytes:
    """The `nbytes` bytes of their base64 text exactly as `_text` writes it, else
    ValueError: strict mode alone lets '=' follow a full group and pad bits vary."""
    if not isinstance(text, str) or len(text) != 4 * -(-nbytes // 3):
        raise ValueError(f"{name} must be the base64 text of {nbytes} bytes")
    raw = binascii.a2b_base64(text, strict_mode=True)  # binascii.Error is a ValueError
    if len(raw) != nbytes or (nbytes % 3 and _text(raw[-(nbytes % 3) :]) != text[-4:]):
        raise ValueError(f"{name} must be the canonical base64 text of {nbytes} bytes")
    return raw


# format 2's field names at each object level: a dict is a nested object, None
# a leaf, and ... the trapdoor's gadget, an object or null that its reader checks
_KEY_FIELDS = {
    "version": None,
    "k": {
        "K": None,
        "y0": None,
        "params": dict.fromkeys(("n", "q", "m", "mu", "mu_prime", "profile")),
    },
}
_TRAPDOOR_FIELDS = {
    "version": None,
    "t": {"gadget": ..., "z0": dict.fromkeys(("s", "e")), "d0": None},
}
_GADGET_FIELDS = dict.fromkeys(("R", "err_lo", "err_hi"))


def _check_fields(obj, fields: dict) -> None:
    """ValueError unless obj is an object with exactly the field names of
    `fields` at every nested object; each leaf's type is its reader's check."""
    if not isinstance(obj, dict) or obj.keys() != fields.keys():
        raise ValueError(f"expected an object with exactly the fields {sorted(fields)}")
    for name, sub in fields.items():
        if isinstance(sub, dict):
            _check_fields(obj[name], sub)


def _check_version(obj: dict[str, Any], what: str) -> None:
    if type(obj.get("version")) is not int or obj["version"] != FORMAT_VERSION:
        raise ValueError(f"unsupported {what} format version {obj.get('version')!r}")


def key_to_obj(pk: PublicKey) -> dict[str, Any]:
    return {
        "version": FORMAT_VERSION,
        "k": {"K": _int64_text(pk.K), "y0": _int64_text(pk.y0), "params": params_to_obj(pk.params)},
    }


def key_from_obj(obj: dict[str, Any]) -> PublicKey:
    """The public key of a key object with exactly `_KEY_FIELDS` whose K
    (m x n) and y0 (m) entries are all in [0, q); ValueError otherwise,
    checked before the key is built."""
    _check_version(obj, "key")
    _check_fields(obj, _KEY_FIELDS)
    params = params_from_obj(obj["k"]["params"])
    m, n = params.m, params.n
    # one reduction over K and y0, in unsigned form so that a negative entry is >= 2^63
    raw = _raw(obj["k"]["K"], 8 * m * n, "K") + _raw(obj["k"]["y0"], 8 * m, "y0")
    if np.frombuffer(raw, "<u8").max() >= params.q:
        raise ValueError("K and y0 entries must be in [0, q)")
    flat = np.frombuffer(raw, "<i8")
    return PublicKey(K=flat[: m * n].reshape(m, n), y0=flat[m * n :], params=params)


def trapdoor_to_obj(td: Trapdoor) -> dict[str, Any]:
    gd = td.gadget
    gadget = None if gd is None else {
        "R": _text(np.packbits(gd.R, axis=1)),
        "err_lo": _int64_text(gd.err_lo),
        "err_hi": _int64_text(gd.err_hi),
    }
    z0 = {"s": _int64_text(td.z0.s), "e": _int64_text(td.z0.e)}
    return {"version": FORMAT_VERSION, "t": {"gadget": gadget, "z0": z0, "d0": td.d0}}


def trapdoor_from_obj(obj: dict[str, Any], params: ParamSet) -> Trapdoor:
    """The trapdoor of a trapdoor object with exactly format 2's fields, shaped
    for a key with `params`:
    a gadget exactly when m > n*ell_q, with R an (m - n*ell_q) x n*ell_q 0/1
    matrix and n*ell_q entries in each of err_lo and err_hi, a plant with n
    entries of s in [0, q) and m entries of e, and d0 in {0, 1}; ValueError
    otherwise."""
    _check_version(obj, "trapdoor")
    _check_fields(obj, _TRAPDOOR_FIELDS)
    t = obj["t"]
    w = params.n * params.ell_q
    m_bar = params.m - w
    if (t["gadget"] is not None) != (m_bar >= 1):
        raise ValueError("a trapdoor has a gadget exactly when m > n*ell_q")
    gadget = None
    if t["gadget"] is not None:
        gd, width = t["gadget"], -(-w // 8)
        _check_fields(gd, _GADGET_FIELDS)
        raw = _raw(gd["R"], m_bar * width, "R")
        pad = (1 << (-w % 8)) - 1  # the pad bits at the end of each row of R
        if pad and any(last & pad for last in raw[width - 1 :: width]):
            raise ValueError("R pad bits must be zero")
        R = np.unpackbits(np.frombuffer(raw, np.uint8).reshape(m_bar, width), axis=1, count=w)
        err = [np.frombuffer(_raw(gd[k], 8 * w, k), "<i8") for k in ("err_lo", "err_hi")]
        gadget = GadgetData(R=R.astype(np.int64), err_lo=err[0], err_hi=err[1])
    # struct, not numpy: numpy's cost per call would dominate at toy size
    s = struct.unpack(f"<{params.n}Q", _raw(t["z0"]["s"], 8 * params.n, "s"))
    if max(s) >= params.q:  # unsigned, as for K
        raise ValueError("s entries must be in [0, q)")
    e = struct.unpack(f"<{params.m}q", _raw(t["z0"]["e"], 8 * params.m, "e"))
    return Trapdoor(gadget=gadget, z0=DomainElement(s=s, e=e, d=bit(t["d0"], "d0"), c=None))


def keypair_to_json(pk: PublicKey, td: Trapdoor) -> str:
    return json.dumps({"key": key_to_obj(pk), "trapdoor": trapdoor_to_obj(td)})


def keypair_from_json(text: str) -> tuple[PublicKey, Trapdoor]:
    obj = json.loads(text)
    pk = key_from_obj(obj["key"])
    return pk, trapdoor_from_obj(obj["trapdoor"], pk.params)
