"""Versioned JSON serialization for keys and trapdoors.

Format version 2 writes each array as base64 of its bytes, shaped by the key's
params: R as `np.packbits` of each row, every other array as little-endian
int64.  Readers take only that exact text, format 2's exact schema
(`check_shape`), Z_q entries in [0, q) and zero pad bits, and raise ValueError
on anything else, other versions and added fields included; nothing is reduced
mod q.  The image y stays decimal strings (`int_strings`).
"""

from __future__ import annotations

import binascii
import contextlib
import functools
import json
import struct
from typing import Any

import numpy as np

from .lwe import (
    DomainElement,
    GadgetData,
    PublicKey,
    Trapdoor,
    check_enumeration_scale,
    text_bits,
)
from .params import ParamSet

FORMAT_VERSION = 2
# one shared ParamSet per accepted field tuple, bounded; a ValueError is not cached
_param_set = functools.lru_cache(maxsize=32)(ParamSet)


def int_strings(values) -> list[str]:
    """Integers as decimal strings: the text form of an image y."""
    return [str(int(v)) for v in values]


def zq_entries(values, length: int, q: int) -> list[int]:
    """A list of `length` decimal strings in [0, q), each exactly as
    `int_strings` writes it (no sign, no leading zero), as ints; else
    ValueError."""
    if not isinstance(values, list) or len(values) != length:
        raise ValueError(f"expected a list of {length} Z_q entries")
    try:
        text = "".join(values)  # every entry is a str
    except TypeError as exc:
        raise ValueError("Z_q entries must be decimal strings") from exc
    ints = list(map(int, values))
    if not (text.isascii() and text.isdigit()) or max(ints) >= q or int_strings(ints) != values:
        raise ValueError("Z_q entries must be canonical decimal strings in [0, q)")
    return ints


def record_bits(text, length: int) -> bytes:
    """A measurement record of exactly `length` characters from {0, 1}, as
    bytes of 0/1 values (the form `lwe.check_bits` returns); ValueError
    otherwise."""
    if isinstance(text, str) and len(text) == length:
        raw = text.encode("ascii", "replace")  # a non-ASCII character becomes "?"
        if not raw.translate(None, b"01"):  # deletes 0 and 1, so empty exactly on a 0/1 string
            return text_bits(raw)
    raise ValueError(f"record must be exactly {length} characters from {{0, 1}}")


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


def _params(obj: dict[str, Any]) -> ParamSet:
    """The ParamSet of a params object already checked to be of exactly
    `PARAMS_SCHEMA`, whose q is a decimal string; ValueError otherwise."""
    q = obj["q"]
    if not (q.isascii() and q.isdigit()):
        raise ValueError(f"q must be a decimal string, not {q!r}")
    fields = {name: obj[name] for name in ("n", "m", "mu", "mu_prime", "profile")}
    return _param_set(q=int(q), **fields)


def _text(buf) -> str:
    return binascii.b2a_base64(buf, newline=False).decode("ascii")


def _int64_text(values) -> str:
    """The text of an int64 array, vector or tuple: base64 of its `<i8` bytes."""
    return _text(np.ascontiguousarray(values, dtype="<i8"))


def _raw(text, nbytes: int, name: str) -> bytes:
    """The `nbytes` bytes of their base64 str exactly as `_text` writes it, else
    ValueError: strict mode alone lets '=' follow a full group and pad bits vary."""
    if len(text) != 4 * -(-nbytes // 3):
        raise ValueError(f"{name} must be the base64 text of {nbytes} bytes")
    raw = binascii.a2b_base64(text, strict_mode=True)  # binascii.Error is a ValueError
    if len(raw) != nbytes or (nbytes % 3 and _text(raw[-(nbytes % 3) :]) != text[-4:]):
        raise ValueError(f"{name} must be the canonical base64 text of {nbytes} bytes")
    return raw


# format 2's schemas, in `check_shape`'s terms; the wire's key message carries
# KEY_SCHEMA itself
PARAMS_SCHEMA = {"n": int, "q": str, "m": int, "mu": int, "mu_prime": int, "profile": str}
KEY_SCHEMA = {"version": int, "k": {"K": str, "y0": str, "params": PARAMS_SCHEMA}}
_GADGET_SCHEMA = {"R": str, "err_lo": str, "err_hi": str}
_TRAPDOOR_SCHEMA = {
    "version": int,
    "t": {"gadget": (type(None), _GADGET_SCHEMA), "z0": {"s": str, "e": str}, "d0": int},
}


def check_shape(obj, schema, name: str) -> None:
    """ValueError, naming the path from `name`, unless `obj` has the shape of
    `schema`: a dict is an object with exactly its fields, each of its entry's
    shape; a type is a value of exactly that type (a bool is not an int); a
    one-type list is a list of such values; a tuple is any one of its shapes,
    the last one named in the error.  Value rules stay with the readers."""
    if isinstance(schema, type):
        if type(obj) is not schema:
            raise ValueError(f"{name} must be of type {schema.__name__}, not {type(obj).__name__}")
    elif isinstance(schema, dict):
        if not isinstance(obj, dict) or obj.keys() != schema.keys():
            got = sorted(obj, key=str) if isinstance(obj, dict) else type(obj).__name__
            raise ValueError(f"{name} must be an object of exactly {sorted(schema)}, not {got}")
        for field, shape in schema.items():
            if type(obj[field]) is not shape:  # else a leaf of exactly its type: passes
                check_shape(obj[field], shape, f"{name}.{field}")
    elif isinstance(schema, list):
        if not isinstance(obj, list) or any(type(v) is not schema[0] for v in obj):
            raise ValueError(f"{name} must be a list of {schema[0].__name__}")
    else:  # a tuple of shapes
        for shape in schema[:-1]:
            with contextlib.suppress(ValueError):
                return check_shape(obj, shape, name)
        check_shape(obj, schema[-1], name)


def _check_version(obj: dict[str, Any], what: str) -> None:
    # checked before the shape, so that an older format is named as such
    if obj.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported {what} format version {obj.get('version')!r}")


def key_to_obj(pk: PublicKey) -> dict[str, Any]:
    return {
        "version": FORMAT_VERSION,
        "k": {"K": _int64_text(pk.K), "y0": _int64_text(pk.y0), "params": params_to_obj(pk.params)},
    }


def key_from_obj(obj: dict[str, Any]) -> PublicKey:
    """The public key of a key object of exactly `KEY_SCHEMA` whose K
    (m x n) and y0 (m) entries are all in [0, q); ValueError otherwise,
    checked before the key is built."""
    _check_version(obj, "key")
    check_shape(obj, KEY_SCHEMA, "key")
    params = _params(obj["k"]["params"])
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
    """The trapdoor of a trapdoor object of exactly format 2's schema, shaped
    for a key with `params`:
    a gadget exactly when m > n*ell_q, with R an (m - n*ell_q) x n*ell_q 0/1
    matrix and n*ell_q entries in each of err_lo and err_hi, and otherwise
    params of enumeration scale (`lwe.check_enumeration_scale`); a plant with
    n entries of s in [0, q) and m entries of e, and d0 in {0, 1}; ValueError
    otherwise."""
    _check_version(obj, "trapdoor")
    check_shape(obj, _TRAPDOOR_SCHEMA, "trapdoor")
    t = obj["t"]
    w = params.n * params.ell_q
    m_bar = params.m - w
    if (t["gadget"] is not None) != (m_bar >= 1):
        raise ValueError("a trapdoor has a gadget exactly when m > n*ell_q")
    gadget = None
    if t["gadget"] is None:
        check_enumeration_scale(params)  # before replay scans Z_q^n
    else:
        gd, width = t["gadget"], -(-w // 8)
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

