"""Versioned JSON serialization for keys and trapdoors.

Z_q entries travel as decimal strings because the modulus can exceed 2^53 and
the files must survive JSON number parsing anywhere.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .lwe import DomainElement, GadgetData, PublicKey, Trapdoor
from .params import ParamSet

FORMAT_VERSION = 1


def _vec_str(values) -> list[str]:
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
    return ParamSet(
        n=int(obj["n"]),
        q=int(obj["q"]),
        m=int(obj["m"]),
        mu=int(obj["mu"]),
        mu_prime=int(obj["mu_prime"]),
        profile=obj["profile"],
    )


def key_to_obj(pk: PublicKey) -> dict[str, Any]:
    return {
        "version": FORMAT_VERSION,
        "k": {
            "K": _mat_str(pk.K),
            "y0": _vec_str(pk.y0),
            "params": params_to_obj(pk.params),
        },
    }


def key_from_obj(obj: dict[str, Any]) -> PublicKey:
    """The public key of a key object whose K (m x n) and y0 (m) entries are
    all in [0, q); ValueError otherwise, checked before any array is built."""
    if obj.get("version") != FORMAT_VERSION:
        raise ValueError("unsupported key format version")
    params = params_from_obj(obj["k"]["params"])
    rows = obj["k"]["K"]
    if not (isinstance(rows, list) and all(isinstance(r, list) and len(r) == params.n for r in rows)):
        raise ValueError(f"K must be a list of rows of {params.n} entries")
    K = zq_entries([v for row in rows for v in row], params.m * params.n, params.q)
    y0 = zq_entries(obj["k"]["y0"], params.m, params.q)
    return PublicKey(
        K=np.array(K, dtype=np.int64).reshape(params.m, params.n),
        y0=np.array(y0, dtype=np.int64),
        params=params,
    )


def trapdoor_to_obj(td: Trapdoor) -> dict[str, Any]:
    gadget = None
    if td.gadget is not None:
        gadget = {
            "R": _mat_str(td.gadget.R),
            "err_lo": _vec_str(td.gadget.err_lo),
            "err_hi": _vec_str(td.gadget.err_hi),
        }
    return {
        "version": FORMAT_VERSION,
        "t": {
            "gadget": gadget,
            "z0": {"s": _vec_str(td.z0.s), "e": _vec_str(td.z0.e)},
            "d0": td.d0,
        },
    }


def trapdoor_from_obj(obj: dict[str, Any]) -> Trapdoor:
    if obj.get("version") != FORMAT_VERSION:
        raise ValueError("unsupported trapdoor format version")
    t = obj["t"]
    gadget = None
    if t["gadget"] is not None:
        gd = t["gadget"]
        gadget = GadgetData(
            R=np.array([[int(v) for v in row] for row in gd["R"]], dtype=np.int64),
            err_lo=np.array([int(v) for v in gd["err_lo"]], dtype=np.int64),
            err_hi=np.array([int(v) for v in gd["err_hi"]], dtype=np.int64),
        )
    z0 = DomainElement(
        s=tuple(int(v) for v in t["z0"]["s"]),
        e=tuple(int(v) for v in t["z0"]["e"]),
        d=int(t["d0"]),
        c=None,
    )
    return Trapdoor(gadget=gadget, z0=z0)


def keypair_to_json(pk: PublicKey, td: Trapdoor) -> str:
    return json.dumps({"key": key_to_obj(pk), "trapdoor": trapdoor_to_obj(td)})


def keypair_from_json(text: str) -> tuple[PublicKey, Trapdoor]:
    obj = json.loads(text)
    return key_from_obj(obj["key"]), trapdoor_from_obj(obj["trapdoor"])
