"""Client and server state machines for the malicious 4-states protocol.

One run: the client generates a keypair and sends the public key; the server
(honestly) builds the preimage superposition, measures the image register to
get y, routes the hardcore bit to a fresh target qubit and measures everything
else in an XY-plane basis to get the record b; the client inverts y and
derives the held qubit's description from (preimages, b).

The rotated variant replaces the X-basis record measurements with the
pi/2-rotated basis.  Its output-state family is richer than the plain BB84
set: two-preimage runs with opposite hardcore bits give an equatorial state
whose quarter-turn index depends on the Hamming-weight difference of the two
encoded preimages; all other runs give a computational state.  The closed
forms below were frozen from the statevector oracle and are regression-tested
against it exhaustively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import lwe
from .params import ParamSet
from .seeds import derive_seed, run_seed
from .sim import (
    COMPUTATIONAL as MEAS_COMPUTATIONAL,
    MAX_QUBITS,
    QubitDescription,
    StateVector,
    analytic_stage2,
    record_parity,
    sample_b,
    xy_plane,
)

TWO_PREIMAGES = "two_preimages"
SINGLE_PREIMAGE = "single_preimage"
NO_PREIMAGE = "no_preimage"

# which 2-state family the honest held qubit lives in
COMPUTATIONAL = "computational"  # {|0>, |1>}
PAULI_X = "pauli_x"  # {|+>, |->}
PAULI_Y = "pauli_y"  # {|+_{pi/2}>, |-_{pi/2}>}

PLAIN = "plain"
ROTATED = "rotated"

HARDCORE_TAG = "last-domain-component"


@dataclass(frozen=True)
class KeyMessage:
    pk: lwe.PublicKey
    variant: str
    hardcore_tag: str = HARDCORE_TAG


@dataclass(frozen=True)
class Transcript4:
    y: tuple[int, ...]
    b: tuple[int, ...]
    variant: str


@dataclass(frozen=True)
class OutputIndex4:
    """Client-side description of the server's held qubit."""

    B1: int
    B2: int
    accepted: str
    family: str

    def qubit(self) -> QubitDescription:
        if self.family == COMPUTATIONAL:
            return QubitDescription.computational(self.B2)
        if self.family == PAULI_X:
            return QubitDescription.eight(4 * self.B2)  # Z^B2 |+>
        return QubitDescription.eight(2 + 4 * self.B2)  # R(pi/2) Z^B2 |+>


@dataclass(frozen=True)
class ClientState4:
    pk: lwe.PublicKey
    trapdoor: lwe.Trapdoor
    params: ParamSet
    variant: str
    seed: int


@dataclass(frozen=True)
class StrategyReply:
    y: tuple[int, ...]
    b: tuple[int, ...]
    held: QubitDescription | None


ServerStrategy = Callable[[KeyMessage, np.random.Generator], StrategyReply]


def meas_theta(variant: str) -> float:
    return 0.0 if variant == PLAIN else math.pi / 2


def client_init(params: ParamSet, variant: str, seed: int) -> tuple[ClientState4, KeyMessage]:
    if variant not in (PLAIN, ROTATED):
        raise ValueError(f"unknown variant {variant!r}")
    pk, td = lwe.gen(params, derive_seed(seed, "gen"))
    client = ClientState4(pk=pk, trapdoor=td, params=params, variant=variant, seed=seed)
    return client, KeyMessage(pk=pk, variant=variant)


# ---------------------------------------------------------------------------
# honest server


def _unpack_y(params: ParamSet, packed: int) -> tuple[int, ...]:
    return tuple(int(v) for v in lwe.unpack_image(params, packed))


def server_honest(key_msg: KeyMessage, backend: str, seed: int) -> StrategyReply:
    """Run the honest server on one of the two backends.

    The statevector backend materializes the image register when the whole
    circuit fits under the qubit cap, and otherwise samples y classically and
    prepares the post-measurement state directly (the image measurement
    commutes with everything that follows, so the two routes agree exactly).
    """
    if backend == "two_branch":
        return _server_two_branch(key_msg, seed)
    if backend == "statevector":
        return _server_statevector(key_msg, seed)
    raise ValueError(f"unknown backend {backend!r}")


def _measured_image(pk: lwe.PublicKey, rng: np.random.Generator) -> tuple[int, list[int]]:
    """The image measurement, drawn classically: packed y and the register
    patterns the register collapses onto (its preimages, ascending)."""
    x = lwe.sample_domain_element(pk.params, rng)
    packed_y = lwe.pack_image(pk.params, lwe.f(pk, x))
    return packed_y, lwe.register_preimages(pk, packed_y)


def _server_two_branch(key_msg: KeyMessage, seed: int) -> StrategyReply:
    pk = key_msg.pk
    params = pk.params
    rng = np.random.default_rng(derive_seed(seed, "server"))
    packed_y, branches = _measured_image(pk, rng)
    theta = meas_theta(key_msg.variant)
    if len(branches) == 2:
        xb, xpb = (lwe.unpack_bits(params, v) for v in branches)
        if xb[-1] == 1:
            xb, xpb = xpb, xb
        b = sample_b(xb, xpb, theta, rng)
        held = analytic_stage2(xb, xpb, b, theta)
    else:
        xb = lwe.unpack_bits(params, branches[0])
        b = tuple(int(v) for v in rng.integers(0, 2, size=params.total_bits))
        held = QubitDescription.computational(xb[-2])
    return StrategyReply(y=_unpack_y(params, packed_y), b=b, held=held)


def _stage2_state(params: ParamSet, branch_bits: list[int]) -> StateVector:
    """The post-image-measurement state on (register, target) qubits."""
    nbits = params.total_bits
    sv = StateVector(nbits + 1)
    amps = np.zeros(1 << (nbits + 1), dtype=complex)
    scale = 1 / math.sqrt(len(branch_bits))
    for xb in branch_bits:
        hbit = (xb >> (nbits - 2)) & 1
        amps[xb | (hbit << nbits)] = scale
    sv.amps = amps
    return sv


def _server_statevector(key_msg: KeyMessage, seed: int) -> StrategyReply:
    pk = key_msg.pk
    params = pk.params
    rng = np.random.default_rng(derive_seed(seed, "server"))
    nbits = params.total_bits
    ybits = params.m * params.ell_q
    if nbits + ybits + 1 <= MAX_QUBITS:
        sv = StateVector(nbits + ybits + 1)
        for qb in range(nbits):
            sv.h(qb)
        sv.apply_function_unitary(
            lwe.f_bit_table(pk),
            controls=list(range(nbits)),
            targets=list(range(nbits, nbits + ybits)),
        )
        # bits[i] is the outcome of the i-th listed qubit
        ybits_out, _ = sv.measure(list(range(nbits, nbits + ybits)), MEAS_COMPUTATIONAL, rng)
        packed_y = sum(bit << j for j, bit in enumerate(ybits_out))
        sv.apply_function_unitary([0, 1], controls=[nbits - 2], targets=[nbits + ybits])
        b, _ = sv.measure(list(range(nbits)), xy_plane(meas_theta(key_msg.variant)), rng)
        held = QubitDescription(sv.qubit_state(nbits + ybits))
        return StrategyReply(y=_unpack_y(params, packed_y), b=tuple(b), held=held)

    # projection route: draw y classically, prepare the collapsed state
    packed_y, branches = _measured_image(pk, rng)
    sv = _stage2_state(params, branches)
    b, _ = sv.measure(list(range(nbits)), xy_plane(meas_theta(key_msg.variant)), rng)
    held = QubitDescription(sv.qubit_state(nbits))
    return StrategyReply(y=_unpack_y(params, packed_y), b=b, held=held)


def fixed_reply_strategy(y, b) -> ServerStrategy:
    """An adversary that ignores the key and parrots a fixed message."""

    def strategy(key_msg: KeyMessage, rng: np.random.Generator) -> StrategyReply:
        return StrategyReply(y=tuple(y), b=tuple(b), held=None)

    return strategy


# ---------------------------------------------------------------------------
# client finalization


def _sorted_pair(preimages):
    by_c = {el.c: el for el in preimages}
    return by_c[0], by_c[1]


def finalize(client: ClientState4, y, b, always_output: bool = False) -> OutputIndex4:
    """Client-side output index of one run from the image y and the record b.

    None: abort, or a fresh uniform pair in always-output mode.  One
    preimage: a computational qubit holding the hardcore bit.  Two preimages
    with equal hardcore bits: the computational state |h>, in both variants.

    Two preimages with opposite hardcore bits give an equatorial state.  In
    the plain variant the basis bit is 1 and the value bit is <b, x xor x'>.
    The rotated variant is frozen from the theta = pi/2 oracle: the state is
    |+_{k pi/2}> where
    k = (2 h(z) - 1) * (wt(x') - wt(x)) + 2 <b, x xor x'>  (mod 4);
    B1' = k mod 2 selects the X or Y equatorial pair and B2' the sign.
    """
    params = client.params
    y = _check_y(params, y)
    b = _check_b(params, b)
    preimages = lwe.invert(client.trapdoor, client.pk, y)
    if len(preimages) == 0:
        return _no_preimage_output(client, y, b, always_output)
    if len(preimages) == 1:
        return OutputIndex4(0, lwe.h(preimages[0]), SINGLE_PREIMAGE, COMPUTATIONAL)
    z, zp = _sorted_pair(preimages)
    if lwe.h(z) == lwe.h(zp):
        return OutputIndex4(0, lwe.h(z), TWO_PREIMAGES, COMPUTATIONAL)
    xb = lwe.encode(params, z)
    xpb = lwe.encode(params, zp)
    beta = record_parity(b, tuple(a ^ c for a, c in zip(xb, xpb)))
    if client.variant == ROTATED:
        delta = sum(xpb) - sum(xb)
        k = ((2 * lwe.h(z) - 1) * delta + 2 * beta) % 4
        b1 = k & 1
        b2 = ((k - b1) // 2) & 1
        family = PAULI_Y if b1 else PAULI_X
        return OutputIndex4(b1, b2, TWO_PREIMAGES, family)
    return OutputIndex4(1, beta, TWO_PREIMAGES, PAULI_X)


def _check_y(params: ParamSet, y) -> tuple[int, ...]:
    y = tuple(y)
    if len(y) != params.m:
        raise ValueError("image has the wrong length")
    for v in y:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or not 0 <= v < params.q:
            raise ValueError(f"image entry {v!r} is not an integer in [0, q)")
    return tuple(int(v) for v in y)


def _check_b(params: ParamSet, b) -> tuple[int, ...]:
    b = tuple(b)
    if len(b) != params.total_bits:
        raise ValueError("measurement record has the wrong length")
    if any(v not in (0, 1) for v in b):
        raise ValueError("measurement record entries must be 0 or 1")
    return tuple(int(v) for v in b)


def _no_preimage_output(client: ClientState4, y, b, always_output: bool) -> OutputIndex4:
    if not always_output:
        return OutputIndex4(0, 0, NO_PREIMAGE, COMPUTATIONAL)
    ybytes = ",".join(str(int(v)) for v in y)
    bbytes = "".join(str(v) for v in b)
    rng = np.random.default_rng(derive_seed(client.seed, "always-output", ybytes, bbytes))
    b1, b2 = int(rng.integers(0, 2)), int(rng.integers(0, 2))
    family = PAULI_X if b1 else COMPUTATIONAL
    return OutputIndex4(b1, b2, NO_PREIMAGE, family)


# ---------------------------------------------------------------------------
# orchestration


@dataclass(frozen=True)
class Protocol4Result:
    out: OutputIndex4
    transcript: Transcript4
    held: QubitDescription | None
    client: ClientState4


def run_client(
    params: ParamSet,
    master_seed: int,
    run_id: int,
    variant: str,
    exchange: Callable[[KeyMessage], StrategyReply],
) -> Protocol4Result:
    """The client engine of one run: client_init, then exchange, then finalize.

    `exchange` delivers the key message to the server and returns its reply:
    over a wire channel, or to a strategy answering in-process.
    """
    client, key_msg = client_init(
        params, variant, run_seed(master_seed, run_id, variant, "client")
    )
    reply = exchange(key_msg)
    out = finalize(client, reply.y, reply.b)
    transcript = Transcript4(
        y=tuple(int(v) for v in reply.y), b=tuple(int(v) for v in reply.b), variant=variant
    )
    return Protocol4Result(out=out, transcript=transcript, held=reply.held, client=client)


def run_protocol4(
    params: ParamSet,
    seed: int,
    strategy: ServerStrategy | None = None,
    backend: str = "two_branch",
    variant: str = PLAIN,
) -> Protocol4Result:
    """Run 0 of a local session with master seed `seed`.

    The honest server answers through the wire session, and its simulated
    held qubit is read back from it.  A custom `strategy` answers the typed
    key message instead, drawing from the server's seed of that run.
    """
    if strategy is not None:
        rng = np.random.default_rng(run_seed(seed, 0, variant))
        return run_client(params, seed, 0, variant, lambda key_msg: strategy(key_msg, rng))
    from . import wire  # wire builds on this module

    chan = wire.local_session(seed, backend)
    res = wire.run4_over_channel(chan, params, seed, 0, variant)
    return replace(res, held=chan.session.held[(0, variant)])


# ---------------------------------------------------------------------------
# exhaustive oracle support


def honest_output_table(pk: lwe.PublicKey, branch_bits: list[int], theta: float) -> np.ndarray:
    """(2^N, 2) array: amplitude of the target qubit per measurement record.

    Row index is the packed record b (bit j = register qubit j); zero rows are
    records of probability zero.  Built by the statevector pipeline, so the
    client formulas can be checked against it exhaustively.
    """
    params = pk.params
    nbits = params.total_bits
    sv = _stage2_state(params, branch_bits)
    for qb in range(nbits):
        sv.r(-theta, qb)
        sv.h(qb)
    flat = sv.amps
    return np.stack([flat[: 1 << nbits], flat[1 << nbits :]], axis=1)
