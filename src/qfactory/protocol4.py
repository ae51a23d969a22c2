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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import lwe, seeds
from .params import ParamSet
from .seeds import derive_seed, run_seed
from .sim import (
    MAX_QUBITS,
    QubitDescription,
    StateVector,
    analytic_stage2,
    draw_row,
    record_parity,
    sample_b,
    top_qubit_rows,
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


@dataclass(frozen=True)
class KeyMessage:
    pk: lwe.PublicKey
    variant: str


@dataclass(frozen=True)
class Transcript4:
    y: tuple[int, ...]
    b: bytes | tuple[int, ...]  # as the exchange returned it
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
    variant: str


@dataclass(frozen=True)
class StrategyReply:
    y: tuple[int, ...]
    b: bytes | tuple[int, ...]
    held: QubitDescription | None


ServerStrategy = Callable[[KeyMessage, np.random.Generator], StrategyReply]


def check_variant(variant) -> str:
    """`variant` if it is PLAIN or ROTATED; ValueError otherwise."""
    if variant not in (PLAIN, ROTATED):
        raise ValueError(f"unknown variant {variant!r}")
    return variant


def meas_theta(variant: str) -> float:
    return 0.0 if check_variant(variant) == PLAIN else math.pi / 2


def client_init(params: ParamSet, variant: str, seed: int) -> tuple[ClientState4, KeyMessage]:
    check_variant(variant)
    pk, td = lwe.gen(params, derive_seed(seed, "gen"))
    client = ClientState4(pk=pk, trapdoor=td, variant=variant)
    return client, KeyMessage(pk=pk, variant=variant)


# ---------------------------------------------------------------------------
# honest server


def server_honest(key_msg: KeyMessage, backend: str, seed: int) -> StrategyReply:
    """Run the honest server on one of the two backends.

    The statevector backend runs the literal circuit when register, image
    and target together fit under the qubit cap, and otherwise samples y
    classically and prepares the post-measurement state directly (the image
    measurement commutes with everything that follows, so the two routes
    agree exactly).  The literal circuit keeps only the qubits alive at each
    gate: the H layer makes the register |+>^nbits; the image qubits join in
    |0> just before U_f and leave once measured; then the target joins for
    the hardcore copy, so the readout runs on register and target.  Its
    widest state is register plus image.  Both routes end alike, drawing
    the record as a row of the table that `honest_output_table` enumerates;
    they differ only in how they build the state the rows are read from.
    A key the backend cannot serve raises
    ValueError: two-branch, an image with more than two preimages or two of
    equal c; statevector, a register and target wider than `sim.MAX_QUBITS`.
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
    nbits = params.total_bits
    rng = seeds.rng(derive_seed(seed, "server"))
    packed_y, branches = _measured_image(pk, rng)
    if len(branches) > 2:
        raise ValueError(f"the image has {len(branches)} register preimages, not one or two")
    # one branch is the pair (xi, xi), whose records are all equally likely
    xi, xpi = branches[0], branches[-1]
    theta = meas_theta(key_msg.variant)
    b = sample_b(xi, xpi, nbits, theta, rng)
    if xi == xpi:
        held = QubitDescription.computational((xi >> (nbits - 2)) & 1)
    else:
        held = analytic_stage2(xi, xpi, nbits, b, theta)
    y = lwe.unpack_image(params, packed_y)
    return StrategyReply(y=y, b=lwe.unpack_bits(params, b), held=held)


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
    rng = seeds.rng(derive_seed(seed, "server"))
    nbits = params.total_bits
    ybits = params.m * params.ell_q
    if nbits + 1 > MAX_QUBITS:
        raise ValueError(f"register and target exceed the {MAX_QUBITS}-qubit statevector")
    theta = meas_theta(key_msg.variant)
    if nbits + ybits + 1 <= MAX_QUBITS:
        # the literal circuit, the reference the projection route is tested
        # against, run layer by layer on the qubits alive at each layer
        sv = StateVector(nbits).h(*range(nbits)).append_qubits(ybits)
        image = list(range(nbits, nbits + ybits))
        sv.apply_function_unitary(lwe.f_bit_table(pk), controls=list(range(nbits)), targets=image)
        # bits[i] is the outcome of image qubit i; the measured image is
        # classical, so it leaves and the target takes qubit nbits
        ybits_out, _ = sv.measure(image, rng, drop=True)
        packed_y = lwe.pack_bits(ybits_out)
        sv.append_qubits(1).apply_function_unitary([0, 1], controls=[nbits - 2], targets=[nbits])
    else:
        # projection route: draw y classically and build the state it leaves
        packed_y, branches = _measured_image(pk, rng)
        sv = _stage2_state(params, branches)
    # the XY readout of the register, drawn as a row of honest_output_table
    b, held = draw_row(top_qubit_rows(sv, theta), rng)
    return StrategyReply(y=lwe.unpack_image(params, packed_y), b=b, held=held)


# ---------------------------------------------------------------------------
# client finalization


def finalize(client: ClientState4, y, b) -> OutputIndex4:
    """Client-side output index of one run from the image y and the record b;
    ValueError for an unknown variant or a malformed y or b.

    No preimage: abort, with (B1, B2) = (0, 0).  One preimage: a
    computational qubit holding the hardcore bit.  Two preimages with equal
    hardcore bits: the computational state |h>, in both variants.

    Two preimages come from `lwe.invert` in sector order, z with c = 0 and
    z' with c = 1.  With opposite hardcore bits they give an equatorial
    state.  In the plain variant the basis bit is 1 and the value bit is
    <b, x xor x'>.  The rotated variant is frozen from the theta = pi/2
    oracle: the state is |+_{k pi/2}> where
    k = (2 h(z) - 1) * (wt(x') - wt(x)) + 2 <b, x xor x'>  (mod 4);
    B1' = k mod 2 selects the X or Y equatorial pair and B2' the sign.
    """
    params = client.pk.params
    y, b = lwe.check_image(params, y), lwe.check_bits(b, params.total_bits)
    return _finalize(client, y, b)


def _finalize(client: ClientState4, y, b) -> OutputIndex4:
    """`finalize` of a y and b that the image rule and the bit rule (or the
    `serde` readers, which follow them) have already returned: m ints in
    [0, q) and total_bits bytes of 0/1 values; ValueError for an unknown
    variant."""
    variant = check_variant(client.variant)
    params = client.pk.params
    preimages = lwe._invert(client.trapdoor, client.pk, y)  # y is checked
    if len(preimages) == 0:
        return OutputIndex4(0, 0, NO_PREIMAGE, COMPUTATIONAL)
    if len(preimages) == 1:
        return OutputIndex4(0, lwe.h(preimages[0]), SINGLE_PREIMAGE, COMPUTATIONAL)
    z, zp = preimages
    if lwe.h(z) == lwe.h(zp):
        return OutputIndex4(0, lwe.h(z), TWO_PREIMAGES, COMPUTATIONAL)
    # packed bit j is qubit j in both encode_int and pack_bits
    x, xp = lwe.encode_int(params, z), lwe.encode_int(params, zp)
    beta = record_parity(lwe.pack_bits(b), x ^ xp)
    if variant == ROTATED:
        delta = xp.bit_count() - x.bit_count()
        k = ((2 * lwe.h(z) - 1) * delta + 2 * beta) % 4
        b1 = k & 1
        b2 = ((k - b1) // 2) & 1
        family = PAULI_Y if b1 else PAULI_X
        return OutputIndex4(b1, b2, TWO_PREIMAGES, family)
    return OutputIndex4(1, beta, TWO_PREIMAGES, PAULI_X)


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
    a channel's wire decode, or an in-process strategy's reply as it gave
    it.  `finalize` applies the image and bit rules to either.
    """
    client, key_msg = client_init(
        params, variant, run_seed(master_seed, run_id, variant, "client")
    )
    reply = exchange(key_msg)
    out = finalize(client, reply.y, reply.b)
    transcript = Transcript4(y=reply.y, b=reply.b, variant=variant)
    return Protocol4Result(out=out, transcript=transcript, held=reply.held, client=client)


def run_protocol4(
    params: ParamSet,
    seed: int,
    strategy: ServerStrategy | None = None,
    backend: str = "two_branch",
    variant: str = PLAIN,
) -> Protocol4Result:
    """Run 0 of a local session with master seed `seed`.

    The honest server answers through the wire session, whose local channel
    hands over the simulated held qubit.  A custom `strategy` answers the
    typed key message instead, drawing from the server's seed of that run.
    """
    if strategy is not None:
        rng = seeds.rng(run_seed(seed, 0, variant))
        return run_client(params, seed, 0, variant, lambda key_msg: strategy(key_msg, rng))
    from . import wire  # wire builds on this module

    return wire.run4_over_channel(wire.local_session(seed, backend), params, seed, 0, variant)


# ---------------------------------------------------------------------------
# exhaustive oracle support


def honest_output_table(pk: lwe.PublicKey, branch_bits: list[int], theta: float) -> np.ndarray:
    """(2^N, 2) array: amplitude of the target qubit per measurement record.

    Row index is the packed record b (bit j = register qubit j); zero rows are
    records of probability zero.  Built by the statevector pipeline, so the
    client formulas can be checked against it exhaustively.
    """
    return top_qubit_rows(_stage2_state(pk.params, branch_bits), theta)
