"""Protocol tests for the 4-states run: formulas against the statevector oracle."""

import sys

import numpy as np
import pytest

from qfactory import lwe, protocol4 as p4, protocol8 as p8, wire
from qfactory.params import TOY_GADGET, TOY_MICRO, TOY_REG, TOY_WIDE, params_by_name, toy_params
from qfactory.seeds import derive_seed
from qfactory.sim import (
    QubitDescription,
    StateVector,
    analytic_stage2,
    fidelity,
    sample_b,
)


def _pair(params, preimages):
    by_c = {el.c: el for el in preimages}
    return by_c[0], by_c[1]


def _grid_keys(params, seed):
    pk, td = lwe.gen(params, seed=seed)
    return pk, td


# ---------------------------------------------------------------------------
# init


def test_client_init_deterministic():
    a = p4.client_init(TOY_MICRO, p4.PLAIN, seed=1)
    b = p4.client_init(TOY_MICRO, p4.PLAIN, seed=1)
    assert np.array_equal(a[1].pk.y0, b[1].pk.y0)
    assert np.array_equal(a[1].pk.K, b[1].pk.K)


def test_client_init_seeds_differ():
    y0s = {
        tuple(int(v) for v in p4.client_init(TOY_MICRO, p4.PLAIN, seed=s)[1].pk.y0)
        for s in range(6)
    }
    assert len(y0s) > 1


def test_client_init_rejects_unknown_variant():
    with pytest.raises(ValueError):
        p4.client_init(TOY_MICRO, "diagonal", seed=0)


# ---------------------------------------------------------------------------
# finalize formula spot checks


def _find_y(pk, td, want_d0):
    """Some image with two preimages, for a key whose plant has the wanted d0."""
    table = lwe.exhaustive_image_map(pk)
    for y, pre in table.items():
        if len(pre) == 2:
            return y
    raise AssertionError("no two-preimage image found")


def _key_with_d0(params, want, start=0):
    for seed in range(start, start + 200):
        client, _ = p4.client_init(params, p4.PLAIN, seed=seed)
        if client.trapdoor.d0 == want:
            return client
    raise AssertionError("no key with wanted d0")


def test_finalize_opposite_hardcore_allzero_record():
    client = _key_with_d0(TOY_MICRO, 1)
    y = _find_y(client.pk, client.trapdoor, 1)
    out = p4.finalize(client, y, (0,) * TOY_MICRO.total_bits)
    assert (out.B1, out.B2) == (1, 0)
    assert out.accepted == p4.TWO_PREIMAGES


def test_finalize_equal_hardcore_reads_value():
    client = _key_with_d0(TOY_MICRO, 0)
    table = lwe.exhaustive_image_map(client.pk)
    for y, pre in table.items():
        if len(pre) == 2 and lwe.h(pre[0]) == 1:
            out = p4.finalize(client, y, (1, 0) * 3 + (1,))
            assert (out.B1, out.B2) == (0, 1)
            return
    raise AssertionError("no suitable image found")


def test_finalize_rejects_bad_record_length():
    client, _ = p4.client_init(TOY_MICRO, p4.PLAIN, seed=2)
    with pytest.raises(ValueError):
        p4.finalize(client, client.pk.y0, (0, 1))


def test_finalize_rejects_non_binary_record():
    client, _ = p4.client_init(TOY_MICRO, p4.PLAIN, seed=2)
    with pytest.raises(ValueError):
        p4.finalize(client, client.pk.y0, (0,) * (TOY_MICRO.total_bits - 1) + (2,))


# one record in each form finalize reads by value: bit j is qubit j's outcome
_RECORD = (1, 0, 1, 1, 0, 0, 1)


@pytest.mark.parametrize(
    "form",
    [tuple, list, lambda b: np.array(b, dtype=np.int64), lambda b: tuple(map(bool, b))],
    ids=["tuple", "list", "int64-array", "bools"],
)
def test_finalize_reads_record_entries_by_value(form):
    client = _key_with_d0(TOY_MICRO, 1)
    y = _find_y(client.pk, client.trapdoor, 1)
    out = p4.finalize(client, y, form(_RECORD))
    assert out == p4.finalize(client, y, _RECORD)
    assert out.family == p4.PAULI_X  # the record's parity decides B2


_N = TOY_MICRO.total_bits
# an entry of 2 and a short record are tested above
_BAD_RECORDS = {
    "minus-one": (0,) * (_N - 1) + (-1,),
    "half": (0.5,) + (0,) * (_N - 1),
    "float-one": (0,) * 3 + (1.0,) + (0,) * (_N - 4),
    "str-one": (0,) * (_N - 1) + ("1",),
    "none": (None,) + (0,) * (_N - 1),
    "str": "0" * _N,
    "long": (0,) * (_N + 1),
}


@pytest.mark.parametrize("b", _BAD_RECORDS.values(), ids=_BAD_RECORDS.keys())
def test_finalize_rejects_a_record_not_of_0_1_ints(b):
    client, _ = p4.client_init(TOY_MICRO, p4.PLAIN, seed=2)
    with pytest.raises(ValueError):
        p4.finalize(client, client.pk.y0, b)


def test_finalize_reads_an_int64_array_by_value_not_as_memory():
    params = toy_params(n=1, q=8, m=3, mu=1)
    client, _ = p4.client_init(params, p4.PLAIN, seed=0)
    # one entry whose eight raw bytes are each 0 or 1: read as memory it
    # would pass for a record of total_bits = 8 bits
    b = np.array([0x0101010100010000], dtype=np.int64)
    assert len(b.tobytes()) == params.total_bits
    with pytest.raises(ValueError):
        p4.finalize(client, client.pk.y0, b)


def _fixed_reply(y, b):
    """An adversary that ignores the key and parrots a fixed message."""
    return lambda key_msg, rng: p4.StrategyReply(y=tuple(y), b=tuple(b), held=None)


def test_strategy_image_outside_range_is_rejected():
    honest = p4.run_protocol4(TOY_MICRO, 3)
    y, b = honest.transcript.y, honest.transcript.b
    p4.run_protocol4(TOY_MICRO, 3, strategy=_fixed_reply(y, b))
    for bad_y in ((y[0] + TOY_MICRO.q,) + y[1:], (-1,) + y[1:], y[:-1], y + (0,)):
        with pytest.raises(ValueError):
            p4.run_protocol4(TOY_MICRO, 3, strategy=_fixed_reply(bad_y, b))


def _client_checks(monkeypatch) -> list:
    """The (rule, calling function) of every image and bit rule call made from
    the client engine's modules, protocol4 and wire, from now on; calls from
    the simulator and lwe's own helpers are not the client's."""
    calls = []

    def counted(name):
        rule = getattr(lwe, name)

        def call(*args):
            caller = sys._getframe(1)
            if caller.f_globals["__name__"] in ("qfactory.protocol4", "qfactory.wire"):
                calls.append((name, caller.f_code.co_name))
            return rule(*args)

        return call

    for name in ("check_image", "check_bits"):
        monkeypatch.setattr(lwe, name, counted(name))
    return calls


def test_a_run_checks_y_and_b_at_its_reply_edge_and_in_finalize_only(monkeypatch):
    calls = _client_checks(monkeypatch)
    wire.run4_over_channel(wire.local_session(3), TOY_MICRO, 3, 0)
    # the wire edge reads y and b with the serde readers
    assert calls == [("check_image", "finalize"), ("check_bits", "finalize")]
    honest = p4.run_protocol4(TOY_MICRO, 3).transcript
    calls.clear()
    p4.run_protocol4(TOY_MICRO, 3, strategy=_fixed_reply(honest.y, honest.b))
    # a strategy's reply goes to finalize as it is, and finalize applies the rules
    assert calls == [("check_image", "finalize"), ("check_bits", "finalize")]


# ---------------------------------------------------------------------------
# exhaustive oracle cross-checks


@pytest.mark.parametrize("variant", [p4.PLAIN, p4.ROTATED])
def test_description_matches_statevector_exhaustively(variant):
    """Every (y, b) with nonzero probability: described qubit == held qubit."""
    params = TOY_MICRO
    client, _ = p4.client_init(params, variant, seed=3)
    pk = client.pk
    theta = p4.meas_theta(variant)
    nbits = params.total_bits
    table = lwe.f_bit_table(pk)
    checked = 0
    for packed_y in sorted(set(int(v) for v in table)):
        branches = [int(v) for v in np.flatnonzero(table == packed_y)]
        cols = p4.honest_output_table(pk, branches, theta)
        y = tuple(int(v) for v in lwe.unpack_image(params, packed_y))
        for bidx in range(1 << nbits):
            col = cols[bidx]
            if np.linalg.norm(col) < 1e-12:
                continue
            b = tuple((bidx >> j) & 1 for j in range(nbits))
            out = p4.finalize(client, y, b)
            assert fidelity(out.qubit(), col) >= 1 - 1e-9
            checked += 1
    assert checked > 1000


def test_two_branch_and_statevector_agree_with_finalize():
    params = TOY_MICRO
    for backend in ("two_branch", "statevector"):
        for seed in range(25):
            res = p4.run_protocol4(params, seed=seed, backend=backend)
            if res.out.accepted == p4.NO_PREIMAGE:
                continue
            assert res.held is not None
            assert fidelity(res.out.qubit(), res.held) >= 1 - 1e-9


def test_statevector_and_two_branch_y_marginals_match_exact():
    """Both backends must track the exact image distribution |f^-1(y)|/2^N."""
    params = TOY_MICRO
    client, key_msg = p4.client_init(params, p4.PLAIN, seed=4)
    table = lwe.f_bit_table(client.pk)
    nbits = params.total_bits
    exact = {}
    for packed in (int(v) for v in table):
        exact[packed] = exact.get(packed, 0) + 1
    exact = {k: v / (1 << nbits) for k, v in exact.items()}
    runs = 1200
    for label, backend in (("f", "statevector"), ("p", "two_branch")):
        counts = {}
        for t in range(runs):
            r = p4.server_honest(key_msg, backend, seed=derive_seed(1, label, t))
            packed = lwe.pack_image(params, r.y)
            counts[packed] = counts.get(packed, 0) + 1
        assert set(counts) <= set(exact)
        tv = 0.5 * sum(abs(counts.get(k, 0) / runs - pv) for k, pv in exact.items())
        assert tv < 0.15


# ---------------------------------------------------------------------------
# protocol-level invariants


def test_basis_fixed_by_client_exhaustively():
    """For a fixed key, B1 over every 2-preimage image equals d0."""
    for seed in range(6):
        client, _ = p4.client_init(TOY_MICRO, p4.PLAIN, seed=seed)
        table = lwe.exhaustive_image_map(client.pk)
        b0 = (0,) * TOY_MICRO.total_bits
        for y, pre in table.items():
            if len(pre) != 2:
                continue
            out = p4.finalize(client, y, b0)
            assert out.B1 == client.trapdoor.d0


def test_adversary_cannot_move_basis():
    """A fixed (y, b) reply still yields B1 = d0 whenever y has two preimages."""
    params = TOY_MICRO
    rng = np.random.default_rng(9)
    y = tuple(int(v) for v in rng.integers(0, params.q, size=params.m))
    b = tuple(int(v) for v in rng.integers(0, 2, size=params.total_bits))
    strategy = _fixed_reply(y, b)
    for seed in range(40):
        res = p4.run_protocol4(params, seed=seed, strategy=strategy)
        if res.out.accepted == p4.TWO_PREIMAGES:
            assert res.out.B1 == res.client.trapdoor.d0


def test_single_preimage_gives_computational_qubit():
    """Aborted honest runs hold a qubit in the computational basis."""
    params = TOY_REG
    seen = 0
    for seed in range(60):
        res = p4.run_protocol4(params, seed=seed, backend="two_branch")
        if res.out.accepted != p4.SINGLE_PREIMAGE:
            continue
        seen += 1
        assert res.out.B1 == 0
        assert res.out.family == p4.COMPUTATIONAL
        assert fidelity(res.held, QubitDescription.computational(res.out.B2)) >= 1 - 1e-9
    assert seen > 0


def test_honest_accept_rate_tracks_regularity():
    params = TOY_REG
    runs = 300
    accepted = sum(
        p4.run_protocol4(params, seed=s, backend="two_branch").out.accepted
        == p4.TWO_PREIMAGES
        for s in range(runs)
    )
    delta = lwe.analytic_homomorphy(params)
    sigma = np.sqrt(delta * (1 - delta) / runs)
    assert abs(accepted / runs - delta) <= 4 * sigma


def test_replay_bitwise_deterministic():
    a = p4.run_protocol4(TOY_MICRO, seed=123, backend="statevector")
    b = p4.run_protocol4(TOY_MICRO, seed=123, backend="statevector")
    assert a.transcript == b.transcript
    assert a.out == b.out


def test_no_preimage_output():
    params = TOY_REG
    client, _ = p4.client_init(params, p4.PLAIN, seed=5)
    # y far outside the image: no preimages
    table = lwe.f_bit_table(client.pk)
    images = set(int(v) for v in table)
    packed = next(v for v in range(1 << (params.m * params.ell_q)) if v not in images)
    y = tuple(int(v) for v in lwe.unpack_image(params, packed))
    b = (0,) * params.total_bits
    plain = p4.finalize(client, y, b)
    assert plain.accepted == p4.NO_PREIMAGE and (plain.B1, plain.B2) == (0, 0)


def test_rotated_families_cover_expected_set():
    """Honest rotated runs land in {computational, pauli_x, pauli_y}."""
    params = TOY_MICRO
    fams = set()
    for seed in range(40):
        res = p4.run_protocol4(params, seed=seed, backend="two_branch", variant=p4.ROTATED)
        fams.add(res.out.family)
        if res.held is not None:
            assert fidelity(res.out.qubit(), res.held) >= 1 - 1e-9
    assert p4.PAULI_Y in fams
    assert fams <= {p4.COMPUTATIONAL, p4.PAULI_X, p4.PAULI_Y}


def test_plain_description_is_bb84_state():
    """The plain-variant description always reads H^B1 X^B2 |0>."""
    for seed in range(20):
        res = p4.run_protocol4(TOY_MICRO, seed=seed, backend="two_branch")
        if res.out.accepted == p4.NO_PREIMAGE:
            continue
        want = QubitDescription.bb84(res.out.B1, res.out.B2)
        assert fidelity(res.out.qubit(), want) >= 1 - 1e-9


# ---------------------------------------------------------------------------
# honest server without the truth table


def _table_two_branch(key_msg, seed):
    """The two-branch server as it read the partner preimage off f_bit_table."""
    pk = key_msg.pk
    params = pk.params
    rng = np.random.default_rng(derive_seed(seed, "server"))
    table = lwe.f_bit_table(pk)
    x = lwe.sample_domain_element(params, rng)
    packed_y = int(table[lwe.encode_int(params, x)])
    branches = [int(v) for v in np.flatnonzero(table == packed_y)]
    theta = p4.meas_theta(key_msg.variant)
    nbits = params.total_bits
    if len(branches) == 2:
        xi, xpi = branches
        if (xi >> (nbits - 1)) & 1:
            xi, xpi = xpi, xi
        b = sample_b(xi, xpi, nbits, theta, rng)
        held = analytic_stage2(xi, xpi, nbits, b, theta)
        b = lwe.unpack_bits(params, b)
    else:
        xb = lwe.unpack_bits(params, branches[0])
        b = bytes(rng.integers(0, 2, size=nbits).tolist())
        held = QubitDescription.computational(xb[-2])
    return tuple(int(v) for v in lwe.unpack_image(params, packed_y)), b, held


@pytest.mark.parametrize("params", [TOY_MICRO, TOY_GADGET, TOY_REG, TOY_WIDE])
def test_two_branch_server_matches_table_lookup(params):
    for variant in (p4.PLAIN, p4.ROTATED):
        for seed in range(6):
            _, key_msg = p4.client_init(params, variant, seed=derive_seed(seed, "key"))
            reply = p4.server_honest(key_msg, "two_branch", seed)
            y, b, held = _table_two_branch(key_msg, seed)
            assert (reply.y, reply.b) == (y, b)
            assert np.array_equal(reply.held.vec, held.vec)


def test_servers_run_without_the_truth_table(monkeypatch):
    def no_table(pk):
        raise AssertionError("f_bit_table called")

    monkeypatch.setattr(lwe, "f_bit_table", no_table)
    for seed in range(3):
        res8 = p8.run_protocol8(TOY_WIDE, seed, backend="two_branch")
        assert fidelity(res8.run1.held, res8.run1.out.qubit()) >= 1 - 1e-9
        res4 = p4.run_protocol4(TOY_WIDE, seed, backend="statevector")
        assert fidelity(res4.held, res4.out.qubit()) >= 1 - 1e-9


def _full_width_statevector(key_msg, seed):
    """The literal circuit with every qubit live throughout: register, image
    and target in one (nbits + ybits + 1)-qubit state from the start."""
    pk = key_msg.pk
    params = pk.params
    rng = np.random.default_rng(derive_seed(seed, "server"))
    nbits, ybits = params.total_bits, params.m * params.ell_q
    sv = StateVector(nbits + ybits + 1)
    for qb in range(nbits):
        sv.h(qb)
    image = list(range(nbits, nbits + ybits))
    sv.apply_function_unitary(lwe.f_bit_table(pk), controls=list(range(nbits)), targets=image)
    ybits_out, _ = sv.measure(image, rng)
    sv.apply_function_unitary([0, 1], controls=[nbits - 2], targets=[nbits + ybits])
    theta = p4.meas_theta(key_msg.variant)
    for qb in range(nbits):  # the XY readout as single gates, R(-theta) then H
        sv.r(-theta, qb).h(qb)
    b, _ = sv.measure(range(nbits), rng)
    y = lwe.unpack_image(params, lwe.pack_bits(ybits_out))
    return y, b, QubitDescription(sv.qubit_state(nbits + ybits))


@pytest.mark.parametrize("variant", [p4.PLAIN, p4.ROTATED])
def test_live_width_circuit_matches_the_full_width_build(variant):
    for seed in range(50):
        _, key_msg = p4.client_init(TOY_MICRO, variant, seed=seed)
        reply = p4.server_honest(key_msg, "statevector", seed)
        y, b, held = _full_width_statevector(key_msg, seed)
        assert (reply.y, reply.b) == (y, b)
        assert np.allclose(reply.held.vec, held.vec, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "name, route",
    [("toy-micro", "literal"), ("toy", "projection"), ("toy-reg", "projection"),
     ("toy-wide", "projection"), ("paper", None)],
)
def test_statevector_route_per_preset(monkeypatch, name, route):
    # only the literal circuit builds the truth table; only the projection
    # route draws the image classically
    taken = []
    table, measured = lwe.f_bit_table, p4._measured_image
    monkeypatch.setattr(lwe, "f_bit_table", lambda pk: taken.append("literal") or table(pk))
    monkeypatch.setattr(
        p4, "_measured_image", lambda pk, rng: taken.append("projection") or measured(pk, rng)
    )
    _, key_msg = p4.client_init(params_by_name(name), p4.PLAIN, seed=0)
    if route is None:
        with pytest.raises(ValueError, match="statevector"):
            p4.server_honest(key_msg, "statevector", 0)
    else:
        p4.server_honest(key_msg, "statevector", 0)
    assert taken == ([route] if route else [])
