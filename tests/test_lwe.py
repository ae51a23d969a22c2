"""Function-family tests, built around exhaustive enumeration oracles."""

import base64
import itertools
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfactory import lwe, serde
from qfactory.params import (
    TOY_GADGET,
    TOY_REG,
    TOY_MICRO,
    TOY_WIDE,
    ParamSet,
    paper_params,
    toy_params,
)

_TOY_N2 = toy_params(n=2, q=8, m=5, mu=1)  # two s coordinates, an injective toy key


def _rng(seed):
    return np.random.default_rng(seed)


def _add_z(params, a, b):
    """The group operation on g-inputs (s mod-q add, e integer add, d xor), or
    None when the noise sum leaves `e_range`, so that the sum is no g-input."""
    lo, hi = lwe.e_range(params)
    e = tuple(x + y for x, y in zip(a.e, b.e))
    s = tuple((x + y) % params.q for x, y in zip(a.s, b.s))
    return lwe.DomainElement(s, e, a.d ^ b.d, None) if all(lo <= x <= hi for x in e) else None


# ---------------------------------------------------------------------------
# parameters


def test_paper_params_n4():
    p = paper_params(4)
    assert p.q == 2**31
    assert p.m == 132
    assert p.mu == 6067
    assert p.mu_prime == 6067 // 132


def test_param_invariants_rejected():
    with pytest.raises(ValueError):
        ParamSet(n=1, q=12, m=2, mu=1, mu_prime=0, profile="toy")  # not a power of two
    with pytest.raises(ValueError):
        ParamSet(n=1, q=8, m=2, mu=2, mu_prime=0, profile="toy")  # 2mu >= q/2
    with pytest.raises(ValueError):
        ParamSet(n=1, q=8, m=2, mu=1, mu_prime=1, profile="toy")  # mu' not < mu
    with pytest.raises(ValueError):
        ParamSet(n=2, q=256, m=12, mu=1, mu_prime=0, profile="toy")  # register too wide


def test_ell_fields():
    assert TOY_MICRO.ell_q == 3
    assert TOY_MICRO.ell_e == 1
    assert TOY_MICRO.total_bits == 7
    assert TOY_REG.ell_e == 2
    assert TOY_REG.total_bits == 13


# ---------------------------------------------------------------------------
# gen


def test_gen_y0_definition_toy():
    pk, td = lwe.gen(TOY_MICRO, seed=7)
    v = np.zeros(2, dtype=np.int64)
    v[0] = 4
    expect = (pk.K @ np.array(td.z0.s) + np.array(td.z0.e) + td.d0 * v) % 8
    assert np.array_equal(pk.y0, expect)


def test_gen_deterministic():
    a = lwe.gen(TOY_GADGET, seed=123)
    b = lwe.gen(TOY_GADGET, seed=123)
    assert np.array_equal(a[0].K, b[0].K)
    assert np.array_equal(a[0].y0, b[0].y0)
    assert a[1].z0 == b[1].z0
    assert np.array_equal(a[1].gadget.R, b[1].gadget.R)


def test_gen_distinct_seeds_differ():
    pks = [lwe.gen(TOY_GADGET, seed=s)[0] for s in range(8)]
    y0s = {tuple(int(v) for v in pk.y0) for pk in pks}
    assert len(y0s) > 1


def test_gen_gadget_embedded_when_it_fits():
    pk, td = lwe.gen(TOY_GADGET, seed=1)
    assert td.gadget is not None
    pk2, td2 = lwe.gen(TOY_MICRO, seed=1)
    assert td2.gadget is None  # m < n*ell_q: enumeration-scale key


# ---------------------------------------------------------------------------
# g_bar / g / f / h


def test_gbar_zero():
    pk, _ = lwe.gen(TOY_MICRO, seed=3)
    out = lwe.g_bar(TOY_MICRO, pk.K, [0], [0, 0])
    assert np.array_equal(out, np.zeros(2))


def test_gbar_worked_example():
    params = TOY_MICRO
    K = np.array([[1], [2]], dtype=np.int64)
    out = lwe.g_bar(params, K, [3], [1, -1])
    assert tuple(out) == (4, 5)


def test_gbar_matches_naive_oracle():
    params = TOY_REG
    pk, _ = lwe.gen(params, seed=11)
    rng = _rng(0)
    for _ in range(50):
        s = [int(rng.integers(0, params.q)) for _ in range(params.n)]
        e = [int(rng.integers(-params.mu, params.mu + 1)) for _ in range(params.m)]
        naive = [
            (sum(int(pk.K[i, j]) * s[j] for j in range(params.n)) + e[i]) % params.q
            for i in range(params.m)
        ]
        assert list(lwe.g_bar(params, pk.K, s, e)) == naive


def test_g_shift():
    params = TOY_MICRO
    K = np.array([[1], [2]], dtype=np.int64)
    assert tuple(lwe.g(params, K, [3], [1, -1], 0)) == (4, 5)
    assert tuple(lwe.g(params, K, [3], [1, -1], 1)) == (0, 5)


# the five presets the shifted-noise rule is pinned on
_RULE_PRESETS = [TOY_MICRO, TOY_GADGET, TOY_REG, TOY_WIDE, paper_params(2)]
_RULE_IDS = ["micro", "gadget", "reg", "wide", "paper2"]


# Two noise vectors drawn over the whole range rarely sum into it at paper
# size ((3/4)^56 for paper_params(2)), so the paper preset is covered by the
# planted-shift test below instead.
@pytest.mark.parametrize("params", _RULE_PRESETS[:4], ids=_RULE_IDS[:4])
def test_g_homomorphy_spot(params):
    pk, _ = lwe.gen(params, seed=5)
    rng = _rng(2)
    hits = 0
    for _ in range(200):
        z1 = lwe.sample_domain_element(params, rng)
        z2 = lwe.sample_domain_element(params, rng)
        zsum = _add_z(params, z1, z2)
        if zsum is None:
            continue
        hits += 1
        lhs = (
            lwe.g(params, pk.K, z1.s, z1.e, z1.d) + lwe.g(params, pk.K, z2.s, z2.e, z2.d)
        ) % params.q
        assert np.array_equal(lhs, lwe.g(params, pk.K, zsum.s, zsum.e, zsum.d))
    assert hits > 0


@pytest.mark.parametrize("params", _RULE_PRESETS, ids=_RULE_IDS)
def test_g_homomorphy_on_the_planted_shift(params):
    """z + z0 is a valid input exactly when `shift_in_box` holds, and then
    g(z) + g(z0) = g(z + z0)."""
    hits = 0
    for t in range(120):
        pk, td = lwe.gen(params, seed=1000 + t)
        z = lwe.sample_domain_element(params, _rng(t))
        zsum = _add_z(params, z, td.z0)
        assert lwe.shift_in_box(params, z.e, td.z0.e) == (zsum is not None)
        if zsum is not None:
            hits += 1
            lhs = (lwe.g(params, pk.K, z.s, z.e, z.d) + pk.y0) % params.q
            assert np.array_equal(lhs, lwe.g(params, pk.K, zsum.s, zsum.e, zsum.d))
    assert hits > 0


@pytest.mark.parametrize("params", _RULE_PRESETS, ids=_RULE_IDS)
def test_shift_in_box_is_the_two_preimage_rule(params):
    """An input's image has two preimages exactly when its noise shifted by
    -e0 (c = 0) or +e0 (c = 1) stays in the box, on fresh keys and inputs."""
    two = 0
    for t in range(120):
        pk, td = lwe.gen(params, seed=2000 + t)
        x = lwe.sample_domain_element(params, _rng(t))
        shift = [(2 * x.c - 1) * v for v in td.z0.e]
        want = len(lwe.invert(td, pk, lwe.f(pk, x))) == 2
        assert lwe.shift_in_box(params, x.e, shift) == want
        two += want
    assert two > 0


def test_shift_in_box_is_vectorized_over_leading_axes():
    params = TOY_REG  # e in [-2, 1]
    e = np.array([[[1, 0, -2], [0, 0, 0]]])
    shift = np.array([[[1, 0, 0], [1, 1, -1]]])
    assert lwe.shift_in_box(params, e, shift).tolist() == [[False, True]]


def test_f_c0_equals_g():
    pk, _ = lwe.gen(TOY_MICRO, seed=9)
    x = lwe.DomainElement((5,), (0, -1), 1, 0)
    assert np.array_equal(lwe.f(pk, x), lwe.g(TOY_MICRO, pk.K, x.s, x.e, x.d))


def test_h_reads_d():
    assert lwe.h(lwe.DomainElement((0,), (0, 0), 0, 0)) == 0
    assert lwe.h(lwe.DomainElement((0,), (0, 0), 1, 1)) == 1


# ---------------------------------------------------------------------------
# exhaustive collision structure


@pytest.mark.parametrize("seed", range(5))
def test_exhaustive_at_most_two_preimages(seed):
    pk, _ = lwe.gen(TOY_MICRO, seed=seed)
    table = lwe.exhaustive_image_map(pk)
    assert max(len(v) for v in table.values()) <= 2


@pytest.mark.parametrize("params", [TOY_MICRO, TOY_REG], ids=["spec", "reg"])
def test_collision_structure_and_hardcore_identity(params):
    """Two-preimage pairs differ in c, are shifted by z0, and xor-h to d0."""
    pk, td = lwe.gen(params, seed=17)
    table = lwe.exhaustive_image_map(pk)
    z0 = td.z0
    pairs = 0
    for y, pre in table.items():
        if len(pre) != 2:
            continue
        pairs += 1
        a, b = pre
        by_c = {el.c: el for el in pre}
        assert set(by_c) == {0, 1}
        assert lwe.h(a) ^ lwe.h(b) == td.d0
        # the c=0 element is the c=1 element shifted by z0
        shifted = _add_z(params, replace(by_c[1], c=None), z0)
        assert shifted == replace(by_c[0], c=None)
    assert pairs > 0


def test_g_injective_exhaustive():
    for params, seed in ((TOY_REG, 23), (_TOY_N2, 0)):
        pk, _ = lwe.gen(params, seed=seed)
        seen = set()
        for z in lwe.iter_domain(params):
            if z.c:  # g does not read c
                continue
            img = tuple(int(v) for v in lwe.g(params, pk.K, z.s, z.e, z.d))
            assert img not in seen
            seen.add(img)


def _two_pass_wide_injective(params, K):
    """The injectivity test as one loop pass per d-shift over every ds: the
    reference for the cached row masks of `lwe._injective`."""
    q = params.q
    D = 2 * (params.noise_box + params.mu_prime) - 1
    if D >= q // 2:
        return False
    ds = lwe._s_grid(q, params.n)[:, 1:]  # drop ds = 0
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


@pytest.mark.parametrize(
    "params", [TOY_MICRO, TOY_REG, TOY_WIDE, _TOY_N2], ids=["micro", "reg", "wide", "n2"]
)
def test_wide_injective_matches_the_two_pass_loop(params):
    Ks = _rng(41).integers(0, params.q, size=(2000, params.m, params.n))
    want = [_two_pass_wide_injective(params, K) for K in Ks]
    assert [lwe._injective(params, K) for K in Ks.tolist()] == want
    assert 0 < sum(want) < len(want)  # both verdicts occur


@pytest.mark.parametrize(
    "K, injective",
    [
        ([[1], [1]], False),  # ds = 1 gives K ds = (1, 1): a collision at d = 0 only
        ([[3], [1]], False),  # ds = 1 gives (3 + q/2, 1) = (-1, 1): at d = 1 only
        ([[2], [1]], True),
    ],
)
def test_wide_injective_on_hand_built_collisions(K, injective):
    assert _two_pass_wide_injective(TOY_MICRO, np.array(K)) is injective
    assert lwe._injective(TOY_MICRO, K) is injective


@pytest.mark.parametrize("params", [TOY_MICRO, TOY_REG, TOY_WIDE], ids=["micro", "reg", "wide"])
def test_gen_keeps_the_first_injective_candidate_of_its_batch(params):
    for seed in range(10):
        pk, _ = lwe.gen(params, seed)
        rng = _rng(seed)  # re-draw gen's candidates, 16 per batch
        while True:
            Ks = rng.integers(0, params.q, size=(16, params.m, params.n))
            verdicts = [_two_pass_wide_injective(params, K) for K in Ks]
            if any(verdicts):
                break
        assert np.array_equal(pk.K, Ks[verdicts.index(True)])
        assert pk.K.base is None  # a copy, which does not keep its batch alive


# ---------------------------------------------------------------------------
# invert


@pytest.mark.parametrize("params", [TOY_GADGET, TOY_WIDE, TOY_MICRO], ids=["gadget8", "gadget16", "enum"])
def test_invert_round_trip_random(params):
    pk, td = lwe.gen(params, seed=31)
    rng = _rng(4)
    for _ in range(100):
        x = lwe.sample_domain_element(params, rng)
        pre = lwe.invert(td, pk, lwe.f(pk, x))
        assert x in pre


@pytest.mark.parametrize("params", [TOY_GADGET, TOY_MICRO], ids=["gadget", "enum"])
def test_invert_matches_exhaustive_on_uniform_y(params):
    pk, td = lwe.gen(params, seed=37)
    table = lwe.exhaustive_image_map(pk)  # built once, not once per y
    if params is TOY_GADGET:
        # every y in Z_q^m (8^5 of them): each sector's own gadget decode is
        # the only candidate it tries
        ys = itertools.product(range(params.q), repeat=params.m)
    else:
        rng = _rng(5)
        ys = (tuple(rng.integers(0, params.q, size=params.m).tolist()) for _ in range(60))
    for y in ys:
        got = lwe.invert(td, pk, y)
        assert got == tuple(table.get(y, ()))
        assert len(got) in (0, 1, 2)


@pytest.mark.parametrize("y", [(14, 2), (6, -6), (-2, 2), (6, 10)], ids=["+q", "-q", "neg", "+q2"])
def test_invert_and_exhaustive_reject_an_image_outside_zq(y):
    pk, td = lwe.gen(TOY_MICRO, seed=3)
    assert lwe.invert(td, pk, (6, 2)) == tuple(lwe.exhaustive_image_map(pk).get((6, 2), ()))
    with pytest.raises(ValueError, match=r"\[0, q\)"):
        lwe.invert(td, pk, y)


def test_invert_y0_recovers_plant():
    pk, td = lwe.gen(TOY_GADGET, seed=41)
    pre = lwe.invert(td, pk, pk.y0)
    c0 = [el for el in pre if el.c == 0]
    assert len(c0) == 1
    assert replace(c0[0], c=None) == td.z0


def test_invert_deterministic():
    pk, td = lwe.gen(TOY_GADGET, seed=43)
    y = np.array([3, 1, 4, 1, 5]) % 8
    assert lwe.invert(td, pk, y) == lwe.invert(td, pk, y)


def test_paper_profile_round_trip():
    params = paper_params(2)
    pk, td = lwe.gen(params, seed=47)
    assert td.gadget is not None
    rng = _rng(6)
    for _ in range(5):
        x = lwe.sample_domain_element(params, rng)
        pre = lwe.invert(td, pk, lwe.f(pk, x))
        assert x in pre
        assert len(pre) <= 2


def test_paper_profile_big_modulus_round_trip():
    # n=4 gives q = 2^31, so K s wraps around in int64 and must stay exact mod q
    params = paper_params(4)
    pk, td = lwe.gen(params, seed=53)
    assert pk.K.dtype == np.int64 and pk.K.min() >= 0 and pk.K.max() < params.q
    rng = _rng(7)
    x = lwe.sample_domain_element(params, rng)
    assert x in lwe.invert(td, pk, lwe.f(pk, x))


# the largest modulus of the int64 envelope; products reach 2^124 before % q
Q62 = ParamSet(n=4, q=1 << 62, m=8, mu=1 << 20, mu_prime=1 << 16, profile="paper")


def _reference_f(K, y0, q, elem):
    """f over Python ints, the exact value int64 wraparound must reproduce."""
    out = []
    for i, row in enumerate(K.tolist()):
        v = sum(k * s for k, s in zip(row, elem.s)) + elem.e[i]
        v += (q // 2) * elem.d * (i == 0) + elem.c * int(y0[i])
        out.append(v % q)
    return out


def test_g_bar_and_f_exact_at_the_int64_envelope():
    rng = _rng(61)
    q = Q62.q
    K = rng.integers(0, q, size=(Q62.m, Q62.n))
    y0 = rng.integers(0, q, size=Q62.m)
    pk = lwe.PublicKey(K=K, y0=y0, params=Q62)
    assert max(K.ravel().tolist()) ** 2 > 1 << 120
    for _ in range(2000):
        x = lwe.sample_domain_element(Q62, rng)
        want = _reference_f(K, y0, q, x)
        assert lwe.f(pk, x).tolist() == want
        g_want = _reference_f(K, y0, q, lwe.DomainElement(x.s, x.e, 0, 0))
        assert lwe.g_bar(Q62, K, x.s, x.e).tolist() == g_want


def test_gadget_round_trip_at_the_int64_envelope():
    params = ParamSet(n=1, q=1 << 62, m=70, mu=1 << 10, mu_prime=1 << 3, profile="paper")
    pk, td = lwe.gen(params, seed=62)
    assert td.gadget is not None
    rng = _rng(62)
    for _ in range(5):
        x = lwe.sample_domain_element(params, rng)
        assert x in lwe.invert(td, pk, lwe.f(pk, x))


def test_param_set_rejects_moduli_above_the_int64_envelope():
    assert paper_params(256).q == 1 << 61
    with pytest.raises(ValueError):
        ParamSet(n=1, q=1 << 63, m=2, mu=1, mu_prime=0, profile="paper")
    with pytest.raises(ValueError):
        paper_params(257)  # q = 2^66


# ---------------------------------------------------------------------------
# register preimage search (the truth-table lookup without the table)


def _pattern_element(params, p):
    """The domain element register pattern p stores, its noise read over the
    whole box [-B, B-1], |e| > mu included: the inverse of encode_int."""
    fields = []
    for width in [params.ell_q] * params.n + [params.ell_e] * params.m:
        fields.append(p & ((1 << width) - 1))
        p >>= width
    e = tuple(v - params.noise_box for v in fields[params.n :])
    return lwe.DomainElement(tuple(fields[: params.n]), e, p & 1, p >> 1)


@pytest.mark.parametrize(
    "params",
    [TOY_MICRO, toy_params(n=1, q=16, m=2, mu=3), toy_params(n=2, q=8, m=3, mu=1), _TOY_N2],
    ids=["micro", "wide-box", "n2", "n2-m5"],
)
def test_f_bit_table_is_f_on_every_register_pattern(params):
    rng = _rng(23)
    for _ in range(2):
        K = rng.integers(0, params.q, size=(params.m, params.n))
        pk = lwe.PublicKey(K=K, y0=rng.integers(0, params.q, size=params.m), params=params)
        table = lwe.f_bit_table(pk)
        assert table.shape == (1 << params.total_bits,)
        for p, v in enumerate(table.tolist()):
            assert v == lwe.pack_image(params, lwe.f(pk, _pattern_element(params, p)))


@pytest.mark.parametrize(
    "params, seeds",
    [
        (TOY_MICRO, (1, 2, 3)),
        (TOY_GADGET, (1, 2, 3)),
        (TOY_REG, (1, 2)),
        (TOY_WIDE, (1, 2)),
        (_TOY_N2, (1, 2)),
    ],
    ids=["micro", "gadget", "reg", "wide", "n2"],
)
def test_register_preimages_match_truth_table(params, seeds):
    for seed in seeds:
        pk, _ = lwe.gen(params, seed=seed)
        table = lwe.f_bit_table(pk)
        for v in np.unique(table):
            want = np.flatnonzero(table == v).tolist()
            assert lwe.register_preimages(pk, int(v)) == want


@pytest.mark.parametrize(
    "params", [TOY_MICRO, TOY_GADGET, TOY_REG, TOY_WIDE], ids=["micro", "gadget", "reg", "wide"]
)
def test_client_and_server_agree_on_preimages_and_order(params):
    # the client's invert and the server's register search apply one rule
    pk, td = lwe.gen(params, seed=7)
    for v in np.unique(lwe.f_bit_table(pk)).tolist():
        got = [lwe.encode_int(params, el) for el in lwe.invert(td, pk, lwe.unpack_image(params, v))]
        assert got == lwe.register_preimages(pk, v)


def test_register_preimages_cover_the_whole_noise_box():
    # mu = 3 sits inside the box [-4, 3], so the register holds noise values
    # outside |e| <= mu; the truth table counts them, and so must the search
    params = toy_params(n=1, q=16, m=2, mu=3, mu_prime=0)
    assert lwe.e_range(params) == (-3, 3) and params.noise_box == 4
    rng = _rng(5)
    for _ in range(3):
        K = rng.integers(0, params.q, size=(params.m, params.n))
        pk = lwe.PublicKey(K=K, y0=rng.integers(0, params.q, size=params.m), params=params)
        table = lwe.f_bit_table(pk)
        for v in np.unique(table):
            assert lwe.register_preimages(pk, int(v)) == np.flatnonzero(table == v).tolist()


def test_register_preimages_outside_table_is_empty():
    pk, _ = lwe.gen(TOY_REG, seed=4)
    table = lwe.f_bit_table(pk)
    ybits = TOY_REG.m * TOY_REG.ell_q
    missing = sorted(set(range(1 << ybits)) - set(table.tolist()))
    assert missing
    for v in missing[:: max(1, len(missing) // 200)]:
        assert lwe.register_preimages(pk, v) == []
    present = int(table[0])
    assert lwe.register_preimages(pk, present | 1 << ybits) == []  # bits past the image
    assert lwe.register_preimages(pk, -1) == []


def test_register_envelope_rejects_paper_keys():
    params = paper_params(4)
    pk = lwe.PublicKey(
        K=np.zeros((params.m, params.n), dtype=object),
        y0=np.zeros(params.m, dtype=object),
        params=params,
    )
    for build in (lwe.f_bit_table, lambda key: lwe.register_preimages(key, 0)):
        with pytest.raises(ValueError, match="envelope"):
            build(pk)


# ---------------------------------------------------------------------------
# encoding


def test_encode_zero_element_offset_bias():
    params = TOY_MICRO
    x = lwe.DomainElement((0,), (0, 0), 0, 0)
    bits = lwe.encode(params, x)
    # s bits zero; each e field stores value + box, so e=0 encodes as 1
    assert bits == bytes((0, 0, 0, 1, 1, 0, 0))


def test_encode_last_bit_is_c():
    params = TOY_MICRO
    x = lwe.DomainElement((0,), (0, 0), 0, 1)
    assert lwe.encode(params, x)[-1] == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**10 - 1))
def test_encode_decode_identity(packed):
    params = TOY_REG
    assert lwe.encode_int(params, _pattern_element(params, packed)) == packed


def test_encode_decode_random_elements():
    rng = _rng(8)
    for params, samples in ((TOY_WIDE, 1000), (paper_params(4), 20), (paper_params(16), 5)):
        for _ in range(samples):
            x = lwe.sample_domain_element(params, rng)
            assert _pattern_element(params, lwe.pack_bits(lwe.encode(params, x))) == x


# each case replaces fields of a valid element; on TOY_MICRO (q = 8, box 1) s-9-d-2
# would encode, masked, as s = 1, d = 0
_UNENCODABLE = {
    "s-9-d-2": lambda p: {"s": (p.q + 1,), "d": 2},
    "s-q": lambda p: {"s": (p.q,)},
    "s-minus-1": lambda p: {"s": (-1,)},
    "c-2": lambda p: {"c": 2},
    "d-minus-1": lambda p: {"d": -1},
    "s-2-64": lambda p: {"s": (1 << 64,)},  # outside int64
    "e-box": lambda p: {"e": (p.noise_box,)},
    "e-below-box": lambda p: {"e": (-p.noise_box - 1,)},
    "e-2-64": lambda p: {"e": (-(1 << 64),)},
}


@pytest.mark.parametrize("case", list(_UNENCODABLE), ids=list(_UNENCODABLE))
def test_encode_int_rejects_instead_of_masking(case):
    # a register on each side of the width where encode_int changes method
    for params in (TOY_MICRO, paper_params(16)):
        assert (params.total_bits > lwe._FIELDWISE_ENCODE_BITS) == (params is not TOY_MICRO)
        x = lwe.sample_domain_element(params, _rng(12))
        fields = _UNENCODABLE[case](params)
        # the replaced s or e entry goes last, after entries that encode
        for name in ("s", "e"):
            if name in fields:
                fields[name] = getattr(x, name)[1:] + fields[name]
        with pytest.raises(ValueError):
            lwe.encode_int(params, replace(x, **fields))


@pytest.mark.parametrize("params", [TOY_REG, paper_params(2)], ids=["reg", "paper2"])
def test_pack_bits_inverts_unpack_bits(params):
    n = params.total_bits
    rng = _rng(11)
    for value in [0, 1, (1 << n) - 1, *(int(v) for v in rng.integers(0, 1 << min(n, 62), size=5))]:
        bits = lwe.unpack_bits(params, value)
        assert len(bits) == n and lwe.pack_bits(bits) == value


def test_pack_bits_of_the_empty_string_is_zero():
    assert lwe.pack_bits(()) == 0


def test_the_bit_rule_and_the_record_reader_return_bytes_of_0_1_values():
    for bits in (lwe.check_bits((0, 1, 1), 3), serde.record_bits("011", 3)):
        assert type(bits) is bytes and bits == b"\x00\x01\x01"
    # an array is read by value: its raw memory would be 16 bytes here
    assert lwe.check_bits(np.array([0, 1], dtype=np.int64), 2) == b"\x00\x01"
    assert lwe.check_bits([True, False], 2) == b"\x01\x00"
    assert lwe.check_bits(b"\x01\x00", 2) == b"\x01\x00"
    for bad in ((0, 2), b"\x00\x02", np.array([0, 2])):
        with pytest.raises(ValueError):
            lwe.check_bits(bad, 2)


# ---------------------------------------------------------------------------
# estimators


def test_regularity_injective_key_is_zero():
    # y0 planted outside the reachable difference set makes f injective
    params = TOY_REG
    pk0, _ = lwe.gen(params, seed=59)
    y0 = np.array([0, 0, 4], dtype=np.int64)  # unreachable for this key
    pk = lwe.PublicKey(K=pk0.K, y0=y0, params=params)
    table = lwe.exhaustive_image_map(pk)
    assert max(len(v) for v in table.values()) == 1
    td = lwe.Trapdoor(gadget=None, z0=lwe.DomainElement((0,), (0, 0, 0), 0, None))
    est = lwe.two_preimage_fraction(pk, td, trials=200, seed=59)
    assert est.value == 0.0


def test_regularity_estimate_above_half():
    est = lwe.regularity_estimate(TOY_REG, trials=400, seed=61)
    assert est.value > 0.5
    # the box overlap gives delta = eta = (5/6)^3 for these dimensions
    assert est.interval[0] <= (5 / 6) ** 3 <= est.interval[1]


def test_regularity_trivial_when_mu_prime_zero():
    params = toy_params(n=1, q=16, m=2, mu=1, mu_prime=0)
    est = lwe.regularity_estimate(params, trials=60, seed=62)
    assert est.value == 1.0


def test_homomorphy_trivial_when_mu_prime_zero():
    est = lwe.homomorphy_estimate(TOY_MICRO, trials=50, seed=67)
    assert est.value == 1.0


def test_homomorphy_matches_analytic():
    est = lwe.homomorphy_estimate(TOY_WIDE, trials=2000, seed=71)
    analytic = lwe.analytic_homomorphy(TOY_WIDE)
    assert analytic == pytest.approx((5 / 6) ** 3)
    assert est.interval[0] <= analytic <= est.interval[1]


@pytest.mark.parametrize("params", [TOY_REG, TOY_WIDE], ids=["enum", "gadget"])
def test_delta_at_least_eta_minus_3sigma(params):
    trials = 1500
    delta = lwe.regularity_estimate(params, trials, seed=73)
    eta = lwe.homomorphy_estimate(params, trials, seed=79)
    sigma = np.hypot(
        (delta.interval[1] - delta.interval[0]) / 6,
        (eta.interval[1] - eta.interval[0]) / 6,
    )
    assert delta.value >= eta.value - 3 * sigma


# ---------------------------------------------------------------------------
# hardcore game


def test_hardcore_random_adversary_no_advantage():
    res = lwe.hardcore_game(lwe.adv_random, TOY_MICRO, trials=800, seed=83)
    sigma = 0.5 / np.sqrt(res.trials)
    assert abs(res.advantage) <= 3 * sigma


def test_hardcore_trapdoor_adversary_wins():
    res = lwe.hardcore_game(lwe.adv_trapdoor, TOY_GADGET, trials=60, seed=89)
    assert res.p_correct == 1.0


def test_estimators_reject_zero_trials():
    pk, td = lwe.gen(TOY_MICRO, seed=3)
    for call in (
        lambda: lwe.regularity_estimate(TOY_MICRO, 0, 1),
        lambda: lwe.two_preimage_fraction(pk, td, 0, 1),
        lambda: lwe.homomorphy_estimate(TOY_MICRO, 0, 1),
        lambda: lwe.hardcore_game(lwe.adv_random, TOY_MICRO, 0, 1),
    ):
        with pytest.raises(ValueError, match="trials"):
            call()


def test_estimators_keep_their_values():
    """Success counts of the estimators, pinned since toy keys are drawn and
    checked 16 at a time."""
    assert lwe.regularity_estimate(TOY_REG, 400, 61).successes == 232
    assert lwe.homomorphy_estimate(TOY_WIDE, 2000, 71).successes == 1149
    assert lwe.homomorphy_estimate(TOY_REG, 1500, 79).successes == 844
    assert lwe.two_preimage_fraction(*lwe.gen(TOY_REG, 59), 200, 59).successes == 146
    assert lwe.hardcore_game(lwe.adv_random, TOY_MICRO, 800, 83).p_correct == 0.54625
    assert lwe.hardcore_game(lwe.adv_trapdoor, TOY_GADGET, 60, 89).p_correct == 1.0


def test_hardcore_bruteforce_breaks_toy_scale():
    # documents that toy parameters are insecure by construction
    res = lwe.hardcore_game(lwe.adv_bruteforce, TOY_MICRO, trials=40, seed=97)
    assert res.p_correct == 1.0


# ---------------------------------------------------------------------------
# serialization


def test_keypair_json_round_trip():
    pk, td = lwe.gen(TOY_GADGET, seed=101)
    text = serde.keypair_to_json(pk, td)
    obj = json.loads(text)
    pk2 = serde.key_from_obj(obj["key"])
    td2 = serde.trapdoor_from_obj(obj["trapdoor"], pk2.params)
    assert np.array_equal(pk.K, pk2.K)
    assert np.array_equal(pk.y0, pk2.y0)
    assert pk.params == pk2.params
    assert td.z0 == td2.z0
    assert np.array_equal(td.gadget.R, td2.gadget.R)
    y = lwe.f(pk, lwe.DomainElement((3,), (0, -1, 0, -1, 0), 1, 1))
    assert lwe.invert(td2, pk2, y) == lwe.invert(td, pk, y)


def test_paper_profile_serde_uses_strings():
    # K travels as one base64 string of its little-endian int64 entries, not as
    # JSON numbers, which lose entries above 2^53 in some parsers
    params = paper_params(4)
    pk, td = lwe.gen(params, seed=103)
    obj = json.loads(json.dumps(serde.key_to_obj(pk)))
    K = np.frombuffer(base64.b64decode(obj["k"]["K"], validate=True), "<i8")
    assert np.array_equal(K.reshape(params.m, params.n), pk.K)
    assert obj["k"]["params"]["q"] == str(params.q)
    pk2 = serde.key_from_obj(obj)
    assert np.array_equal(pk.K, pk2.K)
